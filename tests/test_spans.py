"""The benchmark's traced run wraps the program's layer functions by name
(perfbench/spans.py, Tracer.install).  A renamed or deleted one must fail
here, not only in the traced run, and uninstall must put every original
back."""

import importlib.util
from pathlib import Path

import jointfit as jf


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_restores_it():
    tracer = _spans().Tracer()
    try:
        tracer.install(jf)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original
