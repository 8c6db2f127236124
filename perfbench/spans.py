"""Span tracer for the traced run.

Wraps public functions and methods of the program's modules from outside
(the program is not edited) and records one span per call: name, start,
end and the enclosing span.  Spans stay in compact arrays in memory and are
written out once, at the end of the run.
"""

import array
import time

import numpy as np

class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.samples: list[tuple[float, float]] = []
        self._patches = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def add_sample(self, t0: float, t1: float) -> None:
        """Record a calibration-kernel sample.  It may arrive from a signal
        handler in the middle of begin(), so it goes to its own list and is
        matched to spans by time afterwards."""
        self.samples.append((t0, t1))

    def wrap(self, name: str, fn):
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original))
        self._patches.append((owner, attr, original))

    def install(self, jf) -> None:
        """Wrap the layer boundaries; every namespace that imported a
        function by name gets its own wrapper."""
        from jointfit import basis, data, estimation, evaluator, families, formula, prediction

        for owner in (data, jf):
            self.patch(owner, "load_table", "data.load_table")
            self.patch(owner, "build_levels", "data.build_levels")
        self.patch(prediction, "build_levels", "data.build_levels")
        for owner in (formula, prediction, jf):
            self.patch(owner, "parse_spec_text", "formula.parse_spec_text")
            self.patch(owner, "validate_spec", "formula.validate_spec")
        ev = evaluator.Evaluator
        self.patch(ev, "__init__", "evaluator.build")
        for m in ("eta", "expval", "hazard", "cumhazard", "loglik_matrix"):
            self.patch(ev, m, f"evaluator.{m}")
        self.patch(basis.RcsBasis, "eval", "basis.eval")
        self.patch(basis.FpBasis, "eval", "basis.eval")
        for f in ("mean_value", "mean_d1", "mean_d2", "scalar_loglik",
                  "baseline_cumhazard_factor", "log_hazard_offset"):
            self.patch(families, f, "families")
        eng = estimation.LikelihoodEngine
        self.patch(eng, "__init__", "estimation.engine_build")
        self.patch(eng, "total_loglik", "estimation.total_loglik")
        self.patch(estimation, "transform_nodes", "quadrature.transform_nodes")
        self.patch(estimation, "central_gradient", "estimation.central_gradient")
        self.patch(estimation, "central_hessian", "estimation.central_hessian")
        for owner in (estimation, jf):
            self.patch(owner, "maximize", "estimation.maximize")
        self.patch(prediction, "cif", "prediction.cif")
        self.patch(prediction, "timelost", "prediction.timelost")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def arrays(self) -> dict[str, np.ndarray]:
        k = np.asarray(self.samples, dtype=float).reshape(-1, 2)
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "kernel_start": k[:, 0], "kernel_end": k[:, 1]}

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


class SpanTable:
    """Derived per-span quantities: time without calibration-kernel
    samples, self time, top-level operation and ancestry tests."""

    def __init__(self, names: list[str], arr: dict[str, np.ndarray]):
        self.names = names
        self.name = arr["name"]
        self.parent = arr["parent"]
        n = len(self.name)
        idx = np.arange(n)
        # kernel samples never straddle a span boundary, so the kernel time
        # inside a span is a difference of the cumulative kernel time
        order = np.argsort(arr["kernel_start"])
        k0, k1 = arr["kernel_start"][order], arr["kernel_end"][order]
        cum = np.concatenate([[0.0], np.cumsum(k1 - k0)])
        inside = cum[np.searchsorted(k0, arr["end"])] - cum[np.searchsorted(k0, arr["start"])]
        self.incl = arr["end"] - arr["start"] - inside
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.incl[has_parent], minlength=n)
        self.self_time = self.incl - child
        root = np.where(has_parent, self.parent, idx)
        while True:
            nxt = np.where(self.parent[root] >= 0, self.parent[root], root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, names) -> np.ndarray:
        """Spans whose top-level operation is one of `names`."""
        ops = np.zeros(len(self.name), dtype=bool)
        for nm in names:
            ops |= self.mask(nm)
        return ops[self.root]

    def has_ancestor(self, name: str) -> np.ndarray:
        target = self.mask(name)
        out = np.zeros(len(self.name), dtype=bool)
        anc = self.parent.copy()
        while np.any(anc >= 0):
            ok = anc >= 0
            out |= ok & target[np.maximum(anc, 0)]
            anc = np.where(ok, self.parent[np.maximum(anc, 0)], -1)
        return out
