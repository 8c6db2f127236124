#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload joint_ev --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (speed-corrected, see calib.py);
--trace 1 runs one traced round and prints the per-layer metrics.  Inputs
are generated from --seed, written as CSV under perfbench/_out/ and loaded
through the program's own reader.  See perfbench/README.md.
"""

import benchenv

benchenv.pin(__file__)

import argparse
import compileall
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import numpy as np

from calib import SpeedClock
import workloads as W

# operations in one round, per workload: fits of distinct seeded datasets,
# single likelihood evaluations, prediction batches
ROUND = {
    "joint_ev": {"fits": 6, "evals": 120, "cif": 6, "rmst": 1},
    "shared_re": {"fits": 6, "evals": 300, "cif": 30, "rmst": 3},
    "predict_cr": {"fits": 8, "evals": 300, "cif": 6, "rmst": 1},
}
TRACE_EVALS = 40


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pad-ms", type=float, default=0.0,
                   help="self-test: nominal ms of extra kernel work in every timed call")
    return p.parse_args()


def write_inputs(workload, seed, out_dir):
    """CSV per dataset (and, for predict_cr, the fit JSON); returns the
    generated columns for the independent checks."""
    out_dir.mkdir(parents=True, exist_ok=True)
    n_sets = ROUND[workload]["fits"]
    cols = []
    for k in range(n_sets):
        c = W.SIMULATORS[workload](W.rng_for(workload, seed, k))
        W.write_csv(out_dir / f"data{k}.csv", c)
        cols.append(c)
    if workload == "predict_cr":
        (out_dir / "fit.json").write_text(W.predict_cr_fit_json())
    return cols


def import_program():
    sys.path.insert(0, str(SRC))
    jf = importlib.import_module("jointfit")
    if Path(jf.__file__).resolve().parent != (SRC / "jointfit").resolve():
        raise SystemExit(f"error: imported jointfit from {jf.__file__}, not from {SRC}")
    return jf


class Bench:
    """One workload's set-up and operations; every operation is timed by
    the speed clock and counted."""

    def __init__(self, workload, out_dir, cols, clock, tracer=None):
        self.workload = workload
        self.out_dir = out_dir
        self.cols = cols
        self.clock = clock
        self.tracer = tracer
        self.times = {k: [] for k in ("setup", "fit", "eval", "cif", "rmst")}
        self.raw = {k: [] for k in self.times}
        self.attempted = 0
        self.failed = 0
        self.fits = {}
        self.fit_times = {}
        self.pred = {}

    def timed(self, kind, fn, *args):
        span = self.tracer.begin(f"op.{kind}") if self.tracer else None
        self.attempted += 1
        try:
            out, raw, cor = self.clock.time(fn, *args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if span is not None:
                self.tracer.finish(span)
        self.times[kind].append(cor)
        self.raw[kind].append(raw)
        return out

    # -- set-up ------------------------------------------------------------

    def setup(self):
        self.timed("setup", self._setup)
        if self.jf is None:
            raise RuntimeError("set-up failed")

    def _setup(self):
        self.jf = None
        span = self.tracer.begin("setup.import") if self.tracer else None
        jf = import_program()
        if span is not None:
            self.tracer.finish(span)
        if self.tracer:
            self.tracer.install(jf)
        if self.workload == "predict_cr":
            from jointfit.prediction import FittedModel
            data = jf.load_table(str(self.out_dir / "data0.csv"))
            fit = jf.fit_from_json((self.out_dir / "fit.json").read_text())
            self.model = FittedModel(fit, data)
            self.engine = self.model.engine
        else:
            data = jf.build_levels(jf.load_table(str(self.out_dir / "data0.csv")), ("id",))
            spec = jf.validate_spec(jf.parse_spec_text(W.SPECS[self.workload]), data)
            self.engine = jf.LikelihoodEngine(jf.Evaluator(spec, data))
        self.jf = jf

    def prepare_fits(self):
        """Load and validate every dataset the fits use (untimed)."""
        jf = self.jf
        self.fit_inputs = []
        for k in range(ROUND[self.workload]["fits"]):
            data = jf.load_table(str(self.out_dir / f"data{k}.csv"))
            if self.workload != "predict_cr":
                data = jf.build_levels(data, ("id",))
            spec = jf.validate_spec(jf.parse_spec_text(W.SPECS[self.workload]), data)
            self.fit_inputs.append((spec, data))

    # -- operations ----------------------------------------------------------

    def fit(self, k):
        spec, data = self.fit_inputs[k]
        jf = self.jf

        def run():
            return jf.maximize(spec, data, jf.FitControls())

        n0 = len(self.times["fit"])
        fit = self.timed("fit", run)
        if fit is not None:
            self.fits.setdefault(k, fit)
            self.fit_times.setdefault(k, []).extend(self.times["fit"][n0:])
        return fit

    def ensure_model(self):
        """Evaluation point and prediction model: the fixed parameters for
        predict_cr, the first dataset's fit otherwise (built untimed)."""
        if hasattr(self, "params"):
            return
        if self.workload == "predict_cr":
            self.params = self.model.params
            return
        from jointfit.prediction import FittedModel
        fit = self.fits.get(0)
        if fit is None:
            raise RuntimeError("the first dataset's fit failed")
        self.params = np.asarray(fit.estimates)
        self.model = FittedModel(fit, self.fit_inputs[0][1])

    def evaluate(self):
        return self.timed("eval", self.engine.total_loglik, self.params)

    def _predict(self, name, statistic, **kw):
        from jointfit.prediction import PredictRequest, predict_stat
        n = len(self.model.ev.subs[kw.get("predmodel", 1) - 1].rv.observed_rows)
        grid = W.PREDICT_CR_GRID
        times = grid[np.arange(n) % len(grid)]
        res = predict_stat(self.model, PredictRequest(statistic=statistic, times=times, **kw))
        self.pred[name] = res
        return res

    def cif_batch(self):
        def run():
            if self.workload == "predict_cr":
                self._predict("cif cause 1, x=0", "cif", predmodel=1, at={"x": 0.0})
                self._predict("cif cause 2, x=1", "cif", predmodel=2, at={"x": 1.0})
                self._predict("cifdifference cause 1, x 0->1", "cifdifference",
                              predmodel=1, contrast=("x", 0.0, 1.0))
            else:
                self._predict("cif", "cif", predmodel=2 if self.workload == "joint_ev" else 1)
        return self.timed("cif", run)

    def rmst_batch(self):
        def run():
            if self.workload == "predict_cr":
                self._predict("rmst, x=1", "rmst", at={"x": 1.0})
            else:
                self._predict("rmst", "rmst", predmodel=2 if self.workload == "joint_ev" else 1)
        return self.timed("rmst", run)

    def round(self, spec):
        """One slot per fit; the evaluations and prediction batches are
        spread evenly over the slots, so that every metric samples the
        whole run rather than one stretch of it."""
        n = spec["fits"]
        share = lambda total, k: total * (k + 1) // n - total * k // n
        for k in range(n):
            self.fit(k)
            self.ensure_model()
            for _ in range(share(spec["evals"], k)):
                self.evaluate()
            for _ in range(share(spec["cif"], k)):
                self.cif_batch()
            for _ in range(share(spec["rmst"], k)):
                self.rmst_batch()

    # -- checks ----------------------------------------------------------------

    def check(self):
        """Independent correctness checks; returns failure messages."""
        import checks
        out = []
        for k, fit in sorted(self.fits.items()):
            if not fit.converged:
                out.append(f"fit of dataset {k} did not converge")
        if self.workload == "predict_cr":
            out += checks.check_predict_cr_loglik(self.cols[0], self.engine.total_loglik(self.params))
            extra = (("cif cause 1, x=1", "cif", 1), ("survival cause 1, x=1", "survival", 1),
                     ("survival cause 2, x=1", "survival", 2))
            for name, stat, m in extra:
                self._predict(name, stat, predmodel=m, at={"x": 1.0})
            out += checks.check_predict_cr(self.pred)
            # each fit must reach at least the likelihood of the true parameters
            for k, fit in sorted(self.fits.items()):
                ref, _ = checks.predict_cr_loglik(self.cols[k])
                if not fit.loglik >= ref - 1e-6:
                    out.append(f"fit of dataset {k}: loglik {fit.loglik} below {ref} at the truth")
            return out
        fit = self.fits[0]
        program_ll = self.engine.total_loglik(np.asarray(fit.estimates))
        out += _same("loglik of the fit vs a fresh evaluation", fit.loglik, program_ll)
        if self.workload == "joint_ev":
            out += checks.check_joint_ev(fit, self.cols[0], program_ll)
        else:
            out += checks.check_shared_re(fit, self.cols[0], program_ll)
        return out


def _same(name, a, b):
    return [] if a == b else [f"{name}: {a!r} != {b!r}"]


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(bench):
    t = bench.times
    return {
        "setup_s": (t["setup"][0], "s"),
        # the datasets' fit costs differ, so each dataset counts once
        "fit_s": (statistics.fmean(median(v) for v in bench.fit_times.values()), "s"),
        "eval_ms": (1e3 * median(t["eval"]), "ms"),
        "cif_s": (median(t["cif"]), "s"),
        "rmst_s": (median(t["rmst"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_untraced(bench, seconds):
    spec = ROUND[bench.workload]
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    # whole rounds only; a round starts only if it is expected to end in time
    while rounds == 0 or time.perf_counter() - start + last <= seconds:
        r0 = time.perf_counter()
        bench.round(spec)
        last = time.perf_counter() - r0
        rounds += 1
    return rounds


def main():
    args = parse_args()
    if not (SRC / "jointfit" / "__init__.py").is_file():
        sys.exit(f"error: the program's sources are not at {SRC / 'jointfit'}")
    out_dir = HERE / "_out" / f"{args.workload}-{args.seed}"
    cols = write_inputs(args.workload, args.seed, out_dir)
    compileall.compile_dir(str(SRC / "jointfit"), quiet=1)
    clock = SpeedClock(pad_s=args.pad_ms / 1e3)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        clock.on_sample = tracer.add_sample
    bench = Bench(args.workload, out_dir, cols, clock, tracer)
    bench.setup()
    bench.prepare_fits()
    if args.trace:
        import layers
        metrics = layers.traced_run(bench, out_dir, TRACE_EVALS)
        rounds = 1
    else:
        rounds = run_untraced(bench, args.seconds)
        metrics = end_to_end(bench)
    t_check = time.perf_counter()
    failures = bench.check()
    t_check = time.perf_counter() - t_check
    for msg in failures:
        print("CHECK FAILED: " + msg, file=sys.stderr)
    raw = {k: median(v) for k, v in bench.raw.items()}
    iters = sum(f.iterations for f in bench.fits.values())
    print(f"{args.workload} seed {args.seed}: {rounds} round(s), {iters} BFGS iterations, raw medians "
          + ", ".join(f"{k} {v:.4g}s" for k, v in raw.items())
          + f", kernel median {1e3 * median(clock.kernel_s):.4f} ms, checks {t_check:.1f}s",
          file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
