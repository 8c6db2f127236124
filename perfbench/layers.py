"""The traced run and the per-layer metrics derived from its spans.

One traced round: set-up, one fit (dataset 0), n_evals likelihood
evaluations, one cif batch and one rmst batch.  Counts are totals over the
round and repeat exactly for a given seed.  Times are sums over the round,
without calibration-kernel samples, scaled to nominal kernel speed by the
run's median kernel time.  Set-up metrics cover the set-up operation only;
the other layer metrics cover the fit, eval, cif and rmst operations.
"""

import statistics

from calib import NOMINAL_KERNEL_S
from spans import SpanTable

WORK = ("op.fit", "op.eval", "op.cif", "op.rmst")


def traced_run(bench, out_dir, n_evals):
    tracer, clock = bench.tracer, bench.clock
    bench.fit(0)
    bench.ensure_model()
    for _ in range(n_evals):
        bench.evaluate()
    bench.cif_batch()
    bench.rmst_batch()
    traced = {k: list(v) for k, v in bench.times.items()}
    # the same evaluations untraced, in this process, for the overhead
    tracer.uninstall()
    n0 = len(bench.times["eval"])
    for _ in range(n_evals):
        bench.evaluate()
    untraced_eval = statistics.median(bench.times["eval"][n0:])

    tracer.save(out_dir / "spans.npz")
    tab = SpanTable(tracer.names, tracer.arrays())
    scale = NOMINAL_KERNEL_S / statistics.median(clock.kernel_s)
    setup, fit, work = tab.under(["op.setup"]), tab.under(["op.fit"]), tab.under(WORK)

    def total(name, where, attr="incl"):
        return float(getattr(tab, attr)[tab.mask(name) & where].sum()) * scale

    def count(name, where):
        return int((tab.mask(name) & where).sum())

    evals = tab.mask("estimation.total_loglik")
    in_hess = tab.has_ancestor("estimation.central_hessian")
    chaz = tab.mask("evaluator.cumhazard") & ~tab.has_ancestor("evaluator.cumhazard")
    builds = (tab.mask("evaluator.build") | tab.mask("estimation.engine_build")) & fit
    optimizer = (total("estimation.maximize", fit)
                 - float(tab.incl[evals & fit].sum() + tab.incl[builds].sum()) * scale)
    med = lambda kind: statistics.median(traced[kind]) if traced[kind] else float("nan")
    fit0 = bench.fits.get(0)
    m = {
        "setup.import_s": (total("setup.import", setup), "s"),
        "data.load_table_s": (total("data.load_table", setup), "s"),
        "data.build_levels_s": (total("data.build_levels", setup), "s"),
        "formula.parse_validate_s": (total("formula.parse_spec_text", setup)
                                     + total("formula.validate_spec", setup), "s"),
        "evaluator.build_s": (total("evaluator.build", setup
                                    & ~tab.has_ancestor("evaluator.build")), "s"),
        "estimation.engine_build_s": (total("estimation.engine_build", setup), "s"),
        "estimation.evals_bfgs": (int((evals & fit & ~in_hess).sum()), "count"),
        "estimation.evals_hessian": (int((evals & fit & in_hess).sum()), "count"),
        "estimation.bfgs_iterations": (fit0.iterations if fit0 else 0, "count"),
        "estimation.optimizer_self_s": (optimizer, "s"),
        "estimation.reduction_self_s": (total("estimation.total_loglik", work, "self_time"), "s"),
        "evaluator.eta_calls": (count("evaluator.eta", work), "count"),
        "evaluator.eta_self_s": (total("evaluator.eta", work, "self_time"), "s"),
        "evaluator.expval_calls": (count("evaluator.expval", work), "count"),
        "evaluator.cumhazard_incl_s": (float(tab.incl[chaz & work].sum()) * scale, "s"),
        "evaluator.loglik_matrix_self_s": (total("evaluator.loglik_matrix", work, "self_time"), "s"),
        "basis.eval_calls": (count("basis.eval", work), "count"),
        "basis.eval_s": (total("basis.eval", work), "s"),
        "families.calls": (count("families", work), "count"),
        "families.self_s": (total("families", work, "self_time"), "s"),
        "quadrature.transform_calls": (count("quadrature.transform_nodes", work), "count"),
        "quadrature.self_s": (total("quadrature.transform_nodes", work, "self_time"), "s"),
        "prediction.cif_calls": (count("prediction.cif", work), "count"),
        "prediction.cif_self_s": (total("prediction.cif", work, "self_time"), "s"),
        "prediction.timelost_self_s": (total("prediction.timelost", work, "self_time"), "s"),
        "calib.kernel_ms": (1e3 * statistics.median(clock.kernel_s), "ms"),
        "traced.setup_s": (med("setup"), "s"),
        "traced.fit_s": (med("fit"), "s"),
        "traced.eval_ms": (1e3 * med("eval"), "ms"),
        "traced.cif_s": (med("cif"), "s"),
        "traced.rmst_s": (med("rmst"), "s"),
        "trace.eval_overhead_pct": (100.0 * (med("eval") / untraced_eval - 1.0), "%"),
    }
    return m
