"""Blocked time quadrature against the per-node Gauss-Legendre loop.

integrate_to evaluates its integrand once per block of stacked nodes.  The
per-node loop below is the rule it replaced; the blocked results must have
the same bits, whatever the block budget.
"""

import numpy as np
import pytest

import jointfit as jf
from jointfit import evaluator, prediction, quadrature
from jointfit.estimation import FitResult
from jointfit.evaluator import Evaluator
from jointfit.prediction import FittedModel

from conftest import make_dataset


def per_node_integrate_to(fn, rows, t, n):
    """Oracle: one integrand call per node, summed in node order."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * np.asarray(t, dtype=float)
    acc = None
    for k in range(n):
        u = np.maximum(half * (x[k] + 1.0), 1e-300)
        val = fn(rows, u) * (w[k] * half)[:, None]
        acc = val if acc is None else acc + val
    return acc


JOINT_SPEC = (
    "levels = id\n"
    "ip = 7\n"
    "gaussian : y ~ rcs(time, df = 3, orthog = TRUE) + M1[id]*1 | timevar=time\n"
    "weibull : Surv(st, sd) ~ x + EV[y] | timevar=st\n"
)
# rcs():1-3, _cons, log_sd(resid.), x, EV[], _cons, log(gamma), log_sd(M1)
JOINT_PARAMS = [0.3, 0.1, -0.05, 1.0, np.log(0.3), 0.5, 0.4, np.log(0.1), -0.2,
                np.log(0.5)]

FP_SPEC = (
    "weibull : Surv(t, d1) ~ x\n"
    "weibull : Surv(t, d2) ~ x + x:fp(t, powers = c(0)) | timevar=t\n"
)
FP_PARAMS = [0.5, np.log(0.08), np.log(1.3), -0.3, 0.4, np.log(0.05), np.log(1.1)]


def joint_data(n_clusters=12, seed=3):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_clusters):
        x = float(rng.integers(0, 2))
        st = rng.uniform(0.5, 5.0)
        for tt in np.sort(rng.uniform(0.0, st, 3)):
            rows.append((i, tt, 1.0 + 0.3 * tt + rng.normal(0.0, 0.5), np.nan, np.nan, x))
        rows.append((i, np.nan, np.nan, st, float(rng.random() < 0.7), x))
    a = np.asarray(rows)
    return make_dataset({"id": a[:, 0], "time": a[:, 1], "y": a[:, 2],
                         "st": a[:, 3], "sd": a[:, 4], "x": a[:, 5]}, levels=("id",))


def fp_data(n=10, seed=4):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.2, 6.0, n)
    d1 = (rng.random(n) < 0.4).astype(float)
    return make_dataset({"t": t, "d1": d1, "d2": (1.0 - d1) * (rng.random(n) < 0.5),
                         "x": rng.integers(0, 2, n).astype(float)})


# in both models, the survival submodel with a numerically integrated
# cumulative hazard
SUB = 1


def make_model(kind):
    """A FittedModel at fixed parameters."""
    if kind == "joint_ev":
        spec, params, data, rule = JOINT_SPEC, JOINT_PARAMS, joint_data(), (("ghermite",), (7,))
    else:
        spec, params, data, rule = FP_SPEC, FP_PARAMS, fp_data(), ((), ())
    labels = Evaluator(jf.validate_spec(jf.parse_spec_text(spec), data), data).layout.labels
    fit = FitResult(np.asarray(params), labels, None, 0.0, 0, True, spec, *rule, 0)
    return FittedModel(fit, data)


def results(kind, stats=("cumhazard", "loglik", "cif", "cif_marginal")):
    """A fresh model and its results."""
    model = make_model(kind)
    ev, p = model.ev, model.params
    rows = ev.subs[SUB].rv.observed_rows
    t = np.linspace(0.3, 4.5, len(rows))
    causes = prediction._survival_indices(model.spec)
    fixed = model.engine.zero_draws()
    out = {}
    for stat in stats:
        if stat == "cumhazard":
            out[stat] = ev.cumhazard(p, SUB, rows, t, model.engine.draws(p))
        elif stat == "loglik":
            out[stat] = np.asarray([model.engine.total_loglik(p),
                                    model.engine.total_loglik(p + 0.01)])
        elif stat == "cif":
            out[stat] = prediction.cif(model, SUB, rows, t, fixed, causes)
        elif stat == "cif_marginal":
            draws = prediction._draws_weights(model, "marginal")[0]
            out[stat] = prediction.cif(model, SUB, rows, t, draws, causes)
        elif stat == "timelost":
            out[stat] = prediction.timelost(model, SUB, rows[:3], t[:3], fixed, causes)
    return out


def assert_same_bits(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k]), k


@pytest.mark.parametrize("kind", ["joint_ev", "fp_weibull"])
def test_blocked_matches_per_node_oracle(kind, monkeypatch):
    blocked = results(kind)
    monkeypatch.setattr(evaluator, "integrate_to", per_node_integrate_to)
    monkeypatch.setattr(prediction, "integrate_to", per_node_integrate_to)
    assert_same_bits(blocked, results(kind))


@pytest.mark.parametrize("kind", ["joint_ev", "fp_weibull"])
def test_one_cumhazard_makes_at_most_two_hazard_calls(kind, monkeypatch):
    calls = []
    hazard = Evaluator.hazard

    def counted(*args, **kwargs):
        calls.append(1)
        return hazard(*args, **kwargs)

    monkeypatch.setattr(Evaluator, "hazard", counted)
    results(kind, stats=("cumhazard",))
    assert 1 <= len(calls) <= 2
    # with a one-node budget the same integral needs one call per node
    calls.clear()
    monkeypatch.setattr(quadrature, "TIME_BLOCK_DOUBLES", 1)
    results(kind, stats=("cumhazard",))
    assert len(calls) == evaluator.TIME_GL_POINTS


@pytest.mark.parametrize("kind,stats", [
    pytest.param("joint_ev", ("loglik", "cif", "cif_marginal"), id="joint_ev"),
    # timelost nests two 50-node rules around the 30-node cumulative hazard:
    # 75,000 hazard calls at one node per block
    pytest.param("fp_weibull", ("loglik", "cif", "timelost"), id="fp_weibull"),
])
def test_one_node_budget_gives_same_bits(kind, stats, monkeypatch):
    default = results(kind, stats)
    monkeypatch.setattr(quadrature, "TIME_BLOCK_DOUBLES", 1)
    assert_same_bits(default, results(kind, stats))
