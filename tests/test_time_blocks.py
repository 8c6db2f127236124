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
from jointfit.quadrature import Frame

from conftest import make_dataset


def per_node_integrate_to(fn, at, n, width):
    """Oracle: one integrand call per node, on a transient frame of the
    node's times, summed in node order; width, which sizes the blocks of
    integrate_to, is not used."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * at.t
    acc = None
    for k in range(n):
        u = np.maximum(half * (x[k] + 1.0), 1e-300)
        val = fn(Frame(at.rows, u)) * (w[k] * half)[:, None]
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

# iXB[y] integrates y's column of two time factors, time x rcs(time)
IXB_PRODUCT_SPEC = (
    "levels = id\n"
    "ip = 7\n"
    "gaussian : y ~ time:rcs(time, df = 2) + M1[id]*1 | timevar=time\n"
    "weibull : Surv(st, sd) ~ x + iXB[y] | timevar=st\n"
)
# time:rcs():1-2, _cons, log_sd(resid.), x, iXB[], _cons, log(gamma), log_sd(M1)
IXB_PRODUCT_PARAMS = [0.1, -0.05, 1.0, np.log(0.3), 0.5, 0.2, np.log(0.1), -0.2, np.log(0.5)]

# iXB[w] integrates w's dEV[y] column, the integral of a derivative link
IXB_DEV_SPEC = (
    "levels = id\n"
    "ip = 7\n"
    "gaussian : y ~ rcs(time, df = 2) + M1[id]*1 | timevar=time\n"
    "gaussian : w ~ x + dEV[y] | timevar=time\n"
    "weibull : Surv(st, sd) ~ x + iXB[w] | timevar=st\n"
)
# rcs():1-2, _cons, log_sd(resid.), x, dEV[], _cons, log_sd(resid.), x,
# iXB[], _cons, log(gamma), log_sd(M1)
IXB_DEV_PARAMS = [0.3, 0.1, 1.0, np.log(0.3), 0.2, 0.8, 0.1, np.log(0.4), 0.5, 0.3,
                  np.log(0.1), -0.2, np.log(0.5)]

FP_SPEC = (
    "weibull : Surv(t, d1) ~ x\n"
    "weibull : Surv(t, d2) ~ x + x:fp(t, powers = c(0)) | timevar=t\n"
)
FP_PARAMS = [0.5, np.log(0.08), np.log(1.3), -0.3, 0.4, np.log(0.05), np.log(1.1)]


def joint_data(n_clusters=12, seed=3, w=False):
    """Clusters of 3 measurements of y and one survival row; with w, a
    second marker w = y / 2 + x / 5 on the measurement rows."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_clusters):
        x = float(rng.integers(0, 2))
        st = rng.uniform(0.5, 5.0)
        for tt in np.sort(rng.uniform(0.0, st, 3)):
            rows.append((i, tt, 1.0 + 0.3 * tt + rng.normal(0.0, 0.5), np.nan, np.nan, x))
        rows.append((i, np.nan, np.nan, st, float(rng.random() < 0.7), x))
    a = np.asarray(rows)
    cols = {"id": a[:, 0], "time": a[:, 1], "y": a[:, 2], "st": a[:, 3], "sd": a[:, 4],
            "x": a[:, 5]}
    if w:
        cols["w"] = 0.5 * cols["y"] + 0.2 * cols["x"]
    return make_dataset(cols, levels=("id",))


def fp_data(n=10, seed=4):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.2, 6.0, n)
    d1 = (rng.random(n) < 0.4).astype(float)
    return make_dataset({"t": t, "d1": d1, "d2": (1.0 - d1) * (rng.random(n) < 0.5),
                         "x": rng.integers(0, 2, n).astype(float)})


# the survival submodel with a numerically integrated cumulative hazard
SUB = {"joint_ev": 1, "fp_weibull": 1, "ixb_product": 1, "ixb_dev": 2}


GH7 = (("ghermite",), (7,))
KINDS = {  # spec, parameters, data maker, random-effect rule
    "joint_ev": (JOINT_SPEC, JOINT_PARAMS, joint_data, GH7),
    "fp_weibull": (FP_SPEC, FP_PARAMS, fp_data, ((), ())),
    "ixb_product": (IXB_PRODUCT_SPEC, IXB_PRODUCT_PARAMS, joint_data, GH7),
    "ixb_dev": (IXB_DEV_SPEC, IXB_DEV_PARAMS, lambda: joint_data(w=True), GH7),
}


def make_model(kind):
    """A FittedModel at fixed parameters."""
    spec, params, make_data, rule = KINDS[kind]
    data = make_data()
    labels = Evaluator(jf.validate_spec(jf.parse_spec_text(spec), data), data).layout.labels
    fit = FitResult(np.asarray(params), labels, None, 0.0, 0, True, spec, *rule, 0)
    return FittedModel(fit, data)


def results(kind, stats=("cumhazard", "one_row", "loglik", "cif", "cif_marginal")):
    """A fresh model and its results."""
    model = make_model(kind)
    ev, p, sub = model.ev, model.params, SUB[kind]
    rows = ev.subs[sub].rv.observed_rows
    t = np.linspace(0.3, 4.5, len(rows))
    causes = prediction._survival_indices(model.spec)
    fixed = model.engine.zero_draws()
    out = {}
    for stat in stats:
        if stat == "cumhazard":
            out[stat] = ev.cumhazard(p, sub, Frame(rows, t), model.engine.draws(p))
        elif stat == "one_row":
            # one row of width 1: a node-axis np.sum would sum its 30
            # terms pairwise, not in node order
            out[stat] = ev.cumhazard(p, sub, Frame(rows[:1], t[:1]), fixed)
        elif stat == "loglik":
            out[stat] = np.asarray([model.engine.total_loglik(p),
                                    model.engine.total_loglik(p + 0.01)])
        elif stat == "cif":
            out[stat] = prediction.cif(model, sub, Frame(rows, t), fixed, causes)
        elif stat == "cif_marginal":
            draws = prediction._draws_weights(model, "marginal")[0]
            out[stat] = prediction.cif(model, sub, Frame(rows, t), draws, causes)
        elif stat == "timelost":
            out[stat] = prediction.timelost(model, sub, Frame(rows[:3], t[:3]), fixed,
                                            causes)
    return out


def assert_same_bits(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k]), k


@pytest.mark.parametrize("kind,stats", [
    pytest.param("joint_ev", None, id="joint_ev"),
    pytest.param("fp_weibull", None, id="fp_weibull"),
    # the iXB[] integral nests in the cumulative hazard's, so one cif
    # makes 50 x 30 x 30 calls of the per-node oracle
    pytest.param("ixb_product", ("cumhazard", "one_row", "loglik"), id="ixb_product"),
    pytest.param("ixb_dev", ("cumhazard", "one_row", "loglik"), id="ixb_dev"),
])
def test_blocked_matches_per_node_oracle(kind, stats, monkeypatch):
    kw = {} if stats is None else {"stats": stats}
    blocked = results(kind, **kw)
    monkeypatch.setattr(evaluator, "integrate_to", per_node_integrate_to)
    monkeypatch.setattr(prediction, "integrate_to", per_node_integrate_to)
    assert_same_bits(blocked, results(kind, **kw))


@pytest.mark.parametrize("kind", ["joint_ev", "fp_weibull"])
def test_one_cumhazard_makes_one_hazard_call(kind, monkeypatch):
    calls = []
    hazard = Evaluator.hazard

    def counted(*args, **kwargs):
        calls.append(1)
        return hazard(*args, **kwargs)

    monkeypatch.setattr(Evaluator, "hazard", counted)
    results(kind, stats=("cumhazard",))
    assert len(calls) == 1
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
