"""One table of factor values per predictor evaluation.

Evaluator.eta evaluates each time-varying element once for all the columns
that use it, and keeps nothing between calls.  The product rule over a
column's time factors is a running fold; the nested loops below are the
rule it replaced.
"""

import numpy as np
import pytest

import jointfit as jf
from jointfit import basis, evaluator
from jointfit.estimation import LikelihoodEngine
from jointfit.evaluator import Evaluator

from conftest import make_dataset
from test_time_blocks import JOINT_PARAMS, joint_data


def nested_product_deriv(tf, factor, order):
    """Oracle: the product rule as a sum over factors (and factor pairs)."""
    vals = [factor(el, bi, "value") for el, bi in tf]
    d1s = [factor(el, bi, "d1") for el, bi in tf]
    m = len(tf)
    if order == "d1":
        out = None
        for i in range(m):
            term = d1s[i]
            for j in range(m):
                if j != i:
                    term = term * vals[j]
            out = term if out is None else out + term
        return out
    d2s = [factor(el, bi, "d2") for el, bi in tf]
    out = None
    for i in range(m):
        term = d2s[i]
        for j in range(m):
            if j != i:
                term = term * vals[j]
        out = term if out is None else out + term
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            term = d1s[i] * d1s[j]
            for k in range(m):
                if k != i and k != j:
                    term = term * vals[k]
            out = out + term
    return out


def test_ev_linked_spline_evaluated_once_per_order(monkeypatch):
    """The EV[y] target's spline is one basis call per eta, not one per
    spline column: the longitudinal rows, the event times and the two
    blocks of cumulative-hazard nodes make 4 calls."""
    spec_text = ("levels = id\nip = 7\n"
                 "gaussian : y ~ rcs(time, df = 3) + M1[id]*1 | timevar=time\n"
                 "weibull : Surv(st, sd) ~ x + EV[y] | timevar=st\n")
    data = joint_data()
    engine = LikelihoodEngine(Evaluator(jf.validate_spec(jf.parse_spec_text(spec_text),
                                                         data), data))
    p = np.asarray(JOINT_PARAMS)
    engine.total_loglik(p)
    calls = []
    rcs_eval = basis.RcsBasis.eval

    def counted(self, t, order="value"):
        calls.append(len(np.atleast_1d(t)))
        return rcs_eval(self, t, order)

    monkeypatch.setattr(basis.RcsBasis, "eval", counted)
    engine.total_loglik(p)
    assert len(calls) == 4


# the rcs column of y has n time factors: the time variable, rcs, fp and
# an XB link to z
FACTORS = ["rcs(time, df = 2)",
           "time:rcs(time, df = 2)",
           "time:rcs(time, df = 2):fp(time, powers = c(0.5))",
           "time:rcs(time, df = 2):fp(time, powers = c(0.5)):XB[z]"]


def factor_model(n_factors):
    rng = np.random.default_rng(11)
    n = 24
    data = make_dataset({"id": np.repeat(np.arange(8), 3),
                         "time": rng.uniform(0.2, 4.0, n),
                         "x": rng.normal(size=n), "y": rng.normal(size=n),
                         "z": rng.normal(size=n)}, levels=("id",))
    spec = jf.parse_spec_text(
        "levels = id\nip = 3\n"
        f"gaussian : y ~ x + {FACTORS[n_factors - 1]} + M1[id]*1 | timevar=time\n"
        "gaussian : z ~ x + time:x + time:M2[id] | timevar=time\n")
    ev = Evaluator(jf.validate_spec(spec, data), data)
    engine = LikelihoodEngine(ev)
    p = np.linspace(-0.6, 0.7, ev.n_params())
    rows = np.arange(n)
    t = np.linspace(0.3, 3.9, n)
    return ev, p, rows, t, engine.draws(p)


@pytest.mark.parametrize("n_factors", [1, 2, 3, 4])
def test_product_rule_fold_matches_nested_loops(n_factors, monkeypatch):
    ev, p, rows, t, draws = factor_model(n_factors)
    fold = {o: ev.eta(p, 0, rows, t, draws, o) for o in ("d1", "d2")}
    monkeypatch.setattr(evaluator, "_product_deriv", nested_product_deriv)
    for order, got in fold.items():
        want = ev.eta(p, 0, rows, t, draws, order)
        assert np.all(np.isfinite(want)) and np.any(want != 0.0)
        if n_factors <= 2:
            assert np.array_equal(got, want), order
        else:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0, err_msg=order)
