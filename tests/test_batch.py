"""The models shared by the likelihood tests, finite-difference
derivatives and the _BIG penalty.

central_gradient and central_hessian call the objective once per point;
their differences must have the bits of the per-point loops below.
"""

import logging
import re
import warnings

import numpy as np
import pytest

import jointfit as jf
from jointfit import estimation
from jointfit.estimation import (_BIG, GRAD_STEP, HESS_STEP, LikelihoodEngine, _neg_loglik,
                                 central_gradient, central_hessian, start_values)
from jointfit.evaluator import Evaluator
from jointfit.userfam import logl_gaussian, register_user_family

from conftest import fit_spec, make_dataset, sim_joint, sim_lmm, sim_weibull
from test_reduction import TWO_LEVEL_PARAMS, TWO_LEVEL_SPEC, no_level_data, two_level_data
from test_time_blocks import JOINT_PARAMS, JOINT_SPEC, joint_data


def loop_central_gradient(f, x, step_scale):
    """Oracle: one objective call per point."""
    g = np.empty(len(x))
    for i in range(len(x)):
        h = step_scale * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def loop_central_hessian(f, x, step_scale):
    """Oracle: symmetric second differences, one objective call per point."""
    n = len(x)
    h = [step_scale * max(1.0, abs(v)) for v in x]

    def at(*moves):
        y = x.copy()
        for i, step in moves:
            y[i] += step
        return f(y)

    f0 = at()
    fp = [at((i, h[i])) for i in range(n)]
    fm = [at((i, -h[i])) for i in range(n)]
    H = np.empty((n, n))
    for i in range(n):
        H[i, i] = (fp[i] - 2.0 * f0 + fm[i]) / (h[i] * h[i])
        for j in range(i + 1, n):
            fpp = at((i, h[i]), (j, h[j]))
            fmm = at((i, -h[i]), (j, -h[j]))
            H[i, j] = H[j, i] = ((fpp + fmm - fp[i] - fm[i] - fp[j] - fm[j] + 2.0 * f0)
                                 / (2.0 * h[i] * h[j]))
    return H


def _raise_above_one(ctx):
    if ctx.ap(1) > 1.0:
        raise ValueError("ancillary above 1")
    return logl_gaussian(ctx)


register_user_family("t_batch_raises", _raise_above_one, replace=True)


def _engine(spec_text, data):
    return LikelihoodEngine(Evaluator(jf.validate_spec(jf.parse_spec_text(spec_text), data), data))


def _bhazard_data():
    rng = np.random.default_rng(6)
    n = 200
    return make_dataset({"t": rng.uniform(0.1, 5.0, n), "d": (rng.random(n) < 0.6) * 1.0,
                         "x": rng.integers(0, 2, n) * 1.0, "rate": rng.uniform(0.01, 0.1, n)})


def _unstructured_data():
    rng = np.random.default_rng(2)
    return make_dataset({"id": np.repeat(np.arange(40.0), 3), "x": rng.normal(size=120),
                         "y": rng.normal(size=120)}, levels=("id",))


def _glmm_data(levels=("id",)):
    """40 clusters id of 3 rows, paired into 20 clusters p; normal x, and
    a binary yb and a count yc with a random intercept and a random slope
    on x by cluster id."""
    rng = np.random.default_rng(7)
    ids = np.repeat(np.arange(40.0), 3)
    x = rng.normal(size=len(ids))
    eta = 0.3 + 0.5 * x + rng.normal(0.0, 0.5, 40)[ids.astype(int)] * (1.0 + 0.6 * x)
    return make_dataset({"id": ids, "p": ids // 2, "x": x,
                         "yb": (rng.random(len(ids)) < 1.0 / (1.0 + np.exp(-eta))) * 1.0,
                         "yc": rng.poisson(np.exp(eta)) * 1.0}, levels=levels)


# name: spec, data, parameters (None: start values), and a function that
# sets special values in some of the points
MODELS = {
    "ev_rcs": (JOINT_SPEC, lambda: joint_data(n_clusters=70), JOINT_PARAMS, None),
    "shared_re": ("levels = id\nip = 35\n"
                  "weibull : Surv(st, sd) ~ M1[id] | timevar=st\n"
                  "gaussian : y ~ time + M1[id]*1 | timevar=time\n",
                  lambda: sim_joint(90, assoc=1.0, seed=1), None, None),
    "two_level_shuffled": (TWO_LEVEL_SPEC, two_level_data, TWO_LEVEL_PARAMS, None),
    "no_levels_2_chunks": ("gaussian : y ~ x\n", no_level_data, None, None),
    "rp": ("rp : Surv(t, d) ~ x + rcs(t, df = 3, log = TRUE) | timevar=t",
           lambda: sim_weibull(300, lam=0.1, gamma=1.4, beta=0.5, seed=2, cens_rate=0.1),
           None, None),
    # gamma exactly 0 in two of the points: Lambda0(t) = t there
    "gompertz_gamma0": ("gompertz : Surv(t, d) ~ x",
                        lambda: sim_weibull(300, lam=0.1, gamma=1.2, beta=0.5, seed=3, cens_rate=0.1),
                        [0.5, np.log(0.1), 0.1],
                        lambda P: P.__setitem__((slice(0, 3, 2), 2), 0.0)),
    # atanh_corr 30 in one point: tanh is exactly 1, a singular correlation
    # matrix, whose factor has a zero diagonal entry (the id is from the
    # projection into the positive-definite cone that such a point once took)
    "unstructured_projected": ("levels = id\ncovariance = unstructured\nip = 3\n"
                               "gaussian : y ~ x + M1[id]*1 + M2[id]:x*1\n",
                               _unstructured_data, None,
                               lambda P: P.__setitem__((1, -1), 30.0)),
    "bhazard": ("exponential : Surv(t, d) ~ x + bhazard(rate) | timevar=t", _bhazard_data,
                None, None),
    "iev": (JOINT_SPEC.replace("EV[y]", "iEV[y]"), lambda: joint_data(n_clusters=8),
            JOINT_PARAMS, None),
    "user": ("levels = id\nuser : y ~ x + M1[id]*1 + ap(1) | userf=logl_gaussian",
             lambda: sim_lmm(80, 3, 1.0, 0.5, sd_b=0.4, sd_e=0.5, seed=3), None, None),
    # closed-form row scores: random intercepts and slopes, a time spline,
    # a free loading (gompertz gamma starts at 0 exactly) and two levels
    "bernoulli_slope": ("levels = id\nip = 5\nbernoulli : yb ~ x + M1[id]*1 + M2[id]:x*1\n",
                        _glmm_data, None, None),
    "poisson_slope": ("levels = id\nip = 5\npoisson : yc ~ x + M1[id]*1 + M2[id]:x*1\n",
                      _glmm_data, None, None),
    "gaussian_rcs": ("levels = id\nip = 7\n"
                     "gaussian : y ~ rcs(time, df = 3) + M1[id]*1 | timevar=time\n",
                     lambda: sim_joint(40, assoc=0.0, seed=5), None, None),
    "gompertz_loading": ("levels = id\nip = 7\n"
                         "gompertz : Surv(st, sd) ~ M1[id] | timevar=st\n"
                         "gaussian : y ~ time + M1[id]*1 | timevar=time\n",
                         lambda: sim_joint(40, assoc=0.8, seed=6), None, None),
    "two_level_poisson": ("levels = p,id\nip = 5\npoisson : yc ~ x + M1[p]*1 + M2[id]:x*1\n",
                          lambda: _glmm_data(("p", "id")), None, None),
}


# PASS_DOUBLES of the models that take more than one chunk only below the
# default budget: 4096-row chunks
BUDGETS = {"no_levels_2_chunks": 4096}


def _model(monkeypatch, name):
    """A MODELS entry's spec and data, with PASS_DOUBLES at its budget."""
    spec_text, make_data, _, _ = MODELS[name]
    if name in BUDGETS:
        monkeypatch.setattr(estimation, "PASS_DOUBLES", BUDGETS[name])
    return spec_text, make_data()


def _points(name, eng, n_points=6):
    """Start values (or the model's parameters) and n_points - 1 points
    around them."""
    _, _, params, special = MODELS[name]
    theta = start_values(eng) if params is None else np.asarray(params, dtype=float)
    P = theta + 0.05 * np.random.default_rng(0).normal(size=(n_points, len(theta)))
    P[0] = theta
    if special is not None:
        special(P)
    return P


@pytest.mark.parametrize("name", ["ev_rcs", "user"])
def test_central_differences_match_per_point_loops(name):
    spec_text, make_data, _, _ = MODELS[name]
    data = make_data()
    eng, ref = _engine(spec_text, data), _engine(spec_text, data)
    x = _points(name, eng)[1]
    f = lambda x: _neg_loglik(eng, x)
    f_ref = lambda x: _neg_loglik(ref, x)
    assert np.array_equal(central_gradient(f, x, GRAD_STEP),
                          loop_central_gradient(f_ref, x, GRAD_STEP))
    assert np.array_equal(central_hessian(f, x, HESS_STEP),
                          loop_central_hessian(f_ref, x, HESS_STEP))


# the entries whose grid Hessian gives no standard errors: singular, or
# singular to within its rounding error, for the first three, and not
# positive definite for rp
NO_STD_ERRORS = {"iev", "rp", "two_level_shuffled", "unstructured_projected"}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_standard_errors(monkeypatch, name):
    spec_text, data = _model(monkeypatch, name)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        fit = fit_spec(spec_text, data)
    reasons = [str(w.message) for w in seen if "standard errors" in str(w.message)]
    if name in NO_STD_ERRORS:
        assert fit.vcov is None and len(reasons) == 1
        assert reasons[0].startswith("no standard errors: ")
    else:
        assert fit.vcov is not None and not reasons
        assert np.all(np.isfinite(fit.std_errors()))


class TestPenalty:
    def gaussian_engine(self):
        rng = np.random.default_rng(0)
        d = make_dataset({"y": rng.normal(size=20), "x": rng.normal(size=20)})
        return _engine("gaussian : y ~ x", d)

    def raising_engine(self):
        d = sim_lmm(10, 3, 1.0, 0.5, sd_b=0.4, sd_e=0.5, seed=3)
        return _engine("levels = id\nuser : y ~ x + M1[id]*1 + ap(1) | userf=t_batch_raises", d)

    def test_non_finite_loglik_is_big(self):
        eng = self.gaussian_engine()
        # residual sd exp(-800) = 0: every residual is infinitely unlikely
        assert _neg_loglik(eng, np.asarray([0.1, 0.2, -800.0])) == _BIG

    def test_value_error_at_a_trial_point_is_big(self):
        eng = self.raising_engine()
        assert _neg_loglik(eng, np.asarray([0.5, 1.0, 2.0, -1.0])) == _BIG
        assert _neg_loglik(eng, np.asarray([0.5, 1.0, 0.0, -1.0])) < _BIG


def test_start_point_is_evaluated_once(monkeypatch):
    data = sim_weibull(200, lam=0.1, gamma=1.4, beta=0.5, seed=7, cens_rate=0.1)
    spec = jf.validate_spec(jf.parse_spec_text("weibull : Surv(t, d) ~ x"), data)
    x0 = start_values(LikelihoodEngine(Evaluator(spec, data)))
    seen = []
    total = LikelihoodEngine.total_loglik

    def recorded(self, params):
        seen.append(np.asarray(params).tolist())
        return total(self, params)

    monkeypatch.setattr(LikelihoodEngine, "total_loglik", recorded)
    jf.maximize(spec, data, jf.FitControls())
    assert seen.count(x0.tolist()) == 1


def test_iteration_records(caplog):
    data = sim_weibull(200, lam=0.1, gamma=1.4, beta=0.5, seed=7, cens_rate=0.1)
    with caplog.at_level(logging.DEBUG, logger="jointfit.estimation"):
        fit = fit_spec("weibull : Surv(t, d) ~ x", data)
    engine, start, *records, hessian = [r for r in caplog.records
                                        if r.name == "jointfit.estimation"]
    assert engine.getMessage().startswith("engine: ")
    assert re.fullmatch(r"start: BHHH, condition number \S+", start.getMessage())
    assert len(records) == fit.iterations > 0
    assert hessian.getMessage().startswith("Hessian: ")
    pattern = (r"iteration (\d+): logL (\S+), max\|g\| (\S+), alpha (\S+), (\d+) halvings, "
               r"(\d+) engine calls, (\d+) scores, (\d+) fallbacks, (\d+) resets")
    calls = 1  # the start point
    for k, rec in enumerate(records, start=1):
        m = re.fullmatch(pattern, rec.getMessage())
        assert m, rec.getMessage()
        assert int(m[1]) == k
        alpha, halvings = float(m[4]), int(m[5])
        assert alpha == pytest.approx(0.5 ** halvings, rel=1e-2)
        # the gradients come from scores, one at the start and one per
        # iteration, so calls rise by the line search's trials alone
        assert int(m[6]) == calls + halvings + 1
        assert int(m[7]) == k + 1
        assert int(m[8]) == 0  # every gradient was a finite score
        assert int(m[9]) == 0  # every direction was a descent direction
        calls = int(m[6])
    # the last iteration's point is the fit's
    assert float(m[2]) == pytest.approx(fit.loglik, rel=1e-9)
