"""Batched likelihood evaluation and finite-difference derivatives.

LikelihoodEngine.total_loglik takes a (B, p) matrix of parameter points and
evaluates them side by side on the node axis.  Each batched value must have
the bits of the same point evaluated alone, and the batched central
differences the bits of the per-point loops below, which they replaced.
"""

import logging
import re

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


# name: spec, data, parameters (None: start values), and a function that
# sets special values in some rows of the batch
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
    # atanh_corr 30 in one point: tanh is exactly 1, so it is projected
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
}


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


@pytest.mark.filterwarnings("ignore:correlation matrix of dimension 2:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_batch_matches_one_point_evaluations(name):
    spec_text, make_data, _, _ = MODELS[name]
    data = make_data()
    batched, single = _engine(spec_text, data), _engine(spec_text, data)
    P = _points(name, batched)
    got = batched.total_loglik(P)
    want = np.asarray([single.total_loglik(x) for x in P])
    assert got.shape == (len(P),)
    assert np.array_equal(got, want)
    cl = batched.cluster_logliks(P)
    assert cl.shape == (batched.n_clusters, len(P))
    for b, x in enumerate(P):
        assert np.array_equal(cl[:, b], single.cluster_logliks(x))


@pytest.mark.parametrize("name", ["ev_rcs", "no_levels_2_chunks", "two_level_shuffled"])
@pytest.mark.parametrize("per_pass", [1, 4])
def test_split_batches_match(monkeypatch, name, per_pass):
    spec_text, make_data, _, _ = MODELS[name]
    data = make_data()
    monkeypatch.setattr(estimation, "BATCH_DOUBLES", 2**24)
    whole = _engine(spec_text, data)
    rows = max(len(c["rows"]) for c in whole.chunks)
    monkeypatch.setattr(estimation, "BATCH_DOUBLES", per_pass * rows * whole.nq)
    split = _engine(spec_text, data)
    P = _points(name, whole, n_points=9)
    assert split.batch == per_pass and len(P) <= whole.batch
    assert np.array_equal(split.total_loglik(P), whole.total_loglik(P))


@pytest.mark.parametrize("name", ["ev_rcs", "user"])
def test_central_differences_match_per_point_loops(name):
    spec_text, make_data, _, _ = MODELS[name]
    data = make_data()
    batched, single = _engine(spec_text, data), _engine(spec_text, data)
    x = _points(name, batched)[1]
    f_batch = lambda P: _neg_loglik(batched, P)
    f_one = lambda x: _neg_loglik(single, x)
    assert np.array_equal(central_gradient(f_batch, x, GRAD_STEP),
                          loop_central_gradient(f_one, x, GRAD_STEP))
    assert np.array_equal(central_hessian(f_batch, x, HESS_STEP),
                          loop_central_hessian(f_one, x, HESS_STEP))


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

    def test_batch_gives_big_to_the_bad_points_only(self):
        eng, ref = self.gaussian_engine(), self.gaussian_engine()
        P = np.asarray([[0.1, 0.2, 0.0], [0.1, 0.2, -800.0], [0.3, 0.1, 0.2]])
        assert np.array_equal(_neg_loglik(eng, P), [_neg_loglik(ref, x) for x in P])
        assert _neg_loglik(eng, P)[1] == _BIG
        eng, ref = self.raising_engine(), self.raising_engine()
        P = np.asarray([[0.5, 1.0, 0.0, -1.0], [0.5, 1.0, 2.0, -1.0], [0.4, 1.1, 0.1, -0.9]])
        got = _neg_loglik(eng, P)
        assert np.array_equal(got, [_neg_loglik(ref, x) for x in P])
        assert got[1] == _BIG and got[0] < _BIG and got[2] < _BIG


def test_start_point_is_evaluated_once(monkeypatch):
    data = sim_weibull(200, lam=0.1, gamma=1.4, beta=0.5, seed=7, cens_rate=0.1)
    spec = jf.validate_spec(jf.parse_spec_text("weibull : Surv(t, d) ~ x"), data)
    x0 = start_values(LikelihoodEngine(Evaluator(spec, data)))
    seen = []
    total = LikelihoodEngine.total_loglik

    def recorded(self, params):
        seen.extend(np.atleast_2d(params).tolist())
        return total(self, params)

    monkeypatch.setattr(LikelihoodEngine, "total_loglik", recorded)
    jf.maximize(spec, data, jf.FitControls())
    assert seen.count(x0.tolist()) == 1


def test_iteration_records(caplog):
    data = sim_weibull(200, lam=0.1, gamma=1.4, beta=0.5, seed=7, cens_rate=0.1)
    with caplog.at_level(logging.DEBUG, logger="jointfit.estimation"):
        fit = fit_spec("weibull : Surv(t, d) ~ x", data)
    *records, hessian = [r for r in caplog.records if r.name == "jointfit.estimation"]
    assert len(records) == fit.iterations > 0
    assert hessian.getMessage().startswith("Hessian: ")
    pattern = (r"iteration (\d+): logL (\S+), max\|g\| (\S+), alpha (\S+), (\d+) halvings, "
               r"(\d+) points in (\d+) engine calls, (\d+) scores")
    points = calls = 1  # the start point
    for k, rec in enumerate(records, start=1):
        m = re.fullmatch(pattern, rec.getMessage())
        assert m, rec.getMessage()
        assert int(m[1]) == k
        alpha, halvings = float(m[4]), int(m[5])
        assert alpha == pytest.approx(0.5 ** halvings, rel=1e-2)
        # the gradients come from scores, one at the start and one per
        # iteration, so points rise by the line search's trials alone
        assert int(m[6]) == points + halvings + 1 and int(m[7]) == calls + halvings + 1
        assert int(m[8]) == k + 1
        points, calls = int(m[6]), int(m[7])
    # the last iteration's point is the fit's
    assert float(m[2]) == pytest.approx(fit.loglik, rel=1e-9)
