"""The score: the gradient of log L as the posterior-weighted sum of the
row derivatives.

LikelihoodEngine.score weights each row's central differences, taken only
in the parameters its submodel depends on, by the posterior of the random
effects at the point, and BFGS takes its gradient from it.  It must match
central differences of the whole likelihood, keep its bits across chunk
partitions, and give way to those central differences where it is not
finite.
"""

from functools import partial

import numpy as np
import pytest

from jointfit import estimation
from jointfit.estimation import (_BIG, GRAD_STEP, _bfgs_gradient, _neg_loglik, central_gradient,
                                 start_values)
from jointfit.evaluator import Evaluator

from conftest import make_dataset, sim_lmm
from test_batch import MODELS, TestPenalty, _engine, _points
from test_reduction import no_level_data
from test_time_blocks import JOINT_SPEC, joint_data


def _labels(eng, idx):
    return [eng.ev.layout.labels[k] for k in idx]


@pytest.mark.filterwarnings("ignore:correlation matrix of dimension 2:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_score_matches_central_differences(name):
    spec_text, make_data, _, _ = MODELS[name]
    eng = _engine(spec_text, make_data())
    for x in _points(name, eng, n_points=3):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got = eng.score(x)
            want = central_gradient(eng.total_loglik, x, GRAD_STEP)
        if not np.all(np.isfinite(want)):
            # a point that reaches log L = -inf: BFGS falls back to the
            # central differences of its penalized objective
            assert not np.all(np.isfinite(got))
            continue
        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


def test_score_is_bitwise_invariant_to_the_chunk_partition(monkeypatch):
    # cold, and warm from a one-point evaluation at the same point
    shared_text, shared_data, _, _ = MODELS["shared_re"]
    cases = [("CHUNK_CLUSTERS", "levels = id\ngaussian : y ~ x + M1[id]*1",
              sim_lmm(150, 4, 1.0, 0.5, sd_b=0.4, sd_e=0.4, seed=4), 150, (1, 7, 64)),
             ("CHUNK_CLUSTERS", shared_text, shared_data(), 90, (1, 7, 64)),
             ("CHUNK_ROWS", "gaussian : y ~ x", no_level_data(), 5000, (999, 4096, 5000))]
    for const, text, data, n, sizes in cases:
        results = []
        for size in sizes:
            monkeypatch.setattr(estimation, const, size)
            eng = _engine(text, data)
            assert len(eng.chunks) == -(-n // size)
            x = start_values(eng) + 0.1
            cold = eng.score(x)
            eng.total_loglik(x)
            results += [cold, eng.score(x)]
        for got in results[1:]:
            assert np.array_equal(got, results[0])


class TestDependencies:
    def test_ev_link_reaches_the_target(self):
        eng = _engine(JOINT_SPEC, joint_data(n_clusters=8))
        y, hazard = (_labels(eng, d) for d in eng.deps)
        assert y == ["rcs():1", "rcs():2", "rcs():3", "_cons", "log_sd(resid.)", "log_sd(M1)"]
        # y's predictor reaches the hazard through EV[y]; its residual sd
        # does not
        assert hazard == ["rcs():1", "rcs():2", "rcs():3", "_cons", "x", "EV[]", "_cons",
                          "log(gamma)", "log_sd(M1)"]

    def test_xb_link_without_random_effects(self):
        eng = _engine("gaussian : y ~ z\nweibull : Surv(t, d) ~ x + XB[y]", _data())
        y, hazard = eng.deps
        assert _labels(eng, y) == ["z", "_cons", "log_sd(resid.)"]
        assert _labels(eng, hazard) == ["z", "_cons", "x", "XB[]", "_cons", "log(gamma)"]

    def test_nested_links(self):
        eng = _engine("gaussian : y ~ z\ngaussian : w ~ EV[y] | timevar=t\n"
                      "weibull : Surv(t, d) ~ x + EV[w]", _data())
        assert _labels(eng, eng.deps[2]) == ["z", "_cons", "EV[]", "_cons", "x", "EV[]",
                                             "_cons", "log(gamma)"]

    def test_user_family_reaches_every_parameter(self):
        eng = _engine("levels = id\nweibull : Surv(t, d) ~ x\n"
                      "user : y ~ z + M1[id]*1 + ap(1) | userf=logl_gaussian", _data(("id",)))
        surv, user = eng.deps
        assert _labels(eng, surv) == ["x", "_cons", "log(gamma)"]
        assert list(user) == list(range(eng.ev.n_params()))

    def test_shared_random_effect(self):
        spec_text, make_data, _, _ = MODELS["shared_re"]
        eng = _engine(spec_text, make_data())
        surv, long = (_labels(eng, d) for d in eng.deps)
        assert surv == ["M1", "_cons", "log(gamma)", "log_sd(M1)"]
        assert long == ["time", "_cons", "log_sd(resid.)", "log_sd(M1)"]


def _data(levels=()):
    """90 rows of 30 clusters id, a survival response (t, d) and normal
    x, z, y and w."""
    rng = np.random.default_rng(4)
    n = 90
    return make_dataset({"id": np.repeat(np.arange(30.0), 3), "t": rng.uniform(0.5, 3.0, n),
                         "d": (rng.random(n) < 0.7) * 1.0,
                         **{v: rng.normal(size=n) for v in "xzyw"}}, levels=levels)


class TestFallback:
    def test_minus_infinity_takes_central_differences(self):
        eng, ref = TestPenalty().gaussian_engine(), TestPenalty().gaussian_engine()
        x = np.asarray([0.1, 0.2, -800.0])  # every residual infinitely unlikely
        assert _neg_loglik(eng, x) == _BIG
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert not np.all(np.isfinite(eng.score(x)))
        want = central_gradient(partial(_neg_loglik, ref), x, GRAD_STEP)
        assert np.array_equal(_bfgs_gradient(eng, x), want)

    def test_value_error_takes_central_differences(self):
        eng, ref = TestPenalty().raising_engine(), TestPenalty().raising_engine()
        x = np.asarray([0.5, 1.0, 1.0 - 0.5 * GRAD_STEP, -1.0])  # ap(1) + h > 1 raises
        with pytest.raises(ValueError):
            eng.score(x)
        want = central_gradient(partial(_neg_loglik, ref), x, GRAD_STEP)
        assert np.array_equal(_bfgs_gradient(eng, x), want)


@pytest.mark.parametrize("name", ["shared_re", "ev_rcs", "no_levels_2_chunks", "user"])
def test_score_reuses_the_one_point_evaluation(monkeypatch, name):
    spec_text, make_data, _, _ = MODELS[name]
    data = make_data()
    warm, cold = _engine(spec_text, data), _engine(spec_text, data)
    x = _points(name, warm)[1]
    want = cold.score(x)
    warm.total_loglik(x)
    seen = []
    loglik_matrix = Evaluator.loglik_matrix

    def recorded(self, params, *args, **kw):
        cols = params[:, None] if params.ndim == 1 else params
        seen.extend(np.unique(cols.T, axis=0))
        return loglik_matrix(self, params, *args, **kw)

    monkeypatch.setattr(Evaluator, "loglik_matrix", recorded)
    got = warm.score(x)
    assert seen and not any(np.array_equal(point, x) for point in seen)
    assert np.array_equal(got, want)
    assert (warm.scores, warm.calls, warm.points) == (1, 1, 1)
