"""The score: the gradient of log L as the posterior-weighted sum of the
row derivatives.

LikelihoodEngine.score weights each row's derivatives by the posterior of
the random effects at the point, and BFGS takes its gradient from it.  The
derivatives are closed form for the submodels in engine.analytic, else
central differences taken only in the parameters the submodel depends on.
It must match central differences of the whole likelihood, keep its bits
across chunk partitions, and give way to those central differences where
it is not finite.
"""

from functools import partial

import numpy as np
import pytest

from jointfit import estimation, quadrature
from jointfit.estimation import (_BIG, GRAD_STEP, _bfgs_gradient, _neg_loglik, central_gradient,
                                 start_values)
from jointfit.evaluator import EvalError, Evaluator

from conftest import make_dataset, sim_lmm
from test_batch import MODELS, TestPenalty, _engine, _glmm_data, _model, _points
from test_reduction import no_level_data
from test_time_blocks import JOINT_SPEC, joint_data


def _labels(eng, idx):
    return [eng.ev.layout.labels[k] for k in idx]


@pytest.mark.filterwarnings("ignore:correlation matrix of dimension 2:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_score_matches_central_differences(monkeypatch, name):
    eng = _engine(*_model(monkeypatch, name))
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
    # (PASS_DOUBLES, chunks): 4-row clusters on 7 nodes; 2- to 5-row
    # clusters on 35 nodes; the EV[y] joint model's 4-row clusters on 7
    # nodes; rows
    cases = [("levels = id\ngaussian : y ~ x + M1[id]*1",
              sim_lmm(150, 4, 1.0, 0.5, sd_b=0.4, sd_e=0.4, seed=4),
              ((1, 150), (7 * 4 * 7, 22), (64 * 4 * 7, 3), (2**30, 1))),
             (shared_text, shared_data(), ((1, 90), (50 * 35, 9), (2**30, 1))),
             (JOINT_SPEC, MODELS["ev_rcs"][1](), ((1, 70), (10 * 4 * 7, 7), (2**30, 1))),
             ("gaussian : y ~ x", no_level_data(), ((1, 5000), (999, 6), (4096, 2), (5000, 1)))]
    for text, data, partitions in cases:
        results = []
        for budget, n_chunks in partitions:
            monkeypatch.setattr(estimation, "PASS_DOUBLES", budget)
            eng = _engine(text, data)
            assert len(eng.chunks) == n_chunks
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

    def test_random_effect_reaches_its_own_log_sd(self):
        # b = diag(exp(log_sd)) chol(C) z: b_k depends on log_sd_k and the
        # level's correlations only
        spec_text = ("levels = id\nip = 5\nbernoulli : yb ~ x + M1[id]*1\n"
                     "poisson : yc ~ x + M2[id]*1\n")
        eng = _engine(spec_text, _glmm_data())
        assert [_labels(eng, d) for d in eng.deps] == [["x", "_cons", "log_sd(M1)"],
                                                      ["x", "_cons", "log_sd(M2)"]]
        eng = _engine("covariance = unstructured\n" + spec_text, _glmm_data())
        assert [_labels(eng, d) for d in eng.deps] == [
            ["x", "_cons", "log_sd(M1)", "atanh_corr(M2,M1)"],
            ["x", "_cons", "log_sd(M2)", "atanh_corr(M2,M1)"]]


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
        assert eng.fallbacks == 0
        g, G = _bfgs_gradient(eng, np.asarray([0.1, 0.2, 0.0]))  # a finite score
        assert eng.fallbacks == 0 and np.array_equal(g, -np.sum(G, axis=0))
        x = np.asarray([0.1, 0.2, -800.0])  # every residual infinitely unlikely
        assert _neg_loglik(eng, x) == _BIG
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert not np.all(np.isfinite(eng.score(x)))
        want = central_gradient(partial(_neg_loglik, ref), x, GRAD_STEP)
        g, G = _bfgs_gradient(eng, x)
        assert np.array_equal(g, want) and G is None
        assert eng.fallbacks == 1

    def test_value_error_takes_central_differences(self):
        eng, ref = TestPenalty().raising_engine(), TestPenalty().raising_engine()
        x = np.asarray([0.5, 1.0, 1.0 - 0.5 * GRAD_STEP, -1.0])  # ap(1) + h > 1 raises
        with pytest.raises(ValueError):
            eng.score(x)
        want = central_gradient(partial(_neg_loglik, ref), x, GRAD_STEP)
        g, G = _bfgs_gradient(eng, x)
        assert np.array_equal(g, want) and G is None
        assert (eng.fallbacks, ref.fallbacks) == (1, 0)


@pytest.mark.parametrize("name", ["shared_re", "ev_rcs", "iev", "no_levels_2_chunks", "user"])
def test_score_reuses_the_one_point_evaluation(monkeypatch, name):
    # only a submodel whose rows are differenced centrally calls
    # loglik_matrix in score; a closed-form one evaluates eta at x
    spec_text, data = _model(monkeypatch, name)
    warm, cold = _engine(spec_text, data), _engine(spec_text, data)
    x = _points(name, warm)[1]
    want = cold.score(x)
    warm.total_loglik(x)
    seen = []
    loglik_matrix = Evaluator.loglik_matrix

    def recorded(self, params, *args, **kw):
        seen.append(params)
        return loglik_matrix(self, params, *args, **kw)

    monkeypatch.setattr(Evaluator, "loglik_matrix", recorded)
    got = warm.score(x)
    assert bool(seen) == (name in ("iev", "user"))
    assert not any(np.array_equal(point, x) for point in seen)
    assert np.array_equal(got, want)
    assert (warm.scores, warm.calls) == (1, 1)


@pytest.mark.parametrize("name, analytic", [
    ("shared_re", [True, True]),
    ("ev_rcs", [True, True]),          # the hazard reaches y through EV[y]
    ("gompertz_loading", [True, True]),
    ("two_level_poisson", [True]),
    ("rp", [False]),
    ("user", [False]),
    ("bhazard", [False]),
    ("unstructured_projected", [False]),  # atanh_corr reaches the rows
    ("iev", [True, False]),            # an iEV[y] hazard stays differenced
])
def test_closed_form_row_scores(monkeypatch, name, analytic):
    assert _engine(*_model(monkeypatch, name)).analytic == analytic


def test_time_varying_survival_predictor_is_analytic():
    eng = _engine("weibull : Surv(t, d) ~ x + x:fp(t, powers = c(0)) | timevar=t\n"
                  "gaussian : y ~ x + XB[1] | timevar=t\n", _data())
    assert eng.analytic == [True, True]
    x = start_values(eng) + 0.1
    want = central_gradient(eng.total_loglik, x, GRAD_STEP)
    assert np.max(np.abs(eng.score(x) - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["shared_re", "gaussian_rcs", "bernoulli_slope",
                                  "two_level_poisson", "ev_rcs"])
def test_eta_gradient(monkeypatch, name):
    # eta with the bits of Evaluator.eta, and each derivative against
    # central differences of eta at fixed standard-normal nodes
    eng = _engine(*_model(monkeypatch, name))
    points = [_points(name, eng)[1]]
    if name == "ev_rcs":
        # y's coefficients 0: E[y] is the draw, exactly 0 at the middle
        # node, where the hazard's EV[] column is 0 on every row
        zero = points[0].copy()
        zero[:4] = 0.0
        at = eng.chunks[0]["subs"][1][1]
        assert np.all(eng.ev.expval(zero, 0, at, eng.draws(zero))[:, 3] == 0.0)
        points.append(zero)
    for x in points:
        for i, analytic in enumerate(eng.analytic):
            assert analytic
            at = eng.chunks[0]["subs"][i][1]
            eta, grad = eng.ev.eta_gradient(x, i, at, eng.draws(x))
            assert np.array_equal(eta, eng.ev.eta(x, i, at, eng.draws(x)))
            grad = grad.dense()  # the blocks of coefficients, one array each
            assert sorted(grad) == sorted(set(eng.deps[i]) - set(eng.ev.subs[i].ap_idx))
            for k, got in grad.items():
                h = GRAD_STEP * max(1.0, abs(x[k]))
                up, down = x.copy(), x.copy()
                up[k] += h
                down[k] -= h
                want = (eng.ev.eta(up, i, at, eng.draws(up))
                        - eng.ev.eta(down, i, at, eng.draws(down))) / (2.0 * h)
                assert np.all(np.isfinite(got))
                assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


def test_eta_gradient_refuses_other_links(monkeypatch):
    # an iEV[] column's derivative is not formed; its submodel's rows are
    # differenced instead
    eng = _engine(*_model(monkeypatch, "iev"))
    x = _points("iev", eng)[1]
    with pytest.raises(EvalError, match=r"iEV\[\]"):
        eng.ev.eta_gradient(x, 1, eng.chunks[0]["subs"][1][1], eng.draws(x))


def test_score_integrates_on_the_node_blocks_of_one_cumulative_hazard(monkeypatch):
    # the hazard's node terms for all its parameters are taken on the node
    # blocks of the one-point H: as many integrand calls, and no node-block
    # frame that the one-point evaluation did not keep.  A quarter of the
    # block budget splits each chunk's 30 nodes into several blocks.
    monkeypatch.setattr(quadrature, "TIME_BLOCK_DOUBLES", quadrature.TIME_BLOCK_DOUBLES // 4)
    spec_text, data = _model(monkeypatch, "ev_rcs")
    eng = _engine(spec_text, data)
    x = _points("ev_rcs", eng)[1]
    blocks = []
    hazard, eta_gradient = Evaluator.hazard, Evaluator.eta_gradient

    def recorded_hazard(self, params, i, at, draws):
        blocks.append(len(at.rows))
        return hazard(self, params, i, at, draws)

    def recorded_gradient(self, params, i, at, draws):
        if i == 1 and at.block:
            blocks.append(len(at.rows))
        return eta_gradient(self, params, i, at, draws)

    monkeypatch.setattr(Evaluator, "hazard", recorded_hazard)
    monkeypatch.setattr(Evaluator, "eta_gradient", recorded_gradient)
    eng.total_loglik(x)
    one_h, blocks[:] = list(blocks), []

    def node_blocks():
        return [[k for k in at.kept if k[0] == "nodes"] for c in eng.chunks for _, at in c["subs"]]
    kept = node_blocks()
    eng.score(x)
    assert blocks == one_h and len(one_h) > 2
    assert node_blocks() == kept


class TestIntegratedHazardScores:
    """Closed-form scores of survival rows whose cumulative hazard is
    integrated over time nodes, and of value links: every family with a
    log-hazard offset, time-varying term, link and random-effect choice,
    each at a random point around its start values."""

    FAMILIES = ("exponential", "weibull", "gompertz", "loghazard")
    TERMS = ("x:t", "x:fp(t, powers = c(0.5))", "rcs(t, df = 2)", "rcs(t, df = 2, log = TRUE)")
    # EV[b] has a logit target; EV[w] nests w ~ EV[y]; XB[1] links a
    # gaussian submodel to the hazard's predictor
    LINKS = ("none", "EV[y]", "EV[b]", "XB[y]", "EV[w]", "XB[1]")

    @staticmethod
    def data():
        """60 rows of 20 clusters id: a survival response (t, d), a binary
        b, a measurement time and normal x, z, y and w."""
        rng = np.random.default_rng(8)
        n = 60
        return make_dataset({"id": np.repeat(np.arange(20.0), 3), "t": rng.uniform(0.3, 3.0, n),
                             "d": (rng.random(n) < 0.7) * 1.0, "time": rng.uniform(0.2, 3.0, n),
                             "b": (rng.random(n) < 0.5) * 1.0,
                             **{v: rng.normal(size=n) for v in "xzyw"}}, levels=("id",))

    @staticmethod
    def spec(family, term, link, re):
        m, m1 = (" + M1[id]", " + M1[id]*1") if re else ("", "")
        lines = ["levels = id\nip = 3"] if re else []
        linked = "" if link in ("none", "XB[1]") else " + " + link
        lines.append(f"{family} : Surv(t, d) ~ x + {term}{linked}{m} | timevar=t")
        if link in ("EV[y]", "XB[y]", "EV[w]"):
            lines.append(f"gaussian : y ~ z + time{m1} | timevar=time")
        if link == "EV[w]":
            lines.append("gaussian : w ~ EV[y] | timevar=time")
        if link == "EV[b]":
            lines.append(f"bernoulli : b ~ z + time{m1} | timevar=time")
        if link == "XB[1]":
            lines.append(f"gaussian : y ~ z + XB[1]{m1} | timevar=time")
        return "\n".join(lines) + "\n"

    def test_every_configuration_matches_central_differences(self):
        data, rng, checked = self.data(), np.random.default_rng(51), 0
        for family in self.FAMILIES:
            for term in self.TERMS:
                for link in self.LINKS:
                    for re in (False, True):
                        eng = _engine(self.spec(family, term, link, re), data)
                        assert all(eng.analytic)
                        x = start_values(eng) + rng.normal(0.0, 0.1, eng.ev.n_params())
                        want = central_gradient(eng.total_loglik, x, GRAD_STEP)
                        got = eng.score(x)
                        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))
                        checked += 1
        assert checked == 192

    @pytest.mark.parametrize("term", ["EV[y]:t", "EV[y]:rcs(t, df = 2)", "XB[y]:t:x",
                                      "EV[y]:fp(t, powers = c(0))"])
    def test_link_times_other_time_factors_matches_central_differences(self, term):
        # the link factor's derivative is multiplied by the column's other
        # factors, here functions of the survival time
        spec = ("levels = id\nip = 3\n"
                f"weibull : Surv(t, d) ~ x + {term} + M1[id] | timevar=t\n"
                "gaussian : y ~ z + time + M1[id]*1 | timevar=time\n")
        eng = _engine(spec, self.data())
        assert all(eng.analytic)
        x = start_values(eng) + np.random.default_rng(52).normal(0.0, 0.1, eng.ev.n_params())
        want = central_gradient(eng.total_loglik, x, GRAD_STEP)
        got = eng.score(x)
        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


def test_zero_weight_nodes_contribute_zero():
    # at log_sd(M1) = log 300, exp(eta) overflows on most nodes: log L is
    # -inf there, the posterior weight 0 and dl/deta = y - inf
    eng = _engine("levels = id\nip = 7\npoisson : yc ~ x + M1[id]*1\n", _glmm_data())
    assert eng.analytic == [True]
    x = start_values(eng)
    x[-1] = np.log(300.0)
    with np.errstate(over="ignore", invalid="ignore"):
        got = eng.score(x)
        want = central_gradient(eng.total_loglik, x, GRAD_STEP)
    assert np.all(np.isfinite(want))
    assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))
