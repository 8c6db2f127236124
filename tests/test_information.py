"""The observed information: the exact Hessian of the discretized
likelihood from the rows' scores at every node (Louis 1982).

LikelihoodEngine.information must match central differences of the
score, itself checked against central differences of the likelihood, on
every model whose submodels are all analytic and which has at most one
level, keep its bits across chunk partitions, and give 0 weight to nodes
of posterior weight 0.  The families' second-derivative kernels must match
central differences of their first-derivative kernels.
"""

import numpy as np
import pytest

from jointfit import estimation, families
from jointfit.estimation import start_values

import test_score
from conftest import sim_lmm
from test_batch import MODELS, _engine, _glmm_data, _model, _points
from test_reduction import no_level_data
from test_time_blocks import JOINT_SPEC

KERNEL_STEP = 1e-6   # relative step of the kernels' central differences
SCORE_STEP = 1e-5    # relative step of the score's central differences

# the hazard configurations of the score's closed-form tests
HAZARDS = test_score.TestIntegratedHazardScores

# the MODELS entries whose submodels are all analytic, with at most one level
EXACT = ["bernoulli_slope", "ev_rcs", "gaussian_rcs", "gompertz_gamma0", "gompertz_loading",
         "no_levels_2_chunks", "poisson_slope", "shared_re"]


def _close(got, want, tol=1e-6):
    got = np.broadcast_to(got, np.shape(want))
    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def _differenced(f, v, k, step=KERNEL_STEP):
    """Central difference of f in entry k of the vector v."""
    h = step * max(1.0, abs(v[k]))
    up, down = v.copy(), v.copy()
    up[k] += h
    down[k] -= h
    return (np.asarray(f(up)) - np.asarray(f(down))) / (2.0 * h)


def _score_differences(eng, x):
    """-d score / dx by central differences of engine.score, column by
    column."""
    cols = [-_differenced(eng.score, x, k, SCORE_STEP) for k in range(len(x))]
    return np.column_stack(cols)


def _check_information(eng, x):
    got = eng.information(x)
    want = _score_differences(eng, x)
    assert np.all(np.isfinite(got)) and np.array_equal(got, got.T)
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(got))


class TestKernels:
    """Each *_d2 kernel against central differences of its *_d kernel, an
    ancillary pair (k, m) as d/dap[m] of the k-th first derivative."""

    def test_every_family_with_first_derivatives_has_second(self):
        for fam in families.FAMILIES.values():
            assert (fam.loglik_d is None) == (fam.loglik_d2 is None)
            assert (fam.log_hazard_d is None) == (fam.log_hazard_d2 is None)
            assert (fam.cumhazard_d is None) == (fam.cumhazard_d2 is None)

    @staticmethod
    def pairs(ap):
        return list(zip(*np.triu_indices(len(ap))))

    @pytest.mark.parametrize("name, aps", [("gaussian", [[-0.5], [0.3]]), ("bernoulli", [[]]),
                                           ("poisson", [[]])])
    def test_loglik_d2(self, name, aps):
        fam = families.FAMILIES[name]
        rng = np.random.default_rng(3)
        y = {"gaussian": rng.normal(size=(40, 1)), "bernoulli": (rng.random((40, 1)) < 0.5) * 1.0,
             "poisson": rng.poisson(2.0, (40, 1)) * 1.0}[name]
        eta = rng.normal(0.3, 1.5, (40, 5))
        for ap in map(np.asarray, aps):
            dll, dla, daa = fam.loglik_d2(y, eta, ap)
            flat = eta.ravel()

            def first(e, k=None):
                dl, dap = fam.loglik_d(y, e.reshape(eta.shape), ap)
                return dl if k is None else dap[k]
            # d2l/deta2 elementwise: each eta moves on its own
            h = KERNEL_STEP * np.maximum(1.0, np.abs(flat))
            want = (first(flat + h) - first(flat - h)) / (2.0 * h.reshape(eta.shape))
            _close(dll, want)
            assert len(dla) == len(ap) and len(daa) == len(self.pairs(ap))
            for k in range(len(ap)):
                # d2l/deta dap[k] as d/dap[k] of dl/deta and as d/deta of dl/dap[k]
                _close(dla[k], _differenced(lambda a: fam.loglik_d(y, eta, a)[0], ap, k))
                _close(dla[k], (first(flat + h, k) - first(flat - h, k)) / (2.0 * h.reshape(eta.shape)))
            for (k, m), got in zip(self.pairs(ap), daa):
                _close(got, _differenced(lambda a: fam.loglik_d(y, eta, a)[1][k], ap, m))

    # gompertz gamma t crosses the series bounds of both kernels (1e-3 and
    # 0.1) on this grid, and is exactly 0 at gamma = 0
    T = np.asarray([1e-3, 0.05, 0.3, 1.0, 2.5, 7.0])[:, None]

    @pytest.mark.parametrize("name, aps", [
        ("exponential", [[]]),
        ("weibull", [[-0.4], [0.0], [0.5]]),
        ("gompertz", [[0.0], [1e-4], [4e-3], [0.03], [-0.3], [0.6]]),
        ("loghazard", [[]]),
    ])
    def test_survival_d2(self, name, aps):
        fam = families.FAMILIES[name]
        for ap in map(lambda a: np.asarray(a, dtype=float), aps):
            kernels = [(fam.log_hazard_d, fam.log_hazard_d2)]
            if fam.cumhazard is not None:
                kernels.append((fam.cumhazard_d, fam.cumhazard_d2))
            for d1, d2 in kernels:
                got = d2(self.T, ap)
                assert len(got) == len(self.pairs(ap))
                for (k, m), g in zip(self.pairs(ap), got):
                    _close(g, _differenced(lambda a: d1(self.T, a)[k], ap, m))

    @pytest.mark.parametrize("kernel, bound", [(families._gompertz_lambda0_d, 1e-3),
                                               (families._gompertz_lambda0_d2, 0.1)])
    def test_gompertz_series_meets_the_closed_form(self, kernel, bound):
        # at either side of |gamma t| = bound, series and closed form agree
        # to rounding; an error in one of the series' first terms would show
        t = np.asarray([[0.5]])
        for sign in (1.0, -1.0):
            below = kernel(t, np.asarray([sign * bound * (1.0 - 1e-12) / 0.5]))[0]
            above = kernel(t, np.asarray([sign * bound * (1.0 + 1e-12) / 0.5]))[0]
            assert abs(below[0, 0] / above[0, 0] - 1.0) < 1e-11


class TestOutsideTheExactModels:
    """A model outside engine.exact_information is refused with a
    ValueError that names its submodels whose row derivatives are not
    closed form, by 1-based number, or its level count."""

    REASONS = {"bhazard": "in submodel 1", "iev": "in submodel 2", "rp": "in submodel 1",
               "two_level_poisson": "2 levels", "two_level_shuffled": "2 levels",
               "unstructured_projected": "in submodel 1", "user": "in submodel 1"}

    def test_every_other_model_has_a_reason(self):
        assert sorted(self.REASONS) == sorted(set(MODELS) - set(EXACT))

    @pytest.mark.filterwarnings("ignore:correlation matrix of dimension 2:RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(REASONS))
    def test_refused_with_the_reason(self, monkeypatch, name):
        eng = _engine(*_model(monkeypatch, name))
        reason = self.REASONS[name]
        want = ("no closed-form row derivatives " + reason if reason.startswith("in ")
                else reason + ", of at most 1")
        with pytest.raises(ValueError, match=f"^no exact information: {want}$"):
            eng.information(_points(name, eng, n_points=2)[0])


class TestPackings:
    """The two packings of LikelihoodEngine._row_terms agree to first
    order: the information's node scores, weighted by the posterior node
    weights and summed per top-level cluster, are cluster_scores, within
    1e-12 of each parameter's largest."""

    @staticmethod
    def weighted_node_scores(eng, x):
        draws, n, nq, out = eng.draws(x), len(x), eng.nq, []
        for chunk, (W, unit) in zip(eng.chunks, eng._weights(x, draws)):
            rows = np.zeros((len(chunk["rows"]), n))
            for i, deps in enumerate(eng.deps):
                local, at = chunk["subs"][i]
                if len(local):
                    Wl = W[unit[local]]
                    packed = eng._row_terms(i, x, draws, at, Wl, deps, second=True)
                    node_scores = packed[:, :len(deps) * nq].reshape(len(local), len(deps), nq)
                    rows[np.ix_(local, deps)] += np.sum(node_scores * Wl[:, None, :], axis=-1)
            out.append(np.column_stack([np.bincount(chunk["top"], weights=r) for r in rows.T]))
        return np.concatenate(out)

    @pytest.mark.parametrize("name", EXACT)
    def test_node_scores_sum_to_the_cluster_scores(self, monkeypatch, name):
        eng = _engine(*_model(monkeypatch, name))
        for x in _points(name, eng, n_points=2):
            want = eng.cluster_scores(x)
            got = self.weighted_node_scores(eng, x)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), axis=0))


class TestInformation:
    """information(x) against central differences of the score (step
    1e-5 max(1, |x|)), to 1e-6 of the largest entry."""

    @pytest.mark.filterwarnings("ignore:correlation matrix of dimension 2:RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_models_that_qualify(self, monkeypatch, name):
        eng = _engine(*_model(monkeypatch, name))
        assert eng.exact_information == (name in EXACT)
        if not eng.exact_information:
            return
        for x in _points(name, eng, n_points=3):
            _check_information(eng, x)

    def test_randomized_configurations(self):
        # a survival family, a time term (none: a closed-form Lambda0 when
        # there is no link either) and a link, with or without M1[id],
        # drawn at random, each at a random point around its start values
        data, rng = HAZARDS.data(), np.random.default_rng(61)
        terms = ("none",) + HAZARDS.TERMS
        links = HAZARDS.LINKS
        closed = 0
        for _ in range(40):
            family = rng.choice(HAZARDS.FAMILIES)
            term, link, re = rng.choice(terms), rng.choice(links), bool(rng.integers(2))
            spec = HAZARDS.spec(family, term, link, re)
            spec = spec.replace(" + none", "")
            eng = _engine(spec, data)
            assert eng.exact_information
            closed += eng.ev.closed_form_cumhazard(0)
            x = start_values(eng) + rng.normal(0.0, 0.1, eng.ev.n_params())
            _check_information(eng, x)
        assert closed > 0

    @pytest.mark.parametrize("spec", [
        # a link factor times the random effect, and two link factors in one
        # column, beside the free loading M1[id]
        "weibull : Surv(t, d) ~ x + EV[y]:M1[id] + EV[y]:EV[b] + M1[id] | timevar=t\n"
        "gaussian : y ~ z + time + M1[id]*1 | timevar=time\n"
        "bernoulli : b ~ z + M1[id]*1 | timevar=time\n",
        "gompertz : Surv(t, d) ~ x + x:t + XB[y]:M1[id] | timevar=t\n"
        "gaussian : y ~ z + time + M1[id] | timevar=time\n",
    ])
    def test_products_of_parameter_factors(self, spec):
        eng = _engine("levels = id\nip = 3\n" + spec, HAZARDS.data())
        assert eng.exact_information
        x = start_values(eng) + np.random.default_rng(62).normal(0.0, 0.1, eng.ev.n_params())
        _check_information(eng, x)

    def test_zero_weight_nodes_contribute_zero(self):
        # at log_sd(M1) = log 300, exp(eta) overflows on most nodes: log L is
        # -inf there and the posterior weight 0
        eng = _engine("levels = id\nip = 7\npoisson : yc ~ x + M1[id]*1\n", _glmm_data())
        x = start_values(eng)
        x[-1] = np.log(300.0)
        with np.errstate(over="ignore", invalid="ignore"):
            _check_information(eng, x)

    def test_bitwise_invariant_to_the_chunk_partition(self, monkeypatch):
        # cold, and warm from a one-point evaluation at the same point.
        # (PASS_DOUBLES, chunks): 4-row clusters on 7 nodes; 2- to 5-row
        # clusters on 35 nodes; the EV[y] joint model's 4-row clusters on 7
        # nodes; rows
        cases = [("levels = id\ngaussian : y ~ x + M1[id]*1",
                  sim_lmm(150, 4, 1.0, 0.5, sd_b=0.4, sd_e=0.4, seed=4),
                  ((1, 150), (7 * 4 * 7, 22), (2**30, 1))),
                 (MODELS["shared_re"][0], MODELS["shared_re"][1](),
                  ((1, 90), (50 * 35, 9), (2**30, 1))),
                 (JOINT_SPEC, MODELS["ev_rcs"][1](), ((1, 70), (10 * 4 * 7, 7), (2**30, 1))),
                 ("gaussian : y ~ x", no_level_data(), ((999, 6), (4096, 2), (5000, 1)))]
        for text, data, partitions in cases:
            results = []
            for budget, n_chunks in partitions:
                monkeypatch.setattr(estimation, "PASS_DOUBLES", budget)
                eng = _engine(text, data)
                assert len(eng.chunks) == n_chunks and eng.exact_information
                x = start_values(eng) + 0.1
                cold = eng.information(x)
                eng.total_loglik(x)
                results += [cold, eng.information(x)]
            assert all(np.array_equal(got, results[0]) for got in results[1:])
