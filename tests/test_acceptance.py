"""End-to-end acceptance gate.

One test class per criterion: quadrature exactness, closed-form oracle
equivalence, integral accuracy, parameter recovery, derivative
consistency, competing-risks identities, user-family equivalence, a
large four-submodel fit, and bitwise reproducibility across chunk
partitions.  Checks against the published clinical dataset run only when
its CSV fixture is present.
"""

import json
import os
import time
import warnings

import numpy as np
import pytest
from scipy.stats import norm

import jointfit as jf
from jointfit import estimation
from jointfit.estimation import LikelihoodEngine, fit_to_json
from jointfit.evaluator import Evaluator
from jointfit.prediction import FittedModel, PredictRequest, predict_stat
from jointfit.quadrature import Frame, gauss_hermite

from conftest import fit_spec, make_dataset, sim_lmm, sim_weibull

HEART_VALVE = os.path.join(os.path.dirname(__file__), "fixtures",
                           "heart_valve.csv")


def double_factorial(k):
    return int(np.prod(np.arange(k, 0, -2))) if k > 0 else 1


def predict(model, **kw):
    return predict_stat(model, PredictRequest(**kw))


class TestCriterion1Quadrature:
    def test_gh_moments_exact(self):
        start = time.perf_counter()
        for n in (3, 5, 7, 15):
            x, w = gauss_hermite(n)
            for k in range(2 * n):
                got = w @ x**k
                want = 0.0 if k % 2 else float(double_factorial(k - 1))
                # relative to the magnitude of the summed terms, since odd
                # moments vanish only by cancellation
                scale = w @ np.abs(x) ** k if k else 1.0
                assert abs(got - want) / scale < 1e-8
        assert time.perf_counter() - start < 1.0


class TestCriterion2GaussianOracle:
    def test_twenty_datasets_match_normal_equations(self):
        start = time.perf_counter()
        for rep in range(20):
            rng = np.random.default_rng(100 + rep)
            n = 500
            x1 = rng.normal(size=n)
            x2 = rng.normal(size=n)
            y = 0.5 + 1.2 * x1 - 0.4 * x2 + rng.normal(0, 0.8, n)
            d = make_dataset({"y": y, "x1": x1, "x2": x2})
            fit = fit_spec("gaussian : y ~ x1 + x2", d)

            X = np.column_stack([x1, x2, np.ones(n)])
            beta = np.linalg.solve(X.T @ X, X.T @ y)
            resid = y - X @ beta
            log_sd = 0.5 * np.log(resid @ resid / n)
            want = np.concatenate([beta, [log_sd]])
            assert np.max(np.abs(fit.estimates - want)) < 1e-6
        assert time.perf_counter() - start < 10.0


class TestCriterion3LmmIntegral:
    @pytest.mark.parametrize("sd_b", [0.1, 0.5, 1.0])
    def test_one_cluster_gh7_matches_marginal_normal(self, sd_b):
        start = time.perf_counter()
        d = make_dataset({"id": [0], "y": [0.7], "x": [0.0]},
                         levels=("id",))
        spec = jf.parse_spec_text("levels = id\ngaussian : y ~ x + M1[id]*1")
        jf.validate_spec(spec, d)
        eng = LikelihoodEngine(Evaluator(spec, d))
        sd_e = 2.0
        # layout: x, _cons, log_sd(resid.), log_sd(M1)
        p = np.asarray([0.0, 0.2, np.log(sd_e), np.log(sd_b)])
        got = eng.total_loglik(p)
        want = norm.logpdf(0.7, 0.2, np.hypot(sd_b, sd_e))
        assert abs(got - want) < 1e-6
        assert time.perf_counter() - start < 1.0


class TestCriterion4Recovery:
    """Each parameter within 2 SE of truth in >= 18/20 replications."""

    REPS = 20
    MIN_HITS = 18

    @classmethod
    def setup_class(cls):
        cls.t0 = time.perf_counter()

    @classmethod
    def teardown_class(cls):
        assert time.perf_counter() - cls.t0 < 600.0

    def check_coverage(self, hits):
        for label, count in hits.items():
            assert count >= self.MIN_HITS, \
                f"{label}: only {count}/{self.REPS} within 2 SE"

    def tally(self, hits, fit, truth):
        se = fit.std_errors()
        for i, label in enumerate(fit.labels):
            ok = abs(fit.estimates[i] - truth[label]) <= 2 * se[i]
            hits[label] = hits.get(label, 0) + int(ok)

    def test_weibull_ph(self):
        lam, gamma, beta = 0.1, 1.5, 0.5
        truth = {"x": beta, "_cons": np.log(lam), "log(gamma)": np.log(gamma)}
        hits = {}
        for rep in range(self.REPS):
            d = sim_weibull(2000, lam, gamma, beta, seed=200 + rep,
                            cens_rate=0.07)  # ~30% censoring
            fit = fit_spec("weibull : Surv(t, d) ~ x", d)
            self.tally(hits, fit, truth)
        self.check_coverage(hits)

    def test_random_intercept_gaussian(self):
        truth = {"x": 0.8, "_cons": 1.5, "log_sd(resid.)": np.log(0.3),
                 "log_sd(M1)": np.log(0.5)}
        hits = {}
        for rep in range(self.REPS):
            d = sim_lmm(300, 4, 1.5, 0.8, sd_b=0.5, sd_e=0.3,
                        seed=1300 + rep)
            # the intercept posterior is ~3x narrower than its prior here;
            # non-adaptive nodes need to be dense enough to resolve it
            fit = fit_spec("levels = id\nip = 51\ngaussian : y ~ x + M1[id]*1",
                           d)
            self.tally(hits, fit, truth)
        self.check_coverage(hits)

    def sim_shared_intercept(self, n_clusters, assoc, seed):
        """Longitudinal gaussian + exponential survival whose log-rate
        loads the cluster intercept with coefficient `assoc`."""
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(n_clusters):
            b0 = rng.normal(0.0, 0.5)
            lam = 0.1 * np.exp(assoc * b0)
            t = min(rng.exponential(1.0 / lam), 5.0)
            d = float(t < 5.0)
            for tt in (0.0, 1.0, 2.0, 3.0):
                if tt > t:
                    break
                y = 1.0 + 0.2 * tt + b0 + rng.normal(0.0, 0.3)
                rows.append((i, tt, y, np.nan, np.nan))
            rows.append((i, np.nan, np.nan, t, d))
        arr = np.asarray(rows, dtype=float)
        return make_dataset(
            {"id": arr[:, 0], "time": arr[:, 1], "y": arr[:, 2],
             "st": arr[:, 3], "sd": arr[:, 4]}, levels=("id",))

    def test_joint_shared_random_intercept(self):
        truth = {"M1": 1.0, "_cons": None, "log(gamma)": 0.0,
                 "time": 0.2, "log_sd(resid.)": np.log(0.3),
                 "log_sd(M1)": np.log(0.5)}
        hits = {}
        for rep in range(self.REPS):
            d = self.sim_shared_intercept(300, assoc=1.0, seed=400 + rep)
            fit = fit_spec(
                "levels = id\n"
                "ip = 35\n"
                "weibull : Surv(st, sd) ~ M1[id] | timevar=st\n"
                "gaussian : y ~ time + M1[id]*1 | timevar=time\n",
                d)
            se = fit.std_errors()
            cons_truth = iter([np.log(0.1), 1.0])  # survival then gaussian
            for i, label in enumerate(fit.labels):
                want = next(cons_truth) if label == "_cons" else truth[label]
                ok = abs(fit.estimates[i] - want) <= 2 * se[i]
                key = f"{label}#{i}"
                hits[key] = hits.get(key, 0) + int(ok)
        self.check_coverage(hits)


class TestCriterion5Derivatives:
    def test_200_random_configurations(self):
        start = time.perf_counter()
        rng = np.random.default_rng(50)
        n = 6
        d = make_dataset({
            "id": np.arange(n), "y": rng.normal(size=n),
            "x": rng.normal(size=n),
            "time": np.linspace(0.5, 3.0, n),
            "st": np.linspace(0.8, 4.0, n), "sd": np.ones(n),
        }, levels=("id",))
        spec = jf.parse_spec_text(
            "levels = id\n"
            "gaussian : y ~ x + time + M1[id]*1 | timevar=time\n"
            "weibull : Surv(st, sd) ~ x + rcs(st, df = 3) "
            "+ fp(st, powers = c(0.5, 0.5)) + EV[y] + M1[id] | timevar=st\n")
        jf.validate_spec(spec, d)
        ev = Evaluator(spec, d)
        rows = np.arange(n)
        draws = {"M1": np.asarray([0.3])}
        h1 = 1e-5
        h2 = 3e-4  # wider step: second differences lose ~2h digits to roundoff
        checked = 0
        for cfg in range(200):
            p = rng.normal(0.0, 0.4, ev.n_params())
            t = rng.uniform(0.9, 3.8, n)
            for sub in (0, 1):
                d1 = ev.eta(p, sub, Frame(rows, t), draws, "d1")
                d2 = ev.eta(p, sub, Frame(rows, t), draws, "d2")
                fd1 = (ev.eta(p, sub, Frame(rows, t + h1), draws, "value")
                       - ev.eta(p, sub, Frame(rows, t - h1), draws, "value")) / (2 * h1)
                mid = ev.eta(p, sub, Frame(rows, t), draws, "value")
                fd2 = (ev.eta(p, sub, Frame(rows, t + h2), draws, "value")
                       - 2 * mid
                       + ev.eta(p, sub, Frame(rows, t - h2), draws, "value")) / h2**2
                scale1 = np.maximum(np.abs(fd1), 1.0)
                scale2 = np.maximum(np.abs(fd2), 1.0)
                assert np.max(np.abs(d1 - fd1) / scale1) < 1e-5
                assert np.max(np.abs(d2 - fd2) / scale2) < 1e-5
                checked += 1
        assert checked == 400
        assert time.perf_counter() - start < 30.0

    def test_rp_hazard_vs_fd_of_cumhazard(self):
        rng = np.random.default_rng(51)
        n = 40
        t_obs = rng.uniform(0.5, 5.0, n)
        d = make_dataset({"t": t_obs, "d": np.ones(n),
                          "x": rng.normal(size=n)})
        spec = jf.parse_spec_text(
            "rp : Surv(t, d) ~ x + rcs(t, df = 3, log = TRUE, event = TRUE)"
            " | timevar=t")
        jf.validate_spec(spec, d)
        ev = Evaluator(spec, d)
        p = rng.normal(0.0, 0.3, ev.n_params())
        rows = np.arange(n)
        t = rng.uniform(1.0, 4.5, n)
        h = 1e-5
        hz = ev.hazard(p, 0, Frame(rows, t), {})
        Hp = ev.cumhazard(p, 0, Frame(rows, t + h), {})
        Hm = ev.cumhazard(p, 0, Frame(rows, t - h), {})
        fd = (Hp - Hm) / (2 * h)
        assert np.max(np.abs(hz - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-5


@pytest.fixture(scope="module")
def cr_accept_model():
    start = time.perf_counter()
    rng = np.random.default_rng(60)
    n = 700
    x = rng.integers(0, 2, n).astype(float)
    t1 = rng.exponential(1.0 / (0.12 * np.exp(0.4 * x)))
    t2 = rng.exponential(1.0 / 0.08, n)
    t = np.maximum(np.minimum(t1, t2), 1e-6)
    d = make_dataset({"t": t, "d1": (t1 <= t2).astype(float),
                      "d2": (t2 < t1).astype(float), "x": x})
    fit = fit_spec(
        "exponential : Surv(t, d1) ~ x\nexponential : Surv(t, d2) ~ x\n", d)
    model = FittedModel(fit, d)
    model._accept_t0 = start
    return model


class TestCriterion6CompetingRisks:
    @pytest.fixture
    def model(self, cr_accept_model):
        return cr_accept_model

    def rates(self, model):
        idx = [i for i, l in enumerate(model.fit.labels) if l == "_cons"]
        return (np.exp(model.fit.estimates[idx[0]]),
                np.exp(model.fit.estimates[idx[1]]))

    def test_mass_identity_at_50_times(self, model):
        for t in np.linspace(0.1, 10.0, 50):
            tt = np.asarray([t])
            c1 = predict(model, statistic="cif", predmodel=1, times=tt,
                         at={"x": 1.0})["values"][0]
            c2 = predict(model, statistic="cif", predmodel=2, times=tt,
                         at={"x": 1.0})["values"][0]
            s1 = predict(model, statistic="survival", predmodel=1, times=tt,
                         at={"x": 1.0})["values"][0]
            s2 = predict(model, statistic="survival", predmodel=2, times=tt,
                         at={"x": 1.0})["values"][0]
            assert abs(c1 + c2 + s1 * s2 - 1.0) < 1e-6

    def test_rmst_identities(self, model):
        t = np.asarray([4.0])
        rmst = predict(model, statistic="rmst", times=t, at={"x": 0.0})
        ttl = predict(model, statistic="totaltimelost", times=t,
                      at={"x": 0.0})
        assert np.array_equal(rmst["values"], t - ttl["values"])
        l1, l2 = self.rates(model)
        tot = l1 + l2
        want = (1.0 - np.exp(-tot * 4.0)) / tot  # integral of exp(-tot u)
        assert abs(rmst["values"][0] - want) < 1e-6

    def test_constant_hazard_closed_forms(self, model):
        l1, l2 = self.rates(model)
        tot = l1 + l2
        for t in (1.0, 3.0, 7.0):
            tt = np.asarray([t])
            c1 = predict(model, statistic="cif", predmodel=1, times=tt,
                         at={"x": 0.0})["values"][0]
            want = l1 / tot * (1.0 - np.exp(-tot * t))
            assert abs(c1 - want) < 1e-8
        assert time.perf_counter() - model._accept_t0 < 30.0


class TestCriterion7UserFamily:
    def test_user_gaussian_equals_builtin(self):
        start = time.perf_counter()
        d = sim_lmm(80, 4, 1.2, 0.6, sd_b=0.5, sd_e=0.4, seed=70)
        builtin = fit_spec("levels = id\ngaussian : y ~ x + M1[id]*1", d)
        user = fit_spec(
            "levels = id\n"
            "user : y ~ x + M1[id]*1 + ap(1) | userf=logl_gaussian", d)
        assert abs(user.loglik - builtin.loglik) < 1e-6
        assert np.max(np.abs(user.estimates - builtin.estimates)) < 1e-6
        assert np.max(np.abs(user.std_errors() - builtin.std_errors())) < 1e-6
        i_ap = user.labels.index("_ap1")
        i_sd = builtin.labels.index("log_sd(resid.)")
        assert abs(user.estimates[i_ap] - builtin.estimates[i_sd]) < 1e-6
        assert time.perf_counter() - start < 30.0


needs_fixture = pytest.mark.skipif(
    not os.path.exists(HEART_VALVE),
    reason="clinical dataset fixture not present")


class TestCriterion8Fixture:
    @pytest.fixture(scope="class")
    def heart(self):
        return jf.load_table(HEART_VALVE)

    @needs_fixture
    def test_gaussian_reference_fit(self, heart):
        fit = fit_spec("gaussian : log.grad ~ sex + age + time", heart)
        want = {"sex": 0.140489, "age": -0.002212, "time": -0.013541,
                "_cons": 2.771597, "log_sd(resid.)": -0.383205}
        est = dict(zip(fit.labels, fit.estimates))
        for k, v in want.items():
            assert abs(est[k] - v) < 1e-3
        assert abs(fit.loglik - (-651.4753)) < 0.01

    @needs_fixture
    def test_weibull_reference_fit_and_prediction(self, heart):
        fit = fit_spec("weibull : Surv(stime, died) ~ age + type", heart)
        want = {"age": 0.09731, "type": 0.03834, "_cons": -11.68669,
                "log(gamma)": 0.64107}
        est = dict(zip(fit.labels, fit.estimates))
        for k, v in want.items():
            assert abs(est[k] - v) < 1e-3
        model = FittedModel(fit, heart)
        res = predict(model, statistic="survival")
        assert abs(res["values"][0] - 0.7625097) < 1e-3

    @needs_fixture
    def test_two_level_reference_loglik(self, heart):
        fit = fit_spec(
            "levels = id\n"
            "covariance = unstructured\n"
            "ip = 7\n"
            "gaussian : log.grad ~ sex + time + M1[id]*1 + M2[id]:time*1\n",
            heart)
        assert abs(fit.loglik - (-612.58)) < 0.05

    def sim_four_outcome(self, n_clusters, seed):
        """Two cause-specific survival outcomes plus continuous and
        binary longitudinal outcomes sharing two cluster intercepts."""
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(n_clusters):
            b1 = rng.normal(0.0, 0.4)
            # the binary outcome must carry real information about its
            # intercept scale, or the unconstrained loading drifts
            b2 = rng.normal(0.0, 1.2)
            x = float(rng.integers(0, 2))
            l1 = 0.09 * np.exp(0.3 * x + 0.5 * b2)
            l2 = 0.07 * np.exp(0.2 * x + 0.5 * b1)
            t1 = rng.exponential(1.0 / l1)
            t2 = rng.exponential(1.0 / l2)
            t = min(t1, t2, 5.0)
            d1 = float(t1 <= t2 and t1 < 5.0)
            d2 = float(t2 < t1 and t2 < 5.0)
            # strictly positive visit times: the binary submodel uses a
            # fractional-polynomial time basis
            for tt in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
                if tt > t:
                    break
                y = 1.0 + 0.1 * x + 0.2 * tt + b1 + rng.normal(0.0, 0.3)
                pz = 1.0 / (1.0 + np.exp(0.5 - 0.2 * tt - b2))
                z = float(rng.random() < pz)
                rows.append((i, x, tt, y, z, np.nan, np.nan, np.nan))
            rows.append((i, x, np.nan, np.nan, np.nan,
                         max(t, 1e-6), d1, d2))
        arr = np.asarray(rows, dtype=float)
        return make_dataset(
            {"id": arr[:, 0], "x": arr[:, 1], "time": arr[:, 2],
             "y": arr[:, 3], "z": arr[:, 4], "st": arr[:, 5],
             "d1": arr[:, 6], "d2": arr[:, 7]}, levels=("id",))

    # from the BHHH start the search's steps are scaled to the likelihood,
    # so no trial point reaches a correlation of exactly +-1 (tanh of a
    # large atanh_corr) and nothing is projected back into the PD cone
    # (test_engine_warns_once_per_fit covers the one warning per fit)
    def test_four_submodel_fit_converges(self):
        start = time.perf_counter()
        d = self.sim_four_outcome(100, seed=80)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            fit = fit_spec(
            "levels = id\n"
            "covariance = unstructured\n"
            "ip = 5\n"
                "weibull : Surv(st, d1) ~ x + EV[y] + M2[id] | timevar=st\n"
                "weibull : Surv(st, d2) ~ x + x:fp(st, powers = c(0)) + M1[id]"
                " | timevar=st\n"
                "gaussian : y ~ x + rcs(time, df = 3, orthog = TRUE) + M1[id]*1"
                " | timevar=time\n"
                "bernoulli : z ~ fp(time, powers = c(1)) + M2[id]*1"
                " | timevar=time\n",
                d, max_iter=400)
        projected = [w for w in seen if "correlation matrix of dimension 2" in str(w.message)]
        assert len(projected) == 0
        assert fit.converged
        assert np.isfinite(fit.loglik)
        assert any(l.startswith("atanh_corr(") for l in fit.labels)
        assert time.perf_counter() - start < 900.0


class TestCriterion9Reproducibility:
    def test_bitwise_identical_json_across_chunk_partitions(self, monkeypatch):
        d = sim_lmm(40, 4, 1.0, 0.6, sd_b=0.5, sd_e=0.4, seed=90)
        spec_text = "levels = id\ngaussian : y ~ x + M1[id]*1"
        spec = jf.validate_spec(jf.parse_spec_text(spec_text), d)
        docs = []
        for size, n_chunks in ((1, 40), (7, 6), (64, 1)):
            # size 4-row clusters per chunk on 7 nodes
            monkeypatch.setattr(estimation, "PASS_DOUBLES", size * 4 * 7)
            assert len(LikelihoodEngine(Evaluator(spec, d)).chunks) == n_chunks
            fit = fit_spec(spec_text, d, seed=11)
            docs.append(fit_to_json(fit))
        assert docs[0] == docs[1] == docs[2]
        # and the payload itself is well-formed
        loaded = json.loads(docs[0])
        assert loaded["converged"]
