"""Marginal likelihood assembly, optimizer, and reporting."""

import logging
import re

import numpy as np
import pytest
from scipy.stats import norm

import jointfit as jf
from jointfit import estimation
from jointfit.estimation import (LikelihoodEngine, fit_from_json, fit_to_json,
                                 start_values, summary_table)
from jointfit.evaluator import Evaluator
from jointfit.userfam import logl_gaussian, register_user_family

from conftest import fit_spec, make_dataset, sim_lmm, sim_weibull
from test_batch import _glmm_data
from test_reduction import TWO_LEVEL_SPEC, no_level_data, two_level_data


def engine_for(text, data, seed=0):
    spec = jf.parse_spec_text(text)
    jf.validate_spec(spec, data)
    return LikelihoodEngine(Evaluator(spec, data), seed=seed)


class TestClusterLoglik:
    def test_no_random_effects_sums_observations(self):
        rng = np.random.default_rng(0)
        d = make_dataset({"y": rng.normal(size=20), "x": rng.normal(size=20)})
        eng = engine_for("gaussian : y ~ x", d)
        p = np.asarray([0.5, 0.2, -0.1])
        want = norm.logpdf(d.column("y"), 0.5 * d.column("x") + 0.2,
                           np.exp(-0.1)).sum()
        assert abs(eng.total_loglik(p) - want) < 1e-10

    def test_one_obs_convolution_oracle(self):
        # single observation with random intercept: marginal density is
        # N(y; mu, sd_b^2 + sd_e^2)
        for sd_b in (0.1, 0.5, 1.0):
            d = make_dataset({"id": [1], "y": [0.7]}, levels=("id",))
            eng = engine_for("levels = id\ngaussian : y ~ M1[id]*1", d)
            # residual sd 2.0: non-adaptive nodes follow the prior, so the
            # integrand must be flat relative to the node spread for GH(7)
            # to hit 1e-6
            mu, log_se = 0.2, np.log(2.0)
            p = np.asarray([mu, log_se, np.log(sd_b)])
            want = norm.logpdf(0.7, mu, np.hypot(sd_b, 2.0))
            assert abs(eng.total_loglik(p) - want) < 1e-6

    def test_multi_obs_cluster_vs_closed_form(self):
        # joint normal with equicorrelated covariance sd_b^2 J + sd_e^2 I
        rng = np.random.default_rng(1)
        m, sd_b, sd_e = 4, 0.6, 1.0
        y = rng.normal(size=m)
        d = make_dataset({"id": np.ones(m), "y": y}, levels=("id",))
        eng = engine_for("levels = id\nip = 30\ngaussian : y ~ M1[id]*1", d)
        mu = 0.1
        p = np.asarray([mu, np.log(sd_e), np.log(sd_b)])
        cov = sd_b**2 * np.ones((m, m)) + sd_e**2 * np.eye(m)
        from scipy.stats import multivariate_normal
        want = multivariate_normal.logpdf(y, np.full(m, mu), cov)
        assert abs(eng.total_loglik(p) - want) < 1e-6

    def test_ip_refinement(self):
        d = sim_lmm(10, 3, 1.0, 0.5, sd_b=0.3, sd_e=1.0, seed=5)
        p = None
        vals = {}
        for ip in (7, 15, 31, 51):
            eng = engine_for(f"levels = id\nip = {ip}\n"
                             "gaussian : y ~ x + M1[id]*1", d)
            if p is None:
                p = start_values(eng) + 0.05
            vals[ip] = eng.total_loglik(p)
        # errors against the densest rule shrink as the rule is refined
        gaps = [abs(vals[ip] - vals[51]) for ip in (7, 15, 31)]
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        assert gaps[2] < 1e-4

    def test_doubling_data_doubles_loglik(self):
        d = sim_lmm(8, 3, 1.0, 0.5, sd_b=0.3, sd_e=0.4, seed=2)
        text = "levels = id\ngaussian : y ~ x + M1[id]*1"
        eng1 = engine_for(text, d)
        d2 = make_dataset({
            "id": np.concatenate([d.column("id"), d.column("id") + 100]),
            "x": np.tile(d.column("x"), 2),
            "y": np.tile(d.column("y"), 2),
        }, levels=("id",))
        eng2 = engine_for(text, d2)
        p = start_values(eng1) + 0.1
        assert abs(eng2.total_loglik(p) - 2.0 * eng1.total_loglik(p)) < 1e-8

    def test_row_permutation_invariance(self):
        d = sim_lmm(8, 3, 1.0, 0.5, sd_b=0.3, sd_e=0.4, seed=3)
        rng = np.random.default_rng(0)
        perm = rng.permutation(d.n_rows)
        dp = make_dataset({k: v[perm] for k, v in d.columns.items()},
                          levels=("id",))
        text = "levels = id\ngaussian : y ~ x + M1[id]*1"
        eng1, eng2 = engine_for(text, d), engine_for(text, dp)
        p = start_values(eng1) + 0.1
        # within-cluster segment sums may accumulate in a different order
        assert np.isclose(eng1.total_loglik(p), eng2.total_loglik(p),
                          rtol=1e-12, atol=0.0)

    def test_chunk_partition_bitwise_invariance(self, monkeypatch):
        # the clusters (rows, without levels) may be split into chunks of
        # any size: every cluster value and total keeps its bits
        lmm = sim_lmm(150, 4, 1.0, 0.5, sd_b=0.4, sd_e=0.4, seed=4)
        # sizes: clusters per chunk, 4 rows on 7 nodes each, or rows per
        # chunk without levels
        cases = [("levels = id\ngaussian : y ~ x + M1[id]*1", lmm, 150, 4 * 7,
                  (1, 7, 64, 1000)),
                 ("gaussian : y ~ x", no_level_data(), 5000, 1, (1, 999, 4096, 5000))]
        for text, d, n, doubles, sizes in cases:
            results = []
            for size in sizes:
                monkeypatch.setattr(estimation, "PASS_DOUBLES", size * doubles)
                eng = engine_for(text, d)
                assert len(eng.chunks) == -(-n // size)
                p = start_values(eng) + 0.1
                P = p + 0.01 * np.arange(3)[:, None]
                results.append((eng.cluster_logliks(p), [eng.total_loglik(x) for x in P],
                                eng.cluster_logliks(P), eng.total_loglik(P)))
            for got in results[1:]:
                for a, b in zip(got, results[0]):
                    assert np.array_equal(a, b)


def uneven_clusters(seed=5):
    """Random-intercept data of 30 clusters id of 1 to 12 rows and one of
    40, rows shuffled."""
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.arange(31), np.append(rng.integers(1, 13, 30), 40))
    ids = ids[rng.permutation(len(ids))]
    return make_dataset({"id": ids, "x": rng.normal(size=len(ids)),
                         "y": rng.normal(size=len(ids))}, levels=("id",))


class TestChunks:
    """The partition rule: whole top-level clusters, in order, as many per
    chunk as keep its rows x nq within PASS_DOUBLES, and at least one."""

    CASES = [("levels = id\nip = 3\ngaussian : y ~ x + M1[id]*1", uneven_clusters,
              (1, 60, 99, 2**30)),
             ("levels = p,s\nip = 3\ngaussian : y ~ M1[p]*1 + M2[s]*1\n", two_level_data,
              (1, 95, 300, 2**30)),
             ("gaussian : y ~ x", lambda: no_level_data(300), (1, 7, 64, 300))]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_partition_rule(self, monkeypatch, case):
        text, make_data, budgets = self.CASES[case]
        d = make_data()
        for budget in budgets:
            monkeypatch.setattr(estimation, "PASS_DOUBLES", budget)
            eng = engine_for(text, d)
            levels = eng.spec.levels
            cluster = (d.level_index[levels[0]].row_cluster if levels
                       else np.arange(d.n_rows))
            size = np.bincount(cluster)
            chunks = [chunk["rows"] for chunk in eng.chunks]
            assert np.array_equal(np.sort(np.concatenate(chunks)), np.arange(d.n_rows))
            ids = [np.unique(cluster[rows]) for rows in chunks]
            # whole clusters, in order: chunk k holds the clusters after
            # those of chunk k - 1
            assert np.array_equal(np.concatenate(ids), np.arange(len(size)))
            for rows, own, nxt in zip(chunks, ids, ids[1:] + [None]):
                assert np.array_equal(rows, np.flatnonzero(np.isin(cluster, own)))
                # within the budget, or a cluster larger than it alone (the
                # 40-row cluster of uneven_clusters at 60 and 99)
                assert len(own) == 1 or len(rows) * eng.nq <= budget
                if nxt is not None:  # as many clusters as fit
                    assert (len(rows) + size[nxt[0]]) * eng.nq > budget
                if not levels:
                    assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
            rows = max(len(r) for r in chunks)
            assert eng.batch == max(1, budget // (rows * eng.nq))
        # the smallest budget gives one cluster per chunk, the largest one
        # chunk
        monkeypatch.setattr(estimation, "PASS_DOUBLES", budgets[0])
        assert len(engine_for(text, d).chunks) == len(size)
        monkeypatch.setattr(estimation, "PASS_DOUBLES", budgets[-1])
        assert len(engine_for(text, d).chunks) == 1

    def test_engine_record(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="jointfit.estimation"):
            engine_for(TWO_LEVEL_SPEC, two_level_data())
            engine_for("gaussian : y ~ x", no_level_data())
            engine_for("rp : Surv(t, d) ~ x + rcs(t, df = 3, log = TRUE) | timevar=t",
                       sim_weibull(300, lam=0.1, gamma=1.4, beta=0.5, seed=2))
        records = [r.getMessage() for r in caplog.records if r.name == "jointfit.estimation"]
        assert records == [
            "engine: 2 chunks, at most 144 rows, 225 nodes, 1 points per pass; "
            "analytic scores: 1",
            "engine: 1 chunks, at most 5000 rows, 1 nodes, 6 points per pass; "
            "analytic scores: 1",
            "engine: 1 chunks, at most 300 rows, 1 nodes, 109 points per pass; "
            "analytic scores: none"]


class TestMaximize:
    def test_gaussian_equals_normal_equations(self):
        rng = np.random.default_rng(10)
        n = 500
        X = np.column_stack([rng.normal(size=n), rng.normal(size=n)])
        y = 1.0 + 0.5 * X[:, 0] - 0.3 * X[:, 1] + rng.normal(0, 0.7, n)
        d = make_dataset({"y": y, "x1": X[:, 0], "x2": X[:, 1]})
        fit = fit_spec("gaussian : y ~ x1 + x2", d)
        Xd = np.column_stack([X, np.ones(n)])
        beta = np.linalg.solve(Xd.T @ Xd, Xd.T @ y)
        resid = y - Xd @ beta
        sigma = np.sqrt(np.mean(resid**2))
        assert np.max(np.abs(fit.estimates[:3] - beta)) < 1e-6
        assert abs(fit.estimates[3] - np.log(sigma)) < 1e-6

    def test_exponential_closed_form_mle(self):
        # intercept-only model: MLE rate is events / total time
        rng = np.random.default_rng(11)
        t = rng.exponential(2.0, 400)
        d = make_dataset({"t": t, "d": np.ones(400), "z": np.zeros(400)})
        # z is all zeros, so its coefficient has no curvature
        with pytest.warns(RuntimeWarning, match="the Hessian is singular"):
            fit = fit_spec("exponential : Surv(t, d) ~ z", d)
        lam_mle = 400 / t.sum()
        est = dict(zip(fit.labels, fit.estimates))
        assert abs(est["_cons"] - np.log(lam_mle)) < 1e-6

    def test_weibull_recovery_within_2se(self):
        d = sim_weibull(2000, lam=0.1, gamma=1.5, beta=0.5, seed=12,
                        cens_rate=0.12)
        fit = fit_spec("weibull : Surv(t, d) ~ x", d)
        est = dict(zip(fit.labels, fit.estimates))
        se = dict(zip(fit.labels, fit.std_errors()))
        assert abs(est["x"] - 0.5) < 2 * se["x"]
        assert abs(est["log(gamma)"] - np.log(1.5)) < 2 * se["log(gamma)"]
        assert abs(est["_cons"] - np.log(0.1)) < 2 * se["_cons"]

    def test_lmm_recovery(self, lmm_data):
        fit = fit_spec("levels = id\ngaussian : y ~ x + M1[id]*1", lmm_data)
        est = dict(zip(fit.labels, fit.estimates))
        se = dict(zip(fit.labels, fit.std_errors()))
        assert abs(est["x"] - 0.8) < 3 * se["x"]
        assert abs(est["log_sd(M1)"] - np.log(0.7)) < 3 * se["log_sd(M1)"]
        assert abs(est["log_sd(resid.)"] - np.log(0.5)) < 3 * se["log_sd(resid.)"]

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(13)
        n = 300
        x = rng.normal(size=n)
        y = 0.7 * x + rng.normal(0, 0.5, n)
        d1 = make_dataset({"y": y, "x": x})
        d2 = make_dataset({"y": y, "x": 10.0 * x})
        f1 = fit_spec("gaussian : y ~ x", d1)
        f2 = fit_spec("gaussian : y ~ x", d2)
        assert abs(f1.loglik - f2.loglik) < 1e-6
        assert abs(f1.estimates[0] - 10.0 * f2.estimates[0]) < 1e-5

    def test_hessian_symmetric_and_vcov_pd(self, lmm_data):
        fit = fit_spec("levels = id\ngaussian : y ~ x + M1[id]*1", lmm_data)
        assert fit.vcov is not None
        assert np.allclose(fit.vcov, fit.vcov.T, rtol=1e-4)
        assert np.all(np.linalg.eigvalsh(fit.vcov) > 0)

    def test_nonconvergence_carries_best_point(self, lmm_data):
        with pytest.raises(jf.ConvergenceError) as err, \
                pytest.warns(RuntimeWarning, match="non-positive variance"):
            fit_spec("levels = id\ngaussian : y ~ x + M1[id]*1",
                     lmm_data, max_iter=2)
        assert err.value.fit is not None
        assert np.isfinite(err.value.fit.loglik)
        assert not err.value.fit.converged

    @pytest.mark.parametrize("method", ["halton", "sobol", "mc"])
    def test_qmc_fit_near_gauss_hermite(self, lmm_data, method):
        # 63 points: scipy's Sobol sequence warns unless the 64 it draws
        # (the all-zeros first point dropped) are a power of 2
        text = "levels = id\n{}gaussian : y ~ x + M1[id]*1"
        gh = fit_spec(text.format("ip = 15\n"), lmm_data)
        fit = fit_spec(text.format(f"intmethod = {method}\nip = 63\n"), lmm_data)
        assert fit.converged and fit.intmethod == (method,) and fit.ip == (63,)
        assert np.all(np.abs(fit.estimates - gh.estimates) < 1.5 * np.sqrt(np.diag(gh.vcov)))
        assert 0.0 < abs(fit.loglik - gh.loglik) < 2.0

    def test_start_on_penalty_plateau_raises(self, lmm_data, monkeypatch):
        # at log_sd(resid.) = -1000 the residual sd underflows to 0, so log L
        # is -inf at the start and at every difference point around it: a
        # zero gradient on the _BIG plateau, which is not convergence
        start = estimation.start_values

        def on_plateau(engine):
            x = start(engine)
            x[engine.ev.layout.labels.index("log_sd(resid.)")] = -1000.0
            return x

        monkeypatch.setattr(estimation, "start_values", on_plateau)
        with pytest.raises(jf.ConvergenceError) as err, \
                pytest.warns(RuntimeWarning, match="log L is not finite at the estimates"):
            fit_spec("gaussian : y ~ x", lmm_data)
        assert not err.value.fit.converged
        assert err.value.fit.loglik == -estimation._BIG

    def test_ip_monotone_convergence(self):
        d = sim_lmm(25, 4, 1.2, 0.5, sd_b=0.6, sd_e=0.4, seed=14)
        p = None
        ref = None
        gaps = []
        for ip in (3, 5, 7, 9, 15, 51):
            eng = engine_for(f"levels = id\nip = {ip}\n"
                             "gaussian : y ~ x + M1[id]*1", d)
            if p is None:
                p = start_values(eng)
                p[-1] = np.log(0.6)
            val = eng.total_loglik(p)
            if ip == 51:
                ref = val
            else:
                gaps.append(val)
        gaps = [abs(g - ref) for g in gaps]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def _gaussian_xy(sd, n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = 1.0 + 0.5 * x + sd * rng.normal(size=n)
    return x, y, make_dataset({"y": y, "x": x})


def _hessian_points(monkeypatch):
    """Fit hook: the engine points each _vcov call adds."""
    counts, vcov = [], estimation._vcov

    def counted(engine, xhat):
        before = engine.points
        out = vcov(engine, xhat)
        counts.append(engine.points - before)
        return out

    monkeypatch.setattr(estimation, "_vcov", counted)
    return counts


class TestMissingCovariates:
    """A fit names a column that its submodel reads and that is missing on
    some of the submodel's observed rows, before any basis is built; a
    value missing on a row the submodel does not observe is no error."""

    @staticmethod
    def data(age_missing=True):
        rng = np.random.default_rng(16)
        n = 60
        cols = {"t": rng.exponential(2.0, n) + 0.05, "d": (rng.random(n) < 0.7) * 1.0,
                "x": rng.normal(size=n), "age": rng.normal(50.0, 10.0, n),
                "time": rng.uniform(0.0, 5.0, n), "y": rng.normal(size=n)}
        cols["t"][7] = cols["age"][7] = np.nan  # not an observed survival row
        if age_missing:
            cols["age"][3] = np.nan
        cols["time"][4] = np.nan
        return make_dataset(cols)

    @pytest.mark.parametrize("spec, column, rows", [
        ("weibull : Surv(t, d) ~ x + age", "age", 59),
        ("weibull : Surv(t, d) ~ x + rcs(age, df = 2, event = TRUE)", "age", 59),
        ("gaussian : y ~ x + rcs(time, df = 2) | timevar=time", "time", 60),
    ])
    def test_fit_raises_data_error(self, spec, column, rows):
        with pytest.raises(jf.DataError,
                           match=rf"submodel 1 \(.*\): '{column}' is missing on 1 of "
                                 rf"its {rows} observed rows"):
            fit_spec(spec, self.data())

    def test_missing_on_unobserved_rows_fits(self):
        assert fit_spec("weibull : Surv(t, d) ~ x + age", self.data(age_missing=False)).converged


class TestHessian:
    def test_gaussian_se_match_closed_form(self):
        # the Hessian of -log L in (beta, _cons, log_sd) at the estimates
        x, y, d = _gaussian_xy(0.5)
        fit = fit_spec("gaussian : y ~ x", d)
        assert fit.labels == ["x", "_cons", "log_sd(resid.)"]
        b, c, log_sd = fit.estimates
        X = np.column_stack([x, np.ones(len(x))])
        r = y - X @ np.asarray([b, c])
        s2 = np.exp(2.0 * log_sd)
        H = np.empty((3, 3))
        H[:2, :2] = X.T @ X / s2
        H[:2, 2] = H[2, :2] = 2.0 * X.T @ r / s2
        H[2, 2] = 2.0 * r @ r / s2
        want = np.sqrt(np.diag(np.linalg.inv(H)))
        assert np.max(np.abs(fit.std_errors() / want - 1.0)) < 1e-10

    def test_point_count(self, monkeypatch):
        # a model whose row scores are all analytic, with at most one level,
        # inverts the exact information and evaluates no grid point; rp rows
        # and a second level keep the p^2 + p + 1 point grid
        counts = _hessian_points(monkeypatch)
        surv = sim_weibull(200, lam=0.1, gamma=1.4, beta=0.5, seed=7, cens_rate=0.1)
        want = []
        for spec, data, grid in [
                ("weibull : Surv(t, d) ~ x", surv, False),
                ("rp : Surv(t, d) ~ x + rcs(t, df = 2, log = TRUE) | timevar=t", surv, True),
                ("levels = p,id\nip = 5\npoisson : yc ~ x + M1[p]*1 + M2[id]:x*1\n",
                 _glmm_data(("p", "id")), True)]:
            p = len(fit_spec(spec, data).estimates)
            want.append(p * p + p + 1 if grid else 0)
        assert counts == want == [0, 21, 21]

    def test_debug_record(self, caplog):
        _, _, d = _gaussian_xy(0.5)
        for spec, source in [("gaussian : y ~ x", "exact information, 200 clusters"),
                             ("user : y ~ x + ap(1) | userf=logl_gaussian",
                              f"{3 * 3 + 3 + 1} points")]:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="jointfit.estimation"):
                fit = fit_spec(spec, d)
            records = [r.getMessage() for r in caplog.records
                       if r.name == "jointfit.estimation" and r.getMessage().startswith("Hessian")]
            assert len(records) == 1
            m = re.fullmatch(r"Hessian: (.+), smallest eigenvalue (\S+), "
                             r"condition number (\S+)", records[0])
            assert m, records[0]
            eig = np.linalg.eigvalsh(np.linalg.inv(fit.vcov))
            assert m[1] == source
            assert float(m[2]) == pytest.approx(eig[0], rel=1e-5)
            assert float(m[3]) == pytest.approx(eig[-1] / eig[0], rel=1e-5)

    def test_penalized_point_gives_no_vcov(self):
        # log L is -inf for _ap1 (log sd) more than 5e-5 below its MLE, so
        # the Hessian's step of 1e-4 below the estimate gets the penalty
        x, y, d = _gaussian_xy(0.5)
        X = np.column_stack([x, np.ones(len(x))])
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        mle = np.log(np.sqrt(np.mean((y - X @ beta) ** 2)))

        def walled(ctx):
            if ctx.ap(1) < mle - 5e-5:
                return np.full((len(ctx.depvar()), 1), -np.inf)
            return logl_gaussian(ctx)

        register_user_family("t_walled_gaussian", walled, replace=True)
        with pytest.warns(RuntimeWarning, match=r"no standard errors: .* in _ap1$"):
            fit = fit_spec("user : y ~ x + ap(1) | userf=t_walled_gaussian", d)
        assert fit.estimates[2] == pytest.approx(mle, abs=5e-5)
        assert fit.vcov is None
        assert np.all(np.isnan(fit.std_errors()))

    @pytest.mark.parametrize("hessian, reason", [
        (np.zeros((3, 3)), "the Hessian is singular"),
        (-np.eye(3), "non-positive variance of x, _cons, log_sd"),
    ])
    def test_unusable_hessian_warns(self, monkeypatch, hessian, reason):
        # the same reasons from the exact information and from the grid,
        # which the model keeps when its rows are differenced
        seen = []

        def information(self, x):
            seen.append("information")
            return hessian

        def grid(f, x, step_scale):
            seen.append("grid")
            f(x[None, :])
            return hessian

        monkeypatch.setattr(LikelihoodEngine, "information", information)
        monkeypatch.setattr(estimation, "central_hessian", grid)
        _, _, d = _gaussian_xy(0.5)
        eig = r".* \(smallest eigenvalue -1\)$" if hessian[0, 0] < 0 else ""
        for differenced in (False, True):
            if differenced:
                monkeypatch.setattr(LikelihoodEngine, "_analytic", lambda self, i: False)
            with pytest.warns(RuntimeWarning, match=re.escape(reason) + eig):
                fit = fit_spec("gaussian : y ~ x", d)
            assert fit.vcov is None
        assert seen == ["information", "grid"]

    def test_information_not_finite_warns_without_the_grid(self, monkeypatch):
        def no_grid(f, x, step_scale):
            raise AssertionError("the grid is not a fallback of the exact information")

        monkeypatch.setattr(estimation, "central_hessian", no_grid)
        monkeypatch.setattr(LikelihoodEngine, "information",
                            lambda self, x: np.full((len(x), len(x)), np.nan))
        _, _, d = _gaussian_xy(0.5)
        with pytest.warns(RuntimeWarning, match="no standard errors: the information is not "
                                                "finite at the estimates"):
            fit = fit_spec("gaussian : y ~ x", d)
        assert fit.converged and fit.vcov is None


class TestStartValues:
    def test_gaussian_start(self):
        spec = jf.parse_spec_text("gaussian : y ~ z")
        d = make_dataset({"y": [1.0, 3.0], "z": [0.0, 0.0]})
        jf.validate_spec(spec, d)
        eng = LikelihoodEngine(Evaluator(spec, d))
        theta = start_values(eng)
        labels = eng.ev.layout.labels
        assert theta[labels.index("_cons")] == 2.0
        assert abs(theta[labels.index("log_sd(resid.)")] - np.log(1.0)) < 1e-12

    def test_survival_start_is_log_rate(self):
        spec = jf.parse_spec_text("exponential : Surv(t, d) ~ x")
        d = make_dataset({"t": [2.0, 2.0], "d": [1.0, 1.0], "x": [0.0, 1.0]})
        jf.validate_spec(spec, d)
        eng = LikelihoodEngine(Evaluator(spec, d))
        theta = start_values(eng)
        assert abs(theta[eng.ev.layout.labels.index("_cons")]
                   - np.log(2.0 / 4.0)) < 1e-12

    def test_rp_start_has_positive_slope(self):
        rng = np.random.default_rng(15)
        t = rng.exponential(2.0, 200) + 0.05
        spec = jf.parse_spec_text(
            "rp : Surv(t, d) ~ rcs(t, df = 3, log = TRUE, event = TRUE) | timevar=t")
        d = make_dataset({"t": t, "d": np.ones(200)})
        jf.validate_spec(spec, d)
        eng = LikelihoodEngine(Evaluator(spec, d))
        theta = start_values(eng)
        assert np.isfinite(eng.total_loglik(theta))


class TestReporting:
    def fake_fit(self, est, se_diag, labels):
        return jf.FitResult(
            estimates=np.asarray(est), labels=labels,
            vcov=np.diag(np.asarray(se_diag) ** 2), loglik=-651.4753,
            iterations=5, converged=True, spec_text="gaussian : y ~ x\n",
            intmethod=(), ip=(), seed=0)

    def test_z_and_ci_paper_row(self):
        fit = self.fake_fit([0.140489], [0.059778], ["sex"])
        se = fit.std_errors()
        z = fit.estimates[0] / se[0]
        assert round(z, 3) == 2.350
        crit = norm.ppf(0.975)
        assert abs(fit.estimates[0] - crit * se[0] - 0.023327) < 1e-6
        assert abs(fit.estimates[0] + crit * se[0] - 0.257651) < 1e-6

    def test_zero_estimate_unit_se(self):
        crit = norm.ppf(0.975)
        assert abs(crit - 1.95996) < 1e-5
        assert 2.0 * norm.sf(0.0) == 1.0

    def test_table_layout(self):
        fit = self.fake_fit([0.140489, -0.383205], [0.059778, 0.05],
                            ["sex", "log_sd(resid.)"])
        table = summary_table(fit)
        assert "Log likelihood = -651.4753" in table
        assert "Estimate" in table and "Pr(>|z|)" in table
        assert "Integration method" not in table

    def test_footer_with_random_effects(self):
        fit = self.fake_fit([0.1], [0.2], ["log_sd(M1)"])
        fit.intmethod, fit.ip = ("ghermite",), (7,)
        table = summary_table(fit)
        assert "Integration method: Non-adaptive Gauss-Hermite quadrature" in table
        assert "Integration points: 7" in table


class TestSerialization:
    def test_fit_json_round_trip(self, lmm_data):
        fit = fit_spec("levels = id\ngaussian : y ~ x + M1[id]*1", lmm_data)
        text = fit_to_json(fit)
        fit2 = fit_from_json(text)
        assert np.array_equal(fit2.estimates, fit.estimates)
        assert fit2.labels == fit.labels
        assert fit2.loglik == fit.loglik
        assert fit_to_json(fit2) == text

    def test_bases_round_trip(self):
        rng = np.random.default_rng(16)
        t = rng.uniform(0.2, 5.0, 300)
        y = np.sin(t) + rng.normal(0, 0.2, 300)
        d = make_dataset({"t": t, "y": y})
        fit = fit_spec("gaussian : y ~ rcs(t, df = 3, orthog = TRUE)", d)
        from jointfit.estimation import deserialize_bases
        bases = deserialize_bases(fit.bases)
        b = bases[(0, 0, 0)]
        tt = np.linspace(0.5, 4.5, 7)
        spec = jf.parse_spec_text(fit.spec_text)
        jf.validate_spec(spec, d)
        ev = Evaluator(spec, d)
        want = ev.bases[(0, 0, 0)].eval(tt, "value")
        assert np.allclose(b.eval(tt, "value"), want)
