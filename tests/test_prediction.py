"""Post-estimation statistics: survival curves, CIFs, RMST, contrasts."""

from dataclasses import replace

import numpy as np
import pytest

import jointfit as jf
from jointfit import prediction
from jointfit.estimation import FitResult, LikelihoodEngine
from jointfit.evaluator import EvalError, Evaluator
from jointfit.prediction import DIFF_STATS, FittedModel, PredictRequest, predict_stat
from jointfit.quadrature import Frame

from conftest import fit_spec, make_dataset, sim_lmm, sim_weibull
from test_time_blocks import FP_PARAMS, FP_SPEC, fp_data, make_model


def predict(model, **kw):
    return predict_stat(model, PredictRequest(**kw))


@pytest.fixture(scope="module")
def exp_model():
    """Intercept-plus-binary-covariate exponential fit."""
    rng = np.random.default_rng(20)
    n = 600
    x = rng.integers(0, 2, n).astype(float)
    t = rng.exponential(1.0 / (0.2 * np.exp(0.7 * x)))
    d = make_dataset({"t": np.maximum(t, 1e-6), "d": np.ones(n), "x": x})
    fit = fit_spec("exponential : Surv(t, d) ~ x", d)
    return FittedModel(fit, d)


@pytest.fixture(scope="module")
def cr_model():
    """Two-cause competing-risks fit (both exponential)."""
    rng = np.random.default_rng(21)
    n = 800
    x = rng.integers(0, 2, n).astype(float)
    t1 = rng.exponential(1.0 / (0.15 * np.exp(0.4 * x)))
    t2 = rng.exponential(1.0 / 0.1, n)
    t = np.minimum(t1, t2)
    d = make_dataset({
        "t": np.maximum(t, 1e-6),
        "d1": (t1 <= t2).astype(float),
        "d2": (t2 < t1).astype(float),
        "x": x,
    })
    fit = fit_spec(
        "exponential : Surv(t, d1) ~ x\nexponential : Surv(t, d2) ~ x\n", d)
    return FittedModel(fit, d)


def fixed_model(spec_text, labels, estimates, columns):
    """A model at given parameter values, without a fit."""
    fit = FitResult(np.asarray(estimates, dtype=float), labels, None, 0.0, 0, True,
                    spec_text, (), (), 0)
    return FittedModel(fit, make_dataset(columns))


class TestBasicStats:
    def test_eta_equals_mu_for_gaussian(self):
        rng = np.random.default_rng(22)
        d = make_dataset({"y": rng.normal(size=50), "x": rng.normal(size=50)})
        model = FittedModel(fit_spec("gaussian : y ~ x", d), d)
        eta = predict(model, statistic="eta")
        mu = predict(model, statistic="mu")
        assert np.array_equal(eta["values"], mu["values"])

    def test_survival_logchazard_consistency(self, exp_model):
        t = np.asarray([2.0])
        S = predict(exp_model, statistic="survival", times=t)
        H = predict(exp_model, statistic="chazard", times=t)
        lH = predict(exp_model, statistic="logchazard", times=t)
        assert np.allclose(S["values"], np.exp(-H["values"]), atol=1e-12)
        assert np.allclose(lH["values"], np.log(H["values"]), atol=1e-12)

    def test_default_times_are_event_times(self, exp_model):
        res = predict(exp_model, statistic="survival")
        assert np.array_equal(res["times"], exp_model.data.column("t"))

    def test_at_override_makes_rows_constant(self, exp_model):
        res = predict(exp_model, statistic="hazard", times=np.asarray([1.0]),
                      at={"x": 1.0})
        assert np.allclose(res["values"], res["values"][0])

    def test_mu_rejected_for_survival(self, exp_model):
        with pytest.raises(EvalError, match="undefined"):
            predict(exp_model, statistic="mu")

    def test_survival_stat_needs_survival_model(self):
        rng = np.random.default_rng(7)
        d = make_dataset({"y": rng.normal(size=30), "x": rng.normal(size=30)})
        model = FittedModel(fit_spec("gaussian : y ~ x", d), d)
        with pytest.raises(EvalError, match="survival"):
            predict(model, statistic="hazard")

    def test_predmodel_out_of_range(self, exp_model):
        with pytest.raises(EvalError, match="out of range"):
            predict(exp_model, statistic="eta", predmodel=3)


class TestCif:
    def test_single_cause_closed_form(self, exp_model):
        est = dict(zip(exp_model.fit.labels, exp_model.fit.estimates))
        lam = np.exp(est["_cons"])
        for t in (0.5, 2.0, 5.0):
            res = predict(exp_model, statistic="cif",
                          times=np.asarray([t]), at={"x": 0.0})
            want = 1.0 - np.exp(-lam * t)
            assert abs(res["values"][0] - want) < 1e-8

    def test_two_cause_closed_form(self, cr_model):
        idx = [i for i, l in enumerate(cr_model.fit.labels) if l == "_cons"]
        l1 = np.exp(cr_model.fit.estimates[idx[0]])
        l2 = np.exp(cr_model.fit.estimates[idx[1]])
        t = 3.0
        res = predict(cr_model, statistic="cif", predmodel=1,
                      times=np.asarray([t]), at={"x": 0.0})
        tot = l1 + l2
        want = l1 / tot * (1.0 - np.exp(-tot * t))
        assert abs(res["values"][0] - want) < 1e-8

    def test_mass_identity(self, cr_model):
        for t in np.linspace(0.2, 8.0, 50):
            tt = np.asarray([t])
            c1 = predict(cr_model, statistic="cif", predmodel=1, times=tt,
                         at={"x": 1.0})["values"][0]
            c2 = predict(cr_model, statistic="cif", predmodel=2, times=tt,
                         at={"x": 1.0})["values"][0]
            s1 = predict(cr_model, statistic="survival", predmodel=1, times=tt,
                         at={"x": 1.0})["values"][0]
            s2 = predict(cr_model, statistic="survival", predmodel=2, times=tt,
                         at={"x": 1.0})["values"][0]
            assert abs(c1 + c2 + s1 * s2 - 1.0) < 1e-6


class TestRmst:
    def test_exponential_closed_form(self, exp_model):
        est = dict(zip(exp_model.fit.labels, exp_model.fit.estimates))
        lam = np.exp(est["_cons"])
        t = 4.0
        res = predict(exp_model, statistic="rmst", times=np.asarray([t]),
                      at={"x": 0.0})
        want = (1.0 - np.exp(-lam * t)) / lam
        assert abs(res["values"][0] - want) < 1e-6

    def test_rmst_is_t_minus_totaltimelost(self, cr_model):
        t = np.asarray([3.0])
        rmst = predict(cr_model, statistic="rmst", times=t, at={"x": 0.0})
        ttl = predict(cr_model, statistic="totaltimelost", times=t,
                      at={"x": 0.0})
        assert np.array_equal(rmst["values"], t - ttl["values"])

    def test_rmst_vs_survival_integral(self, cr_model):
        from scipy.integrate import quad
        idx = [i for i, l in enumerate(cr_model.fit.labels) if l == "_cons"]
        l1 = np.exp(cr_model.fit.estimates[idx[0]])
        l2 = np.exp(cr_model.fit.estimates[idx[1]])
        t = 3.0
        res = predict(cr_model, statistic="rmst", times=np.asarray([t]),
                      at={"x": 0.0})
        want = quad(lambda u: np.exp(-(l1 + l2) * u), 0, t)[0]
        assert abs(res["values"][0] - want) < 1e-6

    def test_weibull_vs_quad_of_survival(self):
        from scipy.integrate import quad
        lam, gamma = 0.2, 1.1
        t = np.asarray([0.5, 1.0, 2.0, 4.0, 8.0])
        model = fixed_model("weibull : Surv(t, d) ~ x", ["x", "_cons", "log(gamma)"],
                            [0.5, np.log(lam), np.log(gamma)],
                            {"t": t, "d": np.ones(5), "x": np.zeros(5)})
        res = predict(model, statistic="rmst", times=t)
        for tk, got in zip(t, res["values"]):
            want = quad(lambda u: np.exp(-lam * u**gamma), 0.0, tk,
                        epsabs=1e-13, epsrel=1e-12)[0]
            assert abs(got - want) < 1e-7

    def test_totaltimelost_is_sum_of_timelost(self):
        t = np.asarray([0.5, 1.0, 2.0, 6.0])
        model = fixed_model(  # two Weibull causes, gamma 1.3 and 1.1
            "weibull : Surv(t, d1) ~ x\nweibull : Surv(t, d2) ~ x\n",
            ["x", "_cons", "log(gamma)", "x", "_cons", "log(gamma)"],
            [0.5, np.log(0.08), np.log(1.3), -0.3, np.log(0.05), np.log(1.1)],
            {"t": t, "d1": np.ones(4), "d2": np.zeros(4), "x": np.ones(4)})
        ttl = predict(model, statistic="totaltimelost", times=t)
        tl = sum(predict(model, statistic="timelost", predmodel=c,
                         times=t)["values"] for c in (1, 2))
        assert np.max(np.abs(ttl["values"] - tl) / tl) < 1e-5

    def test_small_t_limits(self, cr_model):
        t = np.asarray([1e-6])
        tl = predict(cr_model, statistic="timelost", predmodel=1, times=t,
                     at={"x": 0.0})
        rmst = predict(cr_model, statistic="rmst", times=t, at={"x": 0.0})
        assert abs(tl["values"][0]) < 1e-9
        assert abs(rmst["values"][0]) < 1e-5


class TestDifferences:
    def test_equal_contrast_is_zero(self):
        rng = np.random.default_rng(23)
        d = make_dataset({"y": rng.normal(size=40), "x": rng.normal(size=40)})
        model = FittedModel(fit_spec("gaussian : y ~ x", d), d)
        res = predict(model, statistic="mudifference", contrast=("x", 0.0, 0.0))
        assert np.allclose(res["values"], 0.0)

    def test_hdifference_closed_form(self, exp_model):
        est = dict(zip(exp_model.fit.labels, exp_model.fit.estimates))
        lam = np.exp(est["_cons"])
        beta = est["x"]
        res = predict(exp_model, statistic="hdifference",
                      times=np.asarray([1.0]), contrast=("x", 0.0, 1.0))
        want = lam * (np.exp(beta) - 1.0)
        assert np.max(np.abs(res["values"] - want)) < 1e-10

    def test_cifdifference_sign_matches_coefficient(self, exp_model):
        beta = dict(zip(exp_model.fit.labels, exp_model.fit.estimates))["x"]
        assert beta > 0
        for t in np.linspace(0.3, 6.0, 12):
            res = predict(exp_model, statistic="cifdifference",
                          times=np.asarray([t]), contrast=("x", 0.0, 1.0))
            assert np.all(res["values"] > 0)

    def test_difference_requires_contrast(self, exp_model):
        with pytest.raises(EvalError, match="contrast"):
            predict(exp_model, statistic="rmstdifference")


class TestMarginal:
    def test_fixedonly_equals_marginal_without_res(self, exp_model):
        t = np.asarray([2.0])
        a = predict(exp_model, statistic="survival", times=t, type="fixedonly")
        b = predict(exp_model, statistic="survival", times=t, type="marginal")
        assert np.array_equal(a["values"], b["values"])

    def test_marginal_mu_integrates_draws(self):
        d = sim_lmm(40, 4, 1.0, 0.5, sd_b=0.8, sd_e=0.3, seed=24)
        fit = fit_spec("levels = id\ngaussian : y ~ x + M1[id]*1", d)
        model = FittedModel(fit, d)
        fx = predict(model, statistic="mu", type="fixedonly")
        mg = predict(model, statistic="mu", type="marginal")
        # identity link: marginal mean over symmetric draws equals fixed-only
        assert np.max(np.abs(fx["values"] - mg["values"])) < 1e-10

    def test_marginal_survival_differs_with_re(self):
        rng = np.random.default_rng(25)
        K = 80
        b = rng.normal(0, 0.8, K)
        t = np.maximum(rng.exponential(1.0 / (0.2 * np.exp(b))), 1e-6)
        d = make_dataset({"id": np.arange(K), "t": t, "d": np.ones(K),
                          "z": np.zeros(K)}, levels=("id",))
        # z is all zeros, so its coefficient has no curvature
        with pytest.warns(RuntimeWarning, match="the Hessian is singular"):
            fit = fit_spec("levels = id\nexponential : Surv(t, d) ~ z + M1[id]*1", d)
        model = FittedModel(fit, d)
        tt = np.asarray([3.0])
        fx = predict(model, statistic="survival", times=tt)
        mg = predict(model, statistic="survival", times=tt, type="marginal")
        # averaging over the frailty draws must move the curve
        assert np.max(np.abs(mg["values"] - fx["values"])) > 1e-4


class TestOverrides:
    SPEC = ("levels = id\nip = 7\nweibull : Surv(t, d1) ~ x + M1[id]*1\n"
            "exponential : Surv(t, d2) ~ x\n")
    # x, _cons, log(gamma), x, _cons, log_sd(M1)
    ESTIMATES = [0.4, np.log(0.15), np.log(1.2), -0.3, np.log(0.1), np.log(0.6)]

    def model(self):
        rng = np.random.default_rng(26)
        n = 60
        d = make_dataset({"id": np.repeat(np.arange(20.0), 3), "t": rng.uniform(0.5, 6.0, n),
                          "d1": (rng.random(n) < 0.4) * 1.0, "d2": (rng.random(n) < 0.3) * 1.0,
                          "x": rng.integers(0, 2, n) * 1.0}, levels=("id",))
        labels = ["x", "_cons", "log(gamma)", "x", "_cons", "log_sd(M1)"]
        fit = FitResult(np.asarray(self.ESTIMATES), labels, None, 0.0, 0, True,
                        self.SPEC, ("ghermite",), (7,), 0)
        return FittedModel(fit, d)

    def request(self):
        return PredictRequest("cifdifference", predmodel=1, type="marginal",
                              contrast=("x", 0.0, 1.0), times=np.asarray([2.0]))

    def test_at_override_shares_the_engine(self, monkeypatch):
        built = []
        init = LikelihoodEngine.__init__

        def counted(self, *args, **kw):
            built.append(self)
            init(self, *args, **kw)

        monkeypatch.setattr(LikelihoodEngine, "__init__", counted)
        got = predict_stat(self.model(), self.request())
        assert len(built) == 1

        # the clone with an engine of its own, as each override had before
        def own_engine(model, at):
            clone = FittedModel.__new__(FittedModel)
            clone.fit, clone.spec, clone.params = model.fit, model.spec, model.params
            clone.data = model.data.with_overrides(at)
            clone.ev = Evaluator(model.spec, clone.data, bases=model.ev.bases)
            clone.engine = LikelihoodEngine(clone.ev, seed=model.fit.seed)
            return clone

        monkeypatch.setattr(FittedModel, "_with_overrides", own_engine)
        want = predict_stat(self.model(), self.request())
        assert len(built) == 4  # one more model, and an engine per contrast value
        assert np.any(got["values"] != 0.0)
        for key in ("rows", "times", "values"):
            assert np.array_equal(got[key], want[key])


def test_saved_bases_predict_the_fitting_values():
    """A fit read back from JSON rebuilds its orthogonalized rcs, fp and
    explicit-knot bases from the file, not from the prediction data: on
    the first 40 rows its predictions are the fitting evaluator's values,
    which the data-derived rcs basis of those 40 rows would not give."""
    rng = np.random.default_rng(27)
    n = 300
    z, x = rng.normal(size=n), rng.integers(0, 2, n) * 1.0
    t = rng.exponential(1.0 / (0.2 * np.exp(0.3 * z)))
    cols = {"t": np.maximum(t, 1e-3), "d": (rng.random(n) < 0.8) * 1.0, "z": z, "x": x,
            "y": np.sin(z) + rng.normal(0.0, 0.3, n)}
    spec = ("weibull : Surv(t, d) ~ rcs(z, df = 3, orthog = TRUE) + x:fp(t, powers = c(0.5))"
            " | timevar=t\n"
            "gaussian : y ~ rcs(z, knots = c(-1, 0, 1))\n")
    data, head = make_dataset(cols), make_dataset({k: v[:40] for k, v in cols.items()})
    fit = jf.fit_from_json(jf.fit_to_json(fit_spec(spec, data)))
    fitting = Evaluator(jf.validate_spec(jf.parse_spec_text(spec), data), data)
    refitted = Evaluator(jf.validate_spec(jf.parse_spec_text(spec), head), head)
    model = FittedModel(fit, head)
    at = Frame(np.arange(40), np.linspace(0.5, 3.0, 40))
    for m, stat in ((1, "eta"), (1, "hazard"), (2, "eta")):
        got = predict(model, statistic=stat, predmodel=m, times=at.t)["values"]
        want, other = (getattr(ev, stat)(fit.estimates, m - 1, at, {})[:, 0]
                       for ev in (fitting, refitted))
        assert np.array_equal(got, want), (m, stat)
        # submodel 2's knots are explicit, the same for any data
        assert np.allclose(got, other) == (m == 2), (m, stat)


def model_at(spec, params, data, rule=((), ())):
    """A FittedModel at fixed parameters, without a fit."""
    labels = Evaluator(jf.validate_spec(jf.parse_spec_text(spec), data), data).layout.labels
    fit = FitResult(np.asarray(params, dtype=float), labels, None, 0.0, 0, True, spec, *rule, 0)
    return FittedModel(fit, data)


def all_rows(model, req):
    """Oracle: the statistic on one frame of every prediction row, each
    row evaluated however many rows share its time and covariates."""
    if req.statistic in DIFF_STATS:
        name, v1, v2 = req.contrast
        a, b = (all_rows(model, replace(req, statistic=DIFF_STATS[req.statistic],
                                        contrast=None, at={**req.at, name: v}))
                for v in (v1, v2))
        return b - a
    base = model._with_overrides(req.at)
    rows = base.ev.subs[req.predmodel - 1].rv.observed_rows
    t = np.broadcast_to(np.asarray(req.times, dtype=float), rows.shape).copy()
    draws, weights = prediction._draws_weights(base, req.type)
    return np.einsum("ij,j->i", prediction._stat_matrix(base, req, Frame(rows, t), draws),
                     weights)


def evaluated_rows(monkeypatch):
    """len(at.rows) of each Evaluator.hazard call, filled as they come."""
    seen = []
    hazard = Evaluator.hazard

    def recorded(self, params, sub_idx, at, draws):
        seen.append(len(at.rows))
        return hazard(self, params, sub_idx, at, draws)

    monkeypatch.setattr(Evaluator, "hazard", recorded)
    return seen


# two causes: cause 1 with x, a static spline of z, an exposure and a
# random intercept, cause 2 with v alone
STATIC_SPEC = ("levels = id\nip = 5\n"
               "weibull : Surv(t, d1) ~ x + rcs(z, df = 3) + exposure(w) + M1[id]*1\n"
               "gompertz : Surv(t, d2) ~ v\n")
# x, rcs():1-3, _cons, log(gamma), v, _cons, gamma, log_sd(M1)
STATIC_PARAMS = [0.4, 0.2, -0.1, 0.05, np.log(0.05), np.log(1.2), -0.3, np.log(0.05), 0.1,
                 np.log(0.5)]


def static_data(n=40, seed=5, **fixed):
    """Pairs of rows in clusters id; x, v binary, z and w from a few
    values, so that rows share covariate patterns; fixed replaces columns."""
    rng = np.random.default_rng(seed)
    cols = {"id": np.arange(n) // 2, "t": rng.uniform(0.3, 5.0, n),
            "d1": (rng.random(n) < 0.4) * 1.0, "d2": (rng.random(n) < 0.3) * 1.0,
            "x": rng.integers(0, 2, n) * 1.0, "z": rng.choice([-1.0, 0.0, 0.5, 2.0], n),
            "w": rng.choice([1.0, 2.0], n), "v": rng.integers(0, 2, n) * 1.0}
    return make_dataset({**cols, **fixed}, levels=("id",))


def static_model(**fixed):
    return model_at(STATIC_SPEC, STATIC_PARAMS, static_data(**fixed), (("ghermite",), (5,)))


SURVIVAL_STATS = ("eta", "hazard", "chazard", "logchazard", "survival", "cif", "timelost",
                  "totaltimelost", "rmst", "hdifference", "cifdifference", "rmstdifference",
                  "etadifference")
ORACLE_MODELS = {  # model maker, (prediction submodel, its statistics)
    "joint_ev": (lambda: make_model("joint_ev"),
                 [(1, ("eta", "mu", "etadifference", "mudifference")), (2, SURVIVAL_STATS)]),
    "fp_weibull": (lambda: make_model("fp_weibull"), [(1, SURVIVAL_STATS), (2, SURVIVAL_STATS)]),
    "static": (static_model, [(1, SURVIVAL_STATS), (2, SURVIVAL_STATS)]),
}


class TestDistinctRows:
    """Each distinct (time, covariate pattern) is evaluated once; the
    values are those of every row evaluated on one frame."""

    @pytest.mark.parametrize("type_", ["fixedonly", "marginal"])
    @pytest.mark.parametrize("kind", sorted(ORACLE_MODELS))
    def test_matches_all_rows(self, kind, type_):
        make, requests = ORACLE_MODELS[kind]
        model = make()
        for m, stats in requests:
            n = len(model.ev.subs[m - 1].rv.observed_rows)
            times = np.resize([0.5, 2.0, 3.5], n)
            for stat, at in ((s, a) for s in stats for a in ({}, {"x": 1.0})):
                req = PredictRequest(stat, predmodel=m, type=type_, at=at, times=times,
                                     contrast=("x", 0.0, 1.0) if stat in DIFF_STATS else None)
                got = predict_stat(model, req)
                assert np.array_equal(got["times"], times)
                assert np.array_equal(got["values"], all_rows(model, req)), (m, stat, at)

    def test_one_distinct_row_matches_all_rows(self, monkeypatch):
        # one distinct row, weighted as each row of the oracle's frame
        model = make_model("joint_ev")
        seen = evaluated_rows(monkeypatch)
        for m, stat in ((1, "eta"), (2, "hazard"), (2, "chazard"), (2, "cif")):
            req = PredictRequest(stat, predmodel=m, type="marginal", times=np.asarray([2.5]),
                                 at={"x": 1.0})
            assert np.array_equal(predict_stat(model, req)["values"], all_rows(model, req)), stat
        assert seen[0] == 1

    def test_a_time_grid_with_at_evaluates_each_time_once(self, monkeypatch):
        model = model_at(FP_SPEC, FP_PARAMS, fp_data(n=200))
        times = np.linspace(0.5, 6.0, 12)[np.arange(200) % 12]
        req = PredictRequest("hazard", predmodel=2, at={"x": 1.0}, times=times)
        want = all_rows(model, req)
        seen = evaluated_rows(monkeypatch)
        got = predict_stat(model, req)
        assert seen == [12]
        assert np.array_equal(got["values"], want)

    def test_a_competing_cause_s_column_keeps_rows_apart(self, monkeypatch):
        # the rows differ only in v, which cause 2 alone reads
        model = static_model(v=np.arange(40) % 2 * 1.0)
        req = PredictRequest("cif", predmodel=1, at={"x": 0.0, "z": 0.0, "w": 1.0},
                             times=np.asarray([2.0]))
        want = all_rows(model, req)
        got = predict_stat(model, req)["values"]
        assert np.array_equal(got, want)
        assert got[0] != got[1]
        seen = evaluated_rows(monkeypatch)
        predict_stat(model, replace(req, statistic="hazard"))
        assert seen == [2]

    def test_a_link_target_s_column_keeps_rows_apart(self, monkeypatch):
        # 4 survival rows that differ only in z, which EV[y] reads
        data = make_dataset({"time": [0.5, 1.0, 1.5, 2.0, *[np.nan] * 4],
                             "y": [1.0, 1.2, 0.8, 1.5, *[np.nan] * 4],
                             "z": [0.0, 1.0, 0.0, 1.0] * 2,
                             "st": [*[np.nan] * 4, 3.0, 3.0, 3.0, 3.0],
                             "sd": [*[np.nan] * 4, 1.0, 0.0, 1.0, 0.0], "x": np.zeros(8)})
        spec = ("gaussian : y ~ z + time | timevar=time\n"
                "weibull : Surv(st, sd) ~ x + EV[y] | timevar=st\n")
        # z, time, _cons, log_sd(resid.), x, EV[], _cons, log(gamma)
        model = model_at(spec, [0.7, 0.2, 1.0, np.log(0.3), 0.5, 0.4, np.log(0.1), 0.1], data)
        req = PredictRequest("hazard", predmodel=2, times=np.asarray([2.0]))
        seen = evaluated_rows(monkeypatch)
        got = predict_stat(model, req)["values"]
        assert seen == [2]
        assert np.array_equal(got, all_rows(model, req))
        assert got[0] != got[1]

    @pytest.mark.parametrize("ip", [8, 35])
    def test_a_row_s_value_does_not_depend_on_the_rows_beside_it(self, ip):
        # BLAS's product of the rows and the node weights sums the last rows
        # of a matrix in another order than the rest
        spec = "levels = id\nweibull : Surv(t, d1) ~ x + M1[id]*1\n"
        params = [0.4, np.log(0.05), np.log(1.2), np.log(0.5)]
        full = static_data(n=302, seed=7)
        keep = np.sort(np.random.default_rng(ip).choice(302, 123, replace=False))
        part = make_dataset({k: v[keep] for k, v in full.columns.items()}, levels=("id",))
        got = [predict_stat(model_at(spec, params, data, (("ghermite",), (ip,))),
                            PredictRequest("hazard", type="marginal"))["values"]
               for data in (full, part)]
        assert np.array_equal(got[0][keep], got[1])

    def test_signed_zeros_stay_apart(self, monkeypatch):
        data = make_dataset({"t": np.arange(1.0, 7.0), "d1": np.ones(6), "d2": np.zeros(6),
                             "x": [0.0, -0.0] * 3})
        model = model_at(FP_SPEC, FP_PARAMS, data)
        seen = evaluated_rows(monkeypatch)
        predict(model, statistic="hazard", predmodel=1, times=np.asarray([2.0]))
        assert seen == [2]


class TestFitMatchesSpec:
    """A fit's labels and estimates must be its spec's parameters."""

    def predict(self, spec, data, estimates, labels):
        fit = FitResult(np.asarray(estimates, dtype=float), labels, None, 0.0, 0, True, spec,
                        (), (), 0)
        return predict_stat(FittedModel(fit, data), PredictRequest("hazard"))

    FP_LABELS = ["x", "_cons", "log(gamma)", "x", "x:fp()", "_cons", "log(gamma)"]

    @pytest.mark.parametrize("n, message", [
        (6, "the fit has 6 labels and 6 estimates, its spec 7 parameters"),
        (8, "the fit has 8 labels and 8 estimates, its spec 7 parameters")],
        ids=["too_few", "too_many"])
    def test_a_parameter_count_mismatch_raises(self, n, message):
        with pytest.raises(EvalError, match=message):
            self.predict(FP_SPEC, fp_data(), (FP_PARAMS + [0.0])[:n],
                         (self.FP_LABELS + ["z"])[:n])

    def test_a_label_mismatch_raises(self):
        labels = self.FP_LABELS[:-1] + ["gamma"]
        with pytest.raises(EvalError, match=r"parameter 7 is 'gamma', its spec's 'log\(gamma\)'"):
            self.predict(FP_SPEC, fp_data(), FP_PARAMS, labels)

    def test_a_marginal_correlation_fit_of_three_effects_raises(self):
        # fits from before the partial-correlation factor label the third
        # correlation atanh_corr(M3,M2)
        spec = ("levels = id\ncovariance = unstructured\n"
                "weibull : Surv(t, d1) ~ x + M1[id]*1 + M2[id]:x*1 + M3[id]:v*1\n")
        data = static_data()
        labels = ["x", "_cons", "log(gamma)", "log_sd(M1)", "log_sd(M2)", "log_sd(M3)",
                  "atanh_corr(M2,M1)", "atanh_corr(M3,M1)", "atanh_corr(M3,M2)"]
        with pytest.raises(EvalError, match=r"'atanh_corr\(M3,M2\)', its spec's "
                                            r"'atanh_pcorr\(M3,M2\)'"):
            self.predict(spec, data, np.zeros(9), labels)


class TestTimes:
    @pytest.mark.parametrize("times", [[-1.0], [np.nan], [np.inf], [1.0, -0.5, 2.0]])
    def test_bad_time_raises(self, times):
        model = model_at(FP_SPEC, FP_PARAMS, fp_data(n=3))
        for stat in ("cif", "rmst", "chazard"):
            with pytest.raises(EvalError, match="finite and non-negative"):
                predict(model, statistic=stat, times=np.asarray(times))

    def test_one_time_per_row_or_one_for_all(self):
        model = model_at(FP_SPEC, FP_PARAMS, fp_data(n=200))
        with pytest.raises(EvalError, match="times holds 3 values; give 1, or one per "
                                            r"prediction row \(200\)"):
            predict(model, statistic="cif", times=np.asarray([1.0, 2.0, 3.0]))
        one = predict(model, statistic="cif", times=np.asarray([2.0]))
        each = predict(model, statistic="cif", times=np.full(200, 2.0))
        assert np.array_equal(one["times"], each["times"])
        assert np.array_equal(one["values"], each["values"])

