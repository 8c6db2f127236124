"""User-defined family registration and context accessors."""

import numpy as np
import pytest

import jointfit as jf
from jointfit.quadrature import Frame
from jointfit.userfam import (UserFamilyError, get_user_family,
                              register_user_family)

from conftest import fit_spec, make_dataset, sim_lmm, sim_weibull


class TestRegistry:
    def test_register_and_get(self):
        fn = lambda ctx: np.zeros((1, 1))
        register_user_family("t_reg_demo", fn)
        assert get_user_family("t_reg_demo") is fn

    def test_duplicate_rejected(self):
        register_user_family("t_dup_demo", lambda ctx: 0)
        with pytest.raises(UserFamilyError, match="already"):
            register_user_family("t_dup_demo", lambda ctx: 0)
        register_user_family("t_dup_demo", lambda ctx: 1, replace=True)

    def test_unknown_name(self):
        with pytest.raises(UserFamilyError, match="no user family"):
            get_user_family("never_registered")


class TestGaussianEquivalence:
    def test_user_gaussian_reproduces_builtin(self, lmm_data):
        builtin = fit_spec("levels = id\ngaussian : y ~ x + M1[id]*1",
                           lmm_data)
        user = fit_spec(
            "levels = id\n"
            "user : y ~ x + M1[id]*1 + ap(1) | userf=logl_gaussian",
            lmm_data)
        assert abs(user.loglik - builtin.loglik) < 1e-6
        assert np.max(np.abs(user.estimates - builtin.estimates)) < 1e-6
        se_b, se_u = builtin.std_errors(), user.std_errors()
        assert np.max(np.abs(se_u - se_b)) < 1e-6
        # the user ancillary plays the role of the residual log-sd
        i_ap = user.labels.index("_ap1")
        i_sd = builtin.labels.index("log_sd(resid.)")
        assert abs(user.estimates[i_ap] - builtin.estimates[i_sd]) < 1e-6

    def test_user_exponential_reproduces_builtin(self, weibull_data):
        builtin = fit_spec("exponential : Surv(t, d) ~ x", weibull_data)
        user = fit_spec(
            "user : Surv(t, d) ~ x | userf=logl_exponential", weibull_data)
        assert abs(user.loglik - builtin.loglik) < 1e-6
        assert np.max(np.abs(user.estimates - builtin.estimates)) < 1e-6

    def test_constant_zero_user_family_is_null(self):
        register_user_family(
            "t_zero_ll",
            lambda ctx: np.zeros_like(ctx.xzb()), replace=True)
        d = make_dataset({"y": [1.0, 2.0], "x": [0.0, 1.0]})
        spec = jf.parse_spec_text("user : y ~ x | userf=t_zero_ll")
        jf.validate_spec(spec, d)
        from jointfit.estimation import LikelihoodEngine
        from jointfit.evaluator import Evaluator
        eng = LikelihoodEngine(Evaluator(spec, d))
        assert eng.total_loglik(np.zeros(eng.ev.n_params())) == 0.0


class TestContextAccessors:
    def capture(self, data, spec_text, params):
        captured = {}

        def probe(ctx):
            captured["depvar"] = ctx.depvar()
            captured["xzb"] = ctx.xzb()
            captured["xzb_d1"] = ctx.xzb_deriv()
            captured["timevar"] = ctx.timevar()
            y = ctx.depvar()
            out = np.zeros((len(y), ctx.xzb().shape[1]))
            return out

        register_user_family("t_probe", probe, replace=True)
        spec = jf.parse_spec_text(spec_text)
        jf.validate_spec(spec, data)
        from jointfit.estimation import LikelihoodEngine
        from jointfit.evaluator import Evaluator
        eng = LikelihoodEngine(Evaluator(spec, data))
        eng.total_loglik(params)
        return captured, eng

    def test_surv_depvar_two_columns(self):
        d = make_dataset({"t": [2.0, 3.0], "s": [1.0, 0.0],
                          "x": [0.0, 1.0]})
        cap, _ = self.capture(
            d, "user : Surv(t, s) ~ x | userf=t_probe timevar=t",
            np.zeros(2))
        assert cap["depvar"].shape == (2, 2)
        assert np.array_equal(cap["depvar"][:, 1], [1.0, 0.0])

    def test_xzb_matches_evaluator(self):
        d = make_dataset({"y": [1.0, 2.0], "x": [0.5, -1.0],
                          "time": [1.0, 2.0]})
        p = np.asarray([0.3, 0.7])
        cap, eng = self.capture(
            d, "user : y ~ x | userf=t_probe timevar=time", p)
        want = eng.ev.eta(p, 0, Frame(np.asarray([0, 1]), d.column("time")), {},
                          "value")
        assert np.allclose(cap["xzb"], want)
        assert np.array_equal(cap["timevar"], [1.0, 2.0])

    def test_accessors_pure(self, lmm_data):
        calls = []

        def probe(ctx):
            a = ctx.xzb()
            b = ctx.xzb()
            calls.append(np.array_equal(a, b))
            return np.zeros_like(a)

        register_user_family("t_pure", probe, replace=True)
        spec = jf.parse_spec_text(
            "levels = id\nuser : y ~ x + M1[id]*1 | userf=t_pure")
        jf.validate_spec(spec, lmm_data)
        from jointfit.estimation import LikelihoodEngine
        from jointfit.evaluator import Evaluator
        eng = LikelihoodEngine(Evaluator(spec, lmm_data))
        eng.total_loglik(np.zeros(eng.ev.n_params()))
        assert calls and all(calls)

    def test_ap_out_of_range(self):
        d = make_dataset({"y": [1.0], "x": [0.0]})

        def probe(ctx):
            ctx.ap(2)
            return np.zeros((1, 1))

        register_user_family("t_badap", probe, replace=True)
        spec = jf.parse_spec_text("user : y ~ x + ap(1) | userf=t_badap")
        jf.validate_spec(spec, d)
        from jointfit.estimation import LikelihoodEngine
        from jointfit.evaluator import Evaluator
        eng = LikelihoodEngine(Evaluator(spec, d))
        with pytest.raises(UserFamilyError, match="out of range"):
            eng.total_loglik(np.zeros(eng.ev.n_params()))

    def test_mod_accessor_links_submodels(self):
        d = make_dataset({"y": [1.0, 2.0], "x": [0.5, -1.0],
                          "t": [1.5, 2.5], "s": [1.0, 1.0],
                          "time": [1.0, 2.0]})

        captured = {}

        def probe(ctx):
            captured["ev1"] = ctx.expval_mod(1, ctx.depvar()[:, 0])
            return np.zeros((2, 1))

        register_user_family("t_mod", probe, replace=True)
        spec = jf.parse_spec_text(
            "gaussian : y ~ time | timevar=time\n"
            "user : Surv(t, s) ~ x | userf=t_mod timevar=t\n")
        jf.validate_spec(spec, d)
        from jointfit.estimation import LikelihoodEngine
        from jointfit.evaluator import Evaluator
        eng = LikelihoodEngine(Evaluator(spec, d))
        p = np.asarray([0.4, 1.0, 0.0, 0.2, -1.0])
        eng.total_loglik(p)
        want = 0.4 * np.asarray([1.5, 2.5]) + 1.0
        assert np.allclose(captured["ev1"][:, 0], want)


class TestNoMean:
    def test_user_family_has_no_mu(self):
        from jointfit import families
        from jointfit.evaluator import EvalError
        from jointfit.prediction import FittedModel, PredictRequest, predict_stat
        rng = np.random.default_rng(4)
        d = make_dataset({"y": rng.normal(size=40), "x": rng.normal(size=40)})
        fit = fit_spec("user : y ~ x + ap(1) | userf=logl_gaussian", d)
        model = FittedModel(fit, d)
        with pytest.raises(EvalError, match="mu is undefined"):
            predict_stat(model, PredictRequest(statistic="mu"))
        with pytest.raises(ValueError, match="no link"):
            families.mean_value("user", np.zeros(2))
        eta = predict_stat(model, PredictRequest(statistic="eta"))["values"]
        assert np.all(np.isfinite(eta))


# a user kernel calls ctx.xzb(), which needs the submodel's timevar because
# of the XB[] link; there is none
LINK_WITHOUT_TIMEVAR = (
    "gaussian : y ~ time | timevar=time\n"
    "user : y2 ~ XB[y] + ap(1) | userf=logl_gaussian\n"
)


# a user kernel asks for the timevar of a submodel that has none
NEEDS_TIME = "user : y ~ x | userf=needs_time\n"


def needs_time(ctx):
    return -0.5 * (ctx.depvar() - ctx.timevar())[:, None] ** 2


def needs_time_data():
    rng = np.random.default_rng(6)
    x = rng.normal(size=30)
    return make_dataset({"y": 1.0 + 0.5 * x + rng.normal(0.0, 0.3, 30), "x": x})


def link_without_timevar_data():
    rng = np.random.default_rng(5)
    time = rng.uniform(0.0, 3.0, 30)
    return make_dataset({"y": 1.0 + 0.5 * time + rng.normal(0.0, 0.3, 30),
                         "y2": rng.normal(size=30), "time": time})


class TestUnevaluableModel:
    def test_maximize_raises_the_eval_error(self):
        from jointfit.evaluator import EvalError
        with pytest.raises(EvalError, match="without a time"):
            fit_spec(LINK_WITHOUT_TIMEVAR, link_without_timevar_data())

    def test_maximize_raises_the_user_family_error(self):
        register_user_family("needs_time", needs_time, replace=True)
        with pytest.raises(UserFamilyError, match="submodel has no timevar"):
            fit_spec(NEEDS_TIME, needs_time_data())
