"""Complex-predictor evaluation: values, derivatives, integrals, links."""

import numpy as np
import pytest

import jointfit as jf
from jointfit.evaluator import EvalError, Evaluator
from jointfit.quadrature import Frame

from conftest import make_dataset


def build(spec_text, data):
    spec = jf.parse_spec_text(spec_text)
    jf.validate_spec(spec, data)
    return Evaluator(spec, data)


def simple_data(n=6, seed=0):
    rng = np.random.default_rng(seed)
    return make_dataset({
        "id": np.arange(n),
        "y": rng.normal(size=n),
        "sex": rng.integers(0, 2, n),
        "age": rng.uniform(40, 80, n),
        "time": rng.uniform(0.5, 8.0, n),
        "st": rng.uniform(0.5, 8.0, n),
        "sd": rng.integers(0, 2, n),
    }, levels=("id",))


class TestEtaValue:
    def test_linear_predictor_paper_coefficients(self):
        d = simple_data()
        ev = build("gaussian : y ~ sex + age + time | timevar=time", d)
        # parameter order: sex, age, time, _cons, log_sd(resid.)
        assert ev.layout.labels == ["sex", "age", "time", "_cons", "log_sd(resid.)"]
        params = np.asarray([0.140489, -0.002212, -0.013541, 2.771597, 0.0])
        rows = np.asarray([0])
        d.columns["sex"][0] = 0.0
        d.columns["age"][0] = 75.06027
        ev2 = build("gaussian : y ~ sex + age + time | timevar=time", d)
        for t in (1.0, 4.956164, 10.0):
            got = ev2.eta(params, 0, Frame(rows, np.asarray([t])), {}, "value")[0, 0]
            want = 2.771597 - 0.002212 * 75.06027 - 0.013541 * t
            assert abs(got - want) < 1e-10

    def test_d1_is_time_coefficient(self):
        d = simple_data()
        ev = build("gaussian : y ~ sex + age + time | timevar=time", d)
        params = np.asarray([0.140489, -0.002212, -0.013541, 2.771597, 0.0])
        got = ev.eta(params, 0, Frame(np.asarray([2]), np.asarray([3.0])), {}, "d1")
        assert abs(got[0, 0] - (-0.013541)) < 1e-12

    def test_constrained_re_adds_draw_exactly(self):
        d = simple_data()
        ev = build("levels = id\ngaussian : y ~ sex + M1[id]*1", d)
        base = np.asarray([0.3, 1.2, 0.0, 0.0])  # sex, _cons, log_sd, log_sd(M1)
        draws = {"M1": np.asarray([-0.7, 0.0, 2.5])}
        out = ev.eta(base, 0, Frame(np.asarray([0, 1]), None), draws, "value")
        zero = ev.eta(base, 0, Frame(np.asarray([0, 1]), None), {"M1": np.zeros(1)}, "value")
        assert np.allclose(out - zero[:, :1], np.broadcast_to(draws["M1"], (2, 3)))

    def test_linearity_in_coefficients(self):
        d = simple_data()
        ev = build("gaussian : y ~ sex + age + time | timevar=time", d)
        p = np.asarray([0.4, -0.1, 0.2, 1.0, 0.0])
        rows = np.arange(6)
        t = d.column("time")
        one = ev.eta(p, 0, Frame(rows, t), {}, "value")
        two = ev.eta(2.0 * p, 0, Frame(rows, t), {}, "value")
        assert np.allclose(two, 2.0 * one)

    def test_exposure_enters_with_unit_coefficient(self):
        d = make_dataset({"y": [2.0, 5.0], "pyrs": [10.0, 100.0]})
        ev = build("poisson : y ~ exposure(pyrs)", d)
        assert ev.layout.labels == ["_cons"]
        out = ev.eta(np.asarray([0.7]), 0, Frame(np.asarray([0, 1]), None), {}, "value")
        assert np.allclose(out[:, 0], 0.7 + np.log([10.0, 100.0]))


class TestColumnExpansion:
    def test_rcs_labels(self):
        d = simple_data()
        ev = build("gaussian : y ~ sex + rcs(time, df = 3)", d)
        assert ev.layout.labels[:4] == ["sex", "rcs():1", "rcs():2", "rcs():3"]

    def test_interaction_label(self):
        d = simple_data()
        ev = build(
            "weibull : Surv(st, sd) ~ sex:fp(st, powers = c(0)) | timevar=st", d)
        assert ev.layout.labels[0] == "sex:fp()"

    def test_tensor_expansion_count(self):
        d = simple_data(30)
        ev = build(
            "gaussian : y ~ rcs(time, df = 2):fp(age, powers = c(1, 1))", d)
        comp_labels = [l for l in ev.layout.labels if l.startswith("rcs")]
        assert len(comp_labels) == 4

    def test_ancillary_ordering(self):
        d = simple_data()
        ev = build(
            "levels = id\n"
            "gaussian : y ~ sex + M1[id]*1\n"
            "weibull : Surv(st, sd) ~ age + M1[id]\n", d)
        assert ev.layout.labels == [
            "sex", "_cons", "log_sd(resid.)",
            "age", "M1", "_cons", "log(gamma)",
            "log_sd(M1)",
        ]


def fd(f, t, h=1e-6):
    return (f(t + h) - f(t - h)) / (2.0 * h)


class TestDerivativeConsistency:
    def joint_evaluator(self, seed):
        d = simple_data(8, seed=seed)
        ev = build(
            "levels = id\n"
            "gaussian : y ~ sex + time + M1[id]*1 | timevar=time\n"
            "weibull : Surv(st, sd) ~ age + rcs(st, df = 3) + "
            "fp(st, powers = c(0.5, 0.5)) + EV[y] + M1[id] | timevar=st\n",
            d)
        return d, ev

    def test_dev_link_d1_vs_finite_differences(self):
        d = simple_data(8, seed=11)
        ev = build(
            "gaussian : y ~ time + M1[id]*1 | timevar=time\nlevels = id\n"
            "exponential : Surv(st, sd) ~ dEV[y] | timevar=st\n", d)
        rng = np.random.default_rng(11)
        params = rng.normal(0.0, 0.3, ev.n_params())
        rows = np.arange(3)
        t = np.linspace(1.0, 4.0, 3)
        draws = {"M1": np.zeros(1)}
        val = lambda tt: ev.eta(params, 1, Frame(rows, tt), draws, "value")
        d1 = ev.eta(params, 1, Frame(rows, t), draws, "d1")
        assert np.max(np.abs(d1 - fd(val, t))) < 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_eta_d1_d2_vs_finite_differences(self, seed):
        d, ev = self.joint_evaluator(seed)
        rng = np.random.default_rng(seed + 100)
        params = rng.normal(0.0, 0.3, ev.n_params())
        draws = {"M1": rng.normal(0.0, 0.5, 3)}
        rows = np.arange(4)
        t = np.linspace(1.0, 6.0, 4)
        for sub in (0, 1):
            val = lambda tt: ev.eta(params, sub, Frame(rows, tt), draws, "value")
            d1 = ev.eta(params, sub, Frame(rows, t), draws, "d1")
            assert np.max(np.abs(d1 - fd(val, t))) < 1e-5 * max(1, np.max(np.abs(d1)))
            d1f = lambda tt: ev.eta(params, sub, Frame(rows, tt), draws, "d1")
            d2 = ev.eta(params, sub, Frame(rows, t), draws, "d2")
            assert np.max(np.abs(d2 - fd(d1f, t))) < 1e-4 * max(1, np.max(np.abs(d2)))

    @pytest.mark.parametrize("seed", range(3))
    def test_integral_differentiates_back(self, seed):
        d, ev = self.joint_evaluator(seed)
        rng = np.random.default_rng(seed + 7)
        params = rng.normal(0.0, 0.3, ev.n_params())
        draws = {"M1": np.zeros(1)}
        rows = np.arange(4)
        t = np.linspace(1.5, 5.0, 4)
        for sub in (0, 1):
            integ = lambda tt: ev.eta(params, sub, Frame(rows, tt), draws, "integral")
            val = ev.eta(params, sub, Frame(rows, t), draws, "value")
            assert np.max(np.abs(fd(integ, t) - val)) < 1e-6 * max(1, np.max(np.abs(val)))


class TestExpval:
    def test_gaussian_ev_is_eta(self):
        d = simple_data()
        ev = build("gaussian : y ~ sex + time | timevar=time", d)
        p = np.asarray([0.5, -0.2, 1.0, 0.0])
        rows = np.arange(6)
        t = d.column("time")
        assert np.array_equal(
            ev.expval(p, 0, Frame(rows, t), {}, "value"),
            ev.eta(p, 0, Frame(rows, t), {}, "value"))

    def test_bernoulli_at_zero(self):
        d = make_dataset({"y": [1.0, 0.0], "time": [1.0, 2.0]})
        ev = build("bernoulli : y ~ time | timevar=time", d)
        p = np.asarray([0.3, 0.0])
        # eta = 0.3 t; solve t where eta = 0 is t=0, instead check chain rule
        t = np.asarray([0.0 + 1e-12, 1.0])
        out = ev.expval(np.asarray([0.3, 0.0]), 0, Frame(np.asarray([0, 1]), t), {}, "value")
        assert abs(out[0, 0] - 0.5) < 1e-9
        d1 = ev.expval(np.asarray([0.3, 0.0]), 0, Frame(np.asarray([0, 1]), t), {}, "d1")
        assert abs(d1[0, 0] - 0.25 * 0.3) < 1e-9

    def test_iev_of_constant_predictor(self):
        ev = build("gaussian : y ~ sex", make_dataset({"y": [1.0], "sex": [0.0]}))
        c = 1.7
        p = np.asarray([0.0, c, 0.0])
        t = np.asarray([3.5])
        out = ev.expval(p, 0, Frame(np.asarray([0]), t), {}, "integral")
        assert abs(out[0, 0] - c * 3.5) < 1e-10

    def test_ev_rejected_for_survival(self):
        d = simple_data()
        ev = build("weibull : Surv(st, sd) ~ sex | timevar=st", d)
        with pytest.raises(EvalError, match="undefined"):
            ev.expval(np.zeros(3), 0, Frame(np.asarray([0]), np.asarray([1.0])), {})


class TestLinks:
    def test_xb_equals_ev_for_gaussian_target(self):
        d = simple_data()
        text = (
            "levels = id\n"
            "gaussian : y ~ time + M1[id]*1 | timevar=time\n"
            "exponential : Surv(st, sd) ~ {LINK}[y] | timevar=st\n")
        rows = np.arange(4)
        t = np.linspace(1.0, 4.0, 4)
        draws = {"M1": np.asarray([0.3, -0.3])}
        outs = []
        for link in ("EV", "XB"):
            ev = build(text.replace("{LINK}", link), d)
            p = np.asarray([0.2, 1.0, 0.0, 0.8, -2.0, 0.0])
            outs.append(ev.eta(p, 1, Frame(rows, t), draws, "value"))
        assert np.allclose(outs[0], outs[1])

    def test_link_shares_draws(self):
        d = simple_data()
        ev = build(
            "levels = id\n"
            "gaussian : y ~ time + M1[id]*1 | timevar=time\n"
            "exponential : Surv(st, sd) ~ EV[y] | timevar=st\n", d)
        p = np.asarray([0.2, 1.0, 0.0, 1.0, -2.0, 0.0])
        t = np.asarray([2.0])
        b = np.asarray([0.0, 0.9])
        out = ev.eta(p, 1, Frame(np.asarray([0]), t), {"M1": b}, "value")
        # association coefficient is 1, so the draw moves eta one-for-one
        assert abs((out[0, 1] - out[0, 0]) - 0.9) < 1e-10

    def test_ev_times_fp_product(self):
        d = simple_data()
        ev = build(
            "gaussian : y ~ time | timevar=time\n"
            "exponential : Surv(st, sd) ~ EV[y]:fp(st, powers = c(0)) | timevar=st\n",
            d)
        # gaussian eta = 0.5 t + 1; survival component = (0.5 t + 1) * log t
        p = np.asarray([0.5, 1.0, 0.0, 2.0, -3.0])
        t = np.asarray([np.e])
        out = ev.eta(p, 1, Frame(np.asarray([0]), t), {}, "value")
        want = 2.0 * (0.5 * np.e + 1.0) * 1.0 + (-3.0)
        assert abs(out[0, 0] - want) < 1e-10

    def test_d2_through_iev_reduces_to_dev(self):
        d = simple_data()
        ev = build(
            "gaussian : y ~ time | timevar=time\n"
            "exponential : Surv(st, sd) ~ iEV[y] | timevar=st\n", d)
        p = np.asarray([0.4, 0.7, 0.0, 1.3, -2.0])
        t = np.asarray([2.5])
        # d2/dt2 of the integral of EV equals dEV = 0.4 * coef
        out = ev.eta(p, 1, Frame(np.asarray([0]), t), {}, "d2")
        assert abs(out[0, 0] - 1.3 * 0.4) < 1e-10

    def test_derivative_through_d2ev_unsupported(self):
        d = simple_data()
        ev = build(
            "gaussian : y ~ time | timevar=time\n"
            "exponential : Surv(st, sd) ~ d2EV[y] | timevar=st\n", d)
        p = np.zeros(ev.n_params())
        with pytest.raises(EvalError, match="unsupported"):
            ev.eta(p, 1, Frame(np.asarray([0]), np.asarray([1.0])), {}, "d1")


class TestSurvivalCalculus:
    def test_rp_hazard_vs_fd_of_cumhazard(self):
        rng = np.random.default_rng(0)
        n = 60
        d = make_dataset({
            "st": rng.uniform(0.5, 8.0, n),
            "sd": np.ones(n),
            "x": rng.integers(0, 2, n),
        })
        ev = build(
            "rp : Surv(st, sd) ~ x + rcs(st, df = 3, log = TRUE) | timevar=st", d)
        params = np.asarray([0.3, 1.1, 0.05, 0.02, -1.5])
        rows = np.arange(5)
        t = np.linspace(1.0, 6.0, 5)
        h = ev.hazard(params, 0, Frame(rows, t), {})
        H = lambda tt: ev.cumhazard(params, 0, Frame(rows, tt), {})
        num = fd(H, t)
        assert np.max(np.abs(h - num) / np.abs(h)) < 1e-5

    def test_weibull_closed_form(self):
        d = make_dataset({"st": [2.0], "sd": [1.0], "x": [1.0]})
        ev = build("weibull : Surv(st, sd) ~ x | timevar=st", d)
        # eta = 0.5 + (-2); gamma = exp(0.3)
        p = np.asarray([0.5, -2.0, 0.3])
        g = np.exp(0.3)
        t = np.asarray([2.0])
        lam = np.exp(-1.5)
        assert abs(ev.hazard(p, 0, Frame(np.asarray([0]), t), {})[0, 0]
                   - lam * g * 2.0 ** (g - 1.0)) < 1e-12
        assert abs(ev.cumhazard(p, 0, Frame(np.asarray([0]), t), {})[0, 0]
                   - lam * 2.0**g) < 1e-12

    def test_numeric_cumhazard_matches_analytic(self):
        # time-dependent weibull effect forces the quadrature path; compare
        # against dense trapezoid integration of the hazard
        rng = np.random.default_rng(1)
        n = 40
        d = make_dataset({
            "st": rng.uniform(0.5, 6.0, n), "sd": np.ones(n),
            "x": rng.integers(0, 2, n),
        })
        ev = build(
            "weibull : Surv(st, sd) ~ x + x:fp(st, powers = c(0)) | timevar=st",
            d)
        p = np.asarray([0.4, 0.1, -1.8, 0.2])
        rows = np.arange(3)
        t = np.asarray([2.0, 3.0, 4.0])
        H = ev.cumhazard(p, 0, Frame(rows, t), {})
        for i, ti in enumerate(t):
            grid = np.linspace(1e-6, ti, 2000)
            hz = np.asarray(
                [ev.hazard(p, 0, Frame(rows[i:i + 1], np.asarray([u])), {})[0, 0]
                 for u in grid])
            ref = np.trapezoid(hz, grid)
            assert abs(H[i, 0] - ref) / ref < 1e-3

    def test_survival_is_exp_neg_cumhazard(self):
        d = make_dataset({"st": [1.5], "sd": [1.0], "x": [0.0]})
        ev = build("gompertz : Surv(st, sd) ~ x | timevar=st", d)
        p = np.asarray([0.2, -1.0, 0.1])
        t = np.asarray([1.5])
        H = ev.cumhazard(p, 0, Frame(np.asarray([0]), t), {})
        S = ev.survival(p, 0, Frame(np.asarray([0]), t), {})
        assert np.allclose(S, np.exp(-H), rtol=0, atol=1e-15)


class TestNumpyOracle:
    """eta of a predictor with every kind of column against a numpy
    computation from the bases and the data columns alone: an rcs(time) x
    x interaction, a random intercept and a random slope on x, an EV[]
    link and an fp(time) term."""

    KNOTS = (0.6, 2.0, 4.5)
    SPEC = ("levels = id\n"
            "gaussian : z ~ x + time | timevar=time\n"
            "gaussian : y ~ rcs(time, knots = c(0.6, 2, 4.5)):x + M1[id]*1 + M2[id]:x*1"
            " + EV[z] + fp(time, powers = c(0.5)) | timevar=time\n")

    def oracle(self, p, x, t, b1, b2, order):
        from jointfit.basis import FpBasis, RcsBasis
        B = RcsBasis(np.asarray(self.KNOTS)).eval(t, order)
        F = FpBasis((0.5,)).eval(t, order)[:, 0]
        bx, bt, cz, beta, gamma, phi, c = p
        spline = B @ beta * x
        if order == "value":
            fixed = spline + gamma * (bx * x + bt * t + cz) + phi * F + c
            return fixed[:, None] + b1[None, :] + b2[None, :] * x[:, None]
        if order == "d1":
            return (spline + gamma * bt + phi * F)[:, None]
        if order == "d2":
            return (spline + phi * F)[:, None]
        fixed = spline + gamma * (bx * x * t + 0.5 * bt * t**2 + cz * t) + phi * F + c * t
        return fixed[:, None] + (b1[None, :] + b2[None, :] * x[:, None]) * t[:, None]

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("order", ["value", "d1", "d2", "integral"])
    def test_eta_matches_numpy(self, order, keep):
        rng = np.random.default_rng(3)
        n = 24
        data = make_dataset({"id": np.repeat(np.arange(8.0), 3), "x": rng.normal(size=n),
                             "time": rng.uniform(0.2, 5.0, n), "y": rng.normal(size=n),
                             "z": rng.normal(size=n)}, levels=("id",))
        ev = build(self.SPEC, data)
        labels = ev.layout.labels
        assert labels[:3] == ["x", "time", "_cons"]
        assert labels[4:9] == ["rcs():x:1", "rcs():x:2", "EV[]", "fp()", "_cons"]
        p = rng.uniform(-1.0, 1.0, len(labels))
        draws = {"M1": np.asarray([-0.7, 0.0, 1.3]), "M2": np.asarray([0.4, -0.2, 0.9])}
        rows = np.arange(n)
        t = rng.uniform(0.3, 4.8, n)
        at = Frame(rows, t, keep=keep)
        got = ev.eta(p, 1, at, draws, order)
        if keep:  # the design kept by the first call
            assert np.array_equal(ev.eta(p, 1, at, draws, order), got)
        want = self.oracle((p[0], p[1], p[2], p[4:6], p[6], p[7], p[8]),
                           data.column("x"), t, draws["M1"], draws["M2"], order)
        want = np.broadcast_to(want, got.shape)
        assert np.all(np.isfinite(want)) and np.max(np.abs(want)) > 0.1
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
