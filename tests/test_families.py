"""Family log-likelihood kernels and survival closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import beta as beta_dist
from scipy.stats import nbinom, norm, poisson

from jointfit import families
from jointfit.evaluator import Evaluator
from jointfit.quadrature import Frame
import jointfit as jf

from conftest import make_dataset


def ll(family, y, eta, ap=()):
    return families.scalar_loglik(
        family, np.atleast_1d(np.asarray(y, dtype=float)),
        np.atleast_2d(np.asarray(eta, dtype=float)).T,
        np.asarray(ap, dtype=float))[0, 0]


class TestScalarKernels:
    def test_gaussian_at_mean(self):
        # -0.5 * log(2 pi)
        assert abs(ll("gaussian", 1.3, 1.3, [0.0]) - (-0.9189385)) < 1e-7

    def test_gaussian_matches_scipy(self):
        for y, eta, logsd in [(0.2, -1.0, 0.5), (3.0, 2.5, -0.7)]:
            want = norm.logpdf(y, eta, np.exp(logsd))
            assert abs(ll("gaussian", y, eta, [logsd]) - want) < 1e-12

    def test_bernoulli_at_zero(self):
        assert abs(ll("bernoulli", 1.0, 0.0) - np.log(0.5)) < 1e-12
        assert abs(ll("bernoulli", 0.0, 0.0) - np.log(0.5)) < 1e-12

    def test_bernoulli_matches_formula(self):
        for y in (0.0, 1.0):
            for eta in (-2.0, 0.3, 5.0):
                p = expit(eta)
                want = y * np.log(p) + (1 - y) * np.log(1 - p)
                assert abs(ll("bernoulli", y, eta) - want) < 1e-10

    def test_poisson_matches_scipy(self):
        for y, eta in [(0, 0.5), (3, 1.2), (10, 2.0)]:
            want = poisson.logpmf(y, np.exp(eta))
            assert abs(ll("poisson", y, eta) - want) < 1e-10

    def test_negbinomial_matches_scipy(self):
        for y, eta, la in [(0, 0.5, 0.2), (4, 1.1, -0.5), (12, 2.0, 0.0)]:
            alpha = np.exp(la)
            mu = np.exp(eta)
            r = 1.0 / alpha
            p = r / (r + mu)
            want = nbinom.logpmf(y, r, p)
            assert abs(ll("negbinomial", y, eta, [la]) - want) < 1e-10

    def test_negbinomial_approaches_poisson(self):
        got = ll("negbinomial", 3, 1.2, [-15.0])
        want = poisson.logpmf(3, np.exp(1.2))
        assert abs(got - want) < 1e-4

    def test_beta_matches_scipy(self):
        for y, eta, lphi in [(0.3, 0.0, 1.0), (0.8, 1.5, 0.3)]:
            mu = expit(eta)
            phi = np.exp(lphi)
            want = beta_dist.logpdf(y, mu * phi, (1 - mu) * phi)
            assert abs(ll("beta", y, eta, [lphi]) - want) < 1e-10

    def test_beta_mean_at_zero(self):
        assert families.mean_value("beta", np.asarray(0.0)) == 0.5

    def test_null_contributes_zero(self):
        assert ll("null", 5.0, 3.0) == 0.0

    def test_mean_functions(self):
        eta = np.asarray([np.log(4.0)])
        assert np.allclose(families.mean_value("poisson", eta), 4.0)
        assert np.allclose(families.mean_value("gaussian", eta), eta)
        assert np.allclose(families.mean_value("bernoulli", np.zeros(1)), 0.5)
        with pytest.raises(ValueError):
            families.mean_value("weibull", eta)


class TestSurvivalKernels:
    def eval_with(self, family, data, params, extra=""):
        spec = jf.parse_spec_text(
            f"{family} : Surv(t, d) ~ x {extra}| timevar=t")
        jf.validate_spec(spec, data)
        ev = Evaluator(spec, data)
        return ev

    def test_exponential_constant_hazard(self):
        d = make_dataset({"t": [1.0, 2.0, 7.0], "d": [1, 1, 1],
                          "x": [0.0, 0.0, 0.0]})
        ev = self.eval_with("exponential", d, None)
        lam = 0.3
        p = np.asarray([0.0, np.log(lam)])
        t = np.asarray([1.0, 2.0, 7.0])
        rows = np.arange(3)
        assert np.allclose(ev.hazard(p, 0, Frame(rows, t), {})[:, 0], lam)
        assert np.allclose(ev.survival(p, 0, Frame(rows, t), {})[:, 0],
                           np.exp(-lam * t))

    def test_weibull_paper_survival_value(self):
        # survival for a subject with age 75.06027, type 1 at t = 4.956164
        # under estimates {age 0.09731, type 0.03834, _cons -11.68669,
        # log(gamma) 0.64107}
        d = make_dataset({"t": [4.956164], "d": [0.0],
                          "age": [75.06027], "type": [1.0]})
        spec = jf.parse_spec_text("weibull : Surv(t, d) ~ age + type | timevar=t")
        jf.validate_spec(spec, d)
        ev = Evaluator(spec, d)
        p = np.asarray([0.09731, 0.03834, -11.68669, 0.64107])
        S = ev.survival(p, 0, Frame(np.asarray([0]), np.asarray([4.956164])), {})
        assert abs(S[0, 0] - 0.7625097) < 1e-3

    def test_weibull_hazard_ratio_is_exp_beta(self):
        d = make_dataset({"t": [2.0, 2.0], "d": [1, 1], "x": [0.0, 1.0]})
        ev = self.eval_with("weibull", d, None)
        p = np.asarray([0.038, -2.0, 0.4])
        h = ev.hazard(p, 0, Frame(np.arange(2), np.asarray([3.0, 3.0])), {})[:, 0]
        assert abs(h[1] / h[0] - np.exp(0.038)) < 1e-12
        assert round(np.exp(0.038), 3) == 1.039

    def test_gompertz_cumhazard(self):
        d = make_dataset({"t": [2.0], "d": [1], "x": [0.0]})
        ev = self.eval_with("gompertz", d, None)
        eta0, g = -1.2, 0.3
        p = np.asarray([0.0, eta0, g])
        t = np.asarray([2.0])
        want = np.exp(eta0) * (np.exp(g * 2.0) - 1.0) / g
        assert abs(ev.cumhazard(p, 0, Frame(np.asarray([0]), t), {})[0, 0] - want) < 1e-12

    def test_censored_contribution_is_neg_cumhazard(self):
        d = make_dataset({"t": [3.0], "d": [0.0], "x": [1.0]})
        ev = self.eval_with("exponential", d, None)
        p = np.asarray([0.5, -1.0])
        out = ev.loglik_matrix(p, 0, {})
        H = ev.cumhazard(p, 0, Frame(np.asarray([0]), np.asarray([3.0])), {})
        assert np.allclose(out, -H)

    def test_event_contribution(self):
        d = make_dataset({"t": [3.0], "d": [1.0], "x": [1.0]})
        ev = self.eval_with("exponential", d, None)
        p = np.asarray([0.5, -1.0])
        out = ev.loglik_matrix(p, 0, {})
        lam = np.exp(0.5 - 1.0)
        want = np.log(lam) - lam * 3.0
        assert abs(out[0, 0] - want) < 1e-12

    def test_small_time_cumhazard_vanishes(self):
        d = make_dataset({"t": [1.0], "d": [1.0], "x": [0.0]})
        for fam in ("exponential", "weibull", "gompertz"):
            ev = self.eval_with(fam, d, None)
            p = np.zeros(ev.n_params())
            H = ev.cumhazard(p, 0, Frame(np.asarray([0]), np.asarray([1e-12])), {})
            assert H[0, 0] < 1e-10

    def test_rp_nonpositive_slope_gives_minus_inf(self):
        d = make_dataset({"t": [1.0, 2.0, 3.0, 4.0, 5.0], "d": np.ones(5),
                          "x": np.zeros(5)})
        spec = jf.parse_spec_text(
            "rp : Surv(t, d) ~ fp(t, powers = c(0)) | timevar=t")
        jf.validate_spec(spec, d)
        ev = Evaluator(spec, d)
        # eta = -1 * log t + 0 -> eta' = -1/t < 0 at events
        p = np.asarray([-1.0, 0.0])
        out = ev.loglik_matrix(p, 0, {})
        assert np.all(np.isneginf(out))

    def test_loghazard_cumhazard_quadrature(self):
        d = make_dataset({"t": [2.0], "d": [1.0], "x": [0.0]})
        spec = jf.parse_spec_text(
            "loghazard : Surv(t, d) ~ fp(t, powers = c(1)) | timevar=t")
        jf.validate_spec(spec, d)
        ev = Evaluator(spec, d)
        # log h = 0.5 t - 1 -> H(t) = 2 e^{-1} (e^{0.5 t} - 1)
        p = np.asarray([0.5, -1.0])
        H = ev.cumhazard(p, 0, Frame(np.asarray([0]), np.asarray([2.0])), {})
        want = 2.0 * np.exp(-1.0) * (np.exp(1.0) - 1.0)
        assert abs(H[0, 0] - want) < 1e-8

    def test_bhazard_event_term(self):
        d = make_dataset({"t": [2.0], "d": [1.0], "x": [0.0],
                          "rate": [0.05]})
        spec = jf.parse_spec_text(
            "exponential : Surv(t, d) ~ x + bhazard(rate) | timevar=t")
        jf.validate_spec(spec, d)
        ev = Evaluator(spec, d)
        p = np.asarray([0.0, -1.5])
        out = ev.loglik_matrix(p, 0, {})
        lam = np.exp(-1.5)
        want = np.log(0.05 + lam) - lam * 2.0
        assert abs(out[0, 0] - want) < 1e-12


class TestAnalyticVsNumericCumhazard:
    @pytest.mark.parametrize("family,ap", [
        ("exponential", []), ("weibull", [0.35]), ("gompertz", [0.2]),
    ])
    def test_closed_form_matches_quadrature(self, family, ap):
        from jointfit.quadrature import gauss_legendre
        d = make_dataset({"t": [3.0], "d": [1.0], "x": [1.0]})
        spec = jf.parse_spec_text(f"{family} : Surv(t, d) ~ x | timevar=t")
        jf.validate_spec(spec, d)
        ev = Evaluator(spec, d)
        p = np.asarray([0.4, -1.0] + ap)
        t = 3.0
        H = ev.cumhazard(p, 0, Frame(np.asarray([0]), np.asarray([t])), {})[0, 0]
        x, w = gauss_legendre(80, 1e-9, t)
        hz = np.asarray([ev.hazard(p, 0, Frame(np.asarray([0]), np.asarray([u])), {})[0, 0]
                         for u in x])
        assert abs(H - w @ hz) / H < 1e-6


MEAN_FAMILIES = [f for f, rec in families.FAMILIES.items() if rec.link is not None]


class TestFamilyTable:
    @pytest.mark.parametrize("family", MEAN_FAMILIES)
    def test_mean_derivatives_match_central_differences(self, family):
        eta = np.linspace(-3.0, 3.0, 13)
        h = 1e-5
        fd1 = (families.mean_value(family, eta + h)
               - families.mean_value(family, eta - h)) / (2 * h)
        fd2 = (families.mean_d1(family, eta + h)
               - families.mean_d1(family, eta - h)) / (2 * h)
        d1 = families.mean_d1(family, eta)
        d2 = families.mean_d2(family, eta)
        assert np.allclose(d1, fd1, rtol=1e-7, atol=1e-9)
        assert np.allclose(d2, fd2, rtol=1e-6, atol=1e-8)

    def test_families_without_mean(self):
        assert set(families.FAMILIES) - set(MEAN_FAMILIES) == {
            "exponential", "weibull", "gompertz", "rp", "loghazard", "user"}

    # one tiny model per family and the parameter labels it must produce
    MODELS = {
        "gaussian": ("gaussian : yg ~ x", ["x", "_cons", "log_sd(resid.)"]),
        "bernoulli": ("bernoulli : yb ~ x", ["x", "_cons"]),
        "poisson": ("poisson : yc ~ x", ["x", "_cons"]),
        "beta": ("beta : yp ~ x", ["x", "_cons", "log_phi"]),
        "negbinomial": ("negbinomial : yc ~ x", ["x", "_cons", "log_alpha"]),
        "exponential": ("exponential : Surv(t, d) ~ x", ["x", "_cons"]),
        "weibull": ("weibull : Surv(t, d) ~ x", ["x", "_cons", "log(gamma)"]),
        "gompertz": ("gompertz : Surv(t, d) ~ x", ["x", "_cons", "gamma"]),
        "rp": ("rp : Surv(t, d) ~ x + rcs(t, df = 2, log = TRUE) | timevar=t",
               ["x", "rcs():1", "rcs():2", "_cons"]),
        "loghazard": ("loghazard : Surv(t, d) ~ x + rcs(t, df = 2, log = TRUE) | timevar=t",
                      ["x", "rcs():1", "rcs():2", "_cons"]),
        "user": ("user : yg ~ x + ap(1) | userf=logl_gaussian", ["x", "_cons", "_ap1"]),
        "null": ("null : yg ~ x", ["x", "_cons"]),
    }

    @pytest.mark.parametrize("family", sorted(families.FAMILIES))
    def test_layout_and_start_loglik(self, family):
        from jointfit.estimation import LikelihoodEngine, start_values
        rng = np.random.default_rng(3)
        n = 12
        d = make_dataset({
            "x": rng.normal(size=n), "t": rng.exponential(2.0, n) + 0.1,
            "d": np.tile([1.0, 0.0, 1.0], n // 3), "yg": rng.normal(size=n),
            "yb": np.tile([0.0, 1.0], n // 2), "yc": rng.poisson(2.0, n),
            "yp": rng.uniform(0.1, 0.9, n)})
        text, labels = self.MODELS[family]
        spec = jf.validate_spec(jf.parse_spec_text(text), d)
        eng = LikelihoodEngine(Evaluator(spec, d))
        assert eng.ev.layout.labels == labels
        assert np.isfinite(eng.total_loglik(start_values(eng)))


def _fd4(f, v):
    """Fourth-order central difference of the scalar function f at v."""
    h = 1e-3 * max(1.0, abs(v))
    return (f(v - 2 * h) - 8 * f(v - h) + 8 * f(v + h) - f(v + 2 * h)) / (12 * h)


def _close(got, want):
    got, want = np.asarray(got).item(), np.asarray(want).item()
    return abs(got - want) <= 1e-7 * max(1.0, abs(want))


_ETA = st.floats(-5.0, 5.0)


class TestDerivativeKernels:
    """Each derivative kernel against a central difference of the kernel it
    differentiates, on one row."""

    def _check_scalar(self, family, y, eta, ap):
        rec = families.FAMILIES[family]
        y, e, ap = np.asarray([[y]]), np.asarray([[eta]]), np.asarray(ap, dtype=float)
        d_eta, d_ap = rec.loglik_d(y, e, ap)
        assert _close(d_eta, _fd4(lambda v: rec.loglik(y, np.asarray([[v]]), ap), eta))
        assert len(d_ap) == len(ap) == len(rec.ancillary)
        for k, got in enumerate(d_ap):
            def moved(v, k=k):
                a = ap.copy()
                a[k] = v
                return rec.loglik(y, e, a)
            assert _close(got, _fd4(moved, ap[k]))

    @settings(max_examples=200, deadline=None)
    @given(y=st.floats(-5.0, 5.0), eta=_ETA, log_sd=st.floats(-2.0, 2.0))
    def test_gaussian(self, y, eta, log_sd):
        self._check_scalar("gaussian", y, eta, [log_sd])

    @settings(max_examples=200, deadline=None)
    @given(y=st.sampled_from([0.0, 1.0]), eta=st.floats(-10.0, 10.0))
    def test_bernoulli(self, y, eta):
        self._check_scalar("bernoulli", y, eta, [])

    @settings(max_examples=200, deadline=None)
    @given(y=st.integers(0, 20), eta=st.floats(-3.0, 3.0))
    def test_poisson(self, y, eta):
        self._check_scalar("poisson", float(y), eta, [])

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(["exponential", "weibull", "gompertz"]),
           t=st.floats(0.05, 5.0), ap=st.one_of(st.just(0.0), st.floats(-1.5, 1.5)))
    def test_survival(self, family, t, ap):
        rec = families.FAMILIES[family]
        t = np.asarray([[t]])
        ap = np.asarray([ap] if rec.ancillary else [])
        for kernel, d_kernel in ((rec.cumhazard, rec.cumhazard_d),
                                 (rec.log_hazard, rec.log_hazard_d)):
            got = d_kernel(t, ap)
            assert len(got) == len(ap)
            for d in got:
                assert _close(d, _fd4(lambda v: kernel(t, np.asarray([v])), ap[0]))

    def test_gompertz_at_gamma_zero(self):
        t = np.asarray([[0.5], [2.0], [4.0]])
        d_lambda0, = families.FAMILIES["gompertz"].cumhazard_d(t, np.zeros(1))
        assert np.array_equal(d_lambda0, t * t / 2.0)

    def test_kernels_only_where_scores_are_analytic(self):
        with_d = {f for f, rec in families.FAMILIES.items()
                  if rec.loglik_d is not None or rec.log_hazard_d is not None}
        assert with_d == {"gaussian", "bernoulli", "poisson",
                          "exponential", "weibull", "gompertz", "loghazard"}
        # Lambda0's derivative wherever Lambda0 is closed form
        with_lambda0 = {f for f, rec in families.FAMILIES.items() if rec.cumhazard is not None}
        assert with_lambda0 == {"exponential", "weibull", "gompertz"}
        for f in with_lambda0:
            assert families.FAMILIES[f].cumhazard_d is not None
        # loghazard's offset is 0 and has no ancillary
        assert families.FAMILIES["loghazard"].log_hazard_d(np.ones((2, 1)), np.zeros(0)) == ()
