"""Spline and fractional-polynomial basis construction and calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointfit.basis import (FpBasis, RcsBasis, nearest_rank_quantile,
                            orthogonalize, rcs_knots)
from jointfit.quadrature import gauss_legendre


class TestKnots:
    def test_df3_on_1_to_100(self):
        # brute-force nearest-rank centiles of 1..100 at 1/3 and 2/3
        v = np.arange(1.0, 101.0)
        knots = rcs_knots(v, 3)
        expect_33 = v[int(np.ceil(100 / 3)) - 1]
        expect_66 = v[int(np.ceil(200 / 3)) - 1]
        assert knots[0] == 1.0 and knots[-1] == 100.0
        assert knots[1] == expect_33
        assert knots[2] == expect_66

    def test_df1_is_min_max(self):
        knots = rcs_knots(np.asarray([3.0, 9.0, 5.0]), 1)
        assert np.array_equal(knots, [3.0, 9.0])

    def test_event_only_filters(self):
        t = np.asarray([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
        d = np.asarray([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        knots = rcs_knots(t, 1, event_only=True, event_mask=d)
        assert np.array_equal(knots, [10.0, 30.0])

    def test_log_time_knots(self):
        v = np.asarray([1.0, np.e, np.e**2])
        knots = rcs_knots(v, 1, log_time=True)
        assert np.allclose(knots, [0.0, 2.0])

    def test_too_few_distinct_values(self):
        with pytest.raises(ValueError, match="distinct"):
            rcs_knots(np.asarray([1.0, 1.0, 2.0]), 2)

    def test_duplicate_knots_from_ties(self):
        # four distinct values, but both interior centiles fall on the tie
        v = np.asarray([1.0] + [5.0] * 50 + [9.0, 10.0])
        with pytest.raises(ValueError, match="duplicate"):
            rcs_knots(v, 3)

    def test_nearest_rank(self):
        v = np.arange(1.0, 11.0)
        assert nearest_rank_quantile(v, 0.5) == 5.0
        assert nearest_rank_quantile(v, 0.05) == 1.0
        assert nearest_rank_quantile(v, 1.0) == 10.0


def fd(f, t, h=1e-6):
    return (f(t + h) - f(t - h)) / (2.0 * h)


def piecewise_gl(b, t1, t2, n=20):
    """Integrate the basis columns over [t1, t2], splitting at the knots
    (the integrand is only piecewise smooth)."""
    cuts = [t1] + [float(k) for k in np.exp(b.knots) if t1 < k < t2] \
        if getattr(b, "log_time", False) else \
        [t1] + [float(k) for k in b.knots if t1 < k < t2]
    cuts.append(t2)
    acc = 0.0
    for a, c in zip(cuts[:-1], cuts[1:]):
        x, w = gauss_legendre(n, a, c)
        acc = acc + w @ b.eval(x, "value")
    return acc


def per_row_log_integral(b, t):
    """Oracle: the raw log-time integral row by row, one Gauss-Legendre rule
    per inter-knot segment below t."""
    out = np.zeros((len(t), b.df))
    out[:, 0] = t * (np.log(t) - 1.0)
    lo = np.exp(b.knots[0])
    interior = np.exp(b.knots[1:-1])
    for i, ti in enumerate(t):
        if ti <= lo:
            continue
        cuts = [lo] + [float(k) for k in interior if lo < k < ti] + [float(ti)]
        acc = 0.0
        for a, c in zip(cuts[:-1], cuts[1:]):
            u, w = gauss_legendre(30, a, c)
            acc = acc + w @ b._raw_x(np.log(u), "value")[:, 1:]
        out[i, 1:] = acc
    return out


class TestRcsEval:
    def basis(self, df=3):
        rng = np.random.default_rng(0)
        v = rng.uniform(0.5, 10.0, 200)
        return RcsBasis(rcs_knots(v, df))

    def test_first_column_is_identity(self):
        b = RcsBasis(np.asarray([2.0, 8.0]))
        t = np.asarray([2.0, 5.0, 11.0])
        assert np.allclose(b.eval(t, "value")[:, 0], t)

    def test_linear_outside_boundaries(self):
        b = self.basis()
        outside = np.asarray([b.knots[0] - 1.0, b.knots[-1] + 2.0])
        assert np.allclose(b.eval(outside, "d2"), 0.0, atol=1e-10)

    def test_c2_continuity_at_knots(self):
        b = self.basis()
        eps = 1e-9
        for k in b.knots:
            for order in ("value", "d1", "d2"):
                lo = b.eval(np.asarray([k - eps]), order)
                hi = b.eval(np.asarray([k + eps]), order)
                assert np.max(np.abs(hi - lo)) < 1e-6

    def test_d1_matches_finite_differences(self):
        b = self.basis()
        t = np.linspace(b.knots[0] + 0.01, b.knots[-1] - 0.01, 1000)
        ana = b.eval(t, "d1")
        num = fd(lambda x: b.eval(x, "value"), t)
        assert np.max(np.abs(ana - num)) < 1e-6

    def test_d2_matches_finite_differences_of_d1(self):
        b = self.basis()
        t = np.linspace(b.knots[0] + 0.01, b.knots[-1] - 0.01, 500)
        ana = b.eval(t, "d2")
        num = fd(lambda x: b.eval(x, "d1"), t)
        assert np.max(np.abs(ana - num)) < 1e-5

    def test_integral_matches_gauss_legendre(self):
        b = self.basis()
        t1, t2 = 1.0, 7.5
        diff = b.eval(np.asarray([t2]), "integral") - b.eval(np.asarray([t1]), "integral")
        ref = piecewise_gl(b, t1, t2)
        assert np.max(np.abs(diff[0] - ref)) < 1e-8

    def test_log_time_chain_rule(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(0.5, 10.0, 200)
        b = RcsBasis(rcs_knots(v, 3, log_time=True), log_time=True)
        t = np.linspace(0.7, 9.0, 400)
        assert np.max(np.abs(b.eval(t, "d1") - fd(lambda x: b.eval(x, "value"), t))) < 1e-6
        assert np.max(np.abs(b.eval(t, "d2") - fd(lambda x: b.eval(x, "d1"), t))) < 1e-5

    def test_log_time_integral_vs_quadrature(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(0.5, 10.0, 200)
        b = RcsBasis(rcs_knots(v, 3, log_time=True), log_time=True)
        t1, t2 = 1.0, 8.0
        diff = (b.eval(np.asarray([t2]), "integral")
                - b.eval(np.asarray([t1]), "integral"))
        ref = piecewise_gl(b, t1, t2, n=30)
        assert np.max(np.abs(diff[0] - ref)) < 1e-7

    @pytest.mark.parametrize("orthog", [False, True])
    @pytest.mark.parametrize("df", [1, 3, 5])
    def test_log_time_integral_matches_per_row_rule(self, df, orthog):
        rng = np.random.default_rng(5)
        v = rng.uniform(0.5, 10.0, 200)
        b = RcsBasis(rcs_knots(v, df, log_time=True), log_time=True)
        # below, at, between and above the knots
        k = np.exp(b.knots)
        t = np.sort(np.concatenate([[0.05, 0.3, k[0] * 0.999], k,
                                    (k[:-1] + k[1:]) / 2, [12.0, 40.0],
                                    rng.uniform(0.1, 15.0, 40)]))
        ref = per_row_log_integral(b, t)
        if orthog:
            b.fit_orthog(v)
            ref = ref @ b.orthog_mat + np.outer(t, b.orthog_shift)
        got = b.eval(t, "integral")
        scale = np.max(np.abs(ref), axis=0)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    def test_log_time_rejects_nonpositive(self):
        b = RcsBasis(np.asarray([0.0, 1.0]), log_time=True)
        with pytest.raises(ValueError, match="t > 0"):
            b.eval(np.asarray([0.0]), "value")


class TestOrthogonalize:
    def sample(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0.5, 10.0, 300)
        b = RcsBasis(rcs_knots(v, 3))
        b.fit_orthog(v)
        return b, v

    def test_orthonormal_over_sample(self):
        b, v = self.sample()
        cols = b.eval(v, "value")
        gram = cols.T @ cols / len(v)
        assert np.allclose(gram, np.eye(3), atol=1e-10)

    def test_orthogonal_to_constant(self):
        b, v = self.sample()
        cols = b.eval(v, "value")
        assert np.allclose(cols.mean(axis=0), 0.0, atol=1e-10)

    def test_transform_commutes_with_derivative(self):
        b, v = self.sample()
        t = np.linspace(1.0, 9.0, 300)
        assert np.max(np.abs(b.eval(t, "d1") - fd(lambda x: b.eval(x, "value"), t))) < 1e-5
        diff = (b.eval(np.asarray([6.0]), "integral")
                - b.eval(np.asarray([2.0]), "integral"))
        assert np.max(np.abs(diff[0] - piecewise_gl(b, 2.0, 6.0))) < 1e-8

    def test_rank_deficiency_rejected(self):
        cols = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
        with pytest.raises(ValueError):
            orthogonalize(cols)


class TestFp:
    def test_power_zero_is_log(self):
        b = FpBasis((0.0,))
        assert np.allclose(b.eval(np.asarray([np.e]), "value"), [[1.0]])

    def test_repeated_power_at_one(self):
        b = FpBasis((1.0, 1.0))
        assert np.allclose(b.eval(np.asarray([1.0]), "value"), [[1.0, 0.0]])

    def test_repeated_power_terms(self):
        b = FpBasis((2.0, 2.0))
        t = np.asarray([3.0])
        out = b.eval(t, "value")
        assert np.allclose(out, [[9.0, 9.0 * np.log(3.0)]])

    @pytest.mark.parametrize("powers", [
        (0.0,), (1.0,), (-1.0,), (0.5,), (2.0,),
        (0.0, 0.0), (1.0, 1.0), (-1.0, -1.0), (0.0, 1.0), (-2.0, 0.5),
    ])
    def test_derivatives_and_integral(self, powers):
        b = FpBasis(powers)
        t = np.linspace(0.4, 5.0, 200)
        assert np.max(np.abs(b.eval(t, "d1") - fd(lambda x: b.eval(x, "value"), t))) < 2e-5
        assert np.max(np.abs(b.eval(t, "d2") - fd(lambda x: b.eval(x, "d1"), t))) < 2e-4
        # integral: derivative of the antiderivative recovers the value
        num = fd(lambda x: b.eval(x, "integral"), t)
        assert np.max(np.abs(num - b.eval(t, "value"))) < 2e-5

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="t > 0"):
            FpBasis((1.0,)).eval(np.asarray([-1.0]))

    def test_bad_power_count(self):
        with pytest.raises(ValueError):
            FpBasis(())
        with pytest.raises(ValueError):
            FpBasis((1.0, 2.0, 3.0))


class TestPurity:
    @given(st.floats(min_value=0.1, max_value=50.0),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_rcs_deterministic(self, t, df):
        v = np.linspace(0.1, 60.0, 100)
        b = RcsBasis(rcs_knots(v, df))
        a = b.eval(np.asarray([t]), "value")
        c = b.eval(np.asarray([t]), "value")
        assert np.array_equal(a, c)
