"""Integration rules and random-effect covariance transforms."""

import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from jointfit import quadrature
from jointfit.quadrature import (CovarianceParam, Frame, gauss_hermite,
                                 gauss_legendre, gh_product_rule, integrate_to,
                                 level_nodes, qmc_nodes, transform_nodes)

from conftest import fit_spec, make_dataset
from test_time_blocks import per_node_integrate_to


def normal_moment(k: int) -> float:
    """E[Z^k] for standard normal: odd -> 0, even -> (k-1)!!."""
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


class TestGaussHermite:
    def test_three_point_rule(self):
        z, w = gauss_hermite(3)
        assert np.allclose(np.sort(z), [-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
        assert np.allclose(np.sort(w), [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0])

    def test_weights_sum_to_one(self):
        for n in (1, 2, 7, 35, 200):
            _, w = gauss_hermite(n)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_second_moment(self):
        z, w = gauss_hermite(7)
        assert abs(w @ z**2 - 1.0) < 1e-12

    def test_twelfth_moment(self):
        # 11!! = 10395, degree 12 <= 2*7-1
        z, w = gauss_hermite(7)
        assert abs(w @ z**12 - 10395.0) / 10395.0 < 1e-6

    def test_moment_exactness_sweep(self):
        for n in (3, 5, 7, 15):
            z, w = gauss_hermite(n)
            for k in range(2 * n):
                got = w @ z**k
                want = normal_moment(k)
                # relative to the magnitude of the summed terms, since odd
                # moments vanish only by cancellation
                scale = w @ np.abs(z) ** k if k else 1.0
                assert abs(got - want) / scale < 1e-8

    def test_point_count_bounds(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(201)


class TestProductRule:
    def test_point_count(self):
        ns = gh_product_rule(5, 3)
        assert ns.nodes.shape == (125, 3)
        assert abs(ns.weights.sum() - 1.0) < 1e-12

    def test_mixed_moments(self):
        ns = gh_product_rule(5, 2)
        for a in range(6):
            for b in range(6):
                got = ns.weights @ (ns.nodes[:, 0] ** a * ns.nodes[:, 1] ** b)
                want = normal_moment(a) * normal_moment(b)
                if want == 0.0:
                    assert abs(got) < 1e-8
                else:
                    assert abs(got - want) / want < 1e-8


class TestGaussLegendre:
    def test_two_point_rule(self):
        x, w = gauss_legendre(2, -1.0, 1.0)
        assert np.allclose(np.sort(x), [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
        assert np.allclose(w, [1.0, 1.0])

    def test_cubic_exact(self):
        x, w = gauss_legendre(2, 0.0, 1.0)
        assert abs(w @ x**3 - 0.25) < 1e-14

    def test_constant_integrand(self):
        lam = 2.7
        for n in (1, 3, 10):
            x, w = gauss_legendre(n, 0.0, 5.0)
            assert abs(w @ (lam * np.ones_like(x)) - lam * 5.0) < 1e-10

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            gauss_legendre(3, 1.0, 1.0)


class TestIntegrateTo:
    def test_polynomial_exact_per_row(self):
        t = np.asarray([0.5, 2.0, 3.0])
        got = integrate_to(lambda fr: np.column_stack([fr.t**5, 2.0 * fr.t]),
                           Frame(np.arange(3), t), 3, 2)
        assert got.shape == (3, 2)
        assert np.allclose(got[:, 0], t**6 / 6.0, rtol=1e-13)
        assert np.allclose(got[:, 1], t**2, rtol=1e-13)

    def test_nodes_clamped_above_zero(self):
        nodes = []

        def fn(fr):
            nodes.append(fr.t)
            return fr.t[:, None]

        integrate_to(fn, Frame(np.arange(2), np.zeros(2)), 4, 1)
        assert np.all(np.concatenate(nodes) == 1e-300)

    def test_nodes_stacked_node_major_with_tiled_rows(self):
        rows, t, n = np.asarray([5, 7]), np.asarray([1.0, 2.0]), 4
        calls = []

        def fn(fr):
            calls.append((fr.rows, fr.t))
            return np.column_stack([fr.t, fr.rows])

        got = integrate_to(fn, Frame(rows, t), n, 2)
        # 2 rows x width 2 fit every node in one block
        assert len(calls) == 1
        x, _ = np.polynomial.legendre.leggauss(n)
        want_u = np.concatenate([0.5 * t * (xk + 1.0) for xk in x])
        assert np.array_equal(calls[0][0], np.tile(rows, n))
        assert np.array_equal(calls[0][1], want_u)
        assert np.allclose(got[:, 0], t**2 / 2.0, rtol=1e-13)
        assert np.allclose(got[:, 1], rows * t, rtol=1e-13)

    def test_budget_sets_block_size(self, monkeypatch):
        # 3 rows x width 2 = 6 output values per node; 13 values hold 2
        # nodes, sized before the first call
        monkeypatch.setattr(quadrature, "TIME_BLOCK_DOUBLES", 13)
        sizes = []

        def fn(fr):
            sizes.append(len(fr.t) // 3)
            return np.column_stack([fr.t, fr.t**2])

        integrate_to(fn, Frame(np.arange(3), np.ones(3)), 7, 2)
        assert sizes == [2, 2, 2, 1]

    def test_stated_width_sets_block_size(self, monkeypatch):
        # the width the caller states sizes the blocks, not the width the
        # integrand returns: 3 rows x width 4 = 12 values, one node a block
        monkeypatch.setattr(quadrature, "TIME_BLOCK_DOUBLES", 13)
        sizes = []

        def fn(fr):
            sizes.append(len(fr.t) // 3)
            return fr.t[:, None]

        integrate_to(fn, Frame(np.arange(3), np.ones(3)), 5, 4)
        assert sizes == [1] * 5

    @pytest.mark.parametrize("layout", ["C", "transposed"])
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_random_blocks_match_per_node_oracle(self, monkeypatch, m, layout):
        """Random (nodes, rows, width) integrands, values over many orders
        of magnitude, so that any other order of addition shows in the
        bits; in C layout and in the score's transposed one (rows fastest),
        with one block, one node a block and a few nodes a block."""
        rng = np.random.default_rng(m)
        for _ in range(4):
            n, w = int(rng.integers(1, 31)), int(rng.integers(1, 4))
            rate = rng.normal(0.0, 4.0, (m, w))
            at = Frame(np.arange(m), rng.uniform(0.1, 5.0, m))

            def fn(fr):
                # elementwise, so a node's values do not depend on its block
                v = np.exp(rate[fr.rows] * fr.t[:, None])
                return v if layout == "C" else np.ascontiguousarray(v.T).T

            want = per_node_integrate_to(fn, at, n, w)
            for budget in (2**13, 1, 3 * m * w):
                monkeypatch.setattr(quadrature, "TIME_BLOCK_DOUBLES", budget)
                assert np.array_equal(integrate_to(fn, at, n, w), want), (n, w, budget)

    def test_empty_rows(self):
        calls = []

        def fn(fr):
            calls.append(len(fr.t))
            return np.zeros((len(fr.rows), 3))

        got = integrate_to(fn, Frame(np.arange(0), np.zeros(0)), 5, 3)
        assert got.shape == (0, 3)
        assert calls == [0]


def radical_inverse_halton(n, r):
    """Halton points 1..n in the first r prime bases, by digit reversal."""
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))][:r]
    out = np.empty((n, r))
    for j, base in enumerate(primes):
        for i in range(n):
            f, x, k = 1.0, 0.0, i + 1
            while k > 0:
                f /= base
                x += f * (k % base)
                k //= base
            out[i, j] = x
    return out


class TestQmc:
    def test_halton_first_points(self):
        # reconstruct the uniforms via the normal CDF to check the radical
        # inverse start index
        from scipy.special import ndtr
        ns = qmc_nodes("halton", 2, 2)
        u = ndtr(ns.nodes)
        assert np.allclose(u[0], [0.5, 1.0 / 3.0])
        assert np.allclose(u[1], [0.25, 2.0 / 3.0])

    def test_halton_matches_radical_inverse(self):
        for n, r in ((2, 2), (64, 1), (100, 3), (1000, 5), (500, 18)):
            ns = qmc_nodes("halton", n, r)
            assert np.array_equal(ns.nodes, ndtri(radical_inverse_halton(n, r)))

    def test_median_maps_to_zero(self):
        assert ndtri(0.5) == 0.0

    def test_deterministic(self):
        a, b = qmc_nodes("halton", 64, 3), qmc_nodes("halton", 64, 3)
        assert np.array_equal(a.nodes, b.nodes)
        # 65 Sobol points (the all-zeros first one dropped) are not a power of 2
        with pytest.warns(UserWarning, match="balance properties"):
            a, b = qmc_nodes("sobol", 64, 3), qmc_nodes("sobol", 64, 3)
        assert np.array_equal(a.nodes, b.nodes)

    def test_mc_seed_determinism(self):
        a = qmc_nodes("mc", 50, 2, seed=123)
        b = qmc_nodes("mc", 50, 2, seed=123)
        c = qmc_nodes("mc", 50, 2, seed=124)
        assert np.array_equal(a.nodes, b.nodes)
        assert not np.array_equal(a.nodes, c.nodes)

    def test_uniform_weights(self):
        ns = qmc_nodes("halton", 10, 1)
        assert np.allclose(ns.weights, 0.1)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            qmc_nodes("halton", 1, 1)
        with pytest.raises(ValueError):
            qmc_nodes("what", 10, 1)


class TestCovariance:
    def test_identity_zero_logsd_unchanged(self):
        ns = gh_product_rule(3, 2)
        cov = CovarianceParam("identity", np.zeros(2))
        assert np.array_equal(transform_nodes(ns, cov), ns.nodes)

    def test_diagonal_scaling(self):
        ns = gh_product_rule(3, 2)
        cov = CovarianceParam("diagonal", np.log(np.asarray([2.0, 3.0])))
        out = transform_nodes(ns, cov)
        assert np.allclose(out[:, 0], 2.0 * ns.nodes[:, 0])
        assert np.allclose(out[:, 1], 3.0 * ns.nodes[:, 1])

    def test_paper_correlation_value(self):
        cov = CovarianceParam("unstructured", np.zeros(2),
                              np.asarray([-2.1512169]))
        L = cov.cholesky()
        S = L @ L.T
        corr = S[0, 1] / np.sqrt(S[0, 0] * S[1, 1])
        assert abs(corr - np.tanh(-2.1512169)) < 1e-12
        assert round(corr, 3) == -0.973

    def test_implied_covariance_spd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.integers(1, 4)
            cov = CovarianceParam(
                "unstructured",
                rng.normal(size=d),
                rng.normal(size=d * (d - 1) // 2),
            )
            L = cov.cholesky()
            S = L @ L.T
            assert np.all(np.linalg.eigvalsh(S) > 0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_every_parameter_gives_a_correlation_factor(self, d):
        rng = np.random.default_rng(d)
        k = d * (d - 1) // 2
        extremes = np.resize([30.0, -30.0, 1e3, -1e3], k)
        for theta in (*(rng.normal(scale=3.0, size=k) for _ in range(200)), extremes,
                      np.where(rng.random(k) < 0.5, extremes, rng.normal(size=k))):
            L = CovarianceParam("unstructured", np.zeros(d), theta).cholesky()
            assert np.all(np.isfinite(L))
            assert np.array_equal(L, np.tril(L))
            C = L @ L.T
            assert np.allclose(np.diag(C), 1.0, rtol=0.0, atol=1e-12)
            assert np.linalg.eigvalsh(C)[0] > -1e-12
            # pairs with the first effect are marginal correlations, in
            # parameter order (row i, then j < i)
            first = [i * (i - 1) // 2 for i in range(1, d)]
            assert np.array_equal(C[1:, 0], np.tanh(theta[first]))

    def test_two_effects_give_the_lapack_factor(self):
        for theta in np.random.default_rng(4).uniform(-15.0, 15.0, 2000):
            z = np.tanh(theta)
            L = CovarianceParam("unstructured", np.zeros(2), np.asarray([theta])).cholesky()
            assert np.array_equal(L, np.linalg.cholesky(np.asarray([[1.0, z], [z, 1.0]])))

    def test_three_effect_recovery_fit(self):
        """A fit whose search leaves the positive-definite cone under a
        factor of marginal correlations: log L and the implied covariance
        are those of that parametrization's fit (121 iterations, against
        23 here)."""
        rng = np.random.default_rng(3)
        sd = np.asarray([0.8, 0.5, 0.4])
        C = np.asarray([[1.0, 0.6, -0.5], [0.6, 1.0, 0.3], [-0.5, 0.3, 1.0]])
        b = rng.multivariate_normal(np.zeros(3), sd[:, None] * C * sd[None, :], 150)
        i = np.repeat(np.arange(150), 6)
        x, z = rng.normal(size=i.size), rng.normal(size=i.size)
        y = (1.0 + 0.5 * x - 0.3 * z + b[i, 0] + b[i, 1] * x + b[i, 2] * z
             + rng.normal(0.0, 0.5, i.size))
        data = make_dataset({"id": i * 1.0, "x": x, "z": z, "y": y}, levels=("id",))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            fit = fit_spec("levels = id\ncovariance = unstructured\nip = 5\n"
                           "gaussian : y ~ x + z + M1[id]*1 + M2[id]:x*1 + M3[id]:z*1\n",
                           data, max_iter=400)
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        assert fit.converged
        assert fit.labels[-3:] == ["atanh_corr(M2,M1)", "atanh_corr(M3,M1)",
                                   "atanh_pcorr(M3,M2)"]
        assert abs(fit.loglik - (-1064.415065939)) < 1e-6
        F = CovarianceParam("unstructured", fit.estimates[-6:-3], fit.estimates[-3:]).cholesky()
        want = np.asarray([[0.4359096903, 0.1379739855, -0.1514161807],
                           [0.1379739855, 0.2260649407, 0.0534807237],
                           [-0.1514161807, 0.0534807237, 0.1643203212]])
        assert np.max(np.abs(F @ F.T - want)) < 1e-4

    def test_mc_sample_covariance_converges(self):
        cov = CovarianceParam("unstructured",
                              np.log(np.asarray([1.0, 2.0])),
                              np.asarray([np.arctanh(0.5)]))
        ns = qmc_nodes("mc", 100_000, 2, seed=5)
        b = transform_nodes(ns, cov)
        S = np.cov(b.T)
        L = cov.cholesky()
        want = L @ L.T
        assert np.max(np.abs(S - want) / np.abs(want)) < 0.05

    def test_dimension_mismatch(self):
        ns = gh_product_rule(3, 2)
        with pytest.raises(ValueError, match="dimension"):
            transform_nodes(ns, CovarianceParam("identity", np.zeros(3)))


class TestLevelNodes:
    def test_gh_dispatch(self):
        ns = level_nodes("ghermite", 7, 2)
        assert ns.nodes.shape == (49, 2)

    def test_zero_dim(self):
        ns = level_nodes("ghermite", 7, 0)
        assert ns.nodes.shape == (1, 0)
        assert ns.weights[0] == 1.0
