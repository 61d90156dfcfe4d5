import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from covfield import KernelConfig, PointSet, fit, kernel_eval, kernel_matrix, lipschitz_bound
from covfield.geometry import sq_dists
from covfield.kernel import _kernel_row


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(sigma=0.0)
        with pytest.raises(ValueError):
            KernelConfig(sigma=1.0, beta=0.0)
        with pytest.raises(ValueError):
            KernelConfig(sigma=1.0, tau=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["sigma", "beta", "tau"])
    def test_non_finite_rejected(self, name, bad):
        params = {"sigma": 1.0, name: bad}
        with pytest.raises(ValueError, match=name):
            KernelConfig(**params)


class TestKernelEval:
    def test_zero_distance(self):
        assert kernel_eval(0.3, 0.3, KernelConfig(sigma=0.2)) == 1.0

    def test_known_value(self):
        got = kernel_eval(0.0, 0.1, KernelConfig(sigma=0.1))
        assert got == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert got == pytest.approx(0.606531, abs=1e-6)

    def test_trained_parameters(self):
        beta, sigma = 0.9453058162554949, 0.06332725946674625
        got = kernel_eval(0.0, 1.0, KernelConfig(sigma=sigma, beta=beta))
        assert got == beta * math.exp(-1.0 / (2.0 * sigma**2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval((0.0, 0.0), 1.0, KernelConfig(sigma=1.0))

    def test_bounded_and_radial(self):
        cfg = KernelConfig(sigma=0.7, beta=2.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            u, v, w = rng.standard_normal((3, 2))
            k_uv = kernel_eval(u, v, cfg)
            assert 0 < k_uv <= cfg.beta
            if np.linalg.norm(u - v) < np.linalg.norm(u - w):
                assert k_uv > kernel_eval(u, w, cfg)


class TestKernelMatrix:
    def test_single_point(self):
        P = PointSet(np.array([[0.4]]))
        cfg = KernelConfig(sigma=1.0, beta=1.7)
        np.testing.assert_array_equal(kernel_matrix(P, P, cfg), [[1.7]])

    def test_preset_offdiagonal_decay(self, uniform1d):
        K = kernel_matrix(uniform1d, uniform1d, KernelConfig(sigma=0.1))
        np.testing.assert_array_equal(np.diag(K), np.ones(5))
        off = K[~np.eye(5, dtype=bool)]
        # min spacing 0.24 -> exponent <= -2.88, with equality at adjacent pairs
        assert np.all(off <= math.exp(-2.88) * (1 + 1e-12))

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(1)
        U = PointSet(rng.uniform(0, 1, (7, 2)))
        V = PointSet(rng.uniform(0, 1, (4, 2)))
        cfg = KernelConfig(sigma=0.3)
        np.testing.assert_array_equal(kernel_matrix(U, V, cfg), kernel_matrix(V, U, cfg).T)

    def test_same_object_exact_symmetry(self):
        X = PointSet(np.random.default_rng(2).standard_normal((30, 3)))
        K = kernel_matrix(X, X, KernelConfig(sigma=0.8, beta=1.3))
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.full(30, 1.3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_matrix(
                PointSet(np.zeros((2, 1))), PointSet(np.zeros((2, 2))), KernelConfig(sigma=1.0)
            )

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_bitwise_equal_to_formula(self, d):
        # the in-place transform keeps the arithmetic of the plain expression
        rng = np.random.default_rng(10 + d)
        U, V = rng.standard_normal((40, d)), rng.standard_normal((25, d))
        cfg = KernelConfig(sigma=0.45, beta=1.3)
        want = cfg.beta * np.exp(-cdist(U, V, "sqeuclidean") / (2.0 * cfg.sigma**2))
        got = kernel_matrix(PointSet(U), PointSet(V), cfg)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_spd_with_noise(self):
        X = PointSet(np.random.default_rng(3).standard_normal((40, 2)))
        K = kernel_matrix(X, X, KernelConfig(sigma=0.5))
        np.linalg.cholesky(K + 1e-10 * np.eye(40))  # no raise


class TestKernelRow:
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_bitwise_equal_to_kernel_matrix(self, d):
        rng = np.random.default_rng(d)
        cfg = KernelConfig(sigma=0.3, beta=1.7)
        S = PointSet(rng.standard_normal((9, d)))
        for p in rng.standard_normal((50, d)):
            want = kernel_matrix(S, PointSet(p[None, :]), cfg)[:, 0]
            got = _kernel_row(sq_dists(p, S.coords), cfg)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_non_finite_point(self):
        # a memo miss checks the point before it forms the kernel row
        model = fit(PointSet(np.eye(3, 2)), KernelConfig(sigma=1.0))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                model._point(np.array([0.0, bad]))


class TestLipschitzBound:
    def test_values(self):
        assert lipschitz_bound(KernelConfig(sigma=1.0)) == pytest.approx(0.606531, abs=1e-6)
        assert lipschitz_bound(KernelConfig(sigma=0.5)) == pytest.approx(1.213061, abs=1e-6)

    def test_finite_difference(self):
        # central differences over random pairs never exceed the bound
        cfg = KernelConfig(sigma=0.5)
        bound = lipschitz_bound(cfg)
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(1000):
            u = rng.uniform(-1, 1, 2)
            v = u + rng.uniform(-1, 1, 2) * cfg.sigma * 2
            grad = np.array([
                (kernel_eval(u + h * e, v, cfg) - kernel_eval(u - h * e, v, cfg)) / (2 * h)
                for e in np.eye(2)
            ])
            assert np.linalg.norm(grad) <= bound * (1 + 1e-6)
