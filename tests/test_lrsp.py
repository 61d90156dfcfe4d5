import numpy as np
import pytest
import scipy.sparse as sp

from covfield import (
    KernelConfig,
    PointSet,
    cost_equivalent_rank,
    distance_matrix,
    generate_gaussian_cloud,
    geometric_pattern,
    kernel_eval,
    kernel_matrix,
    lowrank_dense,
    lowrank_sweep,
    lrsp_dense,
    lrsp_sweep,
    nystrom_build,
    pattern_by_radius,
    sparse_correction,
)
from covfield.lrsp import error_norms


@pytest.fixture(scope="module")
def cloud():
    return generate_gaussian_cloud(1000, 3, 42)


@pytest.fixture(scope="module")
def cloud_cfg():
    return KernelConfig(sigma=0.5)


@pytest.fixture(scope="module")
def cloud_factor(cloud, cloud_cfg):
    perm = np.random.default_rng(43).permutation(cloud.n)
    return nystrom_build(cloud, perm[:100], cloud_cfg)


class TestNystrom:
    def test_full_rank_is_exact(self):
        X = generate_gaussian_cloud(40, 2, 0)
        cfg = KernelConfig(sigma=1.0)
        fac = nystrom_build(X, np.arange(40), cfg)
        np.testing.assert_allclose(
            lowrank_dense(fac), kernel_matrix(X, X, cfg), atol=1e-8
        )

    def test_single_landmark_rank_one(self):
        X = PointSet(np.array([[0.0], [0.4], [1.1]]))
        cfg = KernelConfig(sigma=0.7, beta=1.3)
        fac = nystrom_build(X, [1], cfg)
        got = lowrank_dense(fac)
        s = X.coords[1]
        for i in range(3):
            for j in range(3):
                want = (
                    kernel_eval(X.coords[i], s, cfg)
                    * kernel_eval(s, X.coords[j], cfg)
                    / cfg.beta
                )
                assert got[i, j] == pytest.approx(want, abs=1e-12)

    def test_probe_block_against_dense_inverse(self, cloud, cloud_cfg, cloud_factor):
        idx = np.random.default_rng(7).choice(cloud.n, 50, replace=False)
        S = PointSet(cloud.coords[cloud_factor.landmark_indices])
        K_SS = kernel_matrix(S, S, cloud_cfg)
        P = PointSet(cloud.coords[idx])
        want = (
            kernel_matrix(P, S, cloud_cfg)
            @ np.linalg.inv(K_SS)
            @ kernel_matrix(S, P, cloud_cfg)
        )
        got = lowrank_dense(cloud_factor)[np.ix_(idx, idx)]
        assert np.abs(got - want).max() <= 1e-8

    def test_reconstruction_invariant_small(self):
        X = generate_gaussian_cloud(60, 2, 3)
        cfg = KernelConfig(sigma=0.8)
        fac = nystrom_build(X, np.arange(15), cfg)
        S = PointSet(X.coords[:15])
        want = (
            kernel_matrix(X, S, cfg)
            @ np.linalg.inv(kernel_matrix(S, S, cfg))
            @ kernel_matrix(S, X, cfg)
        )
        rel = np.linalg.norm(lowrank_dense(fac) - want) / np.linalg.norm(want)
        assert rel <= 1e-10

    def test_prefix_matches_rebuild(self):
        X = generate_gaussian_cloud(200, 2, 12)
        cfg = KernelConfig(sigma=0.6)
        perm = np.random.default_rng(13).permutation(X.n)
        full = nystrom_build(X, perm[:60], cfg)
        for k in (1, 10, 35, 60):
            pre = full.prefix(k)
            fac = nystrom_build(X, perm[:k], cfg)
            np.testing.assert_array_equal(pre.landmark_indices, fac.landmark_indices)
            assert np.abs(pre.W - fac.W).max() <= 1e-9
            assert pre.jitter_used == full.jitter_used
        with pytest.raises(ValueError):
            full.prefix(0)

    def test_bad_landmarks(self, cloud, cloud_cfg):
        with pytest.raises(ValueError):
            nystrom_build(cloud, [1, 1, 2], cloud_cfg)
        with pytest.raises(ValueError):
            nystrom_build(cloud, [0, cloud.n], cloud_cfg)


class TestPattern:
    def test_zero_radius_diagonal(self):
        X = generate_gaussian_cloud(25, 2, 1)
        pat = pattern_by_radius(X, 0.0)
        assert pat.nnz == 25
        np.testing.assert_array_equal(pat.toarray(), np.eye(25, dtype=bool))

    def test_full_at_diameter(self):
        X = generate_gaussian_cloud(25, 2, 1)
        diam = max(
            np.linalg.norm(a - b) for a in X.coords for b in X.coords
        )
        assert pattern_by_radius(X, diam).nnz == 25 * 25

    def test_nnz_nondecreasing_in_sweep(self, cloud):
        sizes = [pattern_by_radius(cloud, m * 0.5).nnz for m in (1, 2, 4, 7, 10)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_symmetric(self):
        X = generate_gaussian_cloud(40, 3, 2)
        pat = pattern_by_radius(X, 0.8)
        assert (pat != pat.T).nnz == 0

    def test_lower_triangle_is_geometric_pattern(self):
        # sizes around geometric_pattern's 256-row distance blocks
        for n in (255, 256, 257, 600):
            T = generate_gaussian_cloud(n, 3, 4)
            for delta in (0.0, 0.3, 0.8, 1e9):
                lower = sp.tril(pattern_by_radius(T, delta), format="csr")
                rows = geometric_pattern(T, delta)
                assert len(rows) == T.n
                for i, J in enumerate(rows):
                    np.testing.assert_array_equal(
                        lower.indices[lower.indptr[i]: lower.indptr[i + 1]], J
                    )

    @pytest.mark.parametrize("delta", [np.nan, -1.0])
    def test_bad_radius_rejected(self, delta):
        X = generate_gaussian_cloud(10, 2, 3)
        with pytest.raises(ValueError, match="delta"):
            pattern_by_radius(X, delta)
        with pytest.raises(ValueError, match="delta"):
            geometric_pattern(X, delta)


class TestSparseCorrection:
    def test_zero_rows_at_landmarks(self, cloud, cloud_cfg, cloud_factor):
        pat = pattern_by_radius(cloud, 1.0)
        corr = sparse_correction(cloud, cloud_factor, pat, cloud_cfg).toarray()
        assert np.abs(corr[cloud_factor.landmark_indices, :]).max() <= 1e-8
        assert np.abs(corr[:, cloud_factor.landmark_indices]).max() <= 1e-8

    def test_full_pattern_reconstructs(self):
        X = generate_gaussian_cloud(80, 2, 5)
        cfg = KernelConfig(sigma=0.6)
        fac = nystrom_build(X, np.arange(10), cfg)
        pat = pattern_by_radius(X, 1e9)
        corr = sparse_correction(X, fac, pat, cfg)
        np.testing.assert_allclose(
            lrsp_dense(fac, corr), kernel_matrix(X, X, cfg), atol=1e-8
        )

    def test_entry_spot_check(self, cloud, cloud_cfg, cloud_factor):
        pat = pattern_by_radius(cloud, 1.0)
        corr = sparse_correction(cloud, cloud_factor, pat, cloud_cfg).tocoo()
        assert corr.nnz == pat.nnz
        dense_lr = lowrank_dense(cloud_factor)
        X = cloud.coords
        want = np.array([
            kernel_eval(X[i], X[j], cloud_cfg) for i, j in zip(corr.row, corr.col)
        ]) - dense_lr[corr.row, corr.col]
        np.testing.assert_allclose(corr.data, want, rtol=0, atol=1e-12)

    def test_correction_is_residual_on_pattern(self):
        # bit for bit: the correction takes the residual's own entries, so the
        # LRSP error is the residual with the pattern zeroed.  A high rank,
        # where products of column blocks of W can round unlike W^T W whole.
        X = generate_gaussian_cloud(500, 3, 42)
        cfg = KernelConfig(sigma=0.5)
        fac = nystrom_build(X, np.random.default_rng(43).permutation(X.n)[:400], cfg)
        pat = pattern_by_radius(X, 1.0)
        R = kernel_matrix(X, X, cfg) - lowrank_dense(fac)
        got = R - sparse_correction(X, fac, pat, cfg).toarray()
        want = R.copy()
        want[pat.toarray()] = 0.0
        np.testing.assert_array_equal(got, want)

    def test_values_symmetric(self):
        X = generate_gaussian_cloud(50, 2, 6)
        cfg = KernelConfig(sigma=0.5)
        fac = nystrom_build(X, np.arange(8), cfg)
        corr = sparse_correction(X, fac, pattern_by_radius(X, 0.9), cfg).toarray()
        np.testing.assert_array_equal(corr, corr.T)

    def test_error_monotone_in_radius(self, cloud, cloud_cfg, cloud_factor):
        K = kernel_matrix(cloud, cloud, cloud_cfg)
        v = np.ones(cloud.n)
        errs = []
        for mult in (2, 5, 8):
            pat = pattern_by_radius(cloud, mult * cloud_cfg.sigma)
            corr = sparse_correction(cloud, cloud_factor, pat, cloud_cfg)
            errs.append(error_norms(K - lrsp_dense(cloud_factor, corr), v)[0])
        assert errs[0] >= errs[1] >= errs[2]


@pytest.fixture(scope="module")
def sweep_case():
    X = generate_gaussian_cloud(300, 3, 21)
    cfg = KernelConfig(sigma=0.5)
    full = nystrom_build(X, np.random.default_rng(22).permutation(X.n)[:200], cfg)
    v = np.random.default_rng(23).standard_normal(X.n)
    return X, cfg, full, v


class TestSweeps:
    def test_error_norms_max_is_abs_max(self):
        E = np.random.default_rng(5).standard_normal((40, 40))
        for M in (E, -E, np.abs(E), -np.abs(E)):
            assert error_norms(M, np.ones(40))[0] == np.abs(M).max()

    def test_lowrank_sweep_matches_prefix_products(self, sweep_case):
        X, cfg, full, v = sweep_case
        K = kernel_matrix(X, X, cfg)
        # unsorted, with a repeat, and the last rank of the factor
        ranks = [120, 7, 60, 7, 200, 1, 61]
        got = lowrank_sweep(K.copy(), full, ranks, v)
        assert sorted(got) == sorted(set(ranks))
        for k in set(ranks):
            E = K - lowrank_dense(full.prefix(k))
            want_max, want_two = np.abs(E).max(), np.linalg.norm(E @ v) / np.linalg.norm(v)
            assert got[k][0] == pytest.approx(want_max, rel=0, abs=1e-12)
            assert got[k][1] == pytest.approx(want_two, rel=0, abs=1e-12)

    def test_lowrank_sweep_leaves_largest_residual(self, sweep_case):
        X, cfg, full, v = sweep_case
        K = kernel_matrix(X, X, cfg)
        E = K.copy()
        lowrank_sweep(E, full, [30, 90], v)
        np.testing.assert_allclose(E, K - lowrank_dense(full.prefix(90)), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(E, E.T)   # every block product is a syrk

    def test_lowrank_sweep_rank_range(self, sweep_case):
        X, cfg, full, v = sweep_case
        K = kernel_matrix(X, X, cfg)
        for ranks in ([0, 10], [10, full.rank + 1]):
            with pytest.raises(ValueError):
                lowrank_sweep(K, full, ranks, v)
        assert lowrank_sweep(K, full, [], v) == {}

    def test_masks_are_radius_pairs(self):
        X = generate_gaussian_cloud(400, 3, 24)
        D = distance_matrix(X)
        diam = D.max()
        for delta in (0.0, 0.2, 0.5, 1.3, diam, 2 * diam):
            rows, cols = pattern_by_radius(X, delta).nonzero()
            np.testing.assert_array_equal(np.nonzero(D <= delta), (rows, cols))
        R = np.ones((X.n, X.n))
        radii = [0.0, 0.5, diam]
        nnz = [m for m, _, _ in lrsp_sweep(R, D, radii, np.ones(X.n))]
        assert nnz == [len(pattern_by_radius(X, delta).nonzero()[0]) for delta in radii]
        assert nnz[0] == X.n and nnz[-1] == X.n**2

    def test_lrsp_sweep_is_copy_and_scatter(self, sweep_case):
        # bit for bit: zeroing nested patterns in place equals zeroing each
        # pattern of a fresh copy of R0
        X, cfg, full, v = sweep_case
        R0 = kernel_matrix(X, X, cfg) - lowrank_dense(full.prefix(40))
        radii = [0.0, 0.25, 0.25, 0.5, 1.0, 1.5]
        got = lrsp_sweep(R0.copy(), distance_matrix(X), radii, v)
        for delta, (nnz, m, two) in zip(radii, got):
            rows, cols = pattern_by_radius(X, delta).nonzero()
            E = R0.copy()
            E[rows, cols] = 0.0
            assert nnz == len(rows)
            assert m == float(np.abs(E).max())
            assert two == float(np.linalg.norm(E @ v) / np.linalg.norm(v))

    @pytest.mark.parametrize("radii", [[0.5, 0.2], [0.1, 0.3, 0.2], [-0.1, 0.2], [0.1, np.nan]])
    def test_lrsp_sweep_rejects_bad_radii(self, radii):
        X = generate_gaussian_cloud(20, 2, 25)
        R = np.ones((X.n, X.n))
        with pytest.raises(ValueError):
            lrsp_sweep(R, distance_matrix(X), radii, np.ones(X.n))
        assert (R == 1.0).all()   # rejected before any entry is zeroed


class TestCostEquivalentRank:
    def test_zero_nnz(self):
        assert cost_equivalent_rank(100, 1000, 0) == pytest.approx(100.0, abs=1e-12)

    def test_known_arithmetic(self):
        # 101^2 + 1000*101 = 100^2 + 1000*100 + 1201
        assert cost_equivalent_rank(100, 1000, 1201) == pytest.approx(101.0, abs=1e-9)

    @pytest.mark.parametrize("args", [
        (-1, 100, 0), (5, 0, 0), (5, 100, -1),
        (np.nan, 100, 0), (5, np.nan, 0), (5, 100, np.nan), (5, np.inf, 0),
    ])
    def test_rejects_bad_input(self, args):
        with pytest.raises(ValueError, match="need N >= 1"):
            cost_equivalent_rank(*args)

    def test_monotone_in_nnz(self):
        ks = [cost_equivalent_rank(50, 500, z) for z in (0, 10, 1000, 50000)]
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_balances_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            r0 = float(rng.integers(0, 400))
            N = float(rng.integers(1, 10000))
            nnz = float(rng.integers(0, 10**6))
            k = cost_equivalent_rank(r0, N, nnz)
            lhs = k * k + N * k
            rhs = r0 * r0 + N * r0 + nnz
            assert abs(lhs - rhs) <= 1e-9 * rhs + 1e-9


class TestErrorNorms:
    def test_zero_for_exact(self):
        X = generate_gaussian_cloud(60, 2, 8)
        cfg = KernelConfig(sigma=0.5)
        K = kernel_matrix(X, X, cfg)
        E = K - K
        v = np.random.default_rng(1).standard_normal(X.n)
        assert error_norms(E, v)[0] == 0.0
        assert error_norms(E, v)[1] == 0.0

    def test_randomized_below_spectral(self):
        X = generate_gaussian_cloud(200, 2, 9)
        cfg = KernelConfig(sigma=0.4)
        fac = nystrom_build(X, np.arange(20), cfg)
        A = lowrank_dense(fac)
        E = kernel_matrix(X, X, cfg) - A
        spectral = np.abs(np.linalg.eigvalsh(E)).max()
        for seed in range(5):
            v = np.random.default_rng(seed).standard_normal(X.n)
            assert error_norms(E, v)[1] <= spectral + 1e-12

    def test_nonnegative(self):
        X = generate_gaussian_cloud(50, 2, 11)
        cfg = KernelConfig(sigma=0.5)
        A = np.zeros((50, 50))
        E = kernel_matrix(X, X, cfg) - A
        v = np.random.default_rng(0).standard_normal(X.n)
        assert error_norms(E, v)[0] >= 0
        assert error_norms(E, v)[1] >= 0
