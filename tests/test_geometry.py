import numpy as np
import pytest
from scipy.spatial.distance import pdist

from covfield import (
    DegenerateDataError,
    FormatError,
    PointSet,
    bandwidth_percentile,
    dist_to_set,
    generate_gaussian_cloud,
    load_csv,
    preset_observations,
    standardize,
    subsample,
)
from covfield.geometry import ROW_BLOCK, row_blocks


class TestPointSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointSet(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            PointSet(np.empty((0, 2)))

    def test_immutable(self):
        ps = PointSet(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 1.0

    def test_shape(self):
        ps = PointSet(np.arange(6.0).reshape(3, 2))
        assert (ps.n, ps.d, len(ps)) == (3, 2, 3)


class TestDistToSet:
    def test_point_in_set(self, uniform1d):
        assert dist_to_set(0.5, uniform1d) == (0.0, 2)

    def test_nearest_neighbor(self, nonuniform1d):
        value, idx = dist_to_set(0.15, nonuniform1d)
        assert idx == 1
        assert value == pytest.approx(0.03, abs=1e-15)

    def test_345_triangle(self):
        value, idx = dist_to_set((0.3, 0.4), PointSet(np.zeros((1, 2))))
        assert (value, idx) == (0.5, 0)

    def test_dimension_mismatch(self, uniform1d):
        with pytest.raises(ValueError):
            dist_to_set((0.1, 0.2), uniform1d)

    def test_zero_iff_member(self, uniform1d):
        rng = np.random.default_rng(0)
        for x in rng.uniform(0, 1, 50):
            v, _ = dist_to_set(x, uniform1d)
            assert (v == 0.0) == any(x == s for s in uniform1d.coords[:, 0])

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        S = PointSet(rng.uniform(0, 1, (8, 3)))
        for _ in range(100):
            x, y = rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)
            assert dist_to_set(x, S)[0] <= np.linalg.norm(x - y) + dist_to_set(y, S)[0] + 1e-15


class TestPresets:
    def test_uniform_values(self, uniform1d):
        np.testing.assert_array_equal(uniform1d.coords[:, 0], [0.02, 0.26, 0.5, 0.74, 0.98])
        gaps = np.diff(uniform1d.coords[:, 0])
        np.testing.assert_allclose(gaps, 0.24)

    def test_nonuniform_gaps(self, nonuniform1d):
        gaps = np.diff(nonuniform1d.coords[:, 0])
        assert gaps[0] == pytest.approx(0.10)
        assert gaps[-1] == pytest.approx(0.38)

    def test_containment(self, uniform1d):
        assert np.all((uniform1d.coords >= 0) & (uniform1d.coords <= 1))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            preset_observations("hexgrid")


class TestGaussianCloud:
    def test_shapes(self):
        assert generate_gaussian_cloud(1000, 3, 42).coords.shape == (1000, 3)
        assert generate_gaussian_cloud(1, 1, 0).coords.shape == (1, 1)

    def test_law_of_large_numbers(self):
        # against a direct standard-normal sampler: identical stream, and the
        # empirical mean of 10^4 draws stays within 0.05 of zero
        X = generate_gaussian_cloud(10000, 2, 7)
        direct = np.random.default_rng(7).standard_normal((10000, 2))
        np.testing.assert_array_equal(X.coords, direct)
        assert np.all(np.abs(X.coords.mean(axis=0)) < 0.05)

    def test_deterministic(self):
        a = generate_gaussian_cloud(50, 2, 9)
        b = generate_gaussian_cloud(50, 2, 9)
        np.testing.assert_array_equal(a.coords, b.coords)


class TestCsvAndStandardize:
    def test_standardize_two_points(self):
        # n-1 normalization: output has sample variance exactly 1, so the
        # two points land at +-1/sqrt(2)
        out = standardize(PointSet(np.array([[0.0], [2.0]])))
        np.testing.assert_allclose(
            out.coords[:, 0], [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15
        )
        assert out.coords[:, 0].var(ddof=1) == pytest.approx(1.0, abs=1e-15)
        assert out.coords[:, 0].mean() == 0.0

    def test_standardize_idempotent(self):
        X = standardize(PointSet(np.random.default_rng(3).uniform(0, 9, (40, 4))))
        again = standardize(X)
        np.testing.assert_allclose(again.coords, X.coords, atol=1e-12)

    def test_zero_variance_column(self):
        with pytest.raises(DegenerateDataError):
            standardize(PointSet(np.column_stack([np.arange(5.0), np.ones(5)])))

    def test_load_5000x8(self, tmp_path):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((5000, 8))
        path = tmp_path / "pts.csv"
        np.savetxt(path, data, delimiter=",", header=",".join(f"c{i}" for i in range(8)))
        X = load_csv(path)
        assert (X.n, X.d) == (5000, 8)

    def test_header_autodetect_and_roundtrip(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("a,b\n1.5,2.5\n3.5,4.5\n")
        X = load_csv(path)
        np.testing.assert_array_equal(X.coords, [[1.5, 2.5], [3.5, 4.5]])

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_non_numeric_body(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(FormatError):
            load_csv(path)


def brute_force_percentile(coords, q):
    n = len(coords)
    d = [np.linalg.norm(coords[i] - coords[j]) for i in range(n) for j in range(i + 1, n)]
    d = sorted(d)
    return d[int(np.ceil(q / 100 * len(d))) - 1]


class TestBandwidthPercentile:
    def test_three_points(self):
        X = PointSet(np.array([[0.0], [1.0], [2.0]]))
        assert bandwidth_percentile(X, 50) == 1.0  # sorted {1,1,2}, rank ceil(1.5)=2

    def test_two_points(self):
        X = PointSet(np.array([[0.0], [3.0]]))
        for q in (1, 50, 99):
            assert bandwidth_percentile(X, q) == 3.0

    def test_against_brute_force(self):
        X = generate_gaussian_cloud(1000, 3, 42)
        got = bandwidth_percentile(X, 2)
        assert got > 0
        assert got == bandwidth_percentile(generate_gaussian_cloud(1000, 3, 42), 2)
        assert got == pytest.approx(brute_force_percentile(X.coords, 2), rel=1e-12)

    def test_monotone_in_q(self):
        X = generate_gaussian_cloud(60, 2, 5)
        vals = [bandwidth_percentile(X, q) for q in (1, 5, 25, 50, 75, 99)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_identical_points(self):
        with pytest.raises(DegenerateDataError):
            bandwidth_percentile(PointSet(np.zeros((4, 2))), 50)

    @pytest.mark.parametrize("q", [1e-9, 0.5, 2, 37.5, 99.999])
    def test_tied_lattice_matches_sorted_rank(self, q):
        # a 12 x 12 lattice: many tied distances around every rank
        ax = np.arange(12.0)
        X = PointSet(np.stack(np.meshgrid(ax, ax), axis=-1).reshape(-1, 2))
        d = np.sort(pdist(X.coords))
        rank = min(max(int(np.ceil(q / 100.0 * d.size)), 1), d.size)
        assert bandwidth_percentile(X, q) == d[rank - 1]


class TestSubsample:
    def test_full_is_permutation(self):
        X = generate_gaussian_cloud(30, 2, 1)
        Y = subsample(X, 30, 4)
        np.testing.assert_array_equal(
            np.sort(Y.coords, axis=0), np.sort(X.coords, axis=0)
        )

    def test_single(self):
        X = generate_gaussian_cloud(30, 2, 1)
        Y = subsample(X, 1, 4)
        assert any(np.array_equal(Y.coords[0], row) for row in X.coords)

    def test_deterministic(self):
        X = generate_gaussian_cloud(30, 2, 1)
        np.testing.assert_array_equal(subsample(X, 7, 2).coords, subsample(X, 7, 2).coords)

    def test_oversample(self):
        with pytest.raises(ValueError):
            subsample(generate_gaussian_cloud(5, 1, 0), 6, 0)


class TestRowBlocks:
    @pytest.mark.parametrize("n", [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                   ROW_BLOCK + 2, 2 * ROW_BLOCK + 1])
    def test_cover_the_rows_with_no_one_row_tail(self, n):
        blocks = row_blocks(n)
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        assert all(b.start % ROW_BLOCK == 0 for b in blocks)
        assert all(b.stop - b.start <= ROW_BLOCK + 1 for b in blocks)
        assert n == 1 or all(b.stop - b.start >= 2 for b in blocks)

    @pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
    def test_block_matvecs_keep_the_whole_bits(self, n):
        # gemv forms each row of E v on its own, once no block is one row
        rng = np.random.default_rng(n)
        E, v = rng.standard_normal((n, n)), rng.standard_normal(n)
        np.testing.assert_array_equal(np.concatenate([E[b] @ v for b in row_blocks(n)]), E @ v)

    @pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK])
    def test_block_products_keep_the_syrk_bits(self, n):
        # the gemm of a row block tiles like the syrk of W^T W when there is
        # one block or n is a multiple of 8 (README: lrsp digits)
        W = np.random.default_rng(n).standard_normal((80, n))
        np.testing.assert_array_equal(np.vstack([W[:, b].T @ W for b in row_blocks(n)]), W.T @ W)
