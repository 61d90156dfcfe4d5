import dataclasses
import gc
import math
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular
from scipy.spatial.distance import cdist

from covfield import (
    AfnPreconditioner,
    DivergenceError,
    IllConditionedKernelError,
    KernelConfig,
    PointSet,
    SchurComplement,
    afn_build,
    bandwidth_percentile,
    fit,
    fsai_build,
    fsai_groups,
    generate_gaussian_cloud,
    geometric_pattern,
    kernel_matrix,
    pcg,
    random_pattern,
    run_methods,
    standardize,
)
import covfield.precond as precond_mod
from covfield.geometry import ROW_BLOCK
from covfield.posterior import JITTER_LADDER
from covfield.precond import GROUP_CAP


def split(X, r, seed):
    perm = np.random.default_rng(seed).permutation(X.n)
    return PointSet(X.coords[perm[:r]]), PointSet(X.coords[perm[r:]])


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def kernel_system(n, d, seed, tau=0.004):
    """K + tau^2 I on a seeded cloud at the 2nd-percentile bandwidth, and a
    unit-norm right-hand side."""
    X = generate_gaussian_cloud(n, d, seed)
    cfg = KernelConfig(sigma=bandwidth_percentile(X, 2), tau=tau)
    A = kernel_matrix(X, X, cfg) + tau**2 * np.eye(n)
    b = np.random.default_rng(seed + 1).standard_normal(n)
    return A, b / np.linalg.norm(b)


class TestSchurComplement:
    def test_matches_posterior_cov(self):
        X = generate_gaussian_cloud(80, 2, 0)
        cfg = KernelConfig(sigma=0.6)
        S, T = split(X, 20, 1)
        schur = SchurComplement(S, T, cfg)
        model = fit(S, cfg)
        rng = np.random.default_rng(2)
        for _ in range(100):
            i, j = rng.integers(0, T.n, 2)
            want = model.cov(T.coords[i], T.coords[j])
            assert schur.R[i, j] == pytest.approx(want, abs=1e-12)

    def test_one_symmetric_matrix_gathered(self):
        X = generate_gaussian_cloud(ROW_BLOCK + 70, 3, 40)
        cfg = KernelConfig(sigma=0.7, tau=0.05)
        S, T = split(X, 25, 41)
        schur = SchurComplement(S, T, cfg)
        np.testing.assert_array_equal(schur.R, schur.R.T)
        for m in (20, ROW_BLOCK + 1):   # the flat-index take, then ix_
            J = np.sort(np.random.default_rng(42).choice(T.n, m, replace=False))
            noisy = schur.R[np.ix_(J, J)] + cfg.tau**2 * np.eye(m)
            np.testing.assert_array_equal(schur.block(J), noisy)

    def test_diagonal_nearly_nonnegative(self):
        X = generate_gaussian_cloud(100, 3, 3)
        cfg = KernelConfig(sigma=0.7)
        S, T = split(X, 30, 4)
        schur = SchurComplement(S, T, cfg)
        diag = schur.block(np.arange(T.n)).diagonal()
        assert diag.min() >= -1e-8 * cfg.beta

    def test_zero_when_point_duplicated_into_landmarks(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
        S = PointSet(pts[:3])
        T = PointSet(pts[[0, 3]])  # T[0] is also a landmark
        schur = SchurComplement(S, T, KernelConfig(sigma=0.8))
        assert abs(schur.R[0, 0]) <= 1e-10

    def test_noise_enters_diagonal_only(self):
        X = generate_gaussian_cloud(40, 2, 5)
        cfg = KernelConfig(sigma=0.6, tau=0.1)
        S, T = split(X, 10, 6)
        schur = SchurComplement(S, T, cfg)
        J = np.arange(5)
        plain = schur.R[np.ix_(J, J)]
        noisy = schur.block(J)
        np.testing.assert_allclose(noisy - plain, cfg.tau**2 * np.eye(5), atol=1e-15)


class TestPatterns:
    def test_geometric_zero_radius(self):
        T = generate_gaussian_cloud(30, 2, 7)
        rows = geometric_pattern(T, 0.0)
        assert all(np.array_equal(J, [i]) for i, J in enumerate(rows))

    def test_geometric_fraction_on_benchmark_instance(self):
        X = generate_gaussian_cloud(1000, 3, 42)
        sigma = bandwidth_percentile(X, 2)
        _, T = split(X, 200, 43)
        rows = geometric_pattern(T, 2 * sigma)
        frac = sum(len(J) for J in rows) / T.n**2
        assert 0.05 <= frac <= 0.09  # expected around 7 % on this instance class

    @pytest.mark.parametrize("d", [3, 8])
    def test_prefix_columns_keep_the_full_row_pattern(self, d):
        # the precond shapes: the defaults and a standardized d = 8 cloud, with
        # the CLI's split; each row thresholded over the whole of T (cdist as
        # the oracle) keeps the same columns j <= i
        for seed in [*range(1, 11), 42]:
            X = generate_gaussian_cloud(1000, d, seed)
            X = standardize(X) if d == 8 else X
            delta = 2 * bandwidth_percentile(X, 2)
            _, T = split(X, 200, seed + 1)
            D = cdist(T.coords, T.coords)
            rows = geometric_pattern(T, delta)
            assert len(rows) == T.n
            for i, J in enumerate(rows):
                assert np.array_equal(J, np.flatnonzero(D[i] <= delta)[: len(J)])
                assert np.array_equal(J, np.flatnonzero(D[i, : i + 1] <= delta))

    def test_random_rows_capped(self):
        rows = random_pattern(200, seed=0)
        cap = int(0.1 * 200)
        for i, J in enumerate(rows):
            assert len(J) == min(i, cap) + 1
            assert J[-1] == i


class TestFsai:
    def test_diagonal_case(self):
        diag = np.array([4.0, 9.0, 16.0])
        block = lambda J: np.diag(diag[J])  # noqa: E731
        G = fsai_build(block, [np.array([i]) for i in range(3)]).toarray()
        np.testing.assert_allclose(G, np.diag(1.0 / np.sqrt(diag)))

    def test_full_pattern_is_dense_inverse(self):
        X = PointSet(3.0 * generate_gaussian_cloud(60, 2, 8).coords)
        cfg = KernelConfig(sigma=0.6)
        S, T = split(X, 20, 9)
        schur = SchurComplement(S, T, cfg)
        R = schur.block(np.arange(T.n))
        rows = [np.arange(i + 1) for i in range(40)]
        G = fsai_build(schur.block, rows).toarray()
        np.testing.assert_allclose(G.T @ G, np.linalg.inv(R), atol=1e-8)

    def test_unit_diagonal_of_preconditioned_block(self):
        X = generate_gaussian_cloud(120, 3, 10)
        cfg = KernelConfig(sigma=0.8)
        S, T = split(X, 40, 11)
        schur = SchurComplement(S, T, cfg)
        rows = geometric_pattern(T, 2 * cfg.sigma)
        R = schur.block(np.arange(T.n))
        for cap in (1, 5, GROUP_CAP):
            G = fsai_build(schur.block, rows, cap)
            diag = (G @ R @ G.T).diagonal()
            np.testing.assert_allclose(diag, 1.0, atol=1e-10)
            # every grouped row keeps its geometric row; one-member groups keep it exactly
            for i, J in enumerate(rows):
                got = G[i].indices
                assert np.isin(J, got).all() and got[-1] == i
                assert cap > 1 or np.array_equal(got, J)
            assert (G.nnz > sum(len(J) for J in rows)) == (cap > 1)

    def test_rows_equal_normalized_block_solve(self):
        # c^{-T} e (B = c c^T) is the normalized solve B^{-1} e / sqrt(e^T B^{-1} e);
        # a group member's row is that solve on its own, grouped, row set
        rng = np.random.default_rng(43)
        n = 60
        Q = rng.standard_normal((n, n))
        A = Q @ Q.T / n + 0.1 * np.eye(n)
        rows = [np.sort(np.append(rng.choice(i, min(i, rng.integers(0, 30)), replace=False), i))
                for i in range(n)]
        for cap in (1, 8, GROUP_CAP):
            G = fsai_build(lambda J: A[np.ix_(J, J)], rows, cap)
            for i, J in enumerate(rows):
                Ji = G[i].indices
                assert np.isin(J, Ji).all() and Ji[-1] == i and np.all(np.diff(Ji) > 0)
                e = np.zeros(len(Ji))
                e[-1] = 1.0
                g = cho_solve(cho_factor(A[np.ix_(Ji, Ji)], lower=True), e)
                want = g / np.sqrt(g[-1])
                got = G[i, Ji].toarray().ravel()
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_one_member_groups_bitwise_per_row(self):
        # the random pattern's one-member groups give the per-row formula's bits
        X = generate_gaussian_cloud(300, 3, 53)
        cfg = KernelConfig(sigma=bandwidth_percentile(X, 2), tau=0.004)
        S, T = split(X, 60, 54)
        schur = SchurComplement(S, T, cfg)
        rows = random_pattern(T.n, 55)
        assert all(np.array_equal(U, J) and list(pos) == [len(J) - 1]
                   for (U, pos), J in zip(fsai_groups(rows, 1), rows))
        G = fsai_build(schur.block, rows)
        for i, J in enumerate(rows):
            c = cholesky(schur.block(J).T, lower=True, overwrite_a=True, check_finite=False)
            e = np.zeros(len(J))
            e[-1] = 1.0
            g = solve_triangular(c, e, lower=True, trans="T", check_finite=False)
            lo, hi = G.indptr[i], G.indptr[i + 1]
            np.testing.assert_array_equal(G.indices[lo:hi], J)
            np.testing.assert_array_equal(bits(G.data[lo:hi]), bits(g))

    @pytest.mark.parametrize("cap", [1, 3, GROUP_CAP])
    def test_groups_partition_the_rows(self, cap):
        X = generate_gaussian_cloud(400, 3, 56)
        _, T = split(X, 80, 57)
        rows = geometric_pattern(T, 2 * bandwidth_percentile(X, 2))
        groups = fsai_groups(rows, cap)
        members = np.concatenate([U[pos] for U, pos in groups])
        np.testing.assert_array_equal(np.sort(members), np.arange(T.n))   # each row once
        leaders = [U[-1] for U, _ in groups]
        assert leaders == sorted(leaders)
        for U, pos in groups:
            assert 1 <= len(pos) <= cap and np.all(np.diff(pos) > 0)
            assert U[pos[-1]] == U[-1]   # the leader is the last member and U's last entry
            np.testing.assert_array_equal(U, np.unique(np.concatenate([rows[k] for k in U[pos]])))
            for p in pos:
                assert np.isin(rows[U[p]], U[: p + 1]).all()
        assert (len(groups) < T.n) == (cap > 1)

    def test_grouped_flops_a_quarter_of_per_row(self):
        # precond-dense's pattern (covfield precond --data <gen n=1000 d=8 seed 42>
        # --standardize --seed 42): one Cholesky per group costs sum |U|^3 / 3
        # against sum m^3 / 3 for one per row
        X = standardize(generate_gaussian_cloud(1000, 8, 42))
        sigma = bandwidth_percentile(X, 2)
        _, T = split(X, 200, 43)
        rows = geometric_pattern(T, 2 * sigma)
        per_row = sum(len(J) ** 3 for J in rows) / 3
        grouped = sum(len(U) ** 3 for U, _ in fsai_groups(rows, GROUP_CAP)) / 3
        assert grouped <= per_row / 4

    def test_jitter_ladder_row(self):
        # the rank-one block fails the plain factorization; the first jitter
        # step that factors gives the row of the jittered block
        B = np.ones((3, 3))
        G = fsai_build(lambda J: B[np.ix_(J, J)].copy(), [np.array([0]), np.array([0, 1])])
        for jit in JITTER_LADDER[1:]:  # the block's mean diagonal is 1
            try:
                c = np.linalg.cholesky(B[:2, :2] + jit * np.eye(2))
                break
            except np.linalg.LinAlgError:
                continue
        row = G[1].toarray().ravel()
        assert np.all(np.isfinite(row))
        np.testing.assert_allclose(row, np.linalg.inv(c).T[:, 1], rtol=1e-10)

    def test_nan_block_names_row(self):
        def block(J):
            B = np.eye(len(J))
            if J[-1] == 2:
                B[0, 0] = np.nan
            return B

        rows = [np.arange(i + 1) for i in range(4)]
        with pytest.raises(IllConditionedKernelError, match="FSAI row 2"):
            fsai_build(block, rows)

    @pytest.mark.parametrize("cap, named", [(1, 2), (2, 3)])
    def test_non_spd_group_names_its_leader(self, cap, named):
        # every block holding row 2 is negative definite; in pairs, row 2's
        # group is led by row 3 (rows 4 and 5, whose block also holds 2, come later)
        block = lambda J: -np.eye(len(J)) if 2 in J else np.eye(len(J))  # noqa: E731
        rows = [np.arange(i + 1) for i in range(6)]
        with pytest.raises(IllConditionedKernelError, match=f"FSAI row {named}:"):
            fsai_build(block, rows, cap)

    def test_bad_pattern_rejected(self):
        # the lowest bad row is named, however many rows are bad
        block = lambda J: np.eye(len(J))  # noqa: E731
        for rows, named in [
            ([[0], [0]], 1),                               # missing diagonal
            ([[0], [0, 1], [], [0]], 2),                   # an empty row, then a missing diagonal
            ([[], [0, 1]], 0),                             # the first row empty
            ([[0], [0, 1], []], 2),                        # the last row empty
            ([[0], [0, 1, 3], [0, 1, 2], [4, 3]], 1),      # entries above the diagonal
            ([[0], [2], [0, 2]], 1),                       # one entry, above the diagonal
            ([[0], [0, 1], [1, 0, 2], [2, 1, 3]], 2),      # unsorted
            ([[0], [0, 1], [0, 0, 2], [1, 1, 3]], 2),      # duplicate entries
        ]:
            pattern = [np.array(J, dtype=int) for J in rows]
            with pytest.raises(ValueError, match=f"pattern row {named} is not sorted lower-triangular"):
                fsai_build(block, pattern)


def precond_shape(d, seed):
    """The cloud and kernel of ``covfield precond --seed s``: the defaults
    (d = 3) or the standardized d = 8 cloud of ``covfield gen``; the
    command's landmark seed is s + 1."""
    X = generate_gaussian_cloud(1000, d, seed)
    X = standardize(X) if d == 8 else X
    return X, KernelConfig(sigma=bandwidth_percentile(X, 2), tau=0.004)


def full_factor(block_fn, n):
    """The FSAI factor on the full lower-triangular pattern of n rows, in one group."""
    return fsai_build(block_fn, [np.arange(i + 1) for i in range(n)], n)


class TestGeometricFactor:
    @pytest.mark.parametrize("d", [3, 8])
    def test_rule_keeps_groups_at_d3_and_takes_full_factor_at_d8(self, d):
        # sum |U|^3 / (2 n_T^3) is 0.54-0.64 at the defaults and 3.3-4.3 on the
        # d = 8 cloud (seeds 1-10 and 42)
        for seed in [*range(1, 11), 42]:
            X, cfg = precond_shape(d, seed)
            P, schur = next(precond_mod._afn_builds(X, cfg, 200, ["geometric"], None, seed + 1))
            nT = schur.T.n
            if d == 3:
                want = fsai_build(schur.block, geometric_pattern(schur.T, 2 * cfg.sigma), GROUP_CAP)
                np.testing.assert_array_equal(P.G.indptr, want.indptr)
                np.testing.assert_array_equal(P.G.indices, want.indices)
                np.testing.assert_array_equal(bits(P.G.data), bits(want.data))
            else:
                assert P.G.nnz == nT * (nT + 1) // 2
                assert P.fsai_nnz_fraction == (nT + 1) / (2 * nT)

    def test_full_factor_is_fsai_on_the_full_pattern(self):
        X, cfg = precond_shape(8, 42)
        S, T = split(X, 200, 43)
        schur = SchurComplement(S, T, cfg)
        # one group of n_T rows: the same factorization, and its triangular inverse
        G = full_factor(schur.block, T.n)
        assert G.format == "csr" and G.has_sorted_indices
        want = precond_mod._geometric_factor(schur, 2 * cfg.sigma)
        np.testing.assert_array_equal(G.indptr, want.indptr)
        np.testing.assert_array_equal(G.indices, want.indices)
        np.testing.assert_array_equal(bits(G.data), bits(want.data))
        # the inverse Cholesky factor: G B G^T = I to rounding
        G = G.toarray()
        B = schur.block(np.arange(T.n))
        np.testing.assert_allclose(G @ B @ G.T, np.eye(T.n), rtol=0, atol=1e-12)

    def test_full_factor_jitter_ladder(self):
        # the rank-one block fails the plain factorization; the first jitter
        # step that factors gives the inverse factor of the jittered block
        B = np.ones((3, 3))
        G = full_factor(lambda J: B[np.ix_(J, J)].copy(), 3).toarray()
        for jit in JITTER_LADDER[1:]:  # the block's mean diagonal is 1
            try:
                c = np.linalg.cholesky(B + jit * np.eye(3))
                break
            except np.linalg.LinAlgError:
                continue
        np.testing.assert_allclose(G, np.linalg.inv(c), rtol=1e-8)

    def test_full_factor_not_spd_names_the_last_row(self):
        block = lambda J: -np.eye(len(J))  # noqa: E731
        with pytest.raises(IllConditionedKernelError, match="FSAI row 4: local block not SPD"):
            full_factor(block, 5)

    def test_full_factor_non_finite_names_the_row(self):
        # an infinite pivot factors, and leaves row 2 of G with a zero diagonal
        def block(J):
            B = np.eye(len(J))
            B[2, 2] = np.inf
            return B

        with pytest.raises(IllConditionedKernelError, match="FSAI row 2: non-finite row"):
            full_factor(block, 4)

    @pytest.mark.parametrize("d", [3, 8])
    def test_one_pattern_and_one_grouping(self, d, monkeypatch):
        X, cfg = precond_shape(d, 42)
        schur = SchurComplement(*split(X, 200, 43), cfg)
        calls = {"geometric_pattern": 0, "fsai_groups": 0}
        for name in calls:
            def counted(*args, _f=getattr(precond_mod, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(precond_mod, name, counted)
        precond_mod._geometric_factor(schur, 2 * cfg.sigma)
        assert calls == {"geometric_pattern": 1, "fsai_groups": 1}

    def test_full_factor_peak_memory(self):
        # the block, then the values of its lower triangle: 12 n_T^2 bytes,
        # with the column indices formed only after the block is freed
        X, cfg = precond_shape(8, 42)
        schur = SchurComplement(*split(X, 200, 43), cfg)
        nT = schur.T.n
        tracemalloc.start()
        try:
            G = precond_mod._geometric_factor(schur, 2 * cfg.sigma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.nnz == nT * (nT + 1) // 2
        assert peak <= 12.5 * nT**2


class TestAfn:
    def test_full_pattern_preconditions_exactly(self):
        # r = n-1 landmarks and a full FSAI pattern make M^{-1} K the identity
        rng = np.random.default_rng(12)
        X = PointSet(3.0 * rng.standard_normal((60, 2)))
        cfg = KernelConfig(sigma=0.5)
        K = kernel_matrix(X, X, cfg)
        P = afn_build(X, cfg, r=59, pattern="geometric", delta=1e9, seed=13)
        MiK = np.column_stack([P.apply_inverse(K[:, j]) for j in range(60)])
        eigs = np.linalg.eigvals(MiK)
        np.testing.assert_allclose(eigs, 1.0, atol=1e-6)

    def test_apply_inverse_pair(self):
        X = generate_gaussian_cloud(150, 3, 14)
        cfg = KernelConfig(sigma=0.8)
        P = afn_build(X, cfg, r=30, delta=2 * cfg.sigma, seed=15)
        v = np.random.default_rng(16).standard_normal(150)
        np.testing.assert_allclose(P.apply(P.apply_inverse(v)), v, atol=1e-8)
        np.testing.assert_allclose(P.apply_inverse(P.apply(v)), v, atol=1e-8)

    def test_apply_inverse_linear_and_symmetric(self):
        X = PointSet(3.0 * generate_gaussian_cloud(100, 2, 17).coords)
        cfg = KernelConfig(sigma=0.6)
        P = afn_build(X, cfg, r=25, delta=2 * cfg.sigma, seed=18)
        rng = np.random.default_rng(19)
        u, v = rng.standard_normal((2, 100))
        a, b = 0.3, -1.7
        np.testing.assert_allclose(
            P.apply_inverse(a * u + b * v),
            a * P.apply_inverse(u) + b * P.apply_inverse(v),
            atol=1e-12,
        )
        assert P.apply_inverse(u) @ v == pytest.approx(u @ P.apply_inverse(v), abs=1e-10)

    def test_fields_are_the_factors(self):
        X = generate_gaussian_cloud(80, 2, 51)
        P = afn_build(X, KernelConfig(sigma=0.5), r=20, delta=1.0, seed=52)
        assert [f.name for f in dataclasses.fields(AfnPreconditioner)] == [
            "perm", "L", "W", "G", "jitter_used"]
        assert P.r == P.W.shape[0] == 20
        for extra in ({"r": 20}, {"GT": P.GT}):
            with pytest.raises(TypeError):
                AfnPreconditioner(P.perm, P.L, P.W, P.G, P.jitter_used, **extra)

    def test_geometric_factor_is_grouped(self):
        X = generate_gaussian_cloud(200, 3, 58)
        cfg = KernelConfig(sigma=bandwidth_percentile(X, 2), tau=0.004)
        P = afn_build(X, cfg, r=40, delta=2 * cfg.sigma, seed=59)
        S, T = split(X, 40, 59)
        schur = SchurComplement(S, T, cfg)
        want = fsai_build(schur.block, geometric_pattern(T, 2 * cfg.sigma), GROUP_CAP)
        np.testing.assert_array_equal(P.G.indptr, want.indptr)
        np.testing.assert_array_equal(P.G.indices, want.indices)
        np.testing.assert_array_equal(bits(P.G.data), bits(want.data))

    def test_stored_transpose_bitwise(self):
        # apply_inverse multiplies by the stored CSR transpose in place of G.T
        X = generate_gaussian_cloud(150, 3, 44)
        cfg = KernelConfig(sigma=0.8, tau=0.01)
        P = afn_build(X, cfg, r=30, delta=2 * cfg.sigma, seed=45)
        assert P.GT.format == "csr"
        for y in np.random.default_rng(46).standard_normal((5, 120)):
            want = P.G.T @ y
            np.testing.assert_array_equal((P.GT @ y).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("pattern", ["geometric", "random"])
    @pytest.mark.parametrize("d", [3, 8])
    @pytest.mark.parametrize("tau", [0.004, 0.0])
    def test_apply_inverse_bitwise_equal_to_former_formula(self, pattern, d, tau):
        X = generate_gaussian_cloud(300, d, 47)
        cfg = KernelConfig(sigma=bandwidth_percentile(X, 2), tau=tau)
        P = afn_build(X, cfg, r=60, pattern=pattern, seed=48)

        def former(v):
            vp = v[P.perm]
            vS, vT = vp[: P.r], vp[P.r:]
            yS = solve_triangular(P.L, vS, lower=True)
            yT = P.G @ (vT - P.W.T @ yS)
            zT = P.GT @ yT
            zS = solve_triangular(P.L.T, yS - P.W @ zT, lower=False)
            out = np.empty_like(v)
            out[P.perm] = np.concatenate([zS, zT])
            return out

        rng = np.random.default_rng(50)
        for scale in (1.0, 1e-8, 1e8):
            for v in scale * rng.standard_normal((5, X.n)):
                np.testing.assert_array_equal(bits(P.apply_inverse(v)), bits(former(v)))

    def test_apply_inverse_rejects_non_finite(self):
        X = generate_gaussian_cloud(50, 2, 20)
        P = afn_build(X, KernelConfig(sigma=0.5), r=10, delta=1.0, seed=21)
        for bad, at in ((np.nan, P.perm[0]), (np.nan, P.perm[-1]),
                        (np.inf, P.perm[0]), (-np.inf, P.perm[-1])):
            v = np.ones(50)
            v[at] = bad   # a landmark entry, then a non-landmark one
            with pytest.raises(ValueError, match="infs or NaNs"):
                P.apply_inverse(v)

    def test_zero_maps_to_zero(self):
        X = generate_gaussian_cloud(50, 2, 20)
        P = afn_build(X, KernelConfig(sigma=0.5), r=10, delta=1.0, seed=21)
        np.testing.assert_array_equal(P.apply_inverse(np.zeros(50)), np.zeros(50))

    def test_build_time_budget(self):
        X = generate_gaussian_cloud(1000, 3, 42)
        sigma = bandwidth_percentile(X, 2)
        cfg = KernelConfig(sigma=sigma, tau=0.004)
        t0 = time.perf_counter()
        afn_build(X, cfg, r=200, delta=2 * sigma, seed=43)
        assert time.perf_counter() - t0 < 10.0

    def test_rank_bounds(self):
        X = generate_gaussian_cloud(20, 2, 22)
        with pytest.raises(ValueError):
            afn_build(X, KernelConfig(sigma=0.5), r=20)

    @pytest.mark.parametrize("bad", [
        dict(pattern="bogus"), dict(delta=math.nan), dict(delta=-1.0), dict(r=20),
        dict(pattern="random", delta=math.nan),   # checked even when unused
        # run_methods only: a label outside {1, 2, 3} used to run the random pattern
        dict(methods=(4,)), dict(methods=(0,)), dict(methods=(2.5,)), dict(methods=("3",)),
    ])
    def test_bad_arguments_fail_before_the_split(self, bad, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("kernel work before the arguments were checked")

        X = generate_gaussian_cloud(20, 2, 22)
        cfg = KernelConfig(sigma=0.5)
        monkeypatch.setattr(precond_mod, "SchurComplement", no_work)
        if "methods" not in bad:
            with pytest.raises(ValueError):
                afn_build(X, cfg, **{"r": 5, **bad})
        if "pattern" not in bad:
            # run_methods checks before it forms the system and its reference
            monkeypatch.setattr(precond_mod, "kernel_matrix", no_work)
            with pytest.raises(ValueError):
                run_methods(X, cfg, **{"r": 5, **bad})


class TestPcg:
    def test_identity_one_iteration(self):
        b = np.random.default_rng(23).standard_normal(30)
        x, iters, hist = pcg(np.eye(30), b)
        np.testing.assert_allclose(x, b, atol=1e-14)
        assert iters == 1 and len(hist) == 1

    def test_diagonal_matches_dense_solve(self):
        A = np.diag(np.arange(1.0, 11.0))
        b = np.ones(10)
        x, iters, _ = pcg(A, b, tol_abs=1e-10)
        assert iters <= 10
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-8)

    def test_exact_inverse_preconditioner_two_iterations(self):
        rng = np.random.default_rng(24)
        Q = rng.standard_normal((40, 40))
        A = Q @ Q.T + 40 * np.eye(40)
        b = rng.standard_normal(40)
        inv = np.linalg.inv(A)
        x, iters, _ = pcg(A, b, lambda v: inv @ v, tol_abs=1e-10)
        assert iters <= 2
        np.testing.assert_allclose(x, inv @ b, atol=1e-8)

    def test_energy_norm_monotone(self):
        rng = np.random.default_rng(25)
        Q = rng.standard_normal((25, 25))
        A = Q @ Q.T + 5 * np.eye(25)
        b = rng.standard_normal(25)
        xstar = np.linalg.solve(A, b)
        energies = []
        for k in range(1, 15):
            x, _, _ = pcg(A, b, tol_abs=1e-14, max_iter=k)
            e = x - xstar
            energies.append(float(e @ A @ e))
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_divergence_error(self):
        bad = lambda v: np.full_like(v, np.nan)  # noqa: E731
        with pytest.raises(DivergenceError):
            pcg(bad, np.ones(5))

    def test_breakdown_on_zero_curvature(self):
        # p^T A p = 0 at the first step: a division by zero without the guard
        with pytest.raises(DivergenceError, match="iteration 1"):
            pcg(np.diag([1.0, -1.0, 2.0]), np.array([1.0, 1.0, 0.0]))

    def test_breakdown_on_indefinite_system(self):
        # without the guard this reports convergence to a wrong answer
        with pytest.raises(DivergenceError, match="iteration 2"):
            pcg(np.diag([1.0, -2.0]), np.array([1.0, 0.5]))

    def test_stops_on_true_residual(self):
        # one perturbed product makes the recurrence residual drift 1e-3 from
        # b - A x; the stop check catches it and the solve continues
        A = np.diag(np.arange(1.0, 21.0))
        b = np.ones(20)
        calls = []

        def drifting(v):
            calls.append(1)
            return A @ v + (1e-3 if len(calls) == 1 else 0.0)

        x, iters, hist = pcg(drifting, b, tol_abs=1e-10)
        assert np.linalg.norm(b - A @ x) <= 1e-10
        assert hist[-1] <= 1e-10 and len(hist) == iters
        assert iters > pcg(A, b, tol_abs=1e-10)[1]

    def test_returns_best_checked_iterate(self):
        # the drifted first product makes the check after iteration 29 fail
        # (true residual 4.3e-4) and restart; the product right after the
        # restart is 100x too small, so the step overshoots and the iterate at
        # max_iter is worse: the checked iterate comes back, and iterations
        # still counts all 30
        A = np.diag(np.arange(1.0, 21.0))
        b = np.ones(20)
        seen = []

        def op(v):
            seen.append(v.copy())
            y = A @ v
            if len(seen) == 1:
                y += 1e-3
            if len(seen) == 31:
                y *= 0.01
            return y

        x, iters, hist = pcg(op, b, tol_abs=1e-10, max_iter=30)
        assert iters == len(hist) == 30
        assert len(seen) == 32   # 30 iterations, the check, one final product
        checked, last = seen[29], seen[31]
        assert hist[28] == np.linalg.norm(b - A @ checked) > 1e-10
        assert np.linalg.norm(b - A @ last) > 100 * hist[28]
        np.testing.assert_array_equal(x, checked)

    def test_keeps_last_iterate_when_better(self):
        # the same failed check, no overshoot: at max_iter the last iterate
        # is better than the checked one and is returned
        A = np.diag(np.arange(1.0, 21.0))
        b = np.ones(20)
        seen = []

        def op(v):
            seen.append(v.copy())
            return A @ v + (1e-3 if len(seen) == 1 else 0.0)

        x, iters, hist = pcg(op, b, tol_abs=1e-10, max_iter=35)
        np.testing.assert_array_equal(x, seen[-1])
        assert np.linalg.norm(b - A @ x) < hist[28] / 10

    def test_no_extra_product_without_a_failed_check(self):
        A = np.diag(np.arange(1.0, 21.0))
        calls = []

        def op(v):
            calls.append(1)
            return A @ v

        _, iters, _ = pcg(op, np.ones(20), tol_abs=1e-14, max_iter=5)
        assert iters == len(calls) == 5

    def test_tolerance_validation(self):
        for tol in (0.0, -1.0, math.nan):   # NaN fails too
            with pytest.raises(ValueError):
                pcg(np.eye(3), np.ones(3), tol_abs=tol)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_operand_reads_one_triangle(self, order):
        # NaN in the strict upper triangle changes nothing: not the
        # iterates, not the checks, not the best-iterate choice at max_iter
        A, b = kernel_system(120, 3, 51)
        A = np.asarray(A, order=order)
        poisoned = A.copy(order=order)
        poisoned[np.triu_indices(120, 1)] = np.nan
        for kw in ({"tol_abs": 1e-9}, {"tol_abs": 1e-9, "max_iter": 40}):
            x, iters, hist = pcg(A, b, **kw)
            x2, iters2, hist2 = pcg(poisoned, b, **kw)
            assert iters2 == iters
            np.testing.assert_array_equal(bits(x2), bits(x))
            np.testing.assert_array_equal(bits(hist2), bits(hist))

    def test_dense_view_same_bits_as_contiguous_copy(self):
        A, b = kernel_system(100, 3, 52)
        big = np.zeros((200, 200))
        big[::2, ::2] = A
        view = big[::2, ::2]
        assert not (view.flags.c_contiguous or view.flags.f_contiguous)
        x, iters, hist = pcg(view, b, tol_abs=1e-9)
        x2, iters2, hist2 = pcg(np.ascontiguousarray(view), b, tol_abs=1e-9)
        assert iters == iters2
        np.testing.assert_array_equal(bits(x), bits(x2))
        np.testing.assert_array_equal(bits(hist), bits(hist2))

    def test_dense_operand_not_copied_per_iteration(self):
        A, b = kernel_system(400, 3, 53)
        tracemalloc.start()
        try:
            _, iters, _ = pcg(A, b, tol_abs=1e-12, max_iter=50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert iters == 50
        assert peak < A.nbytes

    @pytest.mark.parametrize("shape, n", [((3, 4), 4), ((5, 5), 4)])
    def test_dense_operand_shape_checked_up_front(self, shape, n, monkeypatch):
        calls = []
        monkeypatch.setattr(precond_mod, "dsymv", lambda *a, **k: calls.append(1))
        want = re.escape(f"{shape}") + ".*" + re.escape(f"({n},)")
        with pytest.raises(ValueError, match=want):
            pcg(np.ones(shape), np.ones(n))
        assert calls == []

    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_in_place_updates_same_bits_as_textbook_loop(self, preconditioned):
        # x += alpha p, r -= alpha A p, p = z + beta p and ||r|| = sqrt(r . r)
        # written with fresh arrays; the system converges at its first check
        A, b = kernel_system(200, 3, 54, tau=0.1)
        M = np.diag(1.0 / np.diag(A)) if preconditioned else np.eye(200)
        x, iters, hist = pcg(lambda v: A @ v, b, (lambda v: M @ v) if preconditioned else None,
                             tol_abs=1e-9)
        xs, r = np.zeros(200), b.copy()
        z = M @ r
        p, gamma, norms = z.copy(), r @ z, []
        while not norms or norms[-1] > 1e-9:
            Ap = A @ p
            alpha = gamma / (p @ Ap)
            xs = xs + alpha * p
            r = r - alpha * Ap
            norms.append(float(np.linalg.norm(r)))
            z = M @ r
            gamma, beta = r @ z, (r @ z) / gamma
            p = z + beta * p
        assert iters == len(norms) > 5
        np.testing.assert_array_equal(bits(x), bits(xs))
        np.testing.assert_array_equal(bits(hist[:-1]), bits(norms[:-1]))

    def test_residual_history_per_iteration(self):
        A = np.diag(np.arange(1.0, 21.0))
        b = np.ones(20)
        _, iters, hist = pcg(A, b, tol_abs=1e-12)
        assert len(hist) == iters
        assert hist[-1] <= 1e-12


class TestMethodOrdering:
    def test_small_instance_ranking(self):
        # geometric AFN beats the random pattern at equal iteration budget,
        # and plain CG trails both
        X = generate_gaussian_cloud(300, 3, 26)
        sigma = bandwidth_percentile(X, 2)
        cfg = KernelConfig(sigma=sigma, tau=0.004)
        rows = run_methods(
            X, cfg, r=60, delta=2 * sigma,
            seed=27,
        )
        by = {r["method"]: r for r in rows}
        assert by[3]["iterations"] < by[2]["iterations"]
        assert by[3]["iterations"] < by[1]["iterations"]
        A = kernel_matrix(X, X, cfg) + cfg.tau**2 * np.eye(X.n)
        b = np.random.default_rng(29).standard_normal(X.n)
        b /= np.linalg.norm(b)
        P2 = afn_build(
            X, cfg, r=60, pattern="random", seed=27
        )
        _, _, hist2 = pcg(A, b, P2.apply_inverse, max_iter=by[3]["iterations"])
        assert hist2[-1] >= by[3]["residual"] - 1e-12

    def test_schur_complement_lives_through_the_last_solve(self, monkeypatch):
        refs, alive = [], []

        class Tracked(SchurComplement):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        def watched_pcg(*args, **kwargs):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            return orig_pcg(*args, **kwargs)

        orig_pcg = precond_mod.pcg
        monkeypatch.setattr(precond_mod, "SchurComplement", Tracked)
        monkeypatch.setattr(precond_mod, "pcg", watched_pcg)
        X = generate_gaussian_cloud(200, 2, 34)
        cfg = KernelConfig(sigma=bandwidth_percentile(X, 5), tau=0.004)
        run_methods(X, cfg, r=40, seed=35)
        # method 1 runs before the split; methods 2 and 3 iterate on R
        assert alive == [[], [True], [True]]
        gc.collect()
        assert refs[0]() is None   # freed once run_methods returns
        builds = precond_mod._afn_builds(X, cfg, 40, ["random", "geometric"], None, 35)
        (first, schur), (last, again) = next(builds), next(builds)
        assert again is schur and last.L is first.L and last.W is first.W

    def test_one_landmark_factor_for_both_patterns(self, monkeypatch):
        X = generate_gaussian_cloud(200, 2, 30)
        cfg = KernelConfig(sigma=bandwidth_percentile(X, 5), tau=0.004)
        calls = []
        orig_fit = precond_mod.fit
        monkeypatch.setattr(precond_mod, "fit", lambda *a: calls.append(1) or orig_fit(*a))
        rows = run_methods(X, cfg, r=40, delta=2 * cfg.sigma,
                           seed=31)
        assert len(calls) == 1
        # each shared-factor row equals a Schur solve on its own build
        A = kernel_matrix(X, X, cfg) + cfg.tau**2 * np.eye(X.n)
        b = np.random.default_rng(33).standard_normal(X.n)
        b /= np.linalg.norm(b)
        for row in rows[1:]:
            pattern = "geometric" if row["method"] == 3 else "random"
            P, schur = next(precond_mod._afn_builds(X, cfg, 40, [pattern], 2 * cfg.sigma, 31))
            _, iters, res = precond_mod._schur_solve(P, schur, A, b, 1e-5, 1000)
            assert iters == row["iterations"]
            assert float(np.linalg.norm(res)) == row["residual"]

    def test_stops_on_the_full_residual(self):
        # covfield precond --tau 0 --seed 42: the first pass meets --tol on
        # T's block at 88 iterations while ||b - A x|| is 6.6e-5; passes on
        # the full residual run until it meets --tol or --maxit is spent
        X = generate_gaussian_cloud(1000, 3, 42)
        cfg = KernelConfig(sigma=bandwidth_percentile(X, 2), tau=0.0)
        (m3,) = run_methods(X, cfg, r=200, tol_abs=1e-5, max_iter=1000, seed=43, methods=(3,))
        assert m3["residual"] <= 1e-5 or m3["iterations"] == 1000
        assert m3["iterations"] > 88

    def test_pass_without_iterations_ends_on_the_best_iterate(self, monkeypatch):
        # --tau 0 --seed 42, whose first pass misses the tolerance on the full
        # residual; the second pass's PCG reports no iteration, so the loop
        # stops there and returns the pass with the smaller full residual
        X = generate_gaussian_cloud(1000, 3, 42)
        cfg = KernelConfig(sigma=bandwidth_percentile(X, 2), tau=0.0)
        P, schur = next(precond_mod._afn_builds(X, cfg, 200, ["geometric"], None, 43))
        A = kernel_matrix(X, X, cfg)
        b = np.random.default_rng(45).standard_normal(X.n)
        b /= np.linalg.norm(b)
        calls, products = [], []
        orig = precond_mod.pcg

        def stalled_pcg(op, rhs, *args, **kwargs):
            calls.append(orig(op, rhs, *args, **kwargs) if not calls
                         else (np.zeros_like(rhs), 0, np.empty(0)))
            return calls[-1]

        class Recorded:
            def __matmul__(self, x):
                products.append(A @ x)
                return products[-1]

        monkeypatch.setattr(precond_mod, "pcg", stalled_pcg)
        x, iters, res = precond_mod._schur_solve(P, schur, Recorded(), b, 1e-5, 1000)
        assert len(calls) == 2 and len(products) == 2
        assert iters == calls[0][1]
        full = [b - Ax for Ax in products]
        assert np.linalg.norm(full[0]) > 1e-5
        k = int(np.argmin([np.linalg.norm(r) for r in full]))
        np.testing.assert_array_equal(res, full[k])
        np.testing.assert_array_equal(b - A @ x, res)

    def test_refinement_keeps_converged_rows(self, monkeypatch):
        # where the first pass meets the tolerance on the full residual, no
        # second pass runs
        calls = []
        orig = precond_mod.pcg
        monkeypatch.setattr(precond_mod, "pcg", lambda *a, **k: calls.append(1) or orig(*a, **k))
        X = generate_gaussian_cloud(300, 3, 26)
        cfg = KernelConfig(sigma=bandwidth_percentile(X, 2), tau=0.004)
        rows = run_methods(X, cfg, r=60, seed=27, methods=(3,))
        assert rows[0]["residual"] <= 1e-5 and calls == [1]

    def test_criterion_10_shape_on_a_synthetic_d8_cloud(self):
        # criterion 10's parameters (r = n/5, tau = 0.004, delta = 2 sigma at the
        # 2nd percentile, landmark seed 124) on a seeded d = 8 cloud at n = 2000:
        # the geometric rule takes the full factor, and method 3 converges
        rng = np.random.default_rng(123)
        X = standardize(PointSet(rng.standard_normal((2000, 8)) * rng.uniform(0.5, 3.0, 8)))
        sigma = bandwidth_percentile(X, 2)
        cfg = KernelConfig(sigma=sigma, tau=0.004)
        (m3,) = run_methods(X, cfg, r=400, delta=2 * sigma, tol_abs=1e-5, max_iter=1000,
                            seed=124, methods=(3,))
        assert m3["fsai_nnz_fraction"] == 1601 / 3200   # the full triangle of n_T = 1600
        assert m3["iterations"] <= 30 and m3["residual"] <= 1e-5

    @pytest.mark.parametrize("pattern", ["geometric", "random"])
    def test_schur_solve_matches_full_space_pcg(self, pattern):
        # M^{-1} A is similar to diag(I, G^T G (R + tau^2 I)): on a
        # well-conditioned cloud both solves meet the tolerance on the full
        # system in the same number of iterations, give or take one
        X = generate_gaussian_cloud(300, 3, 36)
        cfg = KernelConfig(sigma=bandwidth_percentile(X, 2), tau=0.3)   # cond(A) about 320
        A = kernel_matrix(X, X, cfg) + cfg.tau**2 * np.eye(X.n)
        b = np.random.default_rng(37).standard_normal(X.n)
        b /= np.linalg.norm(b)
        P, schur = next(precond_mod._afn_builds(X, cfg, 60, [pattern], None, 38))
        x_full, it_full, _ = pcg(A, b, P.apply_inverse, tol_abs=1e-8)
        x_schur, it_schur, res = precond_mod._schur_solve(P, schur, A, b, 1e-8, 1000)
        assert np.linalg.norm(b - A @ x_full) <= 1e-8
        assert np.linalg.norm(res) <= 1e-8
        np.testing.assert_array_equal(res, b - A @ x_schur)
        assert abs(it_full - it_schur) <= 1
