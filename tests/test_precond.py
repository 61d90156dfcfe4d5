import dataclasses
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

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
    generate_gaussian_cloud,
    geometric_pattern,
    kernel_matrix,
    pcg,
    random_pattern,
    run_methods,
)
from covfield.posterior import JITTER_LADDER


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
        X = generate_gaussian_cloud(90, 3, 40)
        cfg = KernelConfig(sigma=0.7, tau=0.05)
        S, T = split(X, 25, 41)
        schur = SchurComplement(S, T, cfg)
        np.testing.assert_array_equal(schur.R, schur.R.T)
        J = np.sort(np.random.default_rng(42).choice(T.n, 20, replace=False))
        noisy = schur.R[np.ix_(J, J)] + cfg.tau**2 * np.eye(20)
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
        G = fsai_build(schur.block, rows)
        R = schur.block(np.arange(T.n))
        diag = (G @ R @ G.T).diagonal()
        np.testing.assert_allclose(diag, 1.0, atol=1e-10)

    def test_rows_equal_normalized_block_solve(self):
        # c^{-T} e (B = c c^T) is the normalized solve B^{-1} e / sqrt(e^T B^{-1} e)
        rng = np.random.default_rng(43)
        n = 60
        Q = rng.standard_normal((n, n))
        A = Q @ Q.T / n + 0.1 * np.eye(n)
        rows = [np.sort(np.append(rng.choice(i, min(i, rng.integers(0, 30)), replace=False), i))
                for i in range(n)]
        G = fsai_build(lambda J: A[np.ix_(J, J)], rows)
        for i, J in enumerate(rows):
            e = np.zeros(len(J))
            e[-1] = 1.0
            g = cho_solve(cho_factor(A[np.ix_(J, J)], lower=True), e)
            want = g / np.sqrt(g[-1])
            got = G[i, J].toarray().ravel()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

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

    def test_bad_pattern_rejected(self):
        block = lambda J: np.eye(len(J))  # noqa: E731
        with pytest.raises(ValueError):
            fsai_build(block, [np.array([0]), np.array([0])])  # missing diagonal 1


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
    ])
    def test_bad_arguments_fail_before_the_split(self, bad, monkeypatch):
        import covfield.precond as precond_mod

        def no_work(*args, **kwargs):
            raise AssertionError("Schur work before the arguments were checked")

        X = generate_gaussian_cloud(20, 2, 22)
        cfg = KernelConfig(sigma=0.5)
        monkeypatch.setattr(precond_mod, "SchurComplement", no_work)
        with pytest.raises(ValueError):
            afn_build(X, cfg, **{"r": 5, **bad})
        if "pattern" not in bad:
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
        import covfield.precond as precond_mod

        calls = []
        monkeypatch.setattr(precond_mod, "dsymv", lambda *a, **k: calls.append(1))
        want = re.escape(f"{shape}") + ".*" + re.escape(f"({n},)")
        with pytest.raises(ValueError, match=want):
            pcg(np.ones(shape), np.ones(n))
        assert calls == []

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

    def test_one_landmark_factor_for_both_patterns(self, monkeypatch):
        import covfield.precond as precond_mod

        X = generate_gaussian_cloud(200, 2, 30)
        cfg = KernelConfig(sigma=bandwidth_percentile(X, 5), tau=0.004)
        calls = []
        orig_fit = precond_mod.fit
        monkeypatch.setattr(precond_mod, "fit", lambda *a: calls.append(1) or orig_fit(*a))
        rows = run_methods(X, cfg, r=40, delta=2 * cfg.sigma,
                           seed=31)
        assert len(calls) == 1
        # each shared-factor row equals a solve with its own afn_build
        A = kernel_matrix(X, X, cfg) + cfg.tau**2 * np.eye(X.n)
        b = np.random.default_rng(33).standard_normal(X.n)
        b /= np.linalg.norm(b)
        for row in rows[1:]:
            P = afn_build(X, cfg, 40, pattern="geometric" if row["method"] == 3 else "random",
                          delta=2 * cfg.sigma, seed=31)
            x, iters, _ = pcg(A, b, P.apply_inverse)
            assert iters == row["iterations"]
            assert float(np.linalg.norm(b - A @ x)) == row["residual"]
