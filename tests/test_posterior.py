import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from covfield import (
    IllConditionedKernelError,
    KernelConfig,
    NumericalConsistencyError,
    PointSet,
    afn_build,
    fit,
    generate_gaussian_cloud,
    kernel_eval,
    kernel_matrix,
    max_cross_weight_norm,
    nystrom_build,
    preset_observations,
    reference_points_1d,
)
from covfield.posterior import _MEMO_SIZE, PosteriorModel

from conftest import dense_posterior_oracle, memo_model, memo_pairs, unit_grid


class TestFit:
    def test_fitted_objects_compare_by_identity(self):
        X = generate_gaussian_cloud(30, 2, 3)
        cfg = KernelConfig(sigma=0.5)
        S = PointSet(X.coords[:4])
        builds = [
            lambda: fit(S, cfg),
            lambda: nystrom_build(X, np.arange(4), cfg),
            lambda: afn_build(X, cfg, r=4, seed=5),
            lambda: reference_points_1d(fit(preset_observations("uniform1d"), cfg)),
        ]
        for build in builds:
            a, b = build(), build()
            assert a == a and a != b and hash(a) != hash(b)

    def test_preset_needs_no_jitter(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        assert model.jitter_used == 0.0

    def test_single_point_factor(self):
        model = fit(PointSet(np.array([[0.3]])), KernelConfig(sigma=1.0, beta=2.25))
        np.testing.assert_allclose(model.chol, [[1.5]])

    def test_dense_equispaced_needs_jitter(self):
        # 500 equispaced points at sigma=0.6: the kernel matrix is numerically
        # singular (checked directly on the spectrum), so the ladder engages
        S = unit_grid(500)
        cfg = KernelConfig(sigma=0.6)
        eigs = np.linalg.eigvalsh(kernel_matrix(S, S, cfg))
        assert eigs[0] < 1e-12 * eigs[-1]
        model = fit(S, cfg)
        assert model.jitter_used > 0.0

    def test_factor_reconstructs(self, nonuniform1d):
        cfg = KernelConfig(sigma=0.1, tau=0.05)
        model = fit(nonuniform1d, cfg)
        K = kernel_matrix(nonuniform1d, nonuniform1d, cfg) + cfg.tau**2 * np.eye(5)
        rel = np.linalg.norm(model.chol @ model.chol.T - K) / np.linalg.norm(K)
        assert rel <= 1e-12 * 5

    @pytest.mark.parametrize("tau", [0.0, 0.05])
    def test_factor_bitwise_equal_to_eye_sum(self, nonuniform1d, tau):
        # tau^2 added to the diagonal in place changes no bit of K_SS + tau^2 I
        cfg = KernelConfig(sigma=0.1, tau=tau)
        K = kernel_matrix(nonuniform1d, nonuniform1d, cfg) + tau**2 * np.eye(5)
        np.testing.assert_array_equal(fit(nonuniform1d, cfg).chol, np.linalg.cholesky(K))

    def test_duplicate_points(self):
        with pytest.raises(ValueError):
            fit(PointSet(np.array([[0.1], [0.1], [0.4]])), KernelConfig(sigma=0.2))

    def test_duplicate_points_with_noise(self):
        # K_SS + tau^2 I is SPD even with repeated points
        S = PointSet(np.array([[0.1], [0.1], [0.4], [0.7], [0.7]]))
        cfg = KernelConfig(sigma=0.2, tau=0.05)
        X = unit_grid(21)
        want = dense_posterior_oracle(S, X, X, cfg)
        assert np.abs(fit(S, cfg).cov_matrix(X, X) - want).max() <= 1e-10

    def test_ladder_exhaustion(self):
        # an indefinite block stays indefinite at the largest ladder jitter
        from covfield.posterior import jittered_cholesky

        with pytest.raises(IllConditionedKernelError):
            jittered_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), scale=1.0)


class TestCrossWeights:
    def test_basis_vector_at_observation(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        for j, s in enumerate(uniform1d.coords):
            w = model.cross_weights(s)
            np.testing.assert_array_equal(w, np.eye(5)[j])
            assert np.linalg.norm(w, 1) == 1.0

    def test_decay_far_away(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        w = model.cross_weights(0.5 + 100 * 0.1)
        assert np.linalg.norm(w) <= 1e-10

    def test_two_point_closed_form(self):
        S = PointSet(np.array([[0.0], [1.0]]))
        cfg = KernelConfig(sigma=1.0)
        model = fit(S, cfg)
        k = kernel_eval(0.0, 1.0, cfg)
        rhs = np.array([kernel_eval(0.0, 0.5, cfg), kernel_eval(1.0, 0.5, cfg)])
        inv = np.array([[1.0, -k], [-k, 1.0]]) / (1 - k * k)
        np.testing.assert_allclose(model.cross_weights(0.5), inv @ rhs, atol=1e-14)

    def test_noise_breaks_exactness(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1, tau=0.3))
        w = model.cross_weights(uniform1d.coords[1])
        assert abs(np.linalg.norm(w) - 1.0) > 1e-6  # regularized solve shrinks w

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_bitwise_equal_to_cho_solve(self, nonuniform1d, tau):
        model = fit(nonuniform1d, KernelConfig(sigma=0.2, tau=tau))
        ys = np.concatenate([np.random.default_rng(5).uniform(-0.5, 1.5, 40),
                             nonuniform1d.coords[:, 0]])
        for y in ys:
            k = kernel_matrix(nonuniform1d, PointSet(np.array([[y]])), model.cfg)[:, 0]
            want = cho_solve((model.chol, True), k)
            if tau == 0.0 and y in nonuniform1d.coords[:, 0]:
                # exact-at-observation lookup: a basis vector, not a solve
                want = np.eye(model.r)[list(nonuniform1d.coords[:, 0]).index(y)]
            np.testing.assert_array_equal(model.cross_weights(y), want)

    def test_non_finite_point(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        with pytest.raises(ValueError):
            model.cross_weights(np.nan)
        with pytest.raises(ValueError):
            model.cov(0.3, np.inf)


class TestPosteriorCov:
    def test_vanishes_at_observations(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        rng = np.random.default_rng(0)
        for y in rng.uniform(0, 1, 25):
            for s in uniform1d.coords[:, 0]:
                assert abs(model.cov(s, y)) <= 1e-8
                assert abs(model.cov(y, s)) <= 1e-8

    def test_single_conditioning_point(self):
        model = fit(PointSet(np.array([[0.0]])), KernelConfig(sigma=1.0))
        assert model.cov(1.0, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
        assert model.cov(1.0, 1.0) == pytest.approx(0.632121, abs=1e-6)

    def test_two_point_oracle(self):
        S = PointSet(np.array([[0.0], [1.0]]))
        cfg = KernelConfig(sigma=1.0)
        model = fit(S, cfg)
        want = dense_posterior_oracle(
            S, PointSet(np.array([[0.5]])), PointSet(np.array([[0.25]])), cfg
        )[0, 0]
        assert model.cov(0.5, 0.25) == pytest.approx(want, abs=1e-14)

    def test_symmetry_bit_exact(self, nonuniform1d):
        model = fit(nonuniform1d, KernelConfig(sigma=0.07))
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.uniform(0, 1, 2)
            assert model.cov(x, y) == model.cov(y, x)

    @pytest.mark.parametrize("d", [1, 2])
    def test_bitwise_equal_to_pair_formula(self, d):
        rng = np.random.default_rng(6)
        S = PointSet(rng.uniform(0, 1, (6, d)))
        cfg = KernelConfig(sigma=0.3, tau=0.05)
        model = fit(S, cfg)
        for x, y in rng.uniform(0, 1, (40, 2, d)):
            # the lexicographically smaller point takes the cross-weight slot
            hi, lo = (x, y) if tuple(x) >= tuple(y) else (y, x)
            w = cho_solve((model.chol, True), kernel_matrix(S, PointSet(lo[None, :]), cfg)[:, 0])
            k_xs = kernel_matrix(PointSet(hi[None, :]), S, cfg)[0]
            want = kernel_eval(hi, lo, cfg) - float(k_xs @ w)
            assert model.cov(x, y) == want
            assert model.cov(y, x) == want


def _pair_results(model, x, y):
    """Every memo-fed model result at one pair, the later ones on a warm memo."""
    return (model.cov(x, y), model.cov(y, x), model.variance(x), model.variance(y),
            model.cross_weights(x), model.cross_weights(y))


def _fresh_pair_results(S, cfg, x, y):
    """The same results, each from its own fresh fit (an empty memo)."""
    return (fit(S, cfg).cov(x, y), fit(S, cfg).cov(y, x), fit(S, cfg).variance(x),
            fit(S, cfg).variance(y), fit(S, cfg).cross_weights(x),
            fit(S, cfg).cross_weights(y))


def _assert_bitwise(got, want):
    for g, w in zip(got, want, strict=True):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), (g, w)


class TestPointMemo:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_warm_memo_bitwise_equal_to_fresh_fit(self, d, tau):
        S, cfg = memo_model(d, tau)
        model = fit(S, cfg)
        for x, y in memo_pairs(S, seed=9):
            _assert_bitwise(_pair_results(model, x, y), _fresh_pair_results(S, cfg, x, y))

    def test_mutating_cross_weights_leaves_results_unchanged(self):
        S, cfg = memo_model(2, 0.0)
        model = fit(S, cfg)
        for x, y in memo_pairs(S, seed=10):
            model.cross_weights(x)[:] = 7.0
            model.cross_weights(y)[0] += 1.0
            _assert_bitwise(_pair_results(model, x, y), _fresh_pair_results(S, cfg, x, y))

    def test_memo_stays_bounded(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        for x in np.linspace(-0.5, 1.5, 1000):
            model.variance(x)
            assert len(model._memo) <= _MEMO_SIZE
        assert len(model._memo) > 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_bad_points_raise_after_warm_up(self, d):
        S, cfg = memo_model(d, 0.0)
        model = fit(S, cfg)
        p = np.full(d, 0.3)
        model.cov(p, S.coords[0])
        # p[None, :] has the warm entry's bytes but is not a point: the shape
        # check runs before the lookup
        for bad in (p[None, :], np.full(d + 1, 0.3), np.full(d, np.nan), np.full(d, np.inf)):
            with pytest.raises(ValueError):
                model.cov(p, bad)
            with pytest.raises(ValueError):
                model.variance(bad)
            with pytest.raises(ValueError):
                model.cross_weights(bad)
        assert model.cov(p, S.coords[0]) == fit(S, cfg).cov(p, S.coords[0])

    def test_two_threads_get_single_thread_results(self):
        S, cfg = memo_model(2, 0.1)
        pairs = memo_pairs(S, seed=11)
        want = [_fresh_pair_results(S, cfg, x, y) for x, y in pairs]
        model = fit(S, cfg)
        got = [[], []]
        errors = []
        start = threading.Barrier(2)

        def hammer(t):
            try:
                start.wait()
                for _ in range(20):
                    # the threads walk the pairs in opposite orders, so their
                    # points interleave in the memo
                    order = range(len(pairs)) if t == 0 else reversed(range(len(pairs)))
                    got[t].append({i: _pair_results(model, *pairs[i]) for i in order})
            except Exception as exc:    # reported in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        # one insertion per thread may pass the size check at the same moment
        assert len(model._memo) <= _MEMO_SIZE + 1
        for runs in got:
            assert len(runs) == 20
            for res in runs:
                for i in range(len(pairs)):
                    _assert_bitwise(res[i], want[i])


class TestWhitenedCross:
    @pytest.mark.parametrize("d", [1, 3])
    def test_bitwise_equal_to_solve_on_k_sx(self, d):
        S = generate_gaussian_cloud(40, d, 1)
        X = generate_gaussian_cloud(70, d, 2)
        model = fit(S, KernelConfig(sigma=1.0, tau=0.01))
        W = model.whitened_cross(X)
        want = solve_triangular(model.chol, kernel_matrix(S, X, model.cfg), lower=True)
        np.testing.assert_array_equal(W, want)
        assert W.flags.f_contiguous

    def test_one_buffer_of_the_result_size(self):
        # LAPACK solves in the kernel block itself: no second r x n copy
        model = fit(generate_gaussian_cloud(600, 3, 3), KernelConfig(sigma=0.5, tau=0.01))
        X = generate_gaussian_cloud(2000, 3, 4)
        tracemalloc.start()
        try:
            W = model.whitened_cross(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert W.shape == (600, 2000)
        assert peak < 1.5 * W.nbytes


class TestPosteriorCovMatrix:
    def test_zero_on_observations(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        R = model.cov_matrix(uniform1d, uniform1d)
        assert np.abs(R).max() <= 1e-8

    def test_against_dense_inverse(self):
        rng = np.random.default_rng(2)
        S = PointSet(rng.uniform(0, 1, (10, 2)))
        X = PointSet(rng.uniform(0, 1, (50, 2)))
        cfg = KernelConfig(sigma=0.25)
        model = fit(S, cfg)
        R = model.cov_matrix(X, X)
        want = dense_posterior_oracle(S, X, X, cfg)
        assert np.linalg.norm(R - want) / np.linalg.norm(want) <= 1e-10

    def test_one_by_one_matches_scalar(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.2))
        X = PointSet(np.array([[0.15]]))
        Y = PointSet(np.array([[0.33]]))
        assert model.cov_matrix(X, Y)[0, 0] == pytest.approx(model.cov(0.15, 0.33), abs=1e-14)

    def test_symmetric_psd(self, nonuniform1d):
        model = fit(nonuniform1d, KernelConfig(sigma=0.15))
        X = PointSet(np.random.default_rng(3).uniform(0, 1, (40, 1)))
        R = model.cov_matrix(X, X)
        np.testing.assert_array_equal(R, R.T)
        assert np.linalg.eigvalsh(R)[0] >= -1e-8

    def test_oracle_sweep_small_instances(self):
        # instances admitted only while K_SS is numerically well conditioned;
        # beyond that the dense-inverse reference loses the digits itself
        rng = np.random.default_rng(4)
        done = 0
        while done < 20:
            d = int(rng.integers(1, 4))
            r = int(rng.integers(2, 21))
            S = PointSet(rng.uniform(0, 1, (r, d)))
            X = PointSet(rng.uniform(0, 1, (15, d)))
            cfg = KernelConfig(sigma=float(rng.uniform(0.05, 0.15)))
            K_SS = kernel_matrix(S, S, cfg)
            if np.linalg.cond(K_SS) > 1e4:
                continue
            model = fit(S, cfg)
            assert model.jitter_used == 0.0
            R = model.cov_matrix(X, X)
            want = dense_posterior_oracle(S, X, X, cfg)
            assert np.linalg.norm(R - want) <= 1e-10 * np.linalg.norm(want)
            done += 1


class TestPosteriorMean:
    def test_interpolates(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        y = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
        np.testing.assert_allclose(model.mean(y, uniform1d), y, atol=1e-10)

    def test_zero_observations(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        np.testing.assert_array_equal(model.mean(np.zeros(5), unit_grid(11)), np.zeros(11))

    def test_gp_demo_parameters(self):
        rng = np.random.default_rng(3)
        sx = np.sort(rng.uniform(0, 1, 15))
        S = PointSet(sx[:, None])
        model = fit(S, KernelConfig(sigma=0.06332725946674625, beta=0.9453058162554949))
        f = np.cos(25 * sx**2)
        np.testing.assert_allclose(model.mean(f, S), f, atol=1e-8)

    def test_length_mismatch(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        with pytest.raises(ValueError):
            model.mean(np.ones(4), uniform1d)


class TestPosteriorVariance:
    def test_zero_at_observations(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        for s in uniform1d.coords[:, 0]:
            assert model.variance(s) == 0.0

    def test_single_point(self):
        model = fit(PointSet(np.array([[0.0]])), KernelConfig(sigma=1.0))
        assert model.variance(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_radially_increasing(self):
        model = fit(PointSet(np.array([[0.0]])), KernelConfig(sigma=1.0))
        assert model.variance(0.5) < model.variance(1.5) < model.variance(3.0)

    def test_decreases_with_bandwidth(self, uniform1d):
        vals = [
            fit(uniform1d, KernelConfig(sigma=s)).variance(0.15)
            for s in (0.1, 0.2, 0.3, 0.4)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_consistency_guard(self, uniform1d):
        cfg = KernelConfig(sigma=0.1)
        good = fit(uniform1d, cfg)
        broken = PosteriorModel(S=uniform1d, cfg=cfg, chol=0.05 * good.chol, jitter_used=0.0)
        with pytest.raises(NumericalConsistencyError):
            broken.variance(0.45)   # off S: on S the exact path returns 0


    def test_directly_built_model_is_exact_on_observations(self):
        # no state beyond the public fields: a model built from S, cfg and
        # fit's factor is as exact on S as the one fit returns
        for name in ("uniform1d", "nonuniform1d"):
            S = preset_observations(name)
            for sigma in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4):
                cfg = KernelConfig(sigma=sigma)
                fitted = fit(S, cfg)
                assert fitted.jitter_used == 0.0
                model = PosteriorModel(S=S, cfg=cfg, chol=fitted.chol)
                assert [model.variance(s) for s in S.coords] == [0.0] * S.n, (name, sigma)
                assert max_cross_weight_norm(model, S) == 1.0, (name, sigma)


class TestMaxCrossWeightNorm:
    @staticmethod
    def per_point(model, grid, p):
        """The grid maximum with each column on S patched one point at a time."""
        W = cho_solve((model.chol, True), kernel_matrix(model.S, grid, model.cfg))
        if model._exact_at_obs:
            for i, g in enumerate(grid.coords):
                on = np.flatnonzero((model.S.coords == g).all(axis=1))
                if len(on):
                    W[:, i] = 0.0
                    W[on[0], i] = 1.0
        return float(np.max(np.linalg.norm(W, ord=p, axis=0)))

    def test_equals_one_on_observations(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        assert max_cross_weight_norm(model, uniform1d, 2) == 1.0

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    @pytest.mark.parametrize("d, tau", [(1, 0.0), (2, 0.0), (1, 0.1)])
    def test_bitwise_equal_to_per_point_patch(self, p, d, tau):
        rng = np.random.default_rng(d)
        S = PointSet(rng.uniform(0.0, 1.0, (7, d)))
        # points of S, in another order and once twice, among points off S
        grid = PointSet(np.vstack([rng.uniform(0.0, 1.0, (30, d)), S.coords[::-1],
                                   S.coords[:1]]))
        for sigma in (0.02, 0.1, 0.4):
            model = fit(S, KernelConfig(sigma=sigma, tau=tau))
            assert max_cross_weight_norm(model, grid, p) == self.per_point(model, grid, p), sigma

    def test_small_bandwidth_limit(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.01))
        grid = PointSet(np.linspace(0, 1, 2001)[:, None])  # contains S bitwise
        g2 = max_cross_weight_norm(model, grid, 2)
        assert 1.0 <= g2 <= 1.0 + 1e-6

    def test_monotone_under_union(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.15))
        g1 = PointSet(np.linspace(0, 0.5, 40)[:, None])
        g2 = PointSet(np.linspace(0.5, 1, 40)[:, None])
        union = PointSet(np.concatenate([g1.coords, g2.coords]))
        got = max_cross_weight_norm(model, union, 2)
        assert got >= max(
            max_cross_weight_norm(model, g1, 2), max_cross_weight_norm(model, g2, 2)
        )

    def test_p_norms(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.15))
        grid = unit_grid(101)
        for p in (1, 2, np.inf):
            assert max_cross_weight_norm(model, grid, p) > 0
        with pytest.raises(ValueError):
            max_cross_weight_norm(model, grid, 3)
