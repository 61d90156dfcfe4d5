import math

import numpy as np
import pytest

from covfield import (
    KernelConfig,
    PointSet,
    dist_to_set,
    estimate_curve,
    fit,
    kernel_eval,
    lower_bound_small,
    max_cross_weight_norm,
    posterior,
    subsample,
    upper_bound_large,
    upper_bound_small,
    variance_lower_bound,
)

from conftest import memo_model, memo_pairs, unit_grid


def sandwich_violations(model, pairs, include_large=True):
    bad = 0
    for x, y in pairs:
        r = abs(model.cov(x, y))
        if r > upper_bound_small(model, x, y) + 1e-12:
            bad += 1
        if lower_bound_small(model, x, y) > r + 1e-12:
            bad += 1
        if include_large and r > upper_bound_large(model, x, y) + 1e-12:
            bad += 1
    return bad


class TestSmallBandwidthBounds:
    def test_sandwich_small_sigma(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.05))
        rng = np.random.default_rng(0)
        pairs = rng.uniform(0, 1, (1000, 2))
        assert sandwich_violations(model, pairs) == 0

    def test_sandwich_large_sigma(self, nonuniform1d):
        model = fit(nonuniform1d, KernelConfig(sigma=0.4))
        rng = np.random.default_rng(1)
        pairs = rng.uniform(0, 1, (1000, 2))
        assert sandwich_violations(model, pairs) == 0

    def test_loose_but_valid_at_observation(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        s = uniform1d.coords[2, 0]
        assert upper_bound_small(model, s, s) >= 1.0
        assert abs(model.cov(s, s)) == 0.0

    def test_far_pair_is_tiny(self, uniform1d):
        sigma = 0.05
        model = fit(uniform1d, KernelConfig(sigma=sigma))
        x = 0.98 + 10 * sigma     # 10 sigma from the nearest observation
        y = x + 10 * sigma
        assert upper_bound_small(model, x, y) <= 1e-20

    def test_lower_bound_vacuous_at_observation(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        s = uniform1d.coords[0, 0]
        assert lower_bound_small(model, s, s) <= 0.0

    def test_lower_bound_sharp_far_away(self, uniform1d):
        sigma = 0.05
        model = fit(uniform1d, KernelConfig(sigma=sigma))
        x = 0.98 + 10 * sigma
        lb = lower_bound_small(model, x, x)
        assert lb == pytest.approx(1.0, abs=1e-9)
        assert abs(model.cov(x, x)) == pytest.approx(1.0, abs=1e-9)

    def test_permutation_invariance(self, nonuniform1d):
        cfg = KernelConfig(sigma=0.1)
        m1 = fit(nonuniform1d, cfg)
        m2 = fit(subsample(nonuniform1d, 5, seed=8), cfg)  # permuted copy
        for x, y in [(0.15, 0.4), (0.8, 0.83), (0.05, 0.98)]:
            assert upper_bound_small(m1, x, y) == pytest.approx(
                upper_bound_small(m2, x, y), abs=1e-12
            )
            assert upper_bound_large(m1, x, y) == pytest.approx(
                upper_bound_large(m2, x, y), abs=1e-12
            )


class TestVarianceLowerBound:
    def test_far_point(self, uniform1d):
        sigma = 0.05
        model = fit(uniform1d, KernelConfig(sigma=sigma))
        got = variance_lower_bound(model, 0.98 + 10 * sigma, 1.0)
        assert got == pytest.approx(1 - math.sqrt(5) * math.exp(-50), abs=1e-15)

    def test_vacuous_at_observation(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        assert variance_lower_bound(model, uniform1d.coords[1], 1.0) < 0

    def test_sandwich(self, nonuniform1d):
        model = fit(nonuniform1d, KernelConfig(sigma=0.05))
        g2 = max_cross_weight_norm(model, unit_grid(501), 2)
        rng = np.random.default_rng(2)
        for x in rng.uniform(0, 1, 1000):
            lb = variance_lower_bound(model, x, g2)
            if lb > 0:
                assert model.variance(x) >= lb - 1e-12

    @pytest.mark.parametrize("g", [0.5, -math.inf, math.inf, math.nan])
    def test_rejects_bad_weight_norm(self, uniform1d, g):
        model = fit(uniform1d, KernelConfig(sigma=0.05))
        with pytest.raises(ValueError, match="max_weight_norm"):
            variance_lower_bound(model, 0.5, g)


class TestLargeBandwidthBound:
    def test_zero_on_observations(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.4))
        s = uniform1d.coords[3, 0]
        assert upper_bound_large(model, s, 0.77) == 0.0
        assert upper_bound_large(model, 0.11, s) == 0.0

    def test_linear_growth_cap(self, uniform1d):
        sigma = 5.0
        model = fit(uniform1d, KernelConfig(sigma=sigma))
        g2 = max_cross_weight_norm(model, unit_grid(101), 2)
        cap = (1 + math.sqrt(5) * g2) / (sigma * math.sqrt(math.e))
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(0, 1, (200, 2)):
            assert upper_bound_large(model, x, y) <= cap + 1e-12


class TestEstimateCurve:
    def test_distance_curve_zero_on_observations(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.4))
        grid = PointSet(
            np.sort(np.concatenate([np.linspace(0, 1, 101), uniform1d.coords[:, 0]]))[:, None]
        )
        curve = estimate_curve(model, 0.15, grid, "distance")
        for s in uniform1d.coords[:, 0]:
            idx = int(np.flatnonzero(grid.coords[:, 0] == s)[0])
            assert curve[idx] == 0.0

    def test_condition1_argmax_alignment(self, uniform1d):
        sigma = 0.05
        model = fit(uniform1d, KernelConfig(sigma=sigma))
        grid = unit_grid(1001)
        curve = estimate_curve(model, 0.15, grid, "upper", condition=1)
        exact = np.abs(model.cov_matrix(grid, PointSet(np.array([[0.15]]))))[:, 0]
        exact[np.isnan(curve)] = -np.inf
        assert abs(int(np.nanargmax(curve)) - int(np.argmax(exact))) <= 1

    def test_rescaled_max_equals_exact_max(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.4))
        grid = unit_grid(301)
        curve = estimate_curve(model, 0.15, grid, "distance")
        exact = np.abs(model.cov_matrix(grid, PointSet(np.array([[0.15]]))))[:, 0]
        assert np.nanmax(curve) == np.max(exact)

    def test_region_masks(self, uniform1d):
        sigma = 0.05
        model = fit(uniform1d, KernelConfig(sigma=sigma))
        grid = unit_grid(201)
        c1 = estimate_curve(model, 0.15, grid, "upper", condition=1)
        c2 = estimate_curve(model, 0.15, grid, "lower", condition=2)
        d = np.abs(grid.coords[:, 0] - 0.15)
        np.testing.assert_array_equal(np.isnan(c1), d <= 3 * sigma)
        np.testing.assert_array_equal(np.isnan(c2), d >= 3 * sigma)

    def test_empty_region(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.05))
        with pytest.raises(ValueError):
            estimate_curve(model, 10.0, unit_grid(51), "lower", condition=2)

    def test_bad_kind(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.05))
        with pytest.raises(ValueError):
            estimate_curve(model, 0.15, unit_grid(11), "sideways")

    def test_distance_curve_matches_dist_to_set_loop(self):
        rng = np.random.default_rng(7)
        S = PointSet(rng.uniform(0, 1, (6, 2)))
        model = fit(S, KernelConfig(sigma=0.4))
        grid = PointSet(rng.uniform(0, 1, (200, 2)))
        curve = estimate_curve(model, [0.5, 0.5], grid, "distance", condition=3)
        loop = np.array([dist_to_set(p, S)[0] for p in grid.coords])
        exact = np.abs(model.cov_matrix(grid, PointSet(np.array([[0.5, 0.5]]))))[:, 0]
        np.testing.assert_array_equal(curve, loop * (exact.max() / loop.max()))


class TestBitIdentity:
    def test_bounds_match_public_pieces(self, nonuniform1d):
        # the bounds, written out from the public pointwise functions
        model = fit(nonuniform1d, KernelConfig(sigma=0.1, beta=1.3))
        cfg, sr = model.cfg, math.sqrt(model.r)
        s2, se = math.sqrt(2.0) * cfg.sigma, cfg.sigma * math.sqrt(math.e)
        for x, y in np.random.default_rng(8).uniform(0, 1, (50, 2)):
            dx, dy = dist_to_set(x, model.S)[0], dist_to_set(y, model.S)[0]
            wx = float(np.linalg.norm(model.cross_weights(x)))
            wy = float(np.linalg.norm(model.cross_weights(y)))
            corr = cfg.beta * sr * min(math.exp(-((dx / s2) ** 2)) * wy,
                                       math.exp(-((dy / s2) ** 2)) * wx)
            k = kernel_eval(x, y, cfg)
            assert upper_bound_small(model, x, y) == k + corr
            assert lower_bound_small(model, x, y) == k - corr
            assert upper_bound_large(model, x, y) == cfg.beta * min(
                (1.0 + sr * wy) * dx / se, (1.0 + sr * wx) * dy / se)


class TestPointMemo:
    @staticmethod
    def _results(model, x, y):
        """The bounds at (x, y) and (y, x), the later ones on a warm memo."""
        return (upper_bound_small(model, x, y), lower_bound_small(model, x, y),
                upper_bound_large(model, x, y), upper_bound_small(model, y, x),
                lower_bound_small(model, y, x), upper_bound_large(model, y, x),
                variance_lower_bound(model, x, 1.0), variance_lower_bound(model, y, 1.0))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_warm_memo_bitwise_equal_to_fresh_fit(self, d, tau):
        S, cfg = memo_model(d, tau)
        model = fit(S, cfg)
        fns = (upper_bound_small, lower_bound_small, upper_bound_large)
        for x, y in memo_pairs(S, seed=12):
            # each result from its own fresh fit (an empty memo)
            want = [f(fit(S, cfg), a, b) for a, b in ((x, y), (y, x)) for f in fns]
            want += [variance_lower_bound(fit(S, cfg), p, 1.0) for p in (x, y)]
            got = self._results(model, x, y)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)

    def test_one_pair_costs_two_solves(self, nonuniform1d, monkeypatch):
        dpotrs = posterior.dpotrs
        solves = []

        def counting(*args, **kwargs):
            solves.append(1)
            return dpotrs(*args, **kwargs)

        monkeypatch.setattr(posterior, "dpotrs", counting)
        model = fit(nonuniform1d, KernelConfig(sigma=0.1))
        x, y = 0.31, 0.47    # neither is on S
        model.cov(x, y)
        lower_bound_small(model, x, y)
        upper_bound_small(model, x, y)
        upper_bound_large(model, x, y)
        model.variance(x)
        assert len(solves) == 2
