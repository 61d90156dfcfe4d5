import numpy as np
import pytest

import covfield.estimators as est_mod
from covfield import (
    DegenerateDataError,
    KernelConfig,
    PointSet,
    UnsupportedDimensionError,
    absolute_field,
    dist_metrics,
    field_estimator_large,
    field_estimator_small,
    fit,
    reference_points_1d,
    variance_estimator_auto,
    variance_estimator_large,
    variance_estimator_small,
)

from conftest import dense_posterior_oracle, unit_grid


class TestDistMetrics:
    def test_at_observation(self, uniform1d):
        m = dist_metrics(0.5, uniform1d, 0.1)
        assert m.nearest == 0.0
        assert m.cumulative > 0.0

    def test_single_point_coincide(self):
        m = dist_metrics(1.0, PointSet(np.array([[0.0]])), 0.5)
        assert m == (2.0, 2.0)

    def test_cumulative_dominates(self):
        rng = np.random.default_rng(0)
        S = PointSet(rng.uniform(0, 1, (6, 2)))
        for _ in range(100):
            m = dist_metrics(rng.uniform(0, 1, 2), S, 0.3)
            assert m.cumulative >= m.nearest


class TestFieldEstimators:
    def test_small_zero_on_observations(self, uniform1d):
        assert field_estimator_small(0.26, 0.4, uniform1d, 0.1) == 0.0
        assert field_estimator_small(0.4, 0.26, uniform1d, 0.1) == 0.0

    def test_small_symmetric(self, uniform1d):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.uniform(0, 1, 2)
            assert field_estimator_small(x, y, uniform1d, 0.1) == pytest.approx(
                field_estimator_small(y, x, uniform1d, 0.1), abs=1e-15
            )

    def test_small_ridge_location(self, uniform1d):
        # argmax sits where x and y are close together and both far from S
        sigma = 0.1
        xs = np.linspace(0, 1, 101)
        G = np.array(
            [[field_estimator_small(x, y, uniform1d, sigma) for y in xs] for x in xs]
        )
        i, j = np.unravel_index(np.argmax(G), G.shape)
        assert abs(xs[i] - xs[j]) < sigma
        assert min(abs(xs[i] - s) for s in uniform1d.coords[:, 0]) > 0.05

    def test_large_zero_on_observations(self, uniform1d):
        assert field_estimator_large(0.74, 0.33, uniform1d, 0.4) == 0.0

    def test_large_boundary_effect(self, uniform1d):
        xs = np.linspace(0, 1, 101)
        G = np.array(
            [[field_estimator_large(x, y, uniform1d, 0.4) for y in xs] for x in xs]
        )
        i, j = np.unravel_index(np.argmax(G), G.shape)
        assert min(xs[i], 1 - xs[i]) < 0.2 and min(xs[j], 1 - xs[j]) < 0.2

    def test_large_scale_invariant_argmax(self, nonuniform1d):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, (30, 2))
        for c in (0.5, 2.0):
            for x, y in pts:
                a = field_estimator_large(x, y, nonuniform1d, 0.4)
                b = field_estimator_large(x, y, nonuniform1d, 0.4 * c)
                assert b * (0.4 * c) ** 4 == pytest.approx(a * 0.4**4, rel=1e-12)

    def test_per_query_cost_is_linear_in_r(self, uniform1d, monkeypatch):
        calls = []
        orig = est_mod._dists_to_obs

        def counting(x, S):
            calls.append(len(S))
            return orig(x, S)

        monkeypatch.setattr(est_mod, "_dists_to_obs", counting)
        field_estimator_small(0.31, 0.44, uniform1d, 0.1)
        assert len(calls) == 2 and all(c == uniform1d.n for c in calls)
        calls.clear()
        field_estimator_large(0.31, 0.44, uniform1d, 0.4)
        assert len(calls) == 2
        calls.clear()
        variance_estimator_small(0.31, uniform1d, KernelConfig(sigma=0.1))
        assert len(calls) == 1


class TestAbsoluteField:
    def test_constant_input(self):
        out = absolute_field(np.full(7, 3.0), 0.25)
        np.testing.assert_allclose(out, 0.25)

    def test_max_is_ref(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 5, (20, 20))
        out = absolute_field(vals, 0.7)
        assert out.max() == pytest.approx(0.7, abs=1e-15)

    def test_all_zero(self):
        with pytest.raises(DegenerateDataError):
            absolute_field(np.zeros(4), 1.0)

    @pytest.mark.parametrize("ref_max", [-0.5, np.inf, np.nan])
    def test_rejects_bad_ref_max(self, ref_max):
        with pytest.raises(ValueError, match="ref_max"):
            absolute_field(np.array([0.0, 1.0, 2.0]), ref_max)

    def test_pattern_fidelity_large_sigma(self, uniform1d):
        # top-decile overlap between the calibrated estimator field and the
        # exact field; threshold from the acceptance surrogate
        sigma = 0.4
        grid = unit_grid(101)
        model = fit(uniform1d, KernelConfig(sigma=sigma))
        exact = np.abs(model.cov_matrix(grid, grid))
        near = np.array([dist_metrics(p, uniform1d, sigma).nearest for p in grid.coords])
        cum = np.array([dist_metrics(p, uniform1d, sigma).cumulative for p in grid.coords])
        G = np.outer(near * cum, near * cum)
        field = absolute_field(G, float(exact.max()))
        assert field.max() == pytest.approx(exact.max(), abs=1e-15)
        ntop = int(np.ceil(0.1 * exact.size))
        top_true = set(np.argsort(exact.ravel())[-ntop:])
        top_est = set(np.argsort(field.ravel())[-ntop:])
        assert len(top_true & top_est) / len(top_true | top_est) >= 0.4


class TestVarianceEstimatorSmall:
    def test_zero_on_observations(self, uniform1d):
        cfg = KernelConfig(sigma=0.1)
        for s in uniform1d.coords[:, 0]:
            assert variance_estimator_small(s, uniform1d, cfg) == 0.0

    def test_prior_variance_limit(self, uniform1d):
        cfg = KernelConfig(sigma=0.1, beta=1.8)
        got = variance_estimator_small(0.98 + 10 * cfg.sigma, uniform1d, cfg)
        assert abs(got - cfg.beta) <= 1e-20

    def test_strictly_increasing_in_distance(self, uniform1d):
        cfg = KernelConfig(sigma=0.1)
        xs = 0.98 + np.linspace(0.01, 0.5, 40)
        vals = [variance_estimator_small(x, uniform1d, cfg) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestReferencePoints:
    def test_two_points(self):
        model = fit(PointSet(np.array([[0.0], [1.0]])), KernelConfig(sigma=1.0))
        refs = reference_points_1d(model)
        np.testing.assert_array_equal(refs.points.coords[:, 0], [0.5])

    def test_preset_midpoints(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        refs = reference_points_1d(model)
        np.testing.assert_allclose(refs.points.coords[:, 0], [0.14, 0.38, 0.62, 0.86])

    def test_variances_exact(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.1))
        refs = reference_points_1d(model)
        for p, v in zip(refs.points.coords[:, 0], refs.variances):
            assert v == model.variance(p)

    def test_requires_1d(self):
        model = fit(
            PointSet(np.random.default_rng(4).uniform(0, 1, (5, 2))), KernelConfig(sigma=0.3)
        )
        with pytest.raises(UnsupportedDimensionError):
            reference_points_1d(model)

    def test_repeated_observations(self):
        # tau > 0 admits repeats; no midpoint may land on S (dz = 0 downstream)
        S = PointSet(np.array([[0.1], [0.5], [0.5], [0.9]]))
        model = fit(S, KernelConfig(sigma=0.3, tau=0.1))
        refs = reference_points_1d(model)
        np.testing.assert_array_equal(refs.points.coords[:, 0], [0.3, 0.7])
        for x in np.linspace(0, 1, 41):
            assert np.isfinite(variance_estimator_auto(x, model, refs))
        with pytest.raises(ValueError):
            reference_points_1d(fit(PointSet(np.full((3, 1), 0.5)),
                                    KernelConfig(sigma=0.3, tau=0.1)))


class TestVarianceEstimatorLarge:
    def test_exact_at_reference_points(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.4))
        refs = reference_points_1d(model)
        for p, v in zip(refs.points.coords[:, 0], refs.variances):
            assert variance_estimator_large(p, refs, uniform1d, model.cfg) == v

    def test_zero_on_observations(self, uniform1d):
        model = fit(uniform1d, KernelConfig(sigma=0.4))
        refs = reference_points_1d(model)
        for s in uniform1d.coords[:, 0]:
            assert variance_estimator_large(s, refs, uniform1d, model.cfg) == 0.0

    def test_two_point_oracle(self):
        S = PointSet(np.array([[0.0], [1.0]]))
        cfg = KernelConfig(sigma=1.0)
        model = fit(S, cfg)
        refs = reference_points_1d(model)
        v_half = dense_posterior_oracle(
            S, PointSet(np.array([[0.5]])), PointSet(np.array([[0.5]])), cfg
        )[0, 0]
        got = variance_estimator_large(0.25, refs, S, cfg)
        assert got == pytest.approx(0.5 * v_half, abs=1e-12)


class TestVarianceEstimatorAuto:
    def test_dispatch_wide_gap(self):
        sigma = 0.05
        S = PointSet(np.array([[0.0], [10 * sigma]]))
        model = fit(S, KernelConfig(sigma=sigma))
        x = 3 * sigma
        assert variance_estimator_auto(x, model) == variance_estimator_small(
            x, S, model.cfg
        )

    def test_dispatch_narrow_gap(self):
        sigma = 0.05
        S = PointSet(np.array([[0.0], [sigma]]))
        model = fit(S, KernelConfig(sigma=sigma))
        refs = reference_points_1d(model)
        x = 0.4 * sigma
        assert variance_estimator_auto(x, model, refs) == variance_estimator_large(
            x, refs, S, model.cfg
        )

    def test_gp_demo_zero_std_at_observations(self):
        rng = np.random.default_rng(3)
        sx = np.sort(rng.uniform(0, 1, 15))
        model = fit(
            PointSet(sx[:, None]),
            KernelConfig(sigma=0.06332725946674625, beta=0.9453058162554949),
        )
        refs = reference_points_1d(model)
        for s in sx:
            assert np.sqrt(variance_estimator_auto(s, model, refs)) == 0.0
