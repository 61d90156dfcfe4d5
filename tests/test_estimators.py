import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import covfield.geometry as geo_mod
from covfield import (
    DegenerateDataError,
    KernelConfig,
    PointSet,
    UnsupportedDimensionError,
    absolute_field,
    dist_metrics,
    estimator_field,
    field_estimator_large,
    field_estimator_small,
    fit,
    kernel_matrix,
    reference_points_1d,
    variance_estimator_auto,
    variance_estimator_large,
    variance_estimator_small,
)
from covfield.estimators import FIELD_REGIME_CUT, ReferencePointSet

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
        # a new point costs one O(r) pass per point set, a repeated one none
        calls = []
        orig = geo_mod.sq_dists

        def counting(p, C):
            calls.append(len(C))
            return orig(p, C)

        # every distance to a point set is taken by geometry's distance record
        monkeypatch.setattr(geo_mod, "sq_dists", counting)
        cfg = KernelConfig(sigma=0.1)
        field_estimator_small(0.31, 0.44, uniform1d, 0.1)
        assert calls == [uniform1d.n] * 2
        calls.clear()
        field_estimator_large(0.31, 0.44, uniform1d, 0.4)
        variance_estimator_small(0.31, uniform1d, cfg)
        assert calls == []
        field_estimator_large(0.32, 0.45, uniform1d, 0.4)
        assert calls == [uniform1d.n] * 2
        calls.clear()
        variance_estimator_small(0.33, uniform1d, cfg)
        assert calls == [uniform1d.n]
        calls.clear()
        # x against the reference set, then its nearest reference point 0.1 against S
        refs = ReferencePointSet(PointSet(np.array([[0.1], [0.6], [0.9]])), np.ones(3))
        variance_estimator_large(0.33, refs, uniform1d, cfg)
        assert calls == [refs.points.n, uniform1d.n]

    @pytest.mark.parametrize("sigma", [0.0, -0.1, -1.0, math.nan, math.inf])
    def test_sigma_must_be_positive_and_finite(self, uniform1d, sigma):
        calls = [
            lambda: dist_metrics(0.3, uniform1d, sigma),
            lambda: field_estimator_small(0.3, 0.4, uniform1d, sigma),
            lambda: field_estimator_large(0.3, 0.4, uniform1d, sigma),
            lambda: estimator_field(unit_grid(5), uniform1d, sigma),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                call()


class TestEstimatorField:
    @staticmethod
    def per_point(X, S, sigma):
        """The grid field from one ``dist_metrics`` formula per point of X."""
        near, cum = [], []
        for p in X.coords:
            d = np.sqrt(cdist(p[None, :], S.coords, "sqeuclidean")[0])
            near.append(float(d.min()) / sigma)
            cum.append(float(np.sqrt(np.add.reduce(d * d))) / sigma)
        near = np.array(near)
        if sigma < FIELD_REGIME_CUT:
            return np.sqrt(np.outer(near, near)) * kernel_matrix(X, X, KernelConfig(sigma=sigma))
        h = near * np.array(cum)
        return np.outer(h, h)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("sigma", [0.1, 0.4])   # one per regime
    def test_bitwise_equal_to_per_point_form(self, d, sigma):
        rng = np.random.default_rng(d)
        S = PointSet(rng.uniform(0.0, 1.0, (9, d)))
        X = PointSet(np.vstack([rng.uniform(0.0, 1.0, (40, d)), S.coords[::2]]))
        got = estimator_field(X, S, sigma)
        assert got.tobytes() == self.per_point(X, S, sigma).tobytes()

    @pytest.mark.parametrize("sigma", [0.05, 0.25, 0.6])
    def test_bitwise_equal_on_the_presets(self, uniform1d, nonuniform1d, sigma):
        for S in (uniform1d, nonuniform1d):
            X = unit_grid(101)
            got = estimator_field(X, S, sigma)
            assert got.tobytes() == self.per_point(X, S, sigma).tobytes()


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

    def test_reference_point_on_observations_raises(self, uniform1d):
        refs = ReferencePointSet(PointSet(np.array([[0.1], [0.26]])), np.array([0.2, 0.3]))
        with pytest.raises(DegenerateDataError, match="reference point 1 "):
            variance_estimator_large(0.3, refs, uniform1d, KernelConfig(sigma=0.4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_reference_variances_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ReferencePointSet(PointSet(np.array([[0.1], [0.5]])), np.array([0.2, bad]))


class TestVarianceEstimatorAuto:
    def test_dispatch_wide_gap(self):
        sigma = 0.05
        S = PointSet(np.array([[0.0], [10 * sigma]]))
        model = fit(S, KernelConfig(sigma=sigma))
        x = 3 * sigma
        refs = reference_points_1d(model)
        assert variance_estimator_auto(x, model, refs) == variance_estimator_small(
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

    def test_refs_required(self):
        model = fit(PointSet(np.array([[0.0], [0.5]])), KernelConfig(sigma=0.05))
        with pytest.raises(TypeError):
            variance_estimator_auto(0.25, model)

    def test_sorts_observations_once_per_model(self, monkeypatch):
        sx = np.random.default_rng(4).uniform(0, 1, 12)
        model = fit(PointSet(sx[:, None]), KernelConfig(sigma=0.04))
        refs = reference_points_1d(model)
        xs = np.linspace(-0.1, 1.1, 100)
        want = [variance_estimator_auto(x, fit(model.S, model.cfg), refs) for x in xs]
        calls = []
        orig_sort = np.sort
        monkeypatch.setattr(np, "sort", lambda *a, **k: calls.append(1) or orig_sort(*a, **k))
        got = [variance_estimator_auto(x, model, refs) for x in xs]
        assert len(calls) == 1
        assert got == want   # the cached order gives the same values, bit for bit

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
