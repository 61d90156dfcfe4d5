"""One squared-distance primitive behind every distance to a point set.

``geometry.sq_dists`` accumulates coordinate columns in ``cdist``'s order.
For d <= 7 numpy reduces a row's squares in the same sequence, so every
pointwise quantity below must equal its former numpy formula bit for bit;
those formulas are written out here.
"""

import math

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrs
from scipy.spatial.distance import cdist

from covfield import (
    KernelConfig,
    PointSet,
    dist_metrics,
    dist_to_set,
    field_estimator_large,
    field_estimator_small,
    fit,
    geometry,
    lower_bound_small,
    posterior,
    upper_bound_large,
    upper_bound_small,
    variance_estimator_large,
    variance_estimator_small,
)
from covfield.estimators import ReferencePointSet

from conftest import memo_pairs


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def cloud(d: int, n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0, (n, d))


def old_dists(p, C):
    """The row distances of ``np.linalg.norm(C - p, axis=1)``."""
    t = C - p
    return np.sqrt(np.add.reduce(t * t, axis=1))


def old_pair_kernel(px, py, cfg):
    t = px - py
    return cfg.beta * math.exp(-float(np.add.reduce(t * t)) / (2.0 * cfg.sigma**2))


def old_terms(model, p):
    """Kernel row, cross weights, dist(p, S) and ||w||_2 of one point."""
    S, cfg = model.S, model.cfg
    k = cfg.beta * np.exp(-cdist(S.coords, p[None, :], "sqeuclidean")[:, 0]
                          / (2.0 * cfg.sigma**2))
    on = np.flatnonzero((S.coords == p).all(axis=1)) if model._exact_at_obs else []
    if len(on):
        w = np.eye(model.r)[on[0]]
    else:
        w = dpotrs(model.chol, k, lower=1)[0]
    return k, w, float(old_dists(p, S.coords).min()), float(np.linalg.norm(w))


class TestSqDists:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    def test_bitwise_equal_to_cdist(self, d):
        C = cloud(d, 40, d)
        for p in cloud(d, 30, 100 + d):
            want = cdist(p[None, :], C, "sqeuclidean")[0]
            assert bits(geometry.sq_dists(p, C)) == bits(want)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
    def test_dist_to_set_equals_old_formula(self, d):
        S = PointSet(cloud(d, 12, d))
        points = np.vstack([cloud(d, 40, 50 + d), S.coords, S.coords[:2]])
        for p in points:
            dists = old_dists(p, S.coords)
            i = int(dists.argmin())
            value, idx = dist_to_set(p, S)
            assert (bits(value), idx) == (bits(dists[i]), i)

    def test_dist_to_set_is_cdist_at_d8(self):
        S = PointSet(cloud(8, 50, 8))
        for p in cloud(8, 200, 9):
            value, idx = dist_to_set(p, S)
            row = cdist(p[None, :], S.coords)[0]
            assert bits(value) == bits(row.min()) and idx == int(row.argmin())

    def test_ties_break_on_the_rooted_distances(self):
        # the second squared distance is one ulp below the first, but both
        # round to one square root: the tie goes to the lower index
        S = PointSet(np.array([[0.6732655185893088, 0.3428080423874833],
                               [0.13277881914895576, 0.7437564101453367]]))
        sq = geometry.sq_dists(np.zeros(2), S.coords)
        assert sq[1] < sq[0] and math.sqrt(sq[1]) == math.sqrt(sq[0])
        assert dist_to_set((0.0, 0.0), S) == (math.sqrt(sq[0]), 0)


@pytest.mark.parametrize("d", [1, 2, 5, 7])
class TestOldFormulas:
    def test_dist_metrics(self, d):
        S, sigma = PointSet(cloud(d, 9, d)), 0.3
        for p in np.vstack([cloud(d, 30, 20 + d), S.coords]):
            dists = old_dists(p, S.coords)
            want = (float(dists.min()) / sigma,
                    float(np.sqrt(np.add.reduce(dists * dists))) / sigma)
            assert bits(dist_metrics(p, S, sigma)) == bits(want)

    def test_estimators(self, d):
        S, sigma = PointSet(cloud(d, 9, d)), 0.3
        cfg = KernelConfig(sigma=sigma, beta=1.3)
        refs = ReferencePointSet(PointSet(cloud(d, 5, 70 + d)), np.linspace(0.1, 0.5, 5))
        pts = np.vstack([cloud(d, 20, 30 + d), S.coords[:3]])
        for x, y in zip(pts, pts[::-1]):
            hx = float(old_dists(x, S.coords).min())
            hy = float(old_dists(y, S.coords).min())
            t = x - y
            small = (math.sqrt(hx / sigma * (hy / sigma))
                     * math.exp(-float(np.add.reduce(t * t)) / (2.0 * sigma**2)))
            assert bits(field_estimator_small(x, y, S, sigma)) == bits(small)
            dxs, dys = old_dists(x, S.coords), old_dists(y, S.coords)
            cx = float(np.sqrt(np.add.reduce(dxs * dxs))) / sigma
            cy = float(np.sqrt(np.add.reduce(dys * dys))) / sigma
            large = hx / sigma * (hy / sigma) * cx * cy
            assert bits(field_estimator_large(x, y, S, sigma)) == bits(large)
            var_small = cfg.beta * (1.0 - math.exp(-(hx**2) / (2.0 * sigma**2)))
            assert bits(variance_estimator_small(x, S, cfg)) == bits(var_small)
            iz = int(np.argmin(np.linalg.norm(refs.points.coords - x, axis=1)))
            dz = float(old_dists(refs.points.coords[iz], S.coords).min())
            var_large = (hx / dz) * float(refs.variances[iz])
            assert bits(variance_estimator_large(x, refs, S, cfg)) == bits(var_large)

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_cov_and_bounds(self, d, tau):
        S = PointSet(cloud(d, 6, d))
        model = fit(S, KernelConfig(sigma=0.3, beta=1.3, tau=tau))
        cfg, sr = model.cfg, math.sqrt(model.r)
        s2, se = math.sqrt(2.0) * cfg.sigma, cfg.sigma * math.sqrt(math.e)
        for x, y in memo_pairs(S, seed=40 + d):
            (kx, wx, dx, nx), (ky, wy, dy, ny) = old_terms(model, x), old_terms(model, y)
            hi, lo, k_hi, w_lo = (y, x, ky, wx) if tuple(y) > tuple(x) else (x, y, kx, wy)
            assert bits(model.cov(x, y)) == bits(
                old_pair_kernel(hi, lo, cfg) - float(k_hi @ w_lo))
            k = old_pair_kernel(x, y, cfg)
            corr = cfg.beta * sr * min(math.exp(-((dx / s2) ** 2)) * ny,
                                       math.exp(-((dy / s2) ** 2)) * nx)
            assert bits(upper_bound_small(model, x, y)) == bits(k + corr)
            assert bits(lower_bound_small(model, x, y)) == bits(k - corr)
            assert bits(upper_bound_large(model, x, y)) == bits(cfg.beta * min(
                (1.0 + sr * ny) * dx / se, (1.0 + sr * nx) * dy / se))


class TestOnePassPerMiss:
    def test_one_sq_dists_call_per_miss(self, nonuniform1d, monkeypatch):
        sq_dists = geometry.sq_dists
        calls = []

        def counting(p, C):
            calls.append(1)
            return sq_dists(p, C)

        # every pass over S is made by geometry's distance record
        monkeypatch.setattr(geometry, "sq_dists", counting)
        model = fit(nonuniform1d, KernelConfig(sigma=0.1))
        x, y = 0.31, 0.47    # neither is on S
        model._point(x)
        assert len(calls) == 1
        model._point(x)      # a hit
        assert len(calls) == 1
        model.cov(x, y)
        upper_bound_small(model, x, y)
        lower_bound_small(model, x, y)
        upper_bound_large(model, x, y)
        model.variance(y)
        assert len(calls) == 2
        model._point(0.12)   # an observation point is a miss like any other
        assert len(calls) == 3


def _record_results(S, refs, model, x, y):
    """Everything read from S's distance records of x and y (and of the
    nearest reference point), as one flat tuple."""
    cfg = model.cfg
    return (*dist_to_set(x, S), *dist_to_set(y, S), *dist_metrics(x, S, cfg.sigma),
            field_estimator_small(x, y, S, cfg.sigma), field_estimator_large(x, y, S, cfg.sigma),
            variance_estimator_small(x, S, cfg), variance_estimator_large(x, refs, S, cfg),
            model.cov(x, y), upper_bound_small(model, x, y), upper_bound_large(model, x, y))


class TestDistanceRecord:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_warm_record_bitwise_equal_to_fresh_point_set(self, d):
        S = PointSet(cloud(d, 6, d))
        cfg = KernelConfig(sigma=0.3, beta=1.3)
        refs = ReferencePointSet(PointSet(cloud(d, 4, 60 + d)), np.linspace(0.1, 0.4, 4))
        model = fit(S, cfg)
        for x, y in memo_pairs(S, seed=50 + d):
            fresh = PointSet(S.coords)
            want = _record_results(fresh, ReferencePointSet(PointSet(refs.points.coords),
                                                             refs.variances),
                                   fit(fresh, cfg), x, y)
            for _ in range(2):   # the second round reads every record warm
                assert bits(_record_results(S, refs, model, x, y)) == bits(want)

    def test_memo_stays_bounded(self, uniform1d):
        for x in np.linspace(-0.5, 1.5, 1000):
            dist_to_set(x, uniform1d)
            assert len(uniform1d._memo) <= geometry._MEMO_SIZE
        assert len(uniform1d._memo) > 0

    def test_equality_and_repr_ignore_the_memo(self):
        S, T = PointSet([[0.5]]), PointSet([[0.5]])
        dist_to_set(0.1, S)
        assert len(S._memo) == 1 and len(T._memo) == 0
        assert S == T and repr(S) == repr(T) == "PointSet(n=1, d=1)"

    def test_record_holds_its_own_copy_of_the_point(self, uniform1d):
        x = np.array([0.31])
        want = dist_to_set(x, uniform1d)
        rec = geometry._distances(x, uniform1d)
        x[0] = 0.9   # the caller reuses its array
        assert rec.p.tolist() == [0.31] and not rec.p.flags.writeable
        assert dist_to_set(0.31, uniform1d) == want
        assert len(uniform1d._memo) == 1   # a float shares its point's record
        assert geometry._distances(-0.0, uniform1d).key == np.array([-0.0]).tobytes()
        with pytest.raises(ValueError, match="coordinates must be finite"):
            geometry._distances(math.nan, uniform1d)
        assert len(uniform1d._memo) == 2   # no record for the NaN point

    def test_ties_found_by_seeded_search(self):
        # a point p with two observations equally far away in exact arithmetic:
        # their squared distances round apart, their square roots together
        for seed in range(1000):
            p, s1 = np.random.default_rng(seed).uniform(0.0, 1.0, (2, 2))
            S = PointSet(np.array([2.0 * p - s1, s1]))
            sq = geometry.sq_dists(p, S.coords)
            if sq[1] < sq[0] and math.sqrt(sq[1]) == math.sqrt(sq[0]):
                break
        else:
            pytest.fail("no tie in 1000 seeds")
        want = (math.sqrt(sq[0]), 0)   # the lower index, as the rooted argmin gives it
        assert dist_to_set(p, S) == want
        assert dist_to_set(p, S) == want   # read from the record
        assert dist_to_set(p, PointSet(S.coords)) == want
