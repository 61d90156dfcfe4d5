"""Cheap geometric estimators of the posterior covariance field.

Every estimator here costs O(r) kernel/distance evaluations per query for r
observation points - no linear solves - and only *calibration* (reference
variances, field maxima) touches the exact posterior model.

Small- vs large-bandwidth regimes get different estimators; the documented
cut between them is sigma = 0.3 (in units where the observations live in
[0, 1]) for fields, and a gap width of 2 sigma for the automatic variance
dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DegenerateDataError, UnsupportedDimensionError
from .geometry import PointSet, _distances, as_point, dist_to_set
from .kernel import KernelConfig, _check_sigma, kernel_matrix
from .posterior import PosteriorModel

FIELD_REGIME_CUT = 0.3


class DistMetrics(NamedTuple):
    nearest: float      # dist(x, S) / sigma
    cumulative: float   # sqrt(sum_i ||x - s_i||^2) / sigma


def dist_metrics(x, S: PointSet, sigma: float) -> DistMetrics:
    """Nearest-point and cumulative distance of x to S, in units of sigma."""
    _check_sigma(sigma)
    rec = _distances(x, S)
    return DistMetrics(rec.nearest / sigma, float(np.sqrt(np.add.reduce(rec.d * rec.d))) / sigma)


def field_estimator_small(x, y, S: PointSet, sigma: float) -> float:
    """Relative field estimator for the small-bandwidth regime:
    sqrt(nearest(x) * nearest(y)) * exp(-||x-y||^2 / (2 sigma^2))."""
    _check_sigma(sigma)
    rx, ry = _distances(x, S), _distances(y, S)
    hx = rx.nearest / sigma
    hy = ry.nearest / sigma
    t = rx.p - ry.p
    sq = float(np.add.reduce(t * t))
    return math.sqrt(hx * hy) * math.exp(-sq / (2.0 * sigma**2))


def field_estimator_large(x, y, S: PointSet, sigma: float) -> float:
    """Relative field estimator for the large-bandwidth regime:
    nearest(x) * nearest(y) * cumulative(x) * cumulative(y).

    Kernel-free: for large sigma the kernel varies too slowly to locate the
    dominant entries, while the cumulative metric picks up the boundary
    effect.
    """
    mx = dist_metrics(x, S, sigma)
    my = dist_metrics(y, S, sigma)
    return mx.nearest * my.nearest * mx.cumulative * my.cumulative


def estimator_field(X: PointSet, S: PointSet, sigma: float) -> np.ndarray:
    """Relative field estimator on every pair of points of X: the
    small-bandwidth form for sigma < ``FIELD_REGIME_CUT``, the large one
    otherwise.  The grid form of ``field_estimator_small``/``_large``; its
    products are taken in another order, so the last bits may differ."""
    _check_sigma(sigma)
    D = cdist(X.coords, S.coords)
    near = D.min(axis=1) / sigma
    if sigma < FIELD_REGIME_CUT:
        return np.sqrt(np.outer(near, near)) * kernel_matrix(X, X, KernelConfig(sigma=sigma))
    h = near * (np.sqrt(np.add.reduce(D * D, axis=1)) / sigma)
    return np.outer(h, h)


def absolute_field(values: np.ndarray, ref_max: float) -> np.ndarray:
    """Rescale a relative-estimator field so its maximum equals ``ref_max``
    (typically the exact or estimated maximum of |R|)."""
    if not 0 <= ref_max < math.inf:   # inf would scale the zeros to NaN
        raise ValueError("ref_max must be nonnegative")
    v = np.asarray(values, dtype=float)
    vmax = v.max()
    if vmax <= 0:
        raise DegenerateDataError("estimator field is identically zero")
    return v * (ref_max / vmax)


def variance_estimator_small(x, S: PointSet, cfg: KernelConfig) -> float:
    """beta * (1 - exp(-dist(x,S)^2 / (2 sigma^2))): exact on S, tends to the
    prior variance beta far from S.  Small-bandwidth regime."""
    nu = dist_to_set(x, S)[0]
    return cfg.beta * (1.0 - math.exp(-(nu**2) / (2.0 * cfg.sigma**2)))


@dataclass(frozen=True, eq=False)
class ReferencePointSet:
    """Off-observation points with their exact posterior variances attached."""

    points: PointSet
    variances: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.points.n != len(self.variances):
            raise ValueError("one variance per reference point required")
        if not np.all(np.isfinite(self.variances)):
            raise ValueError("reference variances must be finite")


def reference_points_1d(model: PosteriorModel) -> ReferencePointSet:
    """Midpoints between adjacent distinct sorted observations, with exact
    variances.  Repeated observations (allowed when tau > 0) count once, so
    no midpoint lies on S.

    1-d only; there is no canonical gap-filling recipe for d > 1.
    """
    if model.S.d != 1:
        raise UnsupportedDimensionError("reference points are defined for d = 1 only")
    s = np.unique(model.S.coords[:, 0])
    if s.size < 2:
        raise ValueError("need at least two distinct observations")
    mids = 0.5 * (s[:-1] + s[1:])
    variances = np.array([model.variance(m) for m in mids])
    return ReferencePointSet(PointSet(mids[:, None]), variances)


def variance_estimator_large(x, refs: ReferencePointSet, S: PointSet, cfg: KernelConfig) -> float:
    """Large-bandwidth variance estimate: scale the exact variance at the
    nearest reference point by the ratio of distances to S."""
    if refs.points.n < 1:
        raise ValueError("reference set is empty")
    iz = dist_to_set(x, refs.points)[1]
    dx = dist_to_set(x, S)[0]
    dz = dist_to_set(refs.points.coords[iz], S)[0]
    if dz == 0.0:
        raise DegenerateDataError(f"reference point {iz} lies on the observation set")
    return (dx / dz) * float(refs.variances[iz])


def variance_estimator_auto(x, model: PosteriorModel, refs: ReferencePointSet) -> float:
    """Dispatch between the two variance estimators by local data spacing.

    The query's gap is the interval between its two flanking sorted
    observations (boundary queries use twice the distance to the single
    flanking observation).  Gaps wider than 2 sigma use the small-bandwidth
    estimator, narrower ones the reference-point estimator on ``refs``.
    """
    if model.S.d != 1:
        raise UnsupportedDimensionError("automatic dispatch is defined for d = 1 only")
    p = as_point(x, 1)
    s = model._sorted_obs
    k = int(np.searchsorted(s, p[0]))
    if k == 0:
        gap = 2.0 * (s[0] - p[0])
    elif k == len(s):
        gap = 2.0 * (p[0] - s[-1])
    else:
        gap = s[k] - s[k - 1]
    if gap > 2.0 * model.cfg.sigma:
        return variance_estimator_small(p, model.S, model.cfg)
    return variance_estimator_large(p, refs, model.S, model.cfg)
