"""Provable envelopes of the posterior covariance field.

Two regimes, each with computable bounds built from three geometric
quantities: the scaled pair distance rho = dist(x,y)/(sqrt(2) sigma), the
scaled distances-to-observations rho_hat = dist(.,S)/(sqrt(2) sigma), and the
cross-weight norms ||w(.)||_2 from the posterior model.

With tau = 0 the sandwich

    lower_bound_small <= |R(x, y)| <= min(upper_bound_small, upper_bound_large)

holds for every pair (small-bandwidth bounds use only the triangle
inequality; the large-bandwidth bound additionally uses the vanishing of R
on the observation set, which requires tau = 0 and no jitter).  All terms
scale linearly with beta, so beta = 1 recovers the plain expressions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import PointSet, as_point
from .kernel import _pair_kernel, kernel_matrix
from .posterior import PosteriorModel

CURVE_KINDS = ("upper", "lower", "distance")
_KIND_CONDITION = {"upper": 1, "lower": 2, "distance": 3}


def _sq(t: float) -> float:
    return t * t


def _branch_terms(model: PosteriorModel, x, y) -> tuple[float, float]:
    """kernel(x, y) and the correction beta * sqrt(r) * min over the two
    symmetric branches of exp(-rho_hat^2) * ||w(other point)||_2."""
    s2 = math.sqrt(2.0) * model.cfg.sigma
    px, tx = model._point(x)
    py, ty = model._point(y)
    branch_x = math.exp(-_sq(tx.dist / s2)) * ty.wnorm   # rho_hat from x, weights at y
    branch_y = math.exp(-_sq(ty.dist / s2)) * tx.wnorm
    correction = model.cfg.beta * math.sqrt(model.r) * min(branch_x, branch_y)
    return _pair_kernel(px, py, model.cfg), correction


def upper_bound_small(model: PosteriorModel, x, y) -> float:
    """Small-bandwidth upper bound: kernel(x,y) + correction term."""
    k, correction = _branch_terms(model, x, y)
    return k + correction


def lower_bound_small(model: PosteriorModel, x, y) -> float:
    """Small-bandwidth lower bound on |R(x,y)|: kernel(x,y) - correction.

    May be negative (vacuous); returned raw so the inequality can be checked
    literally.
    """
    k, correction = _branch_terms(model, x, y)
    return k - correction


def variance_lower_bound(model: PosteriorModel, x, max_weight_norm: float) -> float:
    """Lower bound beta * (1 - exp(-rho_hat^2) sqrt(r) * max_weight_norm) on
    the posterior variance; positive only for points far from S."""
    if not 1 <= max_weight_norm < math.inf:   # inf * exp(-rho^2) can be NaN
        raise ValueError("max_weight_norm is >= 1 by definition")
    s2 = math.sqrt(2.0) * model.cfg.sigma
    rho_hat = model._point(x)[1].dist / s2
    return model.cfg.beta * (
        1.0 - math.exp(-_sq(rho_hat)) * math.sqrt(model.r) * max_weight_norm
    )


def upper_bound_large(model: PosteriorModel, x, y) -> float:
    """Large-bandwidth (Lipschitz) upper bound; vanishes on S, valid for any
    bandwidth at tau = 0, informative when sigma is large."""
    cfg = model.cfg
    se = cfg.sigma * math.sqrt(math.e)
    sr = math.sqrt(model.r)
    tx = model._point(x)[1]
    ty = model._point(y)[1]
    return cfg.beta * min((1.0 + sr * ty.wnorm) * tx.dist / se,
                          (1.0 + sr * tx.wnorm) * ty.dist / se)


def estimate_curve(
    model: PosteriorModel,
    y_star,
    grid: PointSet,
    kind: str,
    condition: int | None = None,
) -> np.ndarray:
    """One of the three pattern curves along x for fixed y*, rescaled so its
    largest magnitude over the condition region equals the maximum of
    |R(x, y*)| there (for a curve evaluated in its own condition the largest
    magnitude is its maximum, so the rescaled maximum matches max |R|
    exactly).

    kind:
        "upper"    kernel(x, y*) plus the constant weight-norm tail,
        "lower"    kernel(x, y*) minus the same tail,
        "distance" dist(x, S).

    condition selects the region the curve is rescaled (and reported) over:
    1 -> dist(x, y*) > 3 sigma, 2 -> dist(x, y*) < 3 sigma, 3 -> everywhere.
    It defaults to the curve's own regime (upper -> 1, lower -> 2,
    distance -> 3).  Entries outside the region are NaN.
    """
    if kind not in CURVE_KINDS:
        raise ValueError(f"kind must be one of {CURVE_KINDS}")
    condition = _KIND_CONDITION[kind] if condition is None else condition
    if condition not in (1, 2, 3):
        raise ValueError("condition must be 1, 2 or 3")

    ys = as_point(y_star, grid.d)
    cfg = model.cfg
    dist_to_ystar = np.linalg.norm(grid.coords - ys, axis=1)
    if condition == 1:
        mask = dist_to_ystar > 3.0 * cfg.sigma
    elif condition == 2:
        mask = dist_to_ystar < 3.0 * cfg.sigma
    else:
        mask = np.ones(grid.n, dtype=bool)
    if not mask.any():
        raise ValueError("condition region contains no grid points")

    if kind == "distance":
        # the distances dist_to_set takes the min of, one grid point per row
        curve = cdist(grid.coords, model.S.coords).min(axis=1)
    else:
        kern = kernel_matrix(grid, PointSet(ys[None, :]), cfg)[:, 0]
        ty = model._point(ys)[1]
        rho_hat = ty.dist / (math.sqrt(2.0) * cfg.sigma)
        tail = cfg.beta * math.sqrt(model.r) * math.exp(-_sq(rho_hat)) * ty.wnorm
        curve = kern + tail if kind == "upper" else kern - tail

    exact = np.abs(model.cov_matrix(grid, PointSet(ys[None, :]))[:, 0])
    curve_max = float(np.abs(curve[mask]).max())
    if curve_max == 0.0:
        raise ValueError("curve vanishes on the region; nothing to rescale")
    out = curve * (exact[mask].max() / curve_max)
    out[~mask] = np.nan
    return out
