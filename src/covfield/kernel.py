"""Gaussian covariance kernel: pointwise evaluation, matrix assembly, and the
gradient (Lipschitz) bound.

The kernel is ``beta * exp(-||u - v||^2 / (2 sigma^2))`` with bandwidth
``sigma``, prior variance ``beta`` (default 1) and observation-noise level
``tau`` (default 0; enters linear systems as ``tau^2 I``, never the kernel
values themselves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointSet, _sq_dists, as_point


@dataclass(frozen=True)
class KernelConfig:
    sigma: float
    beta: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        _check_sigma(self.sigma)
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be nonnegative and finite, got {self.tau}")


def _check_sigma(sigma: float) -> None:
    if not 0 < sigma < math.inf:   # chained comparisons, so NaN fails too
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def kernel_eval(u, v, cfg: KernelConfig) -> float:
    """beta * exp(-||u-v||^2 / (2 sigma^2)) for two points of equal dimension."""
    pu = as_point(u)
    return _pair_kernel(pu, as_point(v, pu.shape[0]), cfg)


def _pair_kernel(pu: np.ndarray, pv: np.ndarray, cfg: KernelConfig) -> float:
    """``kernel_eval`` for two coerced points of equal dimension."""
    t = pu - pv
    sq = float(np.add.reduce(t * t))
    return cfg.beta * math.exp(-sq / (2.0 * cfg.sigma**2))


def _kernel_row(sq: np.ndarray, cfg: KernelConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Kernel values beta * exp(-sq / (2 sigma^2)) for the squared distances
    ``sq``, value for value, into ``out`` (a new array by default; ``sq``
    itself for in place).  For the squared distances from one point to the
    rows of an array, as ``geometry.sq_dists`` forms them, the row equals
    the matching column of ``kernel_matrix`` bit for bit."""
    out = np.negative(sq, out=out)
    out /= 2.0 * cfg.sigma**2
    np.exp(out, out=out)
    out *= cfg.beta
    return out


def kernel_matrix(U: PointSet, V: PointSet, cfg: KernelConfig) -> np.ndarray:
    """Dense |U| x |V| kernel matrix.

    Squared distances are formed per entry from coordinate differences (no
    norm expansion), so the diagonal of ``kernel_matrix(X, X, cfg)`` is exactly
    ``beta`` and the matrix is exactly symmetric; for U is V each pair is
    formed once (``geometry._sq_dists``).
    """
    if U.d != V.d:
        raise ValueError(f"dimension mismatch: {U.d} vs {V.d}")
    sq = _sq_dists(U.coords, V.coords)
    return _kernel_row(sq, cfg, out=sq)


def lipschitz_bound(cfg: KernelConfig) -> float:
    """Upper bound beta / (sigma * sqrt(e)) on ||grad kernel|| in one argument."""
    return cfg.beta / (cfg.sigma * math.sqrt(math.e))
