"""Exact conditioning on an observation set.

``fit`` factors ``K_SS + tau^2 I`` once (Cholesky, with an escalating jitter
ladder for numerically singular cases); the returned model evaluates the
posterior mean, the posterior covariance field

    R(x, y) = kernel(x, y) - K_xS (K_SS + tau^2 I)^{-1} K_Sy,

the posterior variance R(x, x), and the grid supremum of the cross-weight
norm ||(K_SS + tau^2 I)^{-1} K_Sy||_p.

With tau = 0 and no jitter, a point at squared distance 0 from an observation
takes that observation's basis vector as its cross weights, so R vanishes on S.

Every result is a pure function of the model and the query.  The only
mutable state is a bounded memo of per-point terms (kernel row, cross
weights, distance to S, weight norm), so the bounds and ``cov`` at one pair
evaluate each point once, and the sorted first coordinates of S, cached on
first use by the 1-d variance dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrs

from .errors import IllConditionedKernelError, NumericalConsistencyError
from .geometry import _MEMO_SIZE, PointSet, _distances, _sq_dists
from .kernel import KernelConfig, _kernel_row, _pair_kernel, kernel_matrix

JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)


def jittered_cholesky(A: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``A + j*scale*I`` for the smallest ladder
    jitter ``j`` that succeeds.  Returns ``(L, j*scale)``."""
    n = A.shape[0]
    for j in JITTER_LADDER:
        try:
            L = np.linalg.cholesky(A if j == 0.0 else A + (j * scale) * np.eye(n))
            return L, j * scale
        except np.linalg.LinAlgError:
            continue
    raise IllConditionedKernelError(
        f"Cholesky failed for a {n} x {n} kernel block even with jitter "
        f"{JITTER_LADDER[-1] * scale:g}"
    )


class PointTerms(NamedTuple):
    """What the pointwise evaluators need of one point p."""

    k: np.ndarray    # kernel row k_S(p)
    w: np.ndarray    # cross weights (K_SS + (tau^2 + jitter) I)^{-1} k_S(p)
    dist: float      # dist(p, S)
    wnorm: float     # ||w||_2, as sqrt(w @ w) (what np.linalg.norm evaluates)


@dataclass(frozen=True, eq=False)
class PosteriorModel:
    """A factored observation set; one built directly from its public fields
    evaluates exactly as the one ``fit`` returns."""

    S: PointSet
    cfg: KernelConfig
    chol: np.ndarray = field(repr=False)          # lower factor of K_SS + (tau^2 + jitter) I
    jitter_used: float = 0.0
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    @property
    def r(self) -> int:
        return self.S.n

    @cached_property
    def _sorted_obs(self) -> np.ndarray:   # S's first coordinates, sorted once
        return np.sort(self.S.coords[:, 0])

    @property
    def _exact_at_obs(self) -> bool:
        # tau = 0, no jitter: the weights at a point of S are exactly its basis vector
        return self.cfg.tau == 0.0 and self.jitter_used == 0.0

    def _point(self, x) -> tuple[np.ndarray, PointTerms]:
        """The coerced point p and its ``PointTerms``, memoized on p's bytes.

        The kernel row and dist(p, S) come from S's ``_distances`` record.
        A full memo is cleared before the next insertion.  Each dict
        operation on the memo is atomic and an entry is never changed after
        insertion, so concurrent callers can only miss, never read another
        point's terms; threads that insert at the same moment may each add
        one entry past ``_MEMO_SIZE`` before the next clear.
        """
        rec = _distances(x, self.S)
        terms = self._memo.get(rec.key)
        if terms is not None:
            return rec.p, terms
        k = _kernel_row(rec.sq, self.cfg)
        if rec.nearest == 0.0 and self._exact_at_obs:
            w = (rec.sq == 0.0) * 1.0
        else:
            # dpotrs is the LAPACK solve behind cho_solve, minus its per-call checks
            w, info = dpotrs(self.chol, k, lower=1)
            if info != 0:
                raise NumericalConsistencyError(f"dpotrs failed with info = {info}")
        terms = PointTerms(k, w, rec.nearest, math.sqrt(float(w @ w)))
        if len(self._memo) >= _MEMO_SIZE:
            self._memo.clear()
        self._memo[rec.key] = terms
        return rec.p, terms

    def cross_weights(self, y) -> np.ndarray:
        """Solve (K_SS + (tau^2 + jitter) I) w = K_Sy; a copy of the memo's w."""
        return self._point(y)[1].w.copy()

    def cov(self, x, y) -> float:
        """Posterior covariance R(x, y).

        Evaluated with the lexicographically smaller argument in the
        cross-weight slot, so cov(x, y) and cov(y, x) are bit-identical.
        """
        px, tx = self._point(x)
        py, ty = self._point(y)
        if py.tolist() > px.tolist():
            px, py, tx, ty = py, px, ty, tx
        return _pair_kernel(px, py, self.cfg) - float(tx.k @ ty.w)

    def whitened_cross(self, X: PointSet) -> np.ndarray:
        """The whitened cross-kernel A_X = L^{-1} K_SX (r x |X|), L = ``chol``,
        so that R(X, Y) = K_XY - A_X^T A_Y; solved in place in K_SX = K_XS^T."""
        return solve_triangular(self.chol, kernel_matrix(X, self.S, self.cfg).T,
                                lower=True, overwrite_b=True)

    def cov_matrix(self, X: PointSet, Y: PointSet) -> np.ndarray:
        """Posterior covariance matrix R(X, Y).  Exactly symmetric when X
        equals Y: ``kernel_matrix`` is, and numpy forms A^T A as a syrk."""
        same = X == Y
        A = self.whitened_cross(X)
        B = A if same else self.whitened_cross(Y)
        R = kernel_matrix(X, Y, self.cfg)
        R -= A.T @ B
        return R

    def mean(self, obs_values, X: PointSet) -> np.ndarray:
        """Posterior mean K_XS (K_SS + tau^2 I)^{-1} y at the points of X."""
        y = np.asarray(obs_values, dtype=float)
        if y.shape != (self.r,):
            raise ValueError(f"expected {self.r} observation values, got shape {y.shape}")
        alpha = cho_solve((self.chol, True), y)
        return kernel_matrix(X, self.S, self.cfg) @ alpha

    def variance(self, x) -> float:
        """Posterior variance R(x, x); slightly negative values are clipped
        against the -1e-8 * beta consistency floor."""
        v = self.cov(x, x)
        if v < -1e-8 * self.cfg.beta:
            raise NumericalConsistencyError(
                f"posterior variance {v:g} below -1e-8 * beta; factorization unsound"
            )
        return v


def fit(S: PointSet, cfg: KernelConfig) -> PosteriorModel:
    """Factor K_SS + tau^2 I (jitter ladder 1e-12*beta .. 1e-6*beta on
    failure) and return the evaluation handle.

    Repeated observation points are allowed when tau > 0, since
    K_SS + tau^2 I is then positive definite; with tau = 0 they make K_SS
    singular and raise ValueError.  Raises IllConditionedKernelError when
    the ladder is exhausted.
    """
    if cfg.tau == 0.0 and np.unique(S.coords, axis=0).shape[0] != S.n:
        raise ValueError("observation points must be pairwise distinct when tau = 0")
    K = kernel_matrix(S, S, cfg)
    K[np.diag_indices(S.n)] += cfg.tau**2
    L, jitter = jittered_cholesky(K, cfg.beta)
    return PosteriorModel(S=S, cfg=cfg, chol=L, jitter_used=jitter)


def max_cross_weight_norm(model: PosteriorModel, grid: PointSet, p=2) -> float:
    """Max over grid points y of ||(K_SS + tau^2 I)^{-1} K_Sy||_p.

    A grid approximation (lower estimate) of the supremum over R^d; it equals
    1 exactly at observation points when tau = 0 and no jitter was used.
    p must be 1, 2 or inf.
    """
    if grid.d != model.S.d:
        raise ValueError(f"dimension mismatch: {grid.d} vs {model.S.d}")
    if p not in (1, 2, np.inf):
        raise ValueError("p must be 1, 2 or inf")
    K = kernel_matrix(model.S, grid, model.cfg)
    W = cho_solve((model.chol, True), K)
    if model._exact_at_obs:
        # a grid point at squared distance 0 from an observation takes its basis vector
        at = _sq_dists(model.S.coords, grid.coords) == 0.0
        W = np.where(at.any(axis=0), at, W)
    return float(np.max(np.linalg.norm(W, ord=p, axis=0)))
