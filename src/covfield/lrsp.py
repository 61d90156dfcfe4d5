"""Low-rank plus sparse (LRSP) approximation of kernel matrices.

The low-rank half is the landmark (Nystrom) factorization
``K ~= W^T W`` with ``W = L^{-1} K_{SX}`` and ``L`` the Cholesky factor of the
landmark block.  The sparse half corrects the residual exactly on a
distance-thresholded pattern; since the residual *is* the posterior
covariance field, its large entries sit at nearby point pairs in the
small-bandwidth regime, which is what the pattern captures.

Storage accounting uses the cost-equivalent rank: the rank k whose plain
low-rank storage k^2 + N k matches the LRSP storage r0^2 + N r0 + nnz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import PointSet, distance_matrix
from .kernel import KernelConfig, kernel_matrix
from .posterior import fit


@dataclass(frozen=True)
class NystromFactor:
    """Landmark indices into X and the factor W with W^T W ~= K_XX.

    Landmarks are nested: since L is lower triangular, the first k rows of
    W = L^{-1} K_SX depend only on the first k landmarks, so ``prefix(k)`` is
    the rank-k factor without refactoring.  A prefix carries the jitter of
    the factor it was cut from, which may differ from the jitter a rank-k
    build would choose.
    """

    landmark_indices: np.ndarray
    W: np.ndarray = field(repr=False)   # r0 x n
    jitter_used: float = 0.0

    @property
    def rank(self) -> int:
        return self.W.shape[0]

    def prefix(self, k: int) -> NystromFactor:
        """The factor on the first k landmarks; k above ``rank`` gives the
        whole factor, as a slice does."""
        if k < 1:
            raise ValueError(f"prefix rank must be >= 1, got {k}")
        return NystromFactor(self.landmark_indices[:k], self.W[:k], self.jitter_used)


def nystrom_build(X: PointSet, landmark_indices, cfg: KernelConfig) -> NystromFactor:
    """Factor the landmark block (posterior-module jitter policy) and form
    W = L^{-1} K_{SX}."""
    idx = np.asarray(landmark_indices, dtype=int)
    if idx.ndim != 1 or len(np.unique(idx)) != len(idx):
        raise ValueError("landmark indices must be a 1-d list of distinct indices")
    if idx.min() < 0 or idx.max() >= X.n:
        raise ValueError("landmark index out of range")
    model = fit(PointSet(X.coords[idx]), cfg)
    return NystromFactor(idx, model.whitened_cross(X), model.jitter_used)


def lowrank_dense(factor: NystromFactor) -> np.ndarray:
    """Dense n x n reconstruction W^T W (desk scale only)."""
    return factor.W.T @ factor.W


def pattern_by_radius(X: PointSet, delta: float) -> sp.csr_matrix:
    """Boolean symmetric pattern {(i, j): ||x_i - x_j|| <= delta}, the mask
    ``distance_matrix(X) <= delta`` in CSR form (desk scale, one n x n
    buffer); the diagonal is always included."""
    if not delta >= 0:
        raise ValueError("delta must be a nonnegative number")
    return sp.csr_matrix(distance_matrix(X) <= delta)


def sparse_correction(
    X: PointSet, factor: NystromFactor, pattern: sp.csr_matrix, cfg: KernelConfig
) -> sp.csr_matrix:
    """Residual entries kernel(x_i, x_j) - (W^T W)_ij on the pattern only.

    A gather from the dense residual R = K_XX - W^T W, one n x n buffer
    (desk scale, like the K every caller already holds).  numpy forms W^T W
    as a syrk, so R and the stored values are bitwise symmetric.
    """
    R = kernel_matrix(X, X, cfg)
    R -= lowrank_dense(factor)
    rows = np.repeat(np.arange(X.n), np.diff(pattern.indptr))
    return sp.csr_matrix(
        (R[rows, pattern.indices], pattern.indices.copy(), pattern.indptr.copy()),
        shape=(X.n, X.n),
    )


def lrsp_dense(factor: NystromFactor, correction: sp.csr_matrix) -> np.ndarray:
    """Dense reconstruction of the LRSP approximation (desk scale only)."""
    return lowrank_dense(factor) + correction.toarray()


def error_norms(E: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(max_ij |E_ij|, ||E v|| / ||v||) of an error matrix E.

    The max is read as max(E.max(), -E.min()), bitwise equal to
    ``np.abs(E).max()`` without its n x n temporary.
    """
    return float(max(E.max(), -E.min())), float(np.linalg.norm(E @ v) / np.linalg.norm(v))


def lowrank_sweep(
    K: np.ndarray, factor: NystromFactor, ranks, v: np.ndarray
) -> dict[int, tuple[float, float]]:
    """``error_norms`` of K - W_k^T W_k for every rank k in ``ranks``, keyed by k.

    One pass of rank-block downdates: from E = K, the distinct ranks are
    walked in ascending order and each step subtracts the syrk of the block
    W[a:b] between two consecutive ranks, so the products cost n^2 k_max in
    all rather than n^2 sum(k).  K is overwritten: on return it holds the
    residual at the largest rank.  The sums round in another order than one
    product of the whole prefix; on the ``lrsp`` defaults the errors move by
    at most about 6e-16 relative.
    """
    todo = sorted({int(k) for k in ranks})
    if todo and not 1 <= todo[0] <= todo[-1] <= factor.rank:
        raise ValueError(f"ranks must lie in [1, {factor.rank}], got {todo[0]}..{todo[-1]}")
    out = {}
    a = 0
    for k in todo:
        B = factor.W[a:k]
        K -= B.T @ B
        out[k] = error_norms(K, v)
        a = k
    return out


def lrsp_sweep(
    R0: np.ndarray, D: np.ndarray, radii, v: np.ndarray
) -> list[tuple[int, float, float]]:
    """(nnz, *error_norms) of the LRSP error at each radius, in order.

    R0 = K - W_0^T W_0 is the residual of the low-rank part, and the exact
    sparse correction on the pattern {D <= delta} is R0 itself there, so the
    error is R0 with the pattern zeroed.  D is ``geometry.distance_matrix``,
    so each mask is ``pattern_by_radius``'s and nnz counts its pairs.  The
    radii must not decrease: the patterns then nest and each one is zeroed
    in place on top of the last, with no copy of R0 and no pair list.  R0 is
    overwritten: on return it holds the error at the last radius.
    """
    radii = np.asarray(radii, dtype=float)
    if not np.all(radii >= 0):
        raise ValueError("radii must be nonnegative numbers")
    if np.any(np.diff(radii) < 0):
        raise ValueError("radii must not decrease")
    out = []
    for delta in radii:
        mask = D <= delta
        np.copyto(R0, 0.0, where=mask)
        out.append((int(np.count_nonzero(mask)), *error_norms(R0, v)))
    return out


def cost_equivalent_rank(r0: float, N: float, nnz: float) -> float:
    """Positive root k of k^2 + N k = r0^2 + N r0 + nnz.

    The rank of an imaginary plain low-rank factorization with the same
    storage as the LRSP format; real-valued by design.  An infinite N would
    give inf - inf, so N must be finite.
    """
    if not (1 <= N < np.inf and r0 >= 0 and nnz >= 0):   # NaN fails too
        raise ValueError("need N >= 1, r0 >= 0, nnz >= 0")
    return 0.5 * (-N + np.sqrt(N * N + 4.0 * (r0 * r0 + N * r0 + nnz)))

