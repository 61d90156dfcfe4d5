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

from .geometry import SQ_BLOCK, PointSet, _sq_dists, distance_matrix, row_blocks
from .kernel import KernelConfig, _kernel_row, kernel_matrix
from .posterior import fit


@dataclass(frozen=True, eq=False)
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
    (desk scale; ``lrsp_sweep`` reads the same residual a row block at a
    time).  numpy forms W^T W as a syrk, so R and the stored values are
    bitwise symmetric.
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


def _error_sweep(X: PointSet, v: np.ndarray, steps: int, update):
    """(max_ij |E_ij|, ||E v|| / ||v||) of the error matrix E after each of
    ``steps`` steps, in one pass over ``geometry.row_blocks``.

    Each block's squared distances (``geometry._sq_dists``, one pass) go to
    the generator ``update(rows, sq)``, which forms the block's rows of E
    from them, changes E in place and yields it once per step; the block
    then folds into that step's norms.  The max is read as
    max(E.max(), -E.min()), bitwise equal to ``np.abs(E).max()`` without its
    temporary, and the rows of E v fill one vector per step, so both norms
    are those of the whole E.  Memory stays at a few blocks of rows.
    """
    top = np.full(steps, -np.inf)
    bottom = np.full(steps, np.inf)
    Ev = np.empty((steps, len(v)))
    for rows in row_blocks(X.n):
        for step, E in enumerate(update(rows, _sq_dists(X.coords[rows], X.coords))):
            top[step] = np.maximum(top[step], E.max())
            bottom[step] = np.minimum(bottom[step], E.min())
            Ev[step, rows] = E @ v
        E = None   # free this block before the next one's rows are formed
    nv = np.linalg.norm(v)
    return [(float(max(t, -b)), float(np.linalg.norm(e) / nv)) for t, b, e in zip(top, bottom, Ev)]


def lowrank_sweep(
    X: PointSet, cfg: KernelConfig, factor: NystromFactor, ranks, v: np.ndarray
) -> dict[int, tuple[float, float]]:
    """Error norms (max|E|, ||E v|| / ||v||) of E = K - W_k^T W_k for every
    rank k in ``ranks``, keyed by k.

    One ``_error_sweep``: each block starts from its rows of K, walks the
    distinct ranks in ascending order and subtracts the rows of B^T B for
    the block B = W[a:b] between two consecutive ranks, so the products cost
    n^2 k_max in all rather than n^2 sum(k).  The rank-block downdates round
    in another order than one product of the whole prefix; on the ``lrsp``
    defaults the errors move by at most about 6e-16 relative.  README
    ("lrsp digits") says when the row blocks keep the bits of one
    whole-matrix pass.
    """
    todo = sorted({int(k) for k in ranks})
    if todo and not 1 <= todo[0] <= todo[-1] <= factor.rank:
        raise ValueError(f"ranks must lie in [1, {factor.rank}], got {todo[0]}..{todo[-1]}")

    def downdates(rows, sq):
        E = _kernel_row(sq, cfg, out=sq)   # kernel_matrix's bits for these rows
        for a, k in zip([0] + todo, todo):
            B = factor.W[a:k]
            E -= B[:, rows].T @ B
            yield E

    return dict(zip(todo, _error_sweep(X, v, len(todo), downdates)))


def lrsp_sweep(
    X: PointSet, cfg: KernelConfig, factor: NystromFactor, radii, v: np.ndarray
) -> list[tuple[int, float, float]]:
    """(nnz, max|E|, ||E v|| / ||v||) of the LRSP error E at each radius, in
    order.

    R0 = K - W_0^T W_0 is the residual of the low-rank part (``factor`` is
    W_0), and the exact sparse correction on the pattern {D <= delta} is R0
    itself there, so the error is R0 with the pattern zeroed.  D is
    ``geometry.distance_matrix``, so each mask is ``pattern_by_radius``'s and
    nnz counts its pairs.  The radii must not decrease: the patterns then
    nest, and one ``_error_sweep`` forms each block's rows of R0 and D from
    one squared-distance pass and zeroes each mask in place on top of the
    last.  R0 = K - W_0^T W_0 is formed in the product's buffer, a few rows
    of K at a time, and the squared distances then become D in place, so a
    block holds two n-wide arrays at a time, not three.
    """
    radii = np.asarray(radii, dtype=float)
    if not np.all(radii >= 0):
        raise ValueError("radii must be nonnegative numbers")
    if np.any(np.diff(radii) < 0):
        raise ValueError("radii must not decrease")
    W = factor.W
    nnz = [0] * len(radii)

    def masks(rows, sq):
        E = W[:, rows].T @ W
        K = np.empty((SQ_BLOCK, X.n))
        for a in range(0, len(E), SQ_BLOCK):
            part = E[a: a + SQ_BLOCK]
            np.subtract(_kernel_row(sq[a: a + SQ_BLOCK], cfg, K[: len(part)]), part, out=part)
        D = np.sqrt(sq, out=sq)
        for step, delta in enumerate(radii):
            # branch-free zeroing; + 0.0 turns the -0.0 of a dropped E < 0 into +0.0
            keep = D > delta
            nnz[step] += keep.size - int(np.count_nonzero(keep))
            E *= keep
            E += 0.0
            yield E

    return [(z, *norms) for z, norms in zip(nnz, _error_sweep(X, v, len(radii), masks))]


def cost_equivalent_rank(r0: float, N: float, nnz: float) -> float:
    """Positive root k of k^2 + N k = r0^2 + N r0 + nnz.

    The rank of an imaginary plain low-rank factorization with the same
    storage as the LRSP format; real-valued by design.  An infinite N would
    give inf - inf, so N must be finite.
    """
    if not (1 <= N < np.inf and r0 >= 0 and nnz >= 0):   # NaN fails too
        raise ValueError("need N >= 1, r0 >= 0, nnz >= 0")
    return 0.5 * (-N + np.sqrt(N * N + 4.0 * (r0 * r0 + N * r0 + nnz)))

