"""AFN preconditioning and conjugate gradients for kernel systems.

The preconditioner splits X into landmarks S (first r of a seeded
permutation) and the rest T, factors the landmark block, and approximates
the inverse of the Schur complement - whose (i, j) entry is exactly the
posterior covariance field at (t_i, t_j), plus tau^2 on the diagonal when
the system carries observation noise - by a factorized sparse approximate
inverse G^T G with G lower triangular on a chosen pattern:

    M = [ L              0      ] [ L^T  L^{-1} K_ST ]
        [ K_TS L^{-T}    G^{-1} ] [ 0    G^{-T}      ]

Applying M^{-1} needs two triangular solves with L and two sparse matvecs
with G; M itself is only ever applied in tests.

Patterns: ``geometric_pattern`` keeps pairs within a distance threshold
(where the field analysis predicts the dominant Schur entries in the
small-bandwidth regime); ``random_pattern`` is the cautionary baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dtrtrs
from scipy.sparse.linalg import spsolve_triangular

from .errors import DivergenceError, IllConditionedKernelError
from .geometry import PointSet, distance_matrix, row_blocks
from .kernel import KernelConfig, kernel_matrix
from .posterior import JITTER_LADDER, fit

RANDOM_ROW_CAP = 0.1   # the random baseline's per-row cap, as a fraction of n_T


class SchurComplement:
    """The Schur complement R = K_TT - K_TS (K_SS + tau^2 I)^{-1} K_ST, formed
    once as a dense n_T x n_T matrix.

    Its entries are the posterior covariance field on T conditioned on S:
    ``R`` holds the noise-free values and ``block(J)`` gathers a principal
    block with tau^2 added to the diagonal, the Schur complement of the
    regularized system.  ``L``, ``jitter_used`` and ``W = L^{-1} K_ST`` come
    from the posterior model ``fit(S, cfg)``; ``R = K_TT - W^T W`` is exactly
    symmetric (numpy forms W^T W as one symmetric rank-k update).  Memory:
    n_T^2 doubles, 5.1 MB at n_T = 800 and 128 MB at n_T = 4000.
    """

    def __init__(self, S: PointSet, T: PointSet, cfg: KernelConfig):
        self.T = T
        self.cfg = cfg
        model = fit(S, cfg)
        self.L, self.jitter_used = model.chol, model.jitter_used
        self.W = model.whitened_cross(T)
        self.R = kernel_matrix(T, T, cfg)
        self.R -= self.W.T @ self.W

    def block(self, J) -> np.ndarray:
        J = np.asarray(J, dtype=int)
        B = self.R.take(J, 0).take(J, 1)
        B[np.diag_indices(len(J))] += self.cfg.tau**2
        return B


def geometric_pattern(T: PointSet, delta: float) -> list[np.ndarray]:
    """Per-row sorted column sets {j <= i : ||t_i - t_j|| <= delta}; the
    diagonal is always present.  Thresholds the lower triangle of
    ``distance_matrix(T)`` one ``geometry.row_blocks`` block at a time, so
    memory stays at one block; the rows of a block are views of one index
    array."""
    if not delta >= 0:
        raise ValueError("delta must be a nonnegative number")
    rows: list[np.ndarray] = []
    for block in row_blocks(T.n):
        r, c = np.nonzero(distance_matrix(T, block) <= delta)
        lower = c <= r + block.start
        counts = np.bincount(r[lower], minlength=block.stop - block.start)
        rows += np.split(c[lower], np.cumsum(counts)[:-1])
    return rows


def random_pattern(nT: int, seed: int) -> list[np.ndarray]:
    """Per row i: min(i, floor(RANDOM_ROW_CAP * nT)) uniform indices j < i,
    plus the diagonal."""
    rng = np.random.default_rng(seed)
    cap = int(np.floor(RANDOM_ROW_CAP * nT))
    rows: list[np.ndarray] = []
    for i in range(nT):
        k = min(i, cap)
        J = rng.choice(i, size=k, replace=False) if k > 0 else np.empty(0, dtype=int)
        rows.append(np.sort(np.append(J, i)).astype(int))
    return rows


def fsai_build(block_fn, pattern: list[np.ndarray]) -> sp.csr_matrix:
    """Factorized sparse approximate inverse on a lower-triangular pattern.

    For each row i with index set J_i, B is the symmetric J_i x J_i principal
    block from ``block_fn`` and e the unit vector at i's position.  The row
    B^{-1} e / sqrt(e^T B^{-1} e) equals c^{-T} e for B = c c^T, so each row
    costs one Cholesky factorization and one triangular solve.  The result
    satisfies diag(G B_full G^T) = 1 row-exactly.  A local jitter ladder
    (scaled by the block's mean diagonal) handles borderline-SPD blocks; rows
    that stay non-SPD or come out non-finite raise with the row index named.
    """
    rows: list[np.ndarray] = []
    for i, J in enumerate(pattern):
        if len(J) == 0 or J[-1] != i or np.any(J[:-1] >= i) or np.any(np.diff(J) <= 0):
            raise ValueError(f"pattern row {i} is not sorted lower-triangular with diagonal")
        B = block_fn(J)
        m = len(J)
        scale = float(np.mean(np.diag(B)))
        scale = scale if scale > 0 else 1.0
        for j in JITTER_LADDER:
            if j:
                # the failed attempt may have overwritten B
                B = block_fn(J)
                B[np.diag_indices(m)] += j * scale
            try:
                # B^T is B read in Fortran order, which LAPACK factors in place
                c = cholesky(B.T, lower=True, overwrite_a=True, check_finite=False)
                break
            except np.linalg.LinAlgError:
                pass
        else:
            raise IllConditionedKernelError(f"FSAI row {i}: local block not SPD after jitter")
        e = np.zeros(m)
        e[-1] = 1.0
        g = solve_triangular(c, e, lower=True, trans="T", check_finite=False)
        if not (g[-1] > 0 and np.isfinite(g).all()):
            raise IllConditionedKernelError(f"FSAI row {i}: non-finite row")
        rows.append(g)
    n = len(pattern)
    indptr = np.concatenate(([0], np.cumsum([len(J) for J in pattern])))
    return sp.csr_matrix((np.concatenate(rows), np.concatenate(pattern), indptr), shape=(n, n))


def _trtrs(UT: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """Solve with the upper triangular Fortran array UT (or its transpose,
    ``trans=1``) in place of the fresh vector b; errors as in
    ``solve_triangular``."""
    x, info = dtrtrs(UT, b, lower=0, trans=trans, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


@dataclass(frozen=True, eq=False)
class AfnPreconditioner:
    perm: np.ndarray = field(repr=False)     # X order -> [S; T]
    L: np.ndarray = field(repr=False)        # chol of K_SS + tau^2 I (+ jitter)
    W: np.ndarray = field(repr=False)        # L^{-1} K_ST
    G: sp.csr_matrix = field(repr=False)     # FSAI factor of the Schur block
    jitter_used: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "GT", self.G.T.tocsr())   # G^T as CSR for the matvecs

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def r(self) -> int:
        return self.W.shape[0]

    @property
    def fsai_nnz_fraction(self) -> float:
        nT = self.n - self.r
        return self.G.nnz / float(nT * nT)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """M^{-1} v via triangular solves with L and matvecs with G.

        Both solves are LAPACK's trtrs on the Fortran view L^T, the call
        ``solve_triangular`` makes for a C-ordered L; v is checked for
        non-finite entries once, L never."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        if not np.isfinite(v).all():
            raise ValueError("array must not contain infs or NaNs")
        S, T = self.perm[: self.r], self.perm[self.r:]
        vT = v[T]
        yS = _trtrs(self.L.T, v[S], trans=1)     # L yS = vS
        vT -= self.W.T @ yS
        zT = self.GT @ (self.G @ vT)
        yS -= self.W @ zT
        out = np.empty_like(v)
        out[S] = _trtrs(self.L.T, yS, trans=0)   # L^T zS = yS - W zT
        out[T] = zT
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M v (sparse triangular solves with G; used to verify the inverse
        pair, not on the iteration path)."""
        v = np.asarray(v, dtype=float)
        vp = v[self.perm]
        xS, xT = vp[: self.r], vp[self.r:]
        uS = self.L.T @ xS + self.W @ xT
        uT = spsolve_triangular(self.GT, xT, lower=False)
        outS = self.L @ uS
        outT = self.W.T @ uS + spsolve_triangular(self.G, uT, lower=True)
        out = np.empty_like(v)
        out[self.perm] = np.concatenate([outS, outT])
        return out


def afn_build(
    X: PointSet,
    cfg: KernelConfig,
    r: int,
    *,
    pattern: str = "geometric",
    delta: float | None = None,
    seed: int = 0,
) -> AfnPreconditioner:
    """Assemble the AFN preconditioner for K_XX + tau^2 I.

    r landmarks are drawn uniformly at random (a permutation seeded with
    ``seed``); the FSAI pattern on the remaining points is either
    ``geometric`` (distance threshold ``delta``, default 2 sigma) or
    ``random`` (per-row cap ``RANDOM_ROW_CAP``, seeded with ``seed + 1``).
    A bad r, pattern or delta (checked with either pattern) raises
    ValueError before any kernel work.
    """
    return next(_afn_builds(X, cfg, r, [pattern], delta, seed))


def _afn_builds(X: PointSet, cfg: KernelConfig, r: int, patterns, delta, seed: int):
    """One AFN preconditioner per name in ``patterns``, each built as it is
    drawn, on one landmark split and Schur complement formed after the checks."""
    if not 1 <= r < X.n:
        raise ValueError(f"need 1 <= r < n, got r={r}, n={X.n}")
    if any(name not in ("geometric", "random") for name in patterns):
        raise ValueError("pattern must be 'geometric' or 'random'")
    delta = 2.0 * cfg.sigma if delta is None else delta
    if not delta >= 0:
        raise ValueError("delta must be a nonnegative number")
    perm = np.random.default_rng(seed).permutation(X.n)
    schur = SchurComplement(PointSet(X.coords[perm[:r]]), PointSet(X.coords[perm[r:]]), cfg)
    # each pattern is a temporary of its draw, freed once its FSAI factor is built
    return (AfnPreconditioner(
        perm, schur.L, schur.W,
        fsai_build(schur.block, geometric_pattern(schur.T, delta) if name == "geometric"
                   else random_pattern(schur.T.n, seed + 1)),
        schur.jitter_used) for name in patterns)


def pcg(mat_apply, b, precond_apply=None, tol_abs: float = 1e-5, max_iter: int = 1000):
    """Preconditioned conjugate gradients with an absolute residual stop.

    ``mat_apply`` may be a callable or a dense SPD matrix A.  A dense A must
    be n x n for a length-n ``b``, and only its lower triangle is read: the
    products are BLAS's symmetric matvec ``dsymv`` (on the Fortran view A^T
    when A is C-ordered), and an A that is not float64 and C- or
    F-contiguous is converted once, before the first iteration.  Returns
    ``(solution, iterations, residual_history)`` where the history holds the
    recurrence residual norm after each iteration.  When that norm meets the
    tolerance, the true residual b - A x replaces it (residual replacement,
    van der Vorst & Ye 2000): the solve stops only if the true norm meets
    the tolerance too, and otherwise restarts from the true residual.

    The solution is the best iterate known: if the solve reaches
    ``max_iter`` after a check whose true residual was smaller than the
    final iterate's, it returns the iterate of that check (one extra product
    tells them apart; a solve that never failed a check needs none).
    ``iterations`` still counts every iteration performed.
    Raises DivergenceError on non-finite iterates and on breakdown
    (p^T A p <= 0 or non-finite, which an indefinite system produces).
    """
    if not tol_abs > 0:   # NaN fails too
        raise ValueError("tol_abs must be positive")
    b = np.asarray(b, dtype=float)
    A = _symmetric_matvec(mat_apply, b) if isinstance(mat_apply, np.ndarray) else mat_apply
    x = np.zeros_like(b)
    res = b.copy()
    hist: list[float] = []
    if np.linalg.norm(res) <= tol_abs:
        return x, 0, np.array(hist)
    z = precond_apply(res) if precond_apply else res.copy()
    p = z.copy()
    gamma = float(res @ z)
    best, best_nr = None, np.inf   # the iterate of the best failed check
    it = 0
    while it < max_iter:
        Ap = A(p)
        pAp = float(p @ Ap)
        if not 0.0 < pAp < np.inf:
            # CG needs p^T A p > 0; an indefinite A breaks down here
            raise DivergenceError(f"breakdown at iteration {it + 1}: p^T A p = {pAp:g}")
        alpha = gamma / pAp
        x += alpha * p
        res -= alpha * Ap
        it += 1
        nr = float(np.linalg.norm(res))
        if not np.isfinite(nr):
            raise DivergenceError(f"non-finite residual at iteration {it}")
        hist.append(nr)
        if nr <= tol_abs:
            # the recurrence drifts from b - A x in floating point: stop on the
            # true residual only, else restart from it (gamma = inf makes
            # beta = 0, so the next direction is the preconditioned residual)
            res = b - A(x)
            nr = hist[-1] = float(np.linalg.norm(res))
            if nr <= tol_abs:
                break
            if nr < best_nr:
                best, best_nr = x.copy(), nr
            gamma = np.inf
        z = precond_apply(res) if precond_apply else res.copy()
        gamma_new = float(res @ z)
        beta = gamma_new / gamma
        gamma = gamma_new
        p = z + beta * p
    else:   # max_iter reached without a passing check
        if best is not None and best_nr < np.linalg.norm(b - A(x)):
            x = best
    return x, it, np.array(hist)


def _symmetric_matvec(M: np.ndarray, b: np.ndarray):
    """v -> M v reading only M's lower triangle; fails fast on a shape that
    cannot multiply b."""
    if b.ndim != 1 or M.shape != (b.size, b.size):
        raise ValueError(f"dense operand of shape {M.shape} does not match b of shape {b.shape}")
    if M.dtype != np.float64 or not (M.flags.c_contiguous or M.flags.f_contiguous):
        M = np.ascontiguousarray(M, dtype=np.float64)
    # the lower triangle of M is the upper one of the Fortran view M^T
    F, lower = (M, 1) if M.flags.f_contiguous else (M.T, 0)
    return lambda v: dsymv(1.0, F, v, lower=lower)


def run_methods(
    X: PointSet,
    cfg: KernelConfig,
    *,
    r: int,
    delta: float | None = None,
    tol_abs: float = 1e-5,
    max_iter: int = 1000,
    seed: int = 1,
    methods=(1, 2, 3),
):
    """Benchmark driver for the three-method comparison table.

    Solves (K_XX + tau^2 I) z = b with b seeded standard normal scaled to
    unit norm, so the absolute tolerance reads as a relative one.  The
    landmarks, the random pattern and b use ``seed``, ``seed + 1`` and
    ``seed + 2``.  The reference solution for the relative-error column
    comes from a dense Cholesky solve, which raises
    ``IllConditionedKernelError`` before any PCG when the system is not
    numerically positive definite.  ``delta`` is the geometric pattern's
    threshold, 2 sigma when None.  Returns one dict per method with keys
    method/iterations/rel_err/residual/fsai_nnz_fraction.
    """
    n = X.n
    A = kernel_matrix(X, X, cfg)
    if cfg.tau > 0:
        A[np.diag_indices(n)] += cfg.tau**2
    b = np.random.default_rng(seed + 2).standard_normal(n)
    b /= np.linalg.norm(b)
    # no jitter here: a jittered reference would move what rel_err measures;
    # the factor stays a temporary, so it is freed before the solves
    try:
        z_ref = cho_solve((np.linalg.cholesky(A), True), b)
    except np.linalg.LinAlgError:
        raise IllConditionedKernelError(
            f"reference Cholesky failed: the {n} x {n} system K + tau^2 I is not "
            f"positive definite at tau = {cfg.tau:g} (repeated points need tau > 0)"
        ) from None
    z_norm = np.linalg.norm(z_ref)

    # methods 2 and 3 share one landmark split and differ only in the pattern
    patterns = ["geometric" if m == 3 else "random" for m in methods if m != 1]
    builds = _afn_builds(X, cfg, r, patterns, delta, seed) if patterns else None
    out = []
    for method in methods:
        if method == 1:
            pre = None
            nnz_frac = float("nan")
        else:
            P = next(builds)
            pre = P.apply_inverse
            nnz_frac = P.fsai_nnz_fraction
        x, iters, hist = pcg(A, b, pre, tol_abs=tol_abs, max_iter=max_iter)
        out.append({
            "method": method,
            "iterations": iters,
            "rel_err": float(np.linalg.norm(x - z_ref) / z_norm),
            "residual": float(np.linalg.norm(b - A @ x)),
            "fsai_nnz_fraction": nnz_frac,
        })
    return out
