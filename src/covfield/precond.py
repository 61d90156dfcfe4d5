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
with G; ``run_methods`` eliminates the landmark block exactly instead and
runs PCG on the Schur system with G^T G.  M is only ever applied in tests.

Patterns: ``geometric_pattern`` keeps pairs within a distance threshold
(where the field analysis predicts the dominant Schur entries in the
small-bandwidth regime), and its FSAI factor is built on the aggregated
pattern of ``fsai_groups``, one factorization per group of up to
``GROUP_CAP`` nearby rows, or as one group of all rows (the inverse
Cholesky factor) where those cost more flops than one of the whole block;
``random_pattern`` is the cautionary baseline, factored row by row in
one-member groups.  Both patterns are drawn here, sorted lower-triangular
with their diagonal, and go through ``fsai_groups`` to the one group loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dpotrf as cholesky, dtrtri, dtrtrs   # perfbench times "precond.cholesky"

from .errors import DivergenceError, IllConditionedKernelError
from .geometry import ROW_BLOCK, PointSet, _sq_dists, row_blocks
from .kernel import KernelConfig, kernel_matrix
from .posterior import JITTER_LADDER, fit

RANDOM_ROW_CAP = 0.1   # the random baseline's per-row cap, as a fraction of n_T
GROUP_CAP = 64         # the most rows of the geometric pattern one FSAI factorization serves


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
        # flat indices gather a random row or a small group fastest; a long block
        # would double its memory with them, and ix_ allocates only the block
        B = self.R.take(J[:, None] * self.T.n + J) if len(J) <= ROW_BLOCK else self.R[np.ix_(J, J)]
        B.flat[:: len(J) + 1] += self.cfg.tau**2
        return B


def geometric_pattern(T: PointSet, delta: float) -> list[np.ndarray]:
    """Per-row sorted column sets {j <= i : ||t_i - t_j|| <= delta}; the
    diagonal is always present.  Thresholds the lower triangle of
    ``distance_matrix(T)`` one ``geometry.row_blocks`` block at a time,
    forming each block's distances to the columns before its end only, so
    memory stays at one block; the rows of a block are views of one index
    array."""
    if not delta >= 0:
        raise ValueError("delta must be a nonnegative number")
    rows: list[np.ndarray] = []
    for block in row_blocks(T.n):
        D = np.sqrt(_sq_dists(T.coords[block], T.coords[: block.stop]))
        r, c = np.nonzero(D <= delta)
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


def fsai_groups(pattern: list[np.ndarray], cap: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Aggregate the rows of a lower-triangular pattern into groups that one
    factorization serves (the supernodes of Schaefer, Katzfuss & Owhadi,
    SISC 2021, at rho = 1).

    Walking from the last row down, an unassigned row i leads a group and
    takes the unassigned entries of its own row J_i, largest first, up to
    ``cap`` members including i.  A group is returned as (U, pos): U the
    sorted union of its members' rows, whose last entry is i, and pos the
    members' ascending positions in U.  Member k = U[p] gets the row
    U[:p+1], which contains J_k.  Groups come in ascending order of their
    leaders; ``cap = 1`` gives one group (J_i, [len(J_i) - 1]) per row.
    """
    free = np.ones(len(pattern), dtype=bool)
    union = np.zeros(len(pattern), dtype=bool)   # marks U, cleared after each group
    groups = []
    for i in range(len(pattern) - 1, -1, -1):
        if free[i]:
            J = pattern[i]
            members = J[free[J]][-cap:]
            free[members] = False
            if len(members) == 1:
                U = J
            else:
                for k in members:
                    union[pattern[k]] = True
                U = np.flatnonzero(union[: i + 1])
                union[U] = False
            groups.append((U, np.searchsorted(U, members)))
    return groups[::-1]


def _fsai_factor(block_fn, groups: list[tuple[np.ndarray, np.ndarray]], n: int) -> sp.csr_matrix:
    """Factorized sparse approximate inverse of n rows from ``groups`` that
    partition them, as ``fsai_groups`` forms them.

    For a group (U, pos), B is the symmetric U x U principal block from
    ``block_fn`` and c its Cholesky factor.  Member k at position p of U
    gets the row B_k^{-1} e / sqrt(e^T B_k^{-1} e) of the leading block
    B_k = B[:p+1, :p+1], which is c^{-T} e_p cut to its first p + 1
    entries, so a group costs one Cholesky factorization and one triangular
    solve with one right-hand side per member.  A group that serves all n
    rows costs one ``dpotrf`` and one ``dtrtri`` instead: its rows are those
    of the inverse Cholesky factor c^{-1}, 2 n^3 / 3 flops in place of n^3
    for n unit right-hand sides.  The result satisfies diag(G B_full G^T) =
    1 row-exactly.  A local jitter ladder (scaled by the block's mean
    diagonal) handles borderline-SPD blocks; a group that stays non-SPD
    raises naming its leader row, a non-finite row naming itself.  The
    column indices are formed after the last group's columns are freed, so
    a group of all n rows peaks at its block plus the values, 12 n^2
    bytes."""
    lengths = np.empty(n, dtype=np.int64)
    for U, pos in groups:
        lengths[U[pos]] = pos + 1
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    data = np.empty(indptr[-1])
    for U, pos in groups:
        g = _group_columns(block_fn, U, pos, n)
        for col, p in enumerate(pos):
            k = U[p]
            row = g[: p + 1, col]
            if not (row[-1] > 0 and np.isfinite(row).all()):
                raise IllConditionedKernelError(f"FSAI row {k}: non-finite row")
            data[indptr[k]: indptr[k + 1]] = row
        del g, row
    indices = np.empty(indptr[-1], dtype=np.int32)
    for U, pos in groups:
        for p in pos:
            indices[indptr[U[p]]: indptr[U[p] + 1]] = U[: p + 1]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _group_columns(block_fn, U: np.ndarray, pos: np.ndarray, n: int) -> np.ndarray:
    """The columns c^{-T} e_p, p in ``pos``, for the jittered Cholesky factor
    c of the block U x U; the factor is freed on return, before the next
    group's block is gathered.  A group of all n rows, U = pos = arange(n),
    has the columns u^{-1} for the factor u^T u = B, inverted in place."""
    if len(pos) == n:
        u = _jittered_cholesky(block_fn, U, lower=0)
        return dtrtri(u, lower=0, overwrite_c=1)[0]   # cannot fail: potrf left a positive diagonal
    c = _jittered_cholesky(block_fn, U, lower=1)
    E = np.zeros((len(U), len(pos)), order="F")
    E[pos, np.arange(len(pos))] = 1.0
    return _trtrs(c, E, trans=1, lower=1)


def _jittered_cholesky(block_fn, U: np.ndarray, lower: int) -> np.ndarray:
    """The Cholesky factor of the block U x U (lower c, c c^T = B, or upper
    u, u^T u = B) as a Fortran array, factored in place on B^T; the jitter
    ladder is scaled by the block's mean diagonal."""
    B = block_fn(U)
    for j in JITTER_LADDER:
        if j:
            # the failed attempt may have overwritten B
            B = block_fn(U)
            scale = float(np.mean(np.diag(B)))
            B[np.diag_indices(len(U))] += j * (scale if scale > 0 else 1.0)
        # B^T is B in Fortran order; potrf and the solves read only one triangle
        c, info = cholesky(B.T, lower=lower, clean=0, overwrite_a=1)
        if info == 0:
            return c
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    raise IllConditionedKernelError(f"FSAI row {U[-1]}: local block not SPD after jitter")


def _trtrs(F: np.ndarray, b: np.ndarray, trans: int, lower: int = 0) -> np.ndarray:
    """Solve with the triangular Fortran array F (upper unless ``lower=1``;
    its transpose when ``trans=1``) in place of the fresh Fortran array b;
    errors as in ``solve_triangular``."""
    x, info = dtrtrs(F, b, lower=lower, trans=trans, overwrite_b=1)
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
        pair, not on the iteration path, so its solver is imported here)."""
        from scipy.sparse.linalg import spsolve_triangular

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
    ``geometric`` (distance threshold ``delta``, default 2 sigma, factored in
    ``fsai_groups`` of up to ``GROUP_CAP`` rows, or on the full lower
    triangle where that costs fewer flops) or ``random`` (per-row cap
    ``RANDOM_ROW_CAP``, seeded with ``seed + 1``, factored row by row).
    A bad r, pattern or delta (checked with either pattern) raises
    ValueError before any kernel work.
    """
    return next(_afn_builds(X, cfg, r, [pattern], delta, seed))[0]


def _afn_builds(X: PointSet, cfg: KernelConfig, r: int, patterns, delta, seed: int):
    """One (AFN preconditioner, shared Schur complement) pair per name in
    ``patterns``, each factor built as it is drawn.  r, every name and delta
    are checked at the call; the split and its Schur complement are formed
    at the first draw and held until the generator is dropped."""
    if not 1 <= r < X.n:
        raise ValueError(f"need 1 <= r < n, got r={r}, n={X.n}")
    if any(name not in ("geometric", "random") for name in patterns):
        raise ValueError("pattern must be 'geometric' or 'random'")
    delta = 2.0 * cfg.sigma if delta is None else delta
    if not delta >= 0:
        raise ValueError("delta must be a nonnegative number")

    def builds():
        perm = np.random.default_rng(seed).permutation(X.n)
        schur = SchurComplement(PointSet(X.coords[perm[:r]]), PointSet(X.coords[perm[r:]]), cfg)
        nT = schur.T.n
        for name in patterns:
            # each pattern is a temporary of its draw, freed once its FSAI factor
            # is built; the random one is factored in one-member groups, row by row
            G = (_geometric_factor(schur, delta) if name == "geometric"
                 else _fsai_factor(schur.block, fsai_groups(random_pattern(nT, seed + 1), 1), nT))
            yield AfnPreconditioner(perm, schur.L, schur.W, G, schur.jitter_used), schur
            del G   # the factor dies with its draw, before the next is built
    return builds()


def _geometric_factor(schur: SchurComplement, delta: float) -> sp.csr_matrix:
    """The FSAI factor of the geometric pattern, grouped, or the inverse
    Cholesky factor of the whole block where that costs fewer flops.

    The pattern and its ``fsai_groups`` are formed once.  The groups'
    Cholesky factorizations cost sum |U|^3 / 3 flops, the whole block's
    factorization and triangular inverse 2 n_T^3 / 3.  Where the groups cost
    more (as on the d = 8 cloud, where a row of the pattern covers most of
    its prefix), they give way to one group of all n_T rows: the FSAI
    factor of the full lower-triangular pattern, which contains every
    geometric row, with G B G^T = I in full and not only on the diagonal."""
    nT = schur.T.n
    groups = fsai_groups(geometric_pattern(schur.T, delta), GROUP_CAP)
    if sum(len(U) ** 3 for U, _ in groups) > 2 * nT**3:
        groups = [(np.arange(nT), np.arange(nT))]
    return _fsai_factor(schur.block, groups, nT)


def _schur_solve(P: AfnPreconditioner, schur: SchurComplement, A, b, tol_abs, max_iter):
    """(x, iterations, b - A x) for A x = b, A = K_XX + tau^2 I, with the
    landmark block eliminated, exactly when its factor carries no jitter.

    From x = 0, each pass adds a correction d solved on the full residual r:
    yS = L^{-1} rS, PCG with G^T G on C dT = rT - W^T yS for C = R + tau^2 I,
    and dS = L^{-T} (yS - W dT).  As M^{-1} A is similar to diag(I, G^T G C),
    a pass is ``pcg(A, r, P.apply_inverse)`` with steps that read R's
    triangle and G twice, not A's triangle and W and G twice each.  PCG
    stops on T's block, and rounding in dS can leave the full residual above
    ``tol_abs`` (at tau = 0, where ||x|| reaches 9e9), so passes repeat while
    it misses and iterations remain.  A pass needing no iteration ends the
    loop, which would otherwise spin without counting; a first pass needs
    none only if ||bT - W^T L^{-1} bS|| <= tol_abs, which a seeded unit-norm
    b does not reach.  As in ``pcg``, x is the iterate with the smallest
    full residual."""
    S, T = P.perm[: P.r], P.perm[P.r:]
    # R's lower triangle is the upper one of R^T; beta * y adds tau^2 v, R stays noise-free
    RF, tau2 = schur.R.T, schur.cfg.tau**2
    x, res, iters, best_nr = np.zeros_like(b), b, 0, np.inf
    while True:
        yS = _trtrs(P.L.T, res[S], trans=1)
        dT, more, _ = pcg(lambda v: dsymv(1.0, RF, v, beta=tau2, y=v, lower=0),
                          res[T] - P.W.T @ yS, lambda v: P.GT @ (P.G @ v),
                          tol_abs=tol_abs, max_iter=max_iter - iters)
        x = x.copy()   # the best iterate may be x itself
        x[S] += _trtrs(P.L.T, yS - P.W @ dT, trans=0)
        x[T] += dT
        iters += more
        res = b - A @ x
        nr = np.linalg.norm(res)
        if nr < best_nr:
            x_best, best, best_nr = x, res, nr
        if more == 0 or iters >= max_iter or nr <= tol_abs:
            return x_best, iters, best


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
    if math.sqrt(res @ res) <= tol_abs:
        return x, 0, np.array(hist)
    # without a preconditioner z is res itself: it is read before res next changes
    z = precond_apply(res) if precond_apply else res
    p = z.copy()
    step = np.empty_like(b)   # alpha * p, then alpha * A p: no allocation per iteration
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
        x += np.multiply(p, alpha, out=step)
        res -= np.multiply(Ap, alpha, out=step)
        it += 1
        nr = math.sqrt(res @ res)
        if not math.isfinite(nr):
            raise DivergenceError(f"non-finite residual at iteration {it}")
        hist.append(nr)
        if nr <= tol_abs:
            # the recurrence drifts from b - A x in floating point: stop on the
            # true residual only, else restart from it (gamma = inf makes
            # beta = 0, so the next direction is the preconditioned residual)
            res = b - A(x)
            nr = hist[-1] = math.sqrt(res @ res)
            if nr <= tol_abs:
                break
            if nr < best_nr:
                best, best_nr = x.copy(), nr
            gamma = np.inf
        z = precond_apply(res) if precond_apply else res
        gamma_new = float(res @ z)
        beta = gamma_new / gamma
        gamma = gamma_new
        p *= beta   # p = z + beta p, same bits
        p += z
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
    threshold, 2 sigma when None; the methods (each 1, 2 or 3), r and delta
    are checked before any kernel work.  Method 1 is plain CG; methods 2 and 3
    run ``_schur_solve`` with the random and the geometric FSAI factor, whose
    passes go on until the full residual meets ``tol_abs`` or ``max_iter``
    iterations are spent.
    Returns one dict per method with keys
    method/iterations/rel_err/residual/fsai_nnz_fraction.
    """
    if any(m not in (1, 2, 3) for m in methods):
        raise ValueError(f"methods must be 1, 2 or 3, got {tuple(methods)}")
    # methods 2 and 3 share one landmark split and its Schur complement, formed
    # at the first draw and freed on return; their arguments are checked here
    patterns = ["geometric" if m == 3 else "random" for m in methods if m != 1]
    builds = _afn_builds(X, cfg, r, patterns, delta, seed) if patterns else None
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

    out = []
    for method in methods:
        if method == 1:
            x, iters, _ = pcg(A, b, tol_abs=tol_abs, max_iter=max_iter)
            res, nnz_frac = b - A @ x, float("nan")
        else:
            P, schur = next(builds)
            x, iters, res = _schur_solve(P, schur, A, b, tol_abs, max_iter)
            nnz_frac = P.fsai_nnz_fraction
            del P, schur   # the factor is freed before the next is built
        out.append({
            "method": method,
            "iterations": iters,
            "rel_err": float(np.linalg.norm(x - z_ref) / z_norm),
            "residual": float(np.linalg.norm(res)),
            "fsai_nnz_fraction": nnz_frac,
        })
    return out
