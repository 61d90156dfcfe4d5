"""Point sets, distance utilities, data generators and bandwidth selection.

All randomness goes through ``numpy.random.default_rng`` (PCG64), so every
generator here replays bit-identically for a given seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDataError, FormatError

PRESETS = {
    "uniform1d": (0.02, 0.26, 0.5, 0.74, 0.98),
    "nonuniform1d": (0.02, 0.12, 0.22, 0.6, 0.98),
}

# entries in a point set's or a model's per-point memo: a query pair's two points, twice
_MEMO_SIZE = 4
_pack_double = struct.Struct("d").pack


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered, immutable collection of n points in R^d.

    ``coords`` is an (n, d) float array; one row per point.  Coordinates must
    be finite and n >= 1, d >= 1.  ``_memo`` holds ``_distances`` records.
    Two point sets are equal when their coords are (same shape, same values,
    in order); like the arrays they hold, point sets are unhashable.
    """

    coords: np.ndarray = field(repr=False)
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if c.ndim != 2:
            raise ValueError(f"coords must be 2-d (n, d), got shape {c.shape}")
        if c.shape[0] < 1 or c.shape[1] < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coordinates must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, d={self.d})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and np.array_equal(self.coords, other.coords)


def as_point(x, d: int | None = None) -> np.ndarray:
    """Coerce a scalar or length-d sequence to a 1-d coordinate array."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    elif p.ndim != 1:
        raise ValueError(f"a point must be 1-d, got shape {p.shape}")
    if d is not None and p.shape[0] != d:
        raise ValueError(f"point has dimension {p.shape[0]}, expected {d}")
    return p


def sq_dists(p: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Squared distances from the point ``p`` (length d) to every row of the
    (n, d) array ``C``: every distance to a point set is built from these.

    They accumulate one coordinate column at a time, the order ``_sq_dists``
    (and scipy's ``cdist(..., "sqeuclidean")``) uses, so they equal
    ``_sq_dists(p[None], C)[0]`` bit for bit at every d.
    """
    t = C[:, 0] - p[0]
    sq = t * t
    for k in range(1, C.shape[1]):
        t = C[:, k] - p[k]
        sq += t * t
    return sq


SQ_BLOCK = 64   # rows of A per pass of the squared-distance primitive
# numpy copies a broadcast or strided operand through its ufunc buffer when the
# rows are shorter than the buffer (8192 elements by default); a buffer of 16
# lets each row of a block be one inner loop, with the same values (about 4x
# faster at 1000 columns with numpy 2.4 on x86-64)
_UFUNC_BUFFER = 16


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of the (n, d) array A and the
    (m, d) array B, summed one coordinate column at a time in ``sq_dists``
    order: bit for bit ``cdist(A, B, "sqeuclidean")``, and their roots are
    ``cdist(A, B)``.  When A is B each unordered pair is formed once and
    mirrored, which is exact since (a - b)^2 = (b - a)^2: the result is then
    exactly symmetric with a zero diagonal.  Memory: the result and a
    scratch buffer of one block of ``SQ_BLOCK`` rows.
    """
    same = A is B
    out = np.empty((len(A), len(B)))
    BT = np.ascontiguousarray(B.T)   # one row per coordinate
    t = np.empty((min(SQ_BLOCK, len(A)), len(B)))
    old = np.setbufsize(_UFUNC_BUFFER)
    try:
        for a in range(0, len(A), SQ_BLOCK):
            b = min(a + SQ_BLOCK, len(A))
            c = b if same else len(B)   # the same set: the pairs j < b only
            sq, s = out[a:b, :c], t[: b - a, :c]
            np.subtract(A[a:b, :1], BT[0, :c], out=sq)
            sq *= sq
            for k in range(1, A.shape[1]):
                np.subtract(A[a:b, k: k + 1], BT[k, :c], out=s)
                s *= s
                sq += s
            if same:
                out[:a, a:b] = sq[:, :a].T
    finally:
        np.setbufsize(old)
    return out


class _Distances(NamedTuple):
    """A point p and its distances to a point set S, memoized on S."""

    key: bytes         # p's bytes
    p: np.ndarray      # read-only, so the caller may reuse its own array
    sq: np.ndarray     # sq_dists(p, S.coords)
    d: np.ndarray      # sqrt(sq)
    index: int         # argmin of d: ties go to the lowest index
    nearest: float     # d[index] = dist(p, S)


def _distances(x, S: PointSet) -> _Distances:
    """``x`` as a point of S's dimension with its distances to S: one pass
    over S per new point.  A full memo is cleared before the next insertion;
    a record is never changed once stored, so concurrent callers can only
    miss, never read another point's record.  A point with a NaN or infinite
    coordinate raises ValueError before its pass."""
    # a float's key is packed straight from it: the bytes of as_point(x, 1)
    key = _pack_double(x) if type(x) is float and S.d == 1 else as_point(x, S.d).tobytes()
    rec = S._memo.get(key)
    if rec is None:
        p = np.frombuffer(key)
        if not all(map(math.isfinite, p.tolist())):
            raise ValueError("coordinates must be finite")
        d = np.sqrt(sq := sq_dists(p, S.coords))
        i = int(d.argmin())
        rec = _Distances(key, p, sq, d, i, float(d[i]))
        if len(S._memo) >= _MEMO_SIZE:
            S._memo.clear()
        S._memo[key] = rec
    return rec


def dist_to_set(x, S: PointSet) -> tuple[float, int]:
    """Distance from ``x`` to the nearest point of ``S``.

    Returns ``(value, index)`` where ``index`` is the argmin (ties broken by
    the lowest index, as ``argmin`` does).
    """
    rec = _distances(x, S)
    return rec.nearest, rec.index


ROW_BLOCK = 256   # rows per block wherever an n x n array is read a block at a time


def row_blocks(n: int) -> list[slice]:
    """Slices of ``ROW_BLOCK`` consecutive rows that cover ``range(n)``.

    A one-row tail joins the block before it, since numpy multiplies a
    one-row matrix through gemv or dot, which round unlike the gemm of a
    wider block (README, "lrsp digits").
    """
    starts = list(range(0, n, ROW_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def distance_matrix(X: PointSet) -> np.ndarray:
    """Euclidean distances between every pair of points of X.

    A pair is within delta exactly when its value here is <= delta: both
    sparsity patterns and the LRSP sweep threshold these values.  They are
    the roots of ``_sq_dists``, which evaluates each pair on its own, so the
    row blocks those users form hold the same bits as the whole matrix.
    """
    return np.sqrt(_sq_dists(X.coords, X.coords))


def preset_observations(name: str) -> PointSet:
    """Named 1-d observation layouts used throughout the experiments."""
    try:
        vals = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return PointSet(np.array(vals, dtype=float)[:, None])


def generate_gaussian_cloud(n: int, d: int, seed: int) -> PointSet:
    """n i.i.d. standard-normal points in R^d, deterministic per seed."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    return PointSet(rng.standard_normal((n, d)))


def load_csv(path) -> PointSet:
    """Read one point per line, comma-separated floats.

    A single non-numeric first row is treated as a header and skipped.  Rows
    of differing arity raise :class:`FormatError`.
    """
    rows = []
    arity = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                vals = [float(c) for c in cells]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise FormatError(f"{path}: non-numeric value on line {lineno}") from None
            if arity is None:
                arity = len(vals)
            elif len(vals) != arity:
                raise FormatError(
                    f"{path}: line {lineno} has {len(vals)} fields, expected {arity}"
                )
            rows.append(vals)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return PointSet(np.array(rows, dtype=float))


def standardize(X: PointSet) -> PointSet:
    """Shift/scale each column to mean 0 and unit sample (n-1) variance."""
    c = X.coords
    if c.shape[0] < 2:
        raise DegenerateDataError("standardize needs at least two points")
    sd = c.std(axis=0, ddof=1)
    if np.any(sd == 0):
        bad = np.flatnonzero(sd == 0)
        raise DegenerateDataError(f"zero-variance column(s): {bad.tolist()}")
    return PointSet((c - c.mean(axis=0)) / sd)


def bandwidth_percentile(X: PointSet, q: float) -> float:
    """Bandwidth from the q-th percentile of all pairwise distances.

    Nearest-rank convention: the value at rank ceil((q/100) * m) of the
    m = n(n-1)/2 pairwise distances sorted increasingly.  Only the pairs
    j < i are formed, as squared distances; the root is monotone, so the
    root of the rank-th smallest of them is the rank-th smallest distance.
    """
    if X.n < 2:
        raise ValueError("need at least two points")
    if not 0 < q < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    c = X.coords
    d = np.empty(X.n * (X.n - 1) // 2)
    end = 0
    for a in range(0, X.n, SQ_BLOCK):
        b = min(a + SQ_BLOCK, X.n)
        # the columns j < i of each row i of the block
        pairs = _sq_dists(c[a:b], c[:b])[np.tri(b - a, b, a - 1, dtype=bool)]
        d[end: end + len(pairs)] = pairs
        end += len(pairs)
    rank = min(max(int(np.ceil(q / 100.0 * d.size)), 1), d.size)
    d.partition(rank - 1)   # in place: the rank-th smallest lands at rank - 1
    value = math.sqrt(d[rank - 1])
    if value == 0.0:
        raise DegenerateDataError("selected pairwise distance is zero (duplicate points)")
    return value


def subsample(X: PointSet, m: int, seed: int) -> PointSet:
    """m distinct rows of X, uniform without replacement, seeded."""
    if not 1 <= m <= X.n:
        raise ValueError(f"need 1 <= m <= {X.n}, got {m}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(X.n, size=m, replace=False)
    return PointSet(X.coords[idx])
