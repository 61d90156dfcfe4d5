"""Reproduction harness: one executable, one CSV artifact per subcommand.

Conventions shared by all subcommands:

* every run is deterministic for fixed flags and seed (PCG64 generators;
  derived seeds are documented per subcommand);
* output is a CSV with a header row naming all columns; the first row fixes
  each column as text or as numbers written with 17 significant digits (see
  ``_write_csv``); an initial ``# generated <timestamp>`` comment line can be
  suppressed with ``--no-timestamp``;
* heatmaps are long-form (x, y, value) - plotting is left to external tools;
* exit codes: 0 success, 2 usage error, 1 runtime error.

Each ``_cmd_*`` function computes its table and returns ``(header, rows)``
without any I/O; ``run`` writes every CSV and prints the one report line.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from datetime import datetime, timezone
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import estimators as est
from . import lrsp as lrsp_mod
from . import precond as precond_mod
from .errors import CovfieldError
from .geometry import (
    PointSet,
    bandwidth_percentile,
    generate_gaussian_cloud,
    load_csv,
    preset_observations,
    standardize,
    subsample,
)
from .kernel import KernelConfig, kernel_matrix
from .posterior import fit

GP_DEMO_BETA = 0.9453058162554949
GP_DEMO_SIGMA = 0.06332725946674625
PRECOND_DEFAULT_TAU = 0.004   # nugget for the benchmark systems (tau^2 = 1.6e-5)
BOUNDS_DEFAULT_SIGMA = {1: 0.05, 2: 0.05, 3: 0.4}
DISK_RADIUS = 0.4


class _Rows(NamedTuple):
    """Rows as one item of ``_write_csv``'s rows: row r is ``lead[r]`` (its
    first columns, already written) and then its share of ``cells``."""

    lead: tuple
    cells: tuple


def _write_csv(path, header, rows, timestamp: bool) -> int:
    """Write ``header`` and ``rows`` to ``path`` and return the row count.
    An item of ``rows`` is a ``_Rows`` block, or a row of cells: the block
    ``_Rows(("",), row)``.  The first row's cells fix each column they fill
    as ``%s`` (a str cell) or ``%.17g`` (any number; an int below 1e17 prints
    as its digits), and every block is then one ``%`` with that template
    after each lead, so a row that does not fit it (a str in a number
    column, a list of two or more cells) raises ``TypeError``."""
    blocks = (r if isinstance(r, _Rows) else _Rows(("",), r) for r in rows)
    first = next(blocks, None)
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        fh.write(",".join(header) + "\n")
        if first is not None:
            cells = first.cells[: len(first.cells) // len(first.lead)]
            line = ",".join("%s" if isinstance(c, str) else "%.17g" for c in cells) + "\n"
            for lead, cells in chain((first,), blocks):
                fh.write((line.join(lead) + line) % cells)
                n += len(lead)
    return n


def _load_observations(args) -> PointSet:
    # only bounds leaves both flags unset, which selects its default preset
    S = load_csv(args.obs) if args.obs else preset_observations(args.preset or "uniform1d")
    if S.d != 1:   # before any kernel work
        raise CovfieldError(f"--obs must hold 1-d points, got d = {S.d}")
    return S


def _unit_grid(n: int) -> PointSet:
    return PointSet(np.linspace(0.0, 1.0, n)[:, None])


def _grid_rows(g: PointSet, *mats: np.ndarray):
    """Rows ``x_i, x_j, M[i, j] for M in mats`` over every grid pair, one
    ``_Rows`` block of Python floats per grid row i, with each x written once
    as "%.17g" does.  Blocks are made one at a time, since the whole grid as
    Python floats would hold several times the memory of the matrices."""
    xs = ["%.17g," % x for x in g.coords[:, 0].tolist()]
    for i, xi in enumerate(xs):
        cells = np.column_stack([M[i] for M in mats]).ravel().tolist()
        yield _Rows(tuple(map(xi.__add__, xs)), tuple(cells))


def _at_least(args, **lows: int) -> None:
    for dest, lo in lows.items():   # before any kernel work, naming the flag
        if (value := getattr(args, dest)) < lo:
            raise CovfieldError(f"--{dest.replace('_', '-')} must be >= {lo}, got {value}")


# ---------------------------------------------------------------- subcommands


def _cmd_field(args):
    _at_least(args, grid=1)
    S = _load_observations(args)
    model = fit(S, KernelConfig(sigma=args.sigma, tau=args.tau))
    g = _unit_grid(args.grid)
    R = np.abs(model.cov_matrix(g, g))
    return ["x", "y", "value"], _grid_rows(g, R)


def _disk_points(rng, count: int) -> np.ndarray:
    pts = np.empty((0, 2))
    while len(pts) < count:
        cand = rng.uniform(-DISK_RADIUS, DISK_RADIUS, size=(4 * count, 2))
        cand = cand[np.linalg.norm(cand, axis=1) <= DISK_RADIUS]
        pts = np.vstack([pts, cand])
    return pts[:count]


def _cmd_field2d(args):
    _at_least(args, grid=1, n_obs=1, seed=0)
    rng = np.random.default_rng(args.seed)
    S = PointSet(_disk_points(rng, args.n_obs))
    xstar = _disk_points(rng, 1)[0]
    model = fit(S, KernelConfig(sigma=args.sigma, tau=args.tau))
    ax = np.linspace(-DISK_RADIUS, DISK_RADIUS, args.grid)
    yy, xx = np.meshgrid(ax, ax)
    mask = xx**2 + yy**2 <= DISK_RADIUS**2
    pts = np.column_stack([xx[mask], yy[mask]])
    vals = np.abs(model.cov_matrix(PointSet(xstar[None, :]), PointSet(pts)))[0]
    rows = [("xstar", xstar[0], xstar[1], math.nan)]
    rows += [("obs", p[0], p[1], math.nan) for p in S.coords]
    rows += [("field", p[0], p[1], v) for p, v in zip(pts, vals)]
    return ["kind", "y1", "y2", "value"], rows


def _cmd_bounds(args):
    _at_least(args, grid=1)
    if not math.isfinite(args.ystar):
        raise CovfieldError(f"--ystar must be finite, got {args.ystar}")
    sigma = args.sigma if args.sigma is not None else BOUNDS_DEFAULT_SIGMA[args.condition]
    S = _load_observations(args)
    model = fit(S, KernelConfig(sigma=sigma))
    g = _unit_grid(args.grid)
    in_region, exact, curves = bounds_mod._curve_table(
        model, args.ystar, g, args.condition, bounds_mod.CURVE_KINDS)
    rows = zip(g.coords[:, 0], in_region.astype(int), exact, *curves)
    return ["x", "in_region", "exact_abs", "upper_curve", "lower_curve", "distance_curve"], rows


def _cmd_estimate(args):
    _at_least(args, grid=1)
    S = _load_observations(args)
    model = fit(S, KernelConfig(sigma=args.sigma))
    g = _unit_grid(args.grid)
    R = np.abs(model.cov_matrix(g, g))
    field = est.absolute_field(est.estimator_field(g, S, args.sigma), float(R.max()))
    return ["x", "y", "exact", "estimate"], _grid_rows(g, R, field)


def _cmd_gp_demo(args):
    _at_least(args, n_obs=2, grid=1, seed=0)
    rng = np.random.default_rng(args.seed)
    sx = np.sort(rng.uniform(0.0, 1.0, args.n_obs))
    S = PointSet(sx[:, None])
    f = lambda t: np.cos(25.0 * t**2)  # noqa: E731
    model = fit(S, KernelConfig(sigma=args.sigma, beta=args.beta))
    refs = est.reference_points_1d(model)
    g = _unit_grid(args.grid)
    mean = model.mean(f(sx), g)
    true_std = np.sqrt(np.maximum(0.0, [model.variance(p) for p in g.coords]))
    est_std = np.sqrt(
        np.maximum(0.0, [est.variance_estimator_auto(p, model, refs) for p in g.coords])
    )
    rows = [("obs", x, f(x), math.nan, math.nan) for x in sx]
    rows += [
        ("curve", g.coords[i, 0], mean[i], true_std[i], est_std[i]) for i in range(g.n)
    ]
    return ["kind", "x", "mean_or_value", "true_std", "est_std"], rows


def _cmd_svd(args):
    _at_least(args, equispaced=1)
    if not 1 <= args.k <= args.equispaced:
        raise CovfieldError(f"--k must lie in [1, --equispaced = {args.equispaced}], got {args.k}")
    X = _unit_grid(args.equispaced)
    K = kernel_matrix(X, X, KernelConfig(sigma=args.sigma))
    s = np.linalg.svd(K, compute_uv=False)[: args.k]
    return ["index", "value"], ((i + 1, s[i]) for i in range(len(s)))


def _parse_sweep(text: str, name: str, max_len: int) -> list[float]:
    """The values of a ``lo:hi:step`` sweep, numpy's ``arange(lo, hi +
    1e-9, step)``; their count is checked to lie in [1, ``max_len``] before
    the array is built."""
    try:
        lo, hi, step = (float(t) for t in text.split(":"))
    except ValueError:
        raise CovfieldError(f"{name} must look like lo:hi:step, got {text!r}") from None
    if not (lo <= hi < math.inf and 0 < step < math.inf):   # NaN fails too
        raise CovfieldError(f"{name}: need finite lo <= hi and step > 0, got {text!r}")
    # arange's length: 0 when hi = lo is so large that hi + 1e-9 rounds to hi
    count = math.ceil((hi + 1e-9 - lo) / step)
    if not 1 <= count <= max_len:
        raise CovfieldError(f"{name}: {count} values, need 1 to {max_len}")
    return np.arange(lo, hi + 1e-9, step).tolist()


def _cmd_lrsp(args):
    _at_least(args, n=1, d=1, seed=0)
    n = args.n
    # every flag is checked before any factor work; ranks round to integers
    # in [1, n] and n points have at most n(n-1)/2 + 1 distinct radius
    # patterns, so longer sweeps would only repeat rows
    if not 1 <= args.r0 <= n:
        raise CovfieldError(f"--r0 must lie in [1, n = {n}], got {args.r0}")
    ranks = [int(round(rank)) for rank in _parse_sweep(args.rank_sweep, "--rank-sweep", n)]
    for rank in (ranks[0], ranks[-1]):   # ranks increase
        if not 1 <= rank <= n:
            raise CovfieldError(f"--rank-sweep: rank {rank} outside [1, n = {n}]")
    deltas = _parse_sweep(args.delta_sweep, "--delta-sweep", n * (n - 1) // 2 + 1)
    if deltas[0] < 0:
        raise CovfieldError(f"--delta-sweep: radii must be >= 0, got lo = {deltas[0]:g}")
    cfg = KernelConfig(sigma=args.sigma)
    radii = np.array(deltas) * args.sigma

    X = generate_gaussian_cloud(n, args.d, args.seed)
    # every rank is a prefix of one factor at the largest rank the run can
    # ask for; a pattern has at most n^2 entries, which bounds matched ranks
    k_max = max(ranks + [math.ceil(lrsp_mod.cost_equivalent_rank(args.r0, n, n**2))])
    perm = np.random.default_rng(args.seed + 1).permutation(n)
    full = lrsp_mod.nystrom_build(X, perm[: min(k_max, n)], cfg)
    v = np.random.default_rng(args.seed + 2).standard_normal(n)

    # one row-block pass per sweep: the radius pass gives the pattern sizes
    # that fix the matched ranks the rank pass reads
    sparse = lrsp_mod.lrsp_sweep(X, cfg, full.prefix(args.r0), radii, v)
    k_eq = [lrsp_mod.cost_equivalent_rank(args.r0, n, nnz) for nnz, _, _ in sparse]
    matched = [min(int(round(k)), n) for k in k_eq]
    lr = lrsp_mod.lowrank_sweep(X, cfg, full, ranks + matched, v)

    rows = [(float(k), lr[k][0], math.nan, lr[k][1], math.nan) for k in ranks]
    rows += [(k, lr[kk][0], em, lr[kk][1], e2)
             for k, kk, (_, em, e2) in zip(k_eq, matched, sparse)]
    return ["equiv_rank", "lr_max", "lrsp_max", "lr_2norm", "lrsp_2norm"], rows


def _cmd_precond(args):
    # every flag is checked before any kernel work; r needs n, so it is
    # checked once the data are loaded
    _at_least(args, n=1, d=1, maxit=1, seed=0)
    if not 0 < args.tol < math.inf:
        raise CovfieldError(f"--tol must be a finite number > 0, got {args.tol}")
    if args.delta is not None and not 0 <= args.delta < math.inf:
        raise CovfieldError(f"--delta must be a finite number >= 0, got {args.delta}")
    if not math.isfinite(args.r_fraction):
        raise CovfieldError(f"--r-fraction must be finite, got {args.r_fraction}")
    if not 0 < args.percentile < 100:
        raise CovfieldError(f"--percentile must lie in (0, 100), got {args.percentile}")
    if not 0 <= args.tau < math.inf:
        raise CovfieldError(f"--tau must be a finite number >= 0, got {args.tau}")
    if args.data:
        X = load_csv(args.data)
        if (m := args.subsample) is not None:
            if not 1 <= m <= X.n:
                raise CovfieldError(f"--subsample out of range: need 1 <= m <= {X.n}, got {m}")
            X = subsample(X, m, args.seed)
        if args.standardize:
            X = standardize(X)
    else:
        X = generate_gaussian_cloud(args.n, args.d, args.seed)
    r = max(1, round(args.r_fraction * X.n))
    if not r < X.n:
        raise CovfieldError(
            f"--r-fraction {args.r_fraction:g} gives r = {r} landmarks, need r < n = {X.n}")
    sigma = bandwidth_percentile(X, args.percentile)
    cfg = KernelConfig(sigma=sigma, tau=args.tau)
    results = precond_mod.run_methods(
        X, cfg, r=r, delta=args.delta, tol_abs=args.tol, max_iter=args.maxit, seed=args.seed + 1)
    header = ["method", "iterations", "rel_err", "residual", "fsai_nnz_fraction"]
    return header, (tuple(r[c] for c in header) for r in results)


def _cmd_gen(args):
    _at_least(args, n=1, d=1, seed=0)
    X = generate_gaussian_cloud(args.n, args.d, args.seed)
    return [f"x{i}" for i in range(args.d)], (tuple(row) for row in X.coords)


# ---------------------------------------------------------------- arg parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the leading timestamp comment line")


def _add_observation_source(p: argparse.ArgumentParser, required: bool = True) -> None:
    grp = p.add_mutually_exclusive_group(required=required)
    grp.add_argument("--preset", choices=["uniform1d", "nonuniform1d"])
    grp.add_argument("--obs", help="CSV of observation points")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="covfield",
        description="CSV artifacts for posterior covariance fields, bounds, "
                    "estimators, LRSP approximation and AFN preconditioning",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="|R(x,y)| heatmap over [0,1]^2 (long form)")
    _add_observation_source(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=101)
    _add_common(p)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("field2d", help="disk slice |R(x*, y)| with seeded x* and observations")
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--n-obs", type=int, default=25)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_field2d)

    p = sub.add_parser("bounds", help="pattern curves vs |R(x, y*)| per condition")
    p.add_argument("--condition", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--ystar", type=float, default=0.15)
    p.add_argument("--sigma", type=float, default=None,
                   help="default 0.05/0.05/0.4 for conditions 1/2/3")
    _add_observation_source(p, required=False)
    p.add_argument("--grid", type=int, default=101)
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("estimate", help="exact |R| field vs calibrated estimator field")
    _add_observation_source(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--grid", type=int, default=101)
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("gp-demo", help="posterior regression with true and estimated std bands")
    p.add_argument("--beta", type=float, default=GP_DEMO_BETA)
    p.add_argument("--sigma", type=float, default=GP_DEMO_SIGMA)
    p.add_argument("--n-obs", type=int, default=15)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--grid", type=int, default=1001)
    _add_common(p)
    p.set_defaults(func=_cmd_gp_demo)

    p = sub.add_parser("svd", help="top singular values of the kernel matrix")
    p.add_argument("--equispaced", type=int, default=500)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--k", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=_cmd_svd)

    p = sub.add_parser("lrsp", help="low-rank vs LRSP error curves at equal storage")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--r0", type=int, default=100)
    p.add_argument("--delta-sweep", default="1:10:1",
                   help="lo:hi:step in units of sigma; write a value that starts "
                        "with '-' as --delta-sweep=-1:3:1")
    p.add_argument("--rank-sweep", default="100:660:40")
    _add_common(p)
    p.set_defaults(func=_cmd_lrsp)

    p = sub.add_parser("precond", help="three-method preconditioning benchmark table")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--data", default=None, help="CSV dataset instead of synthetic")
    p.add_argument("--subsample", type=int, default=None)
    p.add_argument("--standardize", action="store_true",
                   help="standardize --data columns to zero mean, unit variance")
    p.add_argument("--seed", type=int, default=42,
                   help="data seed; landmarks/pattern/rhs use seed+1/+2/+3")
    p.add_argument("--r-fraction", type=float, default=0.2)
    p.add_argument("--delta", type=float, default=None, help="default 2 sigma")
    p.add_argument("--percentile", type=float, default=2.0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--maxit", type=int, default=1000)
    p.add_argument("--tau", type=float, default=PRECOND_DEFAULT_TAU,
                   help="noise level; the benchmark solves (K + tau^2 I) z = b")
    _add_common(p)
    p.set_defaults(func=_cmd_precond)

    p = sub.add_parser("gen", help="write a seeded standard-normal dataset CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    return ap


def run(argv) -> int:
    """Parse ``argv``, run the subcommand and write its CSV to ``--out``;
    returns the exit code."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    t0 = time.time()
    try:
        header, rows = args.func(args)
        n = _write_csv(args.out, header, rows, not args.no_timestamp)
    except (CovfieldError, OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {n} rows to {args.out} in {time.time() - t0:.2f} s")
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
