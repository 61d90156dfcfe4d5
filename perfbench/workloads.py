"""The benchmark's workloads and the output checks behind ``error_rate``.

Each workload is a closed loop with one client: ``setup`` builds the inputs
from the seed, ``body`` is the timed part, and ``check`` inspects the body's
outputs afterwards, untimed.  covfield
is driven only through public entry points - ``covfield.cli.run(argv)`` as a
user runs the CLI, and the package-level functions and model methods for
pointwise queries - looked up at call time, so a traced worker reaches the
rebound names.

Checks compare against stated tolerances, never against exact bytes: CSV
digits depend on the BLAS thread count.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import covfield
from covfield import cli

PRECOND_TOL = 1e-5
PRECOND_MAXIT = 1000
N_QUERIES = 10_000
SANDWICH_SLACK = 1e-12
QUERY_PRESETS = ("uniform1d", "nonuniform1d")
QUERY_SIGMAS = (0.03, 0.05, 0.1, 0.2, 0.4)
GRID_1D = 1001
ESTIMATE_GRID = 301
ESTIMATE_SIGMAS = (0.1, 0.4)
GP_DEMO_OBS = 15      # covfield gp-demo's default --n-obs


class Checks:
    """Output checks of one worker; the run's ``error_rate`` is failed /
    attempted, summed over its workers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok


@dataclass
class Timings:
    run_s: float = 0.0                                   # the timed body
    cli_s: float = 0.0                                   # CLI calls within it
    query_s: list[float] = field(default_factory=list)   # one per pointwise query


@dataclass(frozen=True)
class Workload:
    """``setup(seed, workdir, checks) -> state`` builds the inputs,
    ``body(state) -> (timings, outputs)`` is timed, and
    ``check(state, outputs, checks)`` runs after it, untimed."""

    params: Callable[[int], dict]
    setup: Callable[[int, Path, Checks], object]
    body: Callable[[object], tuple[Timings, object]]
    check: Callable[[object, object, Checks], None]


def _count_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1   # header row


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class CliJob:
    argv: list[str]
    out: Path
    rows: int        # data rows the CSV must hold

    def run(self) -> tuple[float, int]:
        """One timed CLI call: (seconds, exit code)."""
        t0 = time.perf_counter()
        code = cli.run([*self.argv, "--out", str(self.out), "--no-timestamp"])
        return time.perf_counter() - t0, code

    def check(self, code: int, checks: Checks) -> bool:
        if not checks.check(code == 0, f"covfield {self.argv[0]} exited with {code}"):
            return False
        n = _count_rows(self.out)
        return checks.check(n == self.rows,
                            f"covfield {self.argv[0]} wrote {n} rows, expected {self.rows}")


def _one_job_body(job: CliJob):
    t, code = job.run()
    return Timings(run_s=t), code


# ------------------------------------------------------------------ precond


def _precond_job(seed: int, workdir: Path, data: Path | None = None) -> CliJob:
    source = ["--data", str(data), "--standardize"] if data else []
    return CliJob(["precond", *source, "--seed", str(seed),
                   "--tol", repr(PRECOND_TOL), "--maxit", str(PRECOND_MAXIT)],
                  workdir / "precond.csv", 3)


def _precond_check(job: CliJob, code: int, checks: Checks) -> None:
    if not job.check(code, checks):
        return
    # methods 1 and 2 may reach maxit; only method 3 must converge
    m3 = [r for r in _read_rows(job.out) if r["method"] == "3"]
    ok = (len(m3) == 1 and int(m3[0]["iterations"]) < PRECOND_MAXIT
          and float(m3[0]["residual"]) <= PRECOND_TOL)
    checks.check(ok, f"precond method 3 did not converge: {m3}")


def _precond_dense_setup(seed, workdir, checks):
    gen = CliJob(["gen", "--n", "1000", "--d", "8", "--seed", str(seed)],
                 workdir / "cloud.csv", 1000)
    gen.check(gen.run()[1], checks)
    return _precond_job(seed, workdir, gen.out)


# --------------------------------------------------------------------- lrsp

_LRSP_RANKS = 15     # --rank-sweep 100:660:40 (the default)
_LRSP_RADII = 10     # --delta-sweep 1:10:1 (the default)


def _lrsp_check(job: CliJob, code: int, checks: Checks) -> None:
    if not job.check(code, checks):
        return
    for row in _read_rows(job.out):
        lrsp_max = float(row["lrsp_max"])
        if not math.isnan(lrsp_max):
            checks.check(lrsp_max <= float(row["lr_max"]),
                         f"lrsp_max {lrsp_max} > lr_max {row['lr_max']}")


# ------------------------------------------------------------ field queries


def _field_setup(seed, workdir, checks):
    models = []
    for preset in QUERY_PRESETS:
        for sigma in QUERY_SIGMAS:
            model = covfield.fit(covfield.preset_observations(preset),
                                 covfield.KernelConfig(sigma=sigma))
            models.append((model, covfield.reference_points_1d(model)))
    rng = np.random.default_rng(seed)
    which = rng.integers(0, len(models), N_QUERIES).tolist()
    xy = rng.uniform(0.0, 1.0, (N_QUERIES, 2)).tolist()
    argvs = [(["gp-demo", "--seed", str(seed), "--grid", str(GRID_1D)], GP_DEMO_OBS + GRID_1D)]
    argvs += [(["bounds", "--condition", str(c), "--grid", str(GRID_1D)], GRID_1D)
              for c in (1, 2, 3)]
    argvs += [(["estimate", "--preset", "nonuniform1d", "--sigma", str(s),
                "--grid", str(ESTIMATE_GRID)], ESTIMATE_GRID**2) for s in ESTIMATE_SIGMAS]
    jobs = [CliJob(argv, workdir / f"grid{i}.csv", rows) for i, (argv, rows) in enumerate(argvs)]
    return {"models": models, "queries": [(k, x, y) for k, (x, y) in zip(which, xy)],
            "jobs": jobs}


def _query(model, refs, x, y):
    S, sigma = model.S, model.cfg.sigma
    return (
        model.cov(x, y),
        covfield.lower_bound_small(model, x, y),
        covfield.upper_bound_small(model, x, y),
        covfield.upper_bound_large(model, x, y),
        covfield.field_estimator_small(x, y, S, sigma),
        covfield.field_estimator_large(x, y, S, sigma),
        model.variance(x),
        covfield.variance_estimator_auto(x, model, refs),
    )


def _field_body(state):
    timings = Timings()
    values, codes = [], []
    clock = time.perf_counter
    for k, x, y in state["queries"]:
        model, refs = state["models"][k]
        t0 = clock()
        try:
            values.append(_query(model, refs, x, y))
        except covfield.CovfieldError as exc:
            values.append(exc)
        timings.query_s.append(clock() - t0)
    for job in state["jobs"]:
        t, code = job.run()
        timings.cli_s += t
        codes.append(code)
    timings.run_s = sum(timings.query_s) + timings.cli_s
    return timings, (values, codes)


def _field_check(state, outputs, checks):
    values, codes = outputs
    for (k, x, y), v in zip(state["queries"], values):
        if isinstance(v, Exception):
            checks.check(False, f"query ({x}, {y}) raised {v!r}")
            continue
        model = state["models"][k][0]
        r, lb, ubs, ubl, *estimates = v
        a = abs(r)
        checks.check(lb <= a + SANDWICH_SLACK and a <= min(ubs, ubl) + SANDWICH_SLACK,
                     f"bound sandwich broken at ({x}, {y}): {lb} <= {a} <= {min(ubs, ubl)}")
        checks.check(r == model.cov(y, x), f"cov({x}, {y}) != cov({y}, {x})")
        checks.check(all(math.isfinite(e) for e in estimates),
                     f"non-finite estimate or variance at ({x}, {y}): {estimates}")
    for job, code in zip(state["jobs"], codes):
        job.check(code, checks)


def _precond_params(d, data):
    def params(seed):
        return {"n": 1000, "d": d, "data": data, "seed": seed, "percentile": 2.0,
                "tau": cli.PRECOND_DEFAULT_TAU, "r_fraction": 0.2, "delta": "2 sigma",
                "tol": PRECOND_TOL, "maxit": PRECOND_MAXIT, "methods": [1, 2, 3]}
    return params


WORKLOADS = {
    "precond-sparse": Workload(
        _precond_params(3, "randn"),
        lambda seed, workdir, checks: _precond_job(seed, workdir),
        _one_job_body, _precond_check),
    "precond-dense": Workload(
        _precond_params(8, "covfield gen CSV, --standardize"),
        _precond_dense_setup, _one_job_body, _precond_check),
    "lrsp-sweep": Workload(
        lambda seed: {"n": 1000, "d": 3, "seed": seed, "sigma": 0.5, "r0": 100,
                      "ranks": _LRSP_RANKS, "radii": _LRSP_RADII},
        lambda seed, workdir, checks: CliJob(
            ["lrsp", "--seed", str(seed)], workdir / "lrsp.csv", _LRSP_RANKS + _LRSP_RADII),
        _one_job_body, _lrsp_check),
    "field-queries": Workload(
        lambda seed: {"seed": seed, "queries": N_QUERIES, "presets": list(QUERY_PRESETS),
                      "sigmas": list(QUERY_SIGMAS), "grid": GRID_1D,
                      "estimate_grid": ESTIMATE_GRID, "estimate_sigmas": list(ESTIMATE_SIGMAS)},
        _field_setup, _field_body, _field_check),
}
