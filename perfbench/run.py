"""covfield's benchmark.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 30] [--trace 0|1]

Run from the root of a checkout.  This script starts workers
(``perfbench/worker.py``) one after another, never two at once, each a fresh
process with one BLAS thread pinned through the environment, for about
``--seconds``.  Each worker imports covfield from ``src/``, sets
up the workload from its input seed, runs its timed body once and checks the
outputs.

Every worker of one run uses ``--seed`` as its input seed, so the medians
of two runs with the same seed cover the same inputs however many workers
each fitted into ``--seconds``.  ``--trace 0`` reports the end-to-end metrics
as medians over the workers.  ``--trace 1`` alternates untraced and traced
workers and reports the per-layer metrics of the traced ones plus the tracing
overhead; their spans are written to ``.perfbench_out/spans/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record of
the run goes to ``.perfbench_out/``.  The exit code is 0 when every worker
ran, even if a check failed (``correct`` is then false), and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("precond-sparse", "precond-dense", "lrsp-sweep", "field-queries")
DEADLINE_S = 170.0   # the whole run, workers included, ends within this
BLAS_THREADS = "1"


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(cfg: dict, deadline: float) -> dict:
    """One worker process, started and waited for; its JSON record."""
    cfg = {**cfg, "spawn_time": time.time()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {cfg['run_id']} passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {cfg['run_id']} exited with {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return json.loads(Path(cfg["result"]).read_text(encoding="utf-8"))


def run_workers(args, workdir: Path) -> list[dict]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    records = []
    while True:
        k = len(records)
        traced = bool(args.trace) and k % 2 == 1
        records.append(run_worker({
            "workload": args.workload, "seed": args.seed, "trace": traced, "run_id": k,
            "workdir": str(workdir), "result": str(workdir / f"worker{k}.json"),
            "spans_out": str(OUT / "spans" / f"{args.workload}-seed{args.seed}-w{k}.npz"),
        }, deadline))
        elapsed = time.monotonic() - start
        # start another worker only if it is expected to end closer to
        # --seconds than stopping now would
        if (len(records) >= (2 if args.trace else 1)
                and elapsed + 0.5 * elapsed / len(records) > args.seconds):
            return records


def end_to_end(records: list[dict]) -> tuple[dict, dict]:
    """(metrics listed in BENCHMARK.json, extras printed where they apply)."""
    plain = [r for r in records if not r["traced"]]
    values = {name: metrics.median([r[name] for r in plain]) for name in metrics.END_TO_END}
    attempted = sum(r["attempted"] for r in records)
    extras = {"error_rate": sum(r["failed"] for r in records) / attempted}
    queries = [q for r in plain for q in r["query_s"]]
    if queries:
        extras["query_p50_us"] = 1e6 * metrics.percentile(queries, 50)
        extras["query_p99_us"] = 1e6 * metrics.percentile(queries, 99)
        extras["cli_grid_s"] = metrics.median([r["cli_s"] for r in plain])
    return values, extras


def per_layer(records: list[dict]) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    values = {name: metrics.median([r["layer_metrics"][name] for r in traced])
              for name in metrics.PER_LAYER}
    traced_run = metrics.median([r["run_s"] for r in traced])
    values["trace.run_s"] = traced_run
    values["trace.overhead_pct"] = 100.0 * (
        traced_run / metrics.median([r["run_s"] for r in plain]) - 1.0)
    values["trace.spans"] = metrics.median([r["spans"] for r in traced])
    return values


def layer_table(records: list[dict]) -> list[str]:
    """Self time per layer (median over traced workers) against the traced
    setup_s and run_s."""
    traced = [r for r in records if r["traced"]]
    lines = [f"{'layer':<12}{'setup self_s':>14}{'run self_s':>14}{'share of run_s':>16}"]
    run_s = metrics.median([r["run_s"] for r in traced])
    setup_s = metrics.median([r["setup_s"] for r in traced])
    totals = {"setup": 0.0, "run": 0.0}
    for layer in traced[0]["phase_self_s"]["run"]:
        cell = {ph: metrics.median([r["phase_self_s"][ph][layer] for r in traced])
                for ph in totals}
        for ph in totals:
            totals[ph] += cell[ph]
        lines.append(f"{layer:<12}{cell['setup']:>14.4f}{cell['run']:>14.4f}"
                     f"{100 * cell['run'] / run_s:>15.1f}%")
    lines.append(f"{'all spans':<12}{totals['setup']:>14.4f}{totals['run']:>14.4f}"
                 f"{100 * totals['run'] / run_s:>15.1f}%")
    lines.append(f"{'traced':<12}{setup_s:>14.4f}{run_s:>14.4f}   (setup_s, run_s)")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "covfield").is_dir():
        print(f"error: no covfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        records = run_workers(args, workdir)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines, result, record = report(records, args.trace)
    print(f"covfield benchmark: workload {args.workload}, seed {args.seed}")
    print("\n".join(lines))
    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace})
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def report(records: list[dict], trace: int) -> tuple[list[str], dict, dict]:
    """(printed lines, the result object, the full record) of one run."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    env, params = records[0]["environment"], records[0]["params"]
    lines = [f"{len(records)} workers, trace {trace}",
             f"environment: python {env['python']}, numpy {env['numpy']}, "
             f"scipy {env['scipy']}, nproc {env['nproc']} (affinity {env['affinity']})"]
    lines += [f"  {name}: {lib['threads']} BLAS thread(s) in effect, {lib['version']}"
              for name, lib in env["blas"].items()]
    lines.append(f"params: {json.dumps(params)}")
    lines.append(f"checks: {attempted} attempted, {failed} failed")
    lines += [f"  failed: {what}" for r in records for what in r["failures"]]

    e2e, extras = end_to_end(records)
    if trace:
        lines += layer_table(records)
        reported, units = per_layer(records), dict(metrics.PER_LAYER_UNITS)
    else:
        reported, units = e2e, dict(metrics.END_TO_END)
    units.update(metrics.WORKLOAD_EXTRAS)
    lines += [metrics.format_metric(name, value, units[name])
              for name, value in {**reported, **extras}.items()]

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()}}
    record = {"params": params, "environment": env, "end_to_end": e2e, "extras": extras,
              "result": result,
              "workers": [{k: v for k, v in r.items() if k not in ("query_s", "environment")}
                          for r in records]}
    return lines, result, record


if __name__ == "__main__":
    sys.exit(main())
