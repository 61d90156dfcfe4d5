"""One benchmark worker: set up one workload, run its timed body once, check
the outputs and write a JSON record.

    python3 perfbench/worker.py '<json config>'

``run.py`` starts each worker in a fresh process with the BLAS thread count
already pinned in the environment, so numpy sees it at import.  A traced
worker rebinds covfield's public names to span-recording wrappers before the
set-up and writes its spans out after the body.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _blas_symbol(lib, stem: str):
    for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}", f"openblas_{stem}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def blas_libraries() -> dict[str, dict]:
    """Thread count in effect and version string of every OpenBLAS loaded
    into this process (numpy and scipy each bundle their own)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        threads = _blas_symbol(lib, "get_num_threads")
        config = _blas_symbol(lib, "get_config")
        if threads is None or config is None:
            continue
        config.restype = ctypes.c_char_p
        out[Path(path).name] = {"threads": int(threads()), "version": config().decode().strip()}
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


@contextmanager
def _phase(tracer, name):
    if tracer is None:
        yield
        return
    i = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(i)


def main(cfg: dict) -> None:
    import metrics
    import spans
    from workloads import WORKLOADS, Checks

    tracer = None
    if cfg["trace"]:
        tracer = spans.Tracer(cfg["run_id"])
        spans.install(tracer)
    workload = WORKLOADS[cfg["workload"]]
    checks = Checks()
    env = environment()
    threads = [lib["threads"] for lib in env["blas"].values()]
    checks.check(all(t == 1 for t in threads), f"BLAS threads in effect: {threads}")

    with _phase(tracer, "bench.setup"):
        state = workload.setup(cfg["seed"], Path(cfg["workdir"]), checks)
    setup_s = time.time() - cfg["spawn_time"]
    with _phase(tracer, "bench.run"):
        timings, outputs = workload.body(state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the per-layer figures cover set-up and body; the checks' own calls
    # into covfield (cov(y, x) for symmetry) are left out
    counts = dict(tracer.counts) if tracer is not None else None
    with _phase(tracer, "bench.check"):
        workload.check(state, outputs, checks)
    record = {
        "traced": bool(cfg["trace"]),
        "params": workload.params(cfg["seed"]),
        "setup_s": setup_s,
        "run_s": timings.run_s,
        "cli_s": timings.cli_s,
        "query_s": timings.query_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "environment": env,
    }
    if tracer is not None:
        phases = spans.summarize(tracer)
        setup, run = phases.get("bench.setup", {}), phases.get("bench.run", {})
        record["layer_metrics"] = metrics.layer_metrics(spans.merge(setup, run), counts)
        record["phase_self_s"] = {"setup": metrics.layer_self_s(setup),
                                  "run": metrics.layer_self_s(run)}
        record["spans"] = len(tracer.start)
        tracer.save(cfg["spans_out"], {"workload": cfg["workload"], "seed": cfg["seed"]})
    Path(cfg["result"]).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
