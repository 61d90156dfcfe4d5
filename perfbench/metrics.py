"""Names, units and arithmetic of the benchmark's metrics.

End-to-end metrics are what a user of covfield sees, measured in untraced
workers.  Per-layer metrics come from the spans and boundary counts of a
traced worker and cover its whole life, set-up and timed body; ``_s`` is the
self time of the named functions, ``_calls`` their call count.  Counts that
are derived from array sizes rather than observed are labelled computed.
"""

from __future__ import annotations

import math
import statistics

from spans import LAYERS

# The end-to-end metrics every workload reports; BENCHMARK.json lists these.
END_TO_END = {
    "setup_s": "s",          # worker start to the first timed call (median of workers)
    "run_s": "s",            # the timed body (median of workers)
    "peak_rss_mb": "MB",     # ru_maxrss of the worker (median of workers)
}

# Printed and recorded where they apply, not listed in BENCHMARK.json: the
# error rate is 0 on a passing run, and the others exist on field-queries only.
WORKLOAD_EXTRAS = {
    "error_rate": "ratio",   # failed checks / checks attempted
    "query_p50_us": "us",    # per pointwise query, pooled over the run's workers
    "query_p99_us": "us",
    "cli_grid_s": "s",       # the CLI grid jobs of field-queries (median of workers)
}

COMPUTED = {"kernel.entries", "posterior.cov_matrix_entries",
            "precond.fsai_flops", "precond.fsai_eye_bytes"}


def _span(key, field):
    return lambda s, c: s.get(key, {}).get(field, 0)


def _self(*keys):
    return lambda s, c: sum(s.get(k, {}).get("self_s", 0.0) for k in keys)


def _count(key):
    return lambda s, c: c.get(key, 0)


def _per(num, den, scale=1.0):
    return lambda s, c: scale * num(s, c) / den(s, c) if den(s, c) else 0.0


def _layer(layer):
    return lambda s, c: sum(r["self_s"] for k, r in s.items() if k.split(".", 1)[0] == layer)


def _pcg_iters(s, c):
    return sum(c.get(f"precond.pcg_iters_m{m}", 0) for m in (1, 2, 3))


_APPLY = "precond.AfnPreconditioner.apply_inverse"

# name -> (unit, value from (span summary, boundary counts))
PER_LAYER = {f"{layer}.self_s": ("s", _layer(layer)) for layer in LAYERS}
PER_LAYER.update({
    "geometry.bandwidth_percentile_s": ("s", _self("geometry.bandwidth_percentile")),
    "geometry.dist_to_set_calls": ("count", _span("geometry.dist_to_set", "calls")),
    "geometry.dist_to_set_s": ("s", _self("geometry.dist_to_set")),
    "geometry.pointset_new": ("count", _count("geometry.pointset_new")),
    "kernel.kernel_matrix_calls": ("count", _span("kernel.kernel_matrix", "calls")),
    "kernel.kernel_matrix_s": ("s", _self("kernel.kernel_matrix")),
    "kernel.entries": ("count", _count("kernel.entries")),
    "kernel.kernel_eval_calls": ("count", _span("kernel.kernel_eval", "calls")),
    "posterior.fit_calls": ("count", _span("posterior.fit", "calls")),
    "posterior.fit_s": ("s", _self("posterior.fit")),
    "posterior.fit_jittered": ("count", _count("posterior.fit_jittered")),
    "posterior.cov_calls": ("count", _span("posterior.PosteriorModel.cov", "calls")),
    "posterior.cov_s": ("s", _self("posterior.PosteriorModel.cov")),
    "posterior.cross_weights_calls":
        ("count", _span("posterior.PosteriorModel.cross_weights", "calls")),
    "posterior.cross_weights_s": ("s", _self("posterior.PosteriorModel.cross_weights")),
    "posterior.variance_calls": ("count", _span("posterior.PosteriorModel.variance", "calls")),
    "posterior.variance_s": ("s", _self("posterior.PosteriorModel.variance")),
    "posterior.cov_matrix_s": ("s", _self("posterior.PosteriorModel.cov_matrix")),
    "posterior.cov_matrix_entries": ("count", _count("posterior.cov_matrix_entries")),
    "bounds.upper_bound_small_s": ("s", _self("bounds.upper_bound_small")),
    "bounds.lower_bound_small_s": ("s", _self("bounds.lower_bound_small")),
    "bounds.upper_bound_large_s": ("s", _self("bounds.upper_bound_large")),
    "bounds.estimate_curve_s": ("s", _self("bounds.estimate_curve")),
    "estimators.dist_metrics_calls": ("count", _span("estimators.dist_metrics", "calls")),
    "estimators.field_estimator_s":
        ("s", _self("estimators.field_estimator_small", "estimators.field_estimator_large")),
    "estimators.variance_estimator_auto_s": ("s", _self("estimators.variance_estimator_auto")),
    "estimators.reference_points_1d_calls":
        ("count", _span("estimators.reference_points_1d", "calls")),
    "lrsp.nystrom_build_calls": ("count", _span("lrsp.nystrom_build", "calls")),
    "lrsp.nystrom_build_s": ("s", _self("lrsp.nystrom_build")),
    "lrsp.pattern_by_radius_s": ("s", _self("lrsp.pattern_by_radius")),
    "lrsp.pattern_nnz": ("count", _count("lrsp.pattern_nnz")),
    "lrsp.sparse_correction_s": ("s", _self("lrsp.sparse_correction")),
    "lrsp.dense_reconstruct_s": ("s", _self("lrsp.lowrank_dense", "lrsp.lrsp_dense")),
    "precond.schur_init_s": ("s", _self("precond.SchurComplement.__init__")),
    "precond.schur_jitter": ("1", _count("precond.schur_jitter")),
    "precond.geometric_pattern_s": ("s", _self("precond.geometric_pattern")),
    "precond.random_pattern_s": ("s", _self("precond.random_pattern")),
    "precond.run_methods_self_s": ("s", _self("precond.run_methods")),
    "precond.pattern_nnz_geometric": ("count", _count("precond.pattern_nnz_geometric")),
    "precond.pattern_nnz_random": ("count", _count("precond.pattern_nnz_random")),
    "precond.pattern_max_row_geometric":
        ("count", _count("precond.pattern_max_row_geometric")),
    "precond.fsai_build_s": ("s", _self("precond.fsai_build")),
    "precond.fsai_rows": ("count", _count("precond.fsai_rows")),
    "precond.fsai_cholesky_calls": ("count", _span("precond.cholesky", "calls")),
    "precond.fsai_cholesky_s": ("s", _self("precond.cholesky")),
    "precond.fsai_block_s": ("s", _self("precond.SchurComplement.block")),
    "precond.fsai_flops": ("flop", _count("precond.fsai_flops")),
    "precond.fsai_eye_bytes": ("B", _count("precond.fsai_eye_bytes")),
    "precond.afn_build_s": ("s", _self("precond.afn_build")),
    "precond.pcg_s": ("s", _self("precond.pcg")),
    "precond.pcg_iters_m1": ("count", _count("precond.pcg_iters_m1")),
    "precond.pcg_iters_m2": ("count", _count("precond.pcg_iters_m2")),
    "precond.pcg_iters_m3": ("count", _count("precond.pcg_iters_m3")),
    # PCG's own cost per iteration: the matvec and vector updates, without
    # the preconditioner, which apply_inverse_us reports
    "precond.pcg_us_per_iter": ("us", _per(_self("precond.pcg"), _pcg_iters, 1e6)),
    "precond.apply_inverse_calls": ("count", _span(_APPLY, "calls")),
    "precond.apply_inverse_us":
        ("us", _per(_span(_APPLY, "incl_s"), _span(_APPLY, "calls"), 1e6)),
    "cli.run_self_s": ("s", _self("cli.run")),
})

# Added by run.py from the traced and untraced workers of one run.
TRACE = {
    "trace.run_s": "s",          # run_s of the traced workers (median)
    "trace.overhead_pct": "%",   # trace.run_s against the untraced run_s
    "trace.spans": "count",      # spans recorded by one traced worker
}

PER_LAYER_UNITS = {**{k: unit for k, (unit, _) in PER_LAYER.items()}, **TRACE}


def layer_metrics(summary: dict[str, dict], counts: dict[str, float]) -> dict[str, float]:
    return {name: float(fn(summary, counts)) for name, (_, fn) in PER_LAYER.items()}


def layer_self_s(summary: dict[str, dict]) -> dict[str, float]:
    """Self seconds per layer, plus the benchmark's own spans as ``bench``."""
    return {layer: _layer(layer)(summary, None) for layer in (*LAYERS, "bench")}


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)]


def format_metric(name: str, value: float, unit: str) -> str:
    label = " (computed)" if name in COMPUTED else ""
    return f"{name} = {value:.6g} {unit}{label}"
