"""Tests of the benchmark's own arithmetic and reporting.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _tracer(rows):
    """A tracer holding hand-built spans (name, parent, start, end)."""
    t = spans.Tracer(run_id=0)
    for name, parent, start, end in rows:
        t.name_id.append(t._intern(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    return t


# root [0, 10]
#   a [1, 4]          overlaps its sibling b
#     a1 [1.5, 2.5]   two levels deep
#       a11 [2, 2.2]  three levels deep
#   b [3, 6]
#   c [8, 12]         runs past the end of root
SPAN_TREE = [
    ("bench.run", -1, 0.0, 10.0),
    ("kernel.a", 0, 1.0, 4.0),
    ("kernel.a1", 1, 1.5, 2.5),
    ("posterior.a11", 2, 2.0, 2.2),
    ("kernel.b", 0, 3.0, 6.0),
    ("precond.c", 0, 8.0, 12.0),
]


def test_self_time_of_overlapping_and_nested_children():
    t = _tracer(SPAN_TREE)
    got = spans.self_times(t.parent, t.start, t.end)
    # root: 10 minus the union [1, 6] + [8, 10] of its children, clipped to it
    assert got == pytest.approx([3.0, 2.0, 0.8, 0.2, 3.0, 4.0])


def test_summary_per_phase_and_layer():
    t = _tracer(SPAN_TREE + [("bench.check", -1, 20.0, 21.0), ("kernel.a", 6, 20.0, 20.5)])
    phases = spans.summarize(t)
    assert set(phases) == {"bench.run", "bench.check"}
    run_phase = phases["bench.run"]
    assert run_phase["kernel.a"] == {"calls": 1, "incl_s": 3.0, "self_s": pytest.approx(2.0)}
    layers = metrics.layer_self_s(run_phase)
    assert layers["kernel"] == pytest.approx(2.0 + 0.8 + 3.0)
    assert layers["posterior"] == pytest.approx(0.2)
    assert layers["precond"] == pytest.approx(4.0)
    assert layers["bench"] == pytest.approx(3.0)
    both = spans.merge(run_phase, phases["bench.check"])
    assert both["kernel.a"]["calls"] == 2


def _fake_records():
    env = {"python": "3", "numpy": "2", "scipy": "1", "nproc": 2, "affinity": 2,
           "blas": {"libopenblas.so": {"threads": 1, "version": "OpenBLAS"}}}
    base = {"params": {"seed": 1}, "environment": env, "setup_s": 0.5, "run_s": 2.0,
            "cli_s": 1.0, "query_s": [1e-4, 2e-4, 3e-4], "peak_rss_mb": 100.0,
            "attempted": 10, "failed": 0, "failures": []}
    layers = {name: 1.0 for name in metrics.PER_LAYER}
    phase = {layer: 0.1 for layer in (*spans.LAYERS, "bench")}
    traced = {**base, "traced": True, "run_s": 2.2, "layer_metrics": layers, "spans": 9,
              "phase_self_s": {"setup": phase, "run": phase}}
    return [{**base, "traced": False}, traced]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_metric_printed_with_its_unit(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    lines, result, _ = run.report(_fake_records(), trace)
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        printed = [ln for ln in lines if ln.startswith(f"{m['name']} = ")]
        assert len(printed) == 1
        assert printed[0].split()[3] == m["unit"]
    # error_rate and the field-queries figures are printed, not listed
    for name, unit in metrics.WORKLOAD_EXTRAS.items():
        printed = [ln for ln in lines if ln.startswith(f"{name} = ")]
        assert len(printed) == 1 and printed[0].split()[3] == unit
    assert result["metrics"]["trace.overhead_pct" if trace else "run_s"]["value"] == (
        pytest.approx(10.0) if trace else 2.0)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    from workloads import WORKLOADS

    assert tuple(WORKLOADS) == run.WORKLOADS


def test_error_rate_counts_an_injected_failed_check(tmp_path):
    from workloads import CliJob, Checks, _lrsp_check

    out = tmp_path / "lrsp.csv"
    out.write_text("equiv_rank,lr_max,lrsp_max,lr_2norm,lrsp_2norm\n"
                   "100,0.9,nan,1.0,nan\n"
                   "110,0.9,0.5,1.0,0.7\n"
                   "120,0.9,0.95,1.0,0.7\n")   # lrsp_max > lr_max: the injected failure
    checks = Checks()
    _lrsp_check(CliJob(["lrsp"], out, 3), 0, checks)
    # exit code, row count and two LRSP rows
    assert (checks.attempted, checks.failed) == (4, 1)

    records = _fake_records()
    records[1].update(attempted=checks.attempted, failed=checks.failed)
    lines, result, _ = run.report(records, 0)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 14, 1)
    assert f"error_rate = {1 / 14:.6g} ratio" in lines


def test_install_rebinds_imported_names_and_records_nested_spans():
    # in a fresh interpreter, since install() rebinds covfield's names for good
    code = """
import covfield, covfield.lrsp, covfield.precond, spans
t = spans.Tracer(run_id=3)
spans.install(t)
assert covfield.precond.kernel_matrix is covfield.kernel.kernel_matrix
assert covfield.lrsp.fit is covfield.posterior.fit is covfield.fit
assert covfield.precond.kernel_matrix.__wrapped__ is not None
i = t.open("bench.run")
X = covfield.generate_gaussian_cloud(30, 2, 0)
covfield.lrsp.nystrom_build(X, list(range(5)), covfield.KernelConfig(sigma=1.0))
t.close(i)
s = spans.summarize(t)["bench.run"]
assert s["lrsp.nystrom_build"]["calls"] == 1 and s["posterior.fit"]["calls"] == 1
assert s["kernel.kernel_matrix"]["calls"] == 2
names = [t.names[k] for k in t.name_id]
fit = names.index("posterior.fit")
assert names[t.parent[fit]] == "lrsp.nystrom_build"
assert t.counts["kernel.entries"] == 5 * 5 + 5 * 30
"""
    env = run.worker_env()
    env["PYTHONPATH"] = f"{HERE}:{env['PYTHONPATH']}"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

