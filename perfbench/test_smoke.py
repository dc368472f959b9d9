"""Smoke test of the benchmark itself.

Runs every workload at a short simulated time, untraced and traced, and
checks that every metric and count name is reported with a unit and that
the benchmark's own output checks pass.  Run with

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

END_TO_END = {"step_us", "step_us_noaudit", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    "integrators.step_self_us", "integrators.simulate_self_us", "integrators.build_cache_us",
    "scenarios.build_scenario_ms", "model.build_model_ms", "lcp.solve_us",
    "lcp.solve_us.s1", "lcp.solve_us.s2-4", "lcp.solve_us.s5-8", "lcp.solve_us.s9+",
    "lcp.pivots_per_solve", "lcp.solves_per_active_step", "energy.audit_step_us",
    "energy.audit_calls", "cli.self_us_per_step", "cli.output_bytes",
    "integrators.retained_bytes_per_step", "tracing_overhead", "trace.accounted_share",
}
LISTED_END_TO_END, LISTED_PER_LAYER = run.listed_metrics()
COUNT_NAMES = {"steps", "active_steps", "lcp_solves", "pivots", "audit_calls", "output_bytes"}
BUCKETS = {"s1", "s2-4", "s5-8", "s9+"}


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    tag = f"{workload}-seed7-trace{trace}"
    report = json.loads((run.WORKDIR / f"report-{tag}.json").read_text())
    return result, report


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced(workload):
    result, report = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(LISTED_END_TO_END) == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["unit"] == LISTED_END_TO_END[name]
        assert metric["value"] > 0
    for name in END_TO_END - {"peak_rss_mb"}:
        assert report["end_to_end"][name]["samples"] >= 2
    assert set(report["counts"]) == COUNT_NAMES
    assert set(report["counts"]["lcp_solves"]) == BUCKETS
    assert report["max_scaled_residual"] <= 1e-10
    assert report["max_penetration_over_h"] >= 0.0
    assert report["environment"]["python_threads"] == 1
    assert report["machine"]["nproc"] >= 1
    assert all(check["ok"] for check in report["checks"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced(workload):
    result, report = bench(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(LISTED_PER_LAYER)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == LISTED_PER_LAYER[name]
        assert metric["value"] is not None
    layers = report["per_layer"]
    units = {**LISTED_PER_LAYER, **run.REPORTED_ONLY}
    assert PER_LAYER <= set(layers) and PER_LAYER <= set(units)
    for counts in report["counts_traced"]:
        assert counts == {k: v for k, v in report["counts"].items() if k != "output_bytes"}
    assert 0.95 <= layers["trace.accounted_share"] <= 1.0
    assert Path(report["spans_file"]).is_file()
