"""Step-cost benchmark of nscontact: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_ball --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):
  sweep_ball  CLI sweep of the bouncing ball, 18 grid points x 1000 steps
  bar200_ga   CLI simulate of the 200-mass bar, generalized-alpha, 3000 steps
  stack16_kh  library simulate of a 16-ball column, KH generalized-alpha, 3000 steps

``--trace 0`` reports the end-to-end metrics (step_us, step_us_noaudit,
setup_s, peak_rss_mb); ``--trace 1`` reports the per-layer metrics from a
traced run.  The workload runs in a child process with BLAS/OpenMP pinned
to one thread; set-up time is measured in further fresh processes.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The full
report, with samples, counts, checks and the environment, is written to
perfbench/.work/.  Exit codes: 0 all checks passed, 1 a check failed,
2 the package source is missing or a child process did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
TIME_LIMIT_S = 170.0
SETUP_PROBES = 5
THREAD_PINS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                      "VECLIB_MAXIMUM_THREADS")}
WORKLOADS = ("sweep_ball", "bar200_ga", "stack16_kh")

# metric names and units come from BENCHMARK.json; these are reported, not listed there
REPORTED_ONLY = {
    "energy.audit_calls": "count",
    "scenarios.build_scenario_ms": "ms",
    "lcp.solve_us.s1": "us", "lcp.solve_us.s2-4": "us",
    "lcp.solve_us.s5-8": "us", "lcp.solve_us.s9+": "us",
    "cli.self_us_per_step": "us", "cli.write_csv_us_per_step": "us",
    "cli.output_bytes": "B", "trace.spans": "count", "trace.cpu_share": "ratio",
}


def listed_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric units by name, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the timed repeats (at least two run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="short simulated time, for testing the benchmark itself")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NSC_TOL"}
    env.update(THREAD_PINS)
    return env


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "blas_thread_pins": THREAD_PINS}


def steal_ticks():
    """Aggregate CPU time the hypervisor gave to others (USER_HZ ticks), if known."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]), sum(int(x) for x in fields[1:9])
    except (OSError, IndexError, ValueError):
        return None


def run_child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def summarize(values: list[float]) -> dict:
    if not values:
        return {"median": None, "samples": 0, "min": None, "max": None}
    out = {"median": statistics.median(values), "samples": len(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    return out


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    if not (ROOT / "src" / "nscontact" / "__init__.py").is_file():
        print(f"error: package source src/nscontact not found under {ROOT}", file=sys.stderr)
        return 2
    end_to_end, per_layer = listed_metrics()
    WORKDIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_out = WORKDIR / f"worker-{tag}.json"
    steal0 = steal_ticks()

    try:
        proc = run_child(["perfbench/worker.py", "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--workdir", str(WORKDIR / tag),
                          "--out", str(worker_out)] + (["--smoke"] if args.smoke else []),
                         deadline)
        probes = []
        if args.trace == 0 and proc.returncode == 0:
            for _ in range(SETUP_PROBES):
                probe = run_child(["perfbench/probe.py", args.workload, str(args.seed)],
                                  deadline)
                if probe.returncode != 0:
                    print(probe.stderr, file=sys.stderr)
                    return 2
                probes.append(json.loads(probe.stdout.splitlines()[-1]))
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc.cmd[1]} did not finish within the time limit", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return 2
    report = json.loads(worker_out.read_text())
    steal1 = steal_ticks()
    report["machine"] = machine()
    if steal0 and steal1 and steal1[1] > steal0[1]:
        report["machine"]["steal_share_during_run"] = \
            (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])

    metrics = {}
    if args.trace == 0:
        samples = report.get("samples", {})
        report["end_to_end"] = {
            "step_us": summarize([s["cpu_us"] for s in samples.get("step_us", [])]),
            "step_us_noaudit": summarize(
                [s["cpu_us"] for s in samples.get("step_us_noaudit", [])]),
            "setup_s": summarize([p["cpu_s"] for p in probes]),
            "peak_rss_mb": summarize([report["peak_rss_mb"]]),
        }
        report["end_to_end_wall"] = {
            "step_us": summarize([s["wall_us"] for s in samples.get("step_us", [])]),
            "step_us_noaudit": summarize(
                [s["wall_us"] for s in samples.get("step_us_noaudit", [])]),
            "setup_s": summarize([p["wall_s"] for p in probes]),
        }
        for name, unit in end_to_end.items():
            value = report["end_to_end"].get(name, {}).get("median")
            metrics[name] = {"value": value, "unit": unit}
    else:
        layers = report.get("per_layer", {})
        for name, unit in per_layer.items():
            metrics[name] = {"value": layers.get(name), "unit": unit}

    failed_checks = [c for c in report["checks"] if not c["ok"]]
    missing = [name for name, m in metrics.items() if m["value"] is None]
    correct = not failed_checks and not missing and report["ops_failed"] == 0 \
        and report["ops"] > 0
    report["correct"] = correct
    (WORKDIR / f"report-{tag}.json").write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  inputs {report['inputs']}  "
          f"steps/command {report['steps_per_command']}")
    print(f"machine {report['machine']}  environment {report['environment']}")
    print(f"counts {json.dumps(report['counts'])}")
    for counts in report.get("counts_traced", []):
        print(f"counts (traced) {json.dumps(counts)}")
    print(f"ops {report['ops']}  ops_failed {report['ops_failed']}  "
          f"max_scaled_residual {fmt(report['max_scaled_residual'])}  "
          f"max_penetration_over_h {fmt(report['max_penetration_over_h'])}")
    if args.trace == 0:
        for name, unit in end_to_end.items():
            s = report["end_to_end"].get(name, summarize([]))
            wall = report["end_to_end_wall"].get(name)
            print(f"{name:<18} {fmt(s['median']):>12} {unit:<3} (median of {s['samples']}, "
                  f"min {fmt(s['min'])}, max {fmt(s['max'])})"
                  + (f"  wall-clock median {fmt(wall['median'])}" if wall else ""))
    else:
        layers = report.get("per_layer", {})
        for name, unit in {**per_layer, **REPORTED_ONLY}.items():
            print(f"{name:<38} {fmt(layers.get(name)):>12} {unit}")
        print(f"spans written to {report.get('spans_file')}")
    for check in failed_checks:
        print(f"CHECK FAILED: {check['name']}: {check['detail']}")
    if missing:
        print(f"METRICS MISSING: {missing}")
    print(json.dumps({"correct": correct, "attempted": report["ops"],
                      "failed": report["ops_failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
