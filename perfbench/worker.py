"""One workload run in a fresh, single-threaded process.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread.  It runs
the workload's audited command once under counting wrappers (exact
counts, output checks, and the process's peak RSS after exactly one
command), then alternates timed repeats until the requested seconds
are used up:

* ``--trace 0``: the audited command, untraced, and the same model,
  scheme and h through ``simulate(audit=False)`` with no output;
* ``--trace 1``: the audited command untraced and traced, for the
  per-layer self times and the tracing overhead.

Every timing is taken on the process CPU clock and on the wall clock;
``run.py`` reports the CPU figures as the metrics.  The findings are
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REPEATS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    def blas_version(module):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return None
        return f"{blas.get('name')} {blas.get('version')}"

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas_version(np),
            "scipy_blas": blas_version(scipy),
            "python_threads": threading.active_count()}


def error_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


class Run:
    """Failure accounting and checks shared by every command of the run."""

    def __init__(self, steps: int):
        self.steps = steps
        self.ops = 0
        self.ops_failed = 0
        self.checks: list[dict] = []

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})
        return ok

    def account(self, result, violations: int) -> None:
        """Steps over the gate fail; every step of a failed command fails."""
        self.ops += self.steps
        self.ops_failed += self.steps if not result.ok else violations

    def untraced(self, command, reference, samples: list) -> None:
        """One timed, unwrapped audited command, checked against the reference."""
        from tracing import CPU_CLOCK
        from workloads import CommandResult
        wall = time.perf_counter_ns()
        cpu = CPU_CLOCK()
        try:
            command.run()
        except (Exception, SystemExit) as exc:  # cli.main's argument parser exits
            result = CommandResult(False, error_text(exc), "", 0)
        else:
            cpu = CPU_CLOCK() - cpu
            wall = time.perf_counter_ns() - wall
            result = command.finish()
            samples.append(per_step(cpu, wall, self.steps))
        self.account(result, result.gate_violations)
        self.check("untraced command succeeded", result.ok, result.detail)
        self.check("untraced output identical to the first command's",
                   result.output_hash == reference.output_hash, result.output_hash)

    def instrumented(self, instrument, command, run_id: int = 0):
        """One audited command under ``instrument``; returns (counts, result, cpu, wall)."""
        import tracing
        from workloads import CommandResult
        try:
            counts, cpu, wall = instrument.run_command(command, run_id)
            result = command.finish()
        except (Exception, SystemExit) as exc:
            counts, cpu, wall = tracing.Counts(), 0, 0
            result = CommandResult(False, error_text(exc), "", 0)
        self.account(result, counts.gate_violations)
        kind = "traced" if instrument.timed else "counted"
        self.check(f"{kind} command succeeded", result.ok, result.detail)
        self.check(f"{kind} command: every step passes the identity gate",
                   counts.gate_violations == 0, f"{counts.gate_violations} violations")
        self.check(f"{kind} command: step count is the workload's",
                   counts.steps == self.steps, f"{counts.steps} steps, expected {self.steps}")
        self.check(f"{kind} command: every step audited", counts.audit_calls == counts.steps,
                   f"{counts.audit_calls} audits")
        return counts, result, cpu, wall


def per_step(cpu_ns: int, wall_ns: int, steps: int) -> dict:
    return {"cpu_us": cpu_ns / steps / 1e3, "wall_us": wall_ns / steps / 1e3}


def fits(start_ns: int, done: int, budget_ns: int) -> bool:
    """Whether one more repeat of average length should end within the budget."""
    elapsed = time.perf_counter_ns() - start_ns
    return elapsed * (done + 1) / done <= budget_ns


def timed_untraced(run: Run, command, reference, noaudit_digest, budget_ns: int) -> dict:
    """Share the budget equally between the audited command and its audit-off runs.

    The two alternate until each has run MIN_REPEATS times; after that
    whichever has used less CPU time so far runs next.  The audit-off
    run is shorter, so it gets more samples, and both medians rest on
    about the same amount of measured work.
    """
    from workloads import noaudit
    audited, audit_off = [], []
    attempts = {"audited": 0, "off": 0}
    spent = {"audited": 0.0, "off": 0.0}
    start = time.perf_counter_ns()
    while min(attempts.values()) < MIN_REPEATS or fits(start, sum(attempts.values()),
                                                       budget_ns):
        if min(attempts.values()) < MIN_REPEATS:
            kind = "audited" if attempts["audited"] <= attempts["off"] else "off"
        else:
            kind = "audited" if spent["audited"] <= spent["off"] else "off"
        attempts[kind] += 1
        if kind == "audited":
            done = len(audited)
            run.untraced(command, reference, audited)
            spent[kind] += sum(sample["cpu_us"] for sample in audited[done:])
            continue
        try:
            cpu, wall, digest, steps = noaudit(command)
        except Exception as exc:  # a failed run is counted, and the budget still ends the loop
            run.check("audit-off run completed", False, error_text(exc))
            run.ops += run.steps
            run.ops_failed += run.steps
            continue
        run.ops += steps
        if not run.check("audit-off run reaches the audited final states",
                         digest == noaudit_digest, digest):
            run.ops_failed += steps
        audit_off.append(per_step(cpu, wall, steps))
        spent[kind] += audit_off[-1]["cpu_us"]
    return {"step_us": audited, "step_us_noaudit": audit_off}


def timed_traced(run: Run, command, reference, counts0, budget_ns: int):
    """Alternate untraced and traced audited commands; derive per-layer metrics."""
    import tracing
    untraced, traced, layer_runs, traced_counts = [], [], [], []
    tracer = tracing.Instrument(timed=True)
    start = time.perf_counter_ns()
    rounds = 0
    while rounds < MIN_REPEATS or fits(start, rounds, budget_ns):
        rounds += 1
        run.untraced(command, reference, untraced)
        run_id = len(traced)
        counts, result, cpu, wall = run.instrumented(tracer, command, run_id)
        run.check("traced output identical to the first command's",
                  result.output_hash == reference.output_hash, result.output_hash)
        run.check("traced counts equal untraced counts", counts.exact() == counts0.exact(),
                  json.dumps(counts.exact()))
        if not result.ok:
            break
        traced.append(per_step(cpu, wall, run.steps))
        traced_counts.append(counts.exact())
        layer_runs.append(layer_metrics(tracer.spans, run_id, counts, counts0, result,
                                        cpu, wall))
    samples = {"untraced_step_us": untraced, "traced_step_us": traced}
    return samples, layer_runs, traced_counts, tracer


def layer_metrics(spans, run_id, counts, counts0, result, cpu_ns, wall_ns) -> dict:
    """Per-layer metrics of one traced command; None where a layer did not run.

    Spans are timed on the wall clock.  Their self times are scaled by
    the command's CPU/wall ratio (``trace.cpu_share``) so that the layers
    add up to the command's CPU time, like the end-to-end figures; this
    assumes time lost to other tenants falls on each layer in proportion
    to its length.  ``trace.accounted_share`` is the unscaled share of
    the command's wall time that the library and CLI spans cover.
    """
    import tracing
    layers = tracing.layer_times(spans, run_id)
    steps = counts.steps
    cpu_share = cpu_ns / wall_ns
    us = cpu_share / 1e3            # wall ns -> CPU-scaled us
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def get(name):
        return layers.get(name, empty)

    def per_call(name, key, unit=us):
        entry = get(name)
        return entry[key] / entry["calls"] * unit if entry["calls"] else None

    solves = sum(counts.lcp_solves.values())
    by_bucket = tracing.solve_ns_by_bucket(spans, run_id, counts.solve_sizes)
    has_cli = get("cli.main")["calls"] > 0
    cli_ns = get("cli.main")["self_ns"] + get("cli._write_csv")["total_ns"]
    accounted = sum(e["self_ns"] for name, e in layers.items() if name != tracing.ROOT)
    out = {
        "integrators.step_self_us": get("integrators.step")["self_ns"] / steps * us,
        "integrators.simulate_self_us": get("integrators.simulate")["self_ns"] / steps * us,
        "integrators.build_cache_us": per_call("integrators.build_cache", "total_ns"),
        "scenarios.build_scenario_ms": per_call("scenarios.build_scenario", "self_ns", us / 1e3),
        "model.build_model_ms": per_call("model.build_model", "total_ns", us / 1e3),
        "lcp.solve_us": per_call(tracing.SOLVE, "total_ns"),
        "lcp.pivots_per_solve": counts.pivots / solves if solves else None,
        "lcp.solves_per_active_step": (solves / counts.active_steps
                                       if counts.active_steps else None),
        "energy.audit_step_us": per_call("energy.audit_step", "total_ns"),
        "energy.audit_calls": counts.audit_calls,
        "cli.self_us_per_step": cli_ns / steps * us if has_cli else None,
        "cli.write_csv_us_per_step": (get("cli._write_csv")["total_ns"] / steps * us
                                      if has_cli else None),
        "cli.output_bytes": result.output_bytes if has_cli else None,
        "integrators.retained_bytes_per_step": counts0.retained_bytes / steps,
        "trace.accounted_share": accounted / wall_ns,
        "trace.cpu_share": cpu_share,
        "trace.spans": sum(e["calls"] for e in layers.values()),
    }
    for label, _lo, _hi in tracing.BUCKETS:
        n = counts.lcp_solves[label]
        out[f"lcp.solve_us.{label}"] = by_bucket.get(label, 0) / n * us if n else None
    return out


def median_of(runs: list[dict]) -> dict:
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs if r[key] is not None]
        out[key] = statistics.median(values) if values else None
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import nscontact
    if Path(nscontact.__file__).resolve().parent != ROOT / "src" / "nscontact":
        print(f"error: nscontact imported from {nscontact.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    run = Run(wl.steps(args.smoke))
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    command = workloads.Command(args.workload, args.seed, args.smoke, workdir)
    budget_ns = int(args.seconds * 1e9)

    counts0, reference, _cpu, _wall = run.instrumented(tracing.Instrument(timed=False), command)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
           "inputs": workloads.jittered_inputs(args.workload, args.seed),
           "steps_per_command": run.steps, "environment": environment(),
           "peak_rss_mb": peak_rss_mb,
           "counts": dict(counts0.exact(), output_bytes=reference.output_bytes),
           "max_scaled_residual": counts0.max_scaled_residual,
           "max_penetration_over_h": counts0.max_penetration_over_h}

    if reference.ok:
        if args.trace == 0:
            digest = workloads.final_state_digest(counts0.final_states)
            out["samples"] = timed_untraced(run, command, reference, digest, budget_ns)
        else:
            samples, layer_runs, traced_counts, tracer = timed_traced(
                run, command, reference, counts0, budget_ns)
            out["samples"] = samples
            out["counts_traced"] = traced_counts
            if layer_runs:
                layers = median_of(layer_runs)
                layers["tracing_overhead"] = (
                    statistics.median(s["cpu_us"] for s in samples["traced_step_us"])
                    / statistics.median(s["cpu_us"] for s in samples["untraced_step_us"])
                    - 1.0)
                out["per_layer"] = layers
            spans_path = workdir / f"spans-{args.workload}-seed{args.seed}.csv"
            tracing.write_spans(spans_path, tracer.spans)
            out["spans_file"] = str(spans_path)

    out.update(ops=run.ops, ops_failed=run.ops_failed, checks=run.checks)
    Path(args.out).write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
