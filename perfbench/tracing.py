"""Call wrappers that count work and, when timed, record spans.

The wrappers are installed from outside the package, at the names the
callers look the functions up by (``cli.simulate``, not
``integrators.simulate``, for calls made by the CLI), and removed
afterwards.  With ``timed=False`` they only count; with ``timed=True``
they also keep one span per call in memory: (name, start_ns, end_ns,
parent index, run id).  A layer's self time is its spans' duration
minus the duration of their direct children.

Spans read the wall clock (``SPAN_CLOCK``, no system call); commands
are also timed on the process CPU clock (``CPU_CLOCK``), which the
end-to-end step times use because, unlike wall time, it does not count
time the machine gave to other tenants.  A CPU-clock read per span
would be a system call and would triple the tracing overhead.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

import nscontact.cli as cli
import nscontact.energy as energy
import nscontact.integrators as integrators
import nscontact.lcp as lcp
import nscontact.model as model_mod
import nscontact.scenarios as scenarios

from workloads import GATE_TOL

# (module, attribute the caller looks up, span name)
TARGETS = [
    (cli, "main", "cli.main"),
    (cli, "build_scenario", "scenarios.build_scenario"),
    (cli, "simulate", "integrators.simulate"),
    (cli, "_write_csv", "cli._write_csv"),
    (scenarios, "build_model", "model.build_model"),
    (model_mod, "build_model", "model.build_model"),
    (integrators, "simulate", "integrators.simulate"),
    (integrators, "build_cache", "integrators.build_cache"),
    (integrators, "step", "integrators.step"),
    (energy, "audit_step", "energy.audit_step"),
]
CPU_CLOCK = time.process_time_ns
SPAN_CLOCK = time.perf_counter_ns
SOLVE = "lcp.solve"
ROOT = "bench.command"

BUCKETS = (("s1", 1, 1), ("s2-4", 2, 4), ("s5-8", 5, 8), ("s9+", 9, 1 << 30))


def bucket(size: int) -> str:
    for label, lo, hi in BUCKETS:
        if lo <= size <= hi:
            return label
    raise ValueError(f"no bucket for LCP size {size}")


def retained_bytes(records) -> int:
    """ndarray bytes the returned records keep alive (computed, not measured)."""
    seen = set()
    total = 0
    for rec in records:
        arrays = [rec.P, rec.U_prev, rec.U_next, rec.w_corr]
        for st in (rec.state_prev, rec.state_next):
            arrays += [st.q, st.v, st.a, st.a_tilde, st.z, st.x, st.y, st.f_prev, st.v_prev]
        for arr in arrays:
            if isinstance(arr, np.ndarray) and id(arr) not in seen:
                seen.add(id(arr))
                total += arr.nbytes
    return total


class Counts:
    """Exact counts of one command; identical across repeats of one seed."""

    def __init__(self):
        self.steps = 0
        self.active_steps = 0
        self.lcp_solves = Counter()
        self.pivots = 0
        self.audit_calls = 0
        self.gate_violations = 0
        self.max_scaled_residual = 0.0
        self.max_penetration_over_h = 0.0
        self.retained_bytes = 0
        self.final_states = []
        self.solve_sizes = []

    def exact(self) -> dict:
        return {"steps": self.steps, "active_steps": self.active_steps,
                "lcp_solves": {label: self.lcp_solves[label] for label, _, _ in BUCKETS},
                "pivots": self.pivots, "audit_calls": self.audit_calls}


class Instrument:
    """Installs the wrappers for one command at a time."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list = []
        self._stack: list[int] = []
        self.run_id = 0
        self.counts = Counts()
        self._saved = []

    # -- result inspectors (count the work a call did) --------------------

    def _after(self, name, args, kwargs, result):
        c = self.counts
        if name == "integrators.step":
            _state, record = result
            c.steps += 1
            c.active_steps += bool(record.active_set)
            c.max_penetration_over_h = max(c.max_penetration_over_h,
                                           record.penetration / args[2])
        elif name == SOLVE:
            c.solve_sizes.append(args[0].size)
            c.lcp_solves[bucket(args[0].size)] += 1
            c.pivots += result.iterations
        elif name == "energy.audit_step":
            c.audit_calls += 1
            tol = kwargs.get("tol", GATE_TOL)
            c.gate_violations += abs(result.identity_residual) > tol * result.residual_scale
            c.max_scaled_residual = max(c.max_scaled_residual,
                                        abs(result.identity_residual) / result.residual_scale)
        elif name == "integrators.simulate" and result:
            final = result[-1].state_next
            c.final_states.append((final.q.copy(), final.v.copy()))
            if not self.timed:
                c.retained_bytes += retained_bytes(result)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn):
        after = self._after
        if not self.timed:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(name, args, kwargs, result)
                return result
            return counted

        spans, stack = self.spans, self._stack
        clock = SPAN_CLOCK

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            after(name, args, kwargs, result)
            return result
        return traced

    def install(self):
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        for key, original in list(lcp.SOLVERS.items()):
            self._saved.append((lcp.SOLVERS, key, original))
            lcp.SOLVERS[key] = self.wrap(SOLVE, original)

    def uninstall(self):
        for target, key, original in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._saved.clear()

    def run_command(self, command, run_id: int = 0) -> tuple[Counts, int, int]:
        """Run one command under the wrappers; returns its counts, CPU ns and wall ns."""
        self.counts = Counts()
        self.run_id = run_id
        root = self.wrap(ROOT, command.run) if self.timed else command.run
        self.install()
        try:
            wall = time.perf_counter_ns()
            cpu = CPU_CLOCK()
            root()
            cpu = CPU_CLOCK() - cpu
            wall = time.perf_counter_ns() - wall
        finally:
            self.uninstall()
        return self.counts, cpu, wall


# ----------------------------------------------------------------------
# span analysis
# ----------------------------------------------------------------------

def layer_times(spans, run_id: int) -> dict:
    """Per span name of one run: calls, total duration and self time (ns)."""
    own = [(i, s) for i, s in enumerate(spans) if s[4] == run_id]
    child_ns = defaultdict(int)
    for _i, (_name, start, end, parent, _run) in own:
        if parent >= 0:
            child_ns[parent] += end - start
    layers = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for i, (name, start, end, _parent, _run) in own:
        entry = layers[name]
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[i]
    return dict(layers)


def solve_ns_by_bucket(spans, run_id: int, sizes: list[int]) -> dict:
    """Duration of LCP solve spans per size bucket; ``sizes`` lists each solve's size."""
    durations = [end - start for name, start, end, _p, run in spans
                 if run == run_id and name == SOLVE]
    if len(durations) != len(sizes):
        raise ValueError("solve sizes and solve spans disagree")
    out = defaultdict(int)
    for size, ns in zip(sizes, durations):
        out[bucket(size)] += ns
    return dict(out)


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent,run_id\n")
        for i, (name, start, end, parent, run) in enumerate(spans):
            fh.write(f"{i},{name},{start},{end},{parent},{run}\n")
