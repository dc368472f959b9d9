"""The benchmark's hooks still see what its checks count.

The benchmark in ``perfbench/`` wraps ``integrators.step``,
``energy.audit_step`` and the other functions it traces at the names
their callers look them up by, and reads record and state fields to
count work.  Each workload's audited command runs once here, at the
benchmark's short smoke length, under its counting wrappers, and must
pass the checks the benchmark turns into failed operations.
"""

import sys
from pathlib import Path

import pytest

import nscontact.integrators as integrators
from nscontact import ScenarioSpec, SchemeSpec, build_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counted_command_passes_the_benchmark_checks(tmp_path, name):
    command = workloads.Command(name, 7, True, tmp_path)
    counts, _cpu, _wall = tracing.Instrument(timed=False).run_command(command)
    result = command.finish()
    assert result.ok, result.detail
    steps = workloads.WORKLOADS[name].steps(True)
    assert counts.steps == steps
    assert counts.audit_calls == steps
    assert counts.gate_violations == 0
    assert counts.retained_bytes > 0
    # the solver wrappers sit in lcp.SOLVERS, where the step looks its solver
    # up; every active step solves exactly one LCP
    assert counts.active_steps > 0
    assert sum(counts.lcp_solves.values()) == counts.active_steps
    _cpu, _wall, digest, noaudit_steps = workloads.noaudit(command)
    assert noaudit_steps == steps
    assert digest == workloads.final_state_digest(counts.final_states)


def test_simulate_passes_its_gate_tolerance_to_the_audit_hook_by_keyword():
    # the hook reads the gate tolerance from the keyword ``tol`` and falls
    # back to its own default; at tol = 0 every nonzero residual is a violation
    model, state = build_scenario(ScenarioSpec("bouncing_ball", {"q0": 0.3}))
    instrument = tracing.Instrument(timed=False)
    instrument.install()
    try:
        records = integrators.simulate(model, state, 1e-3, SchemeSpec.moreau_jean(0.5), 0.5,
                                       audit_tol=0.0)
    finally:
        instrument.uninstall()
    missed = sum(not rec.report.identity_ok(0.0) for rec in records)
    assert missed > 0
    assert instrument.counts.gate_violations == missed
