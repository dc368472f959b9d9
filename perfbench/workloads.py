"""The three benchmark workloads, built from a seed.

Each workload fixes its step count, step size and grid; the seed only
jitters one initial condition by at most ``JITTER`` (ball drop height,
bar impact speed, stack spacing), so a claim can be rechecked on inputs
it was not tuned on.  Everything here goes through the package's public
entry points: ``nscontact.cli.main`` for the CLI workloads and
``build_model``/``initial_state``/``simulate`` for the library one.

Module attributes (``cli.main``, ``integrators.simulate``,
``model.build_model``) are looked up at call time so that the traced
run's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import nscontact.cli as cli
import nscontact.integrators as integrators
import nscontact.model as model_mod
from nscontact.model import ForcingTerm, SchemeSpec, SchemeVariant, initial_state
from nscontact.scenarios import ScenarioSpec, build_scenario

JITTER = 0.03
GATE_TOL = 1e-10  # the audit's default identity tolerance, left unchanged

SWEEP_THETAS = [float(x) for x in np.linspace(0.5, 1.0, 6)]
SWEEP_ES = [0.0, 0.5, 1.0]
SWEEP_GRID = "theta=0.5:1.0:6;e=0,0.5,1"

STACK_BALLS = 16
STACK_GRAVITY = 9.81


@dataclass(frozen=True)
class Workload:
    h: float
    t_end: float
    smoke_t_end: float      # short enough for a smoke test, long enough to hit contact
    points: int             # simulate() calls per command

    def steps(self, smoke: bool) -> int:
        t_end = self.smoke_t_end if smoke else self.t_end
        return self.points * int(round(t_end / self.h))


WORKLOADS = {
    "sweep_ball": Workload(1e-3, 1.0, 0.3, len(SWEEP_THETAS) * len(SWEEP_ES)),
    "bar200_ga": Workload(1e-4, 0.3, 0.06, 1),
    "stack16_kh": Workload(1e-3, 3.0, 0.1, 1),
}


def jitter(seed: int) -> float:
    """Multiplicative jitter in [1 - JITTER, 1 + JITTER], fixed by the seed."""
    return 1.0 + JITTER * random.Random(seed).uniform(-1.0, 1.0)


def jittered_inputs(name: str, seed: int) -> dict:
    j = jitter(seed)
    if name == "sweep_ball":
        return {"q0": 0.3 * j}
    if name == "bar200_ga":
        return {"v0": -1.0 * j}
    return {"spacing": 0.01 * j}


# ----------------------------------------------------------------------
# model construction
# ----------------------------------------------------------------------

def stack_model(spacing: float):
    """Vertical column of unit point masses over a floor.

    Contact 0 is the floor under ball 0; contact i >= 1 is the gap
    between balls i-1 and i.  Ball i starts at height (i+1)*spacing, at
    rest, so every gap starts at ``spacing``.
    """
    n = STACK_BALLS
    jac = np.zeros((n, n))
    jac[0, 0] = 1.0
    for i in range(1, n):
        jac[i, i] = 1.0
        jac[i - 1, i] = -1.0
    model = model_mod.build_model(
        mass=np.eye(n), damping=np.zeros((n, n)), stiffness=np.zeros((n, n)),
        contact_jacobian=jac, gap_offset=np.zeros(n), restitution=[0.5],
        forcing=ForcingTerm.constant(np.full(n, -STACK_GRAVITY)))
    q0 = spacing * np.arange(1, n + 1, dtype=float)
    return model, initial_state(model, q0, np.zeros(n))


STACK_SPEC = SchemeSpec.from_rho_infinity(
    0.8, variant=SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)
BAR_SPEC = SchemeSpec.from_rho_infinity(0.8)


def config_text(name: str, seed: int, smoke: bool) -> str:
    """The CLI config file of a CLI workload."""
    wl = WORKLOADS[name]
    t_end = wl.smoke_t_end if smoke else wl.t_end
    inputs = jittered_inputs(name, seed)
    if name == "sweep_ball":
        lines = ["scenario.kind = bouncing_ball",
                 f"scenario.q0 = {inputs['q0']!r}",
                 "scheme.variant = moreau_jean"]
    elif name == "bar200_ga":
        lines = ["scenario.kind = elastic_bar_chain",
                 "scenario.n_masses = 200",
                 "scenario.standoff = 0.05",
                 "scenario.restitution = 0",
                 f"scenario.v0 = {inputs['v0']!r}",
                 "scheme.variant = generalized_alpha",
                 "scheme.rho_infinity = 0.8"]
    else:
        raise ValueError(f"{name} is not a CLI workload")
    lines += [f"run.h = {wl.h!r}", f"run.t_end = {t_end!r}"]
    return "\n".join(lines) + "\n"


def library_runs(name: str, seed: int, smoke: bool):
    """Yield (model, state, h, spec, t_end) for each simulate() call of the workload."""
    wl = WORKLOADS[name]
    t_end = wl.smoke_t_end if smoke else wl.t_end
    inputs = jittered_inputs(name, seed)
    if name == "sweep_ball":
        for theta in SWEEP_THETAS:
            for e in SWEEP_ES:
                model, state = build_scenario(ScenarioSpec(
                    "bouncing_ball", {"q0": inputs["q0"], "restitution": e}))
                yield model, state, wl.h, SchemeSpec.moreau_jean(theta), t_end
    elif name == "bar200_ga":
        model, state = build_scenario(ScenarioSpec("elastic_bar_chain", {
            "n_masses": 200, "standoff": 0.05, "restitution": 0.0, "v0": inputs["v0"]}))
        yield model, state, wl.h, BAR_SPEC, t_end
    else:
        model, state = stack_model(inputs["spacing"])
        yield model, state, wl.h, STACK_SPEC, t_end


def setup(name: str, seed: int) -> None:
    """What a run pays before its first step: one model build and its cache."""
    model, _state, h, spec, _t_end = next(library_runs(name, seed, smoke=False))
    integrators.build_cache(model, spec, h)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def final_state_digest(final_states) -> str:
    """Hash of the final (q, v) bytes of each simulate() call, in call order."""
    digest = hashlib.sha256()
    for q, v in final_states:
        digest.update(np.ascontiguousarray(q).tobytes())
        digest.update(np.ascontiguousarray(v).tobytes())
    return digest.hexdigest()


def _hash_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


@dataclass
class CommandResult:
    ok: bool                  # exit 0, or no exception for the library path
    detail: str
    output_hash: str
    output_bytes: int
    gate_violations: int = 0  # only counted here for the library path


class Command:
    """The audited user command of one workload, runnable repeatedly.

    The constructor writes the config file; ``run`` is the timed part;
    ``finish`` checks and hashes the outputs and removes them.
    """

    def __init__(self, name: str, seed: int, smoke: bool, workdir: Path):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.out_dir = workdir / "out"
        self.config = workdir / f"{name}.cfg"
        if name != "stack16_kh":
            self.config.write_text(config_text(name, seed, smoke))
        self._returned = None

    def run(self) -> None:
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        if self.name == "sweep_ball":
            self._returned = cli.main(["sweep", str(self.config), "--grid", SWEEP_GRID,
                                       "--out", str(self.out_dir)])
        elif self.name == "bar200_ga":
            self._returned = cli.main(["simulate", str(self.config),
                                       "--out", str(self.out_dir)])
        else:
            wl = WORKLOADS[self.name]
            model, state = stack_model(jittered_inputs(self.name, self.seed)["spacing"])
            self._returned = integrators.simulate(
                model, state, wl.h, STACK_SPEC,
                wl.smoke_t_end if self.smoke else wl.t_end, audit=True)

    def finish(self) -> CommandResult:
        returned, self._returned = self._returned, None
        if self.name == "stack16_kh":
            records = returned
            final = records[-1].state_next
            violations = sum(
                abs(r.report.identity_residual) > GATE_TOL * r.report.residual_scale
                for r in records)
            return CommandResult(True, "returned", final_state_digest([(final.q, final.v)]),
                                 0, violations)
        files = sorted(self.out_dir.glob("*.csv"))
        result = CommandResult(returned == 0, f"exit code {returned}",
                               _hash_files(files), sum(f.stat().st_size for f in files))
        shutil.rmtree(self.out_dir, ignore_errors=True)  # absent if the config was rejected
        return result


def noaudit(command: Command) -> tuple[int, int, str, int]:
    """The command's model, scheme and h through ``simulate(audit=False)``.

    Only the simulate() calls are timed; nothing is written.  Returns
    (CPU ns, wall ns, final-state digest, steps).
    """
    cpu = wall = steps = 0
    finals = []
    for model, state, h, spec, t_end in library_runs(command.name, command.seed,
                                                     command.smoke):
        wall -= time.perf_counter_ns()
        cpu -= time.process_time_ns()
        records = integrators.simulate(model, state, h, spec, t_end, audit=False)
        cpu += time.process_time_ns()
        wall += time.perf_counter_ns()
        steps += len(records)
        final = records[-1].state_next
        finals.append((final.q, final.v))
        del records
    return cpu, wall, final_state_digest(finals), steps
