"""Canonical desk-scale test models with known reference behavior.

Four families: a gravity ball bouncing on a floor, two balls exchanging
momentum through one contact, a lumped elastic bar hitting a wall, and
a harmonically forced oscillator next to a wall.  Gravity and the
harmonic load enter as external forces, not potentials, so the total
mechanical energy is not conserved in free flight; the per-step balance
dE = W_ext is the conserved statement to read from the audit output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, NotAvailable
from .model import ForcingTerm, LagrangianModel, SystemState, build_model, initial_state

_DEFAULTS: dict[str, dict[str, float]] = {
    "bouncing_ball": {
        "mass": 1.0, "gravity": 9.81, "q0": 1.0, "v0": 0.0, "restitution": 1.0,
    },
    "two_ball_impact": {
        "m1": 1.0, "m2": 1.0, "gap0": 1.0, "separation": 1.0,
        "v0_1": 1.0, "v0_2": 0.0, "restitution": 1.0,
    },
    "elastic_bar_chain": {
        "n_masses": 10, "m_total": 1.0, "k": 1000.0, "standoff": 0.1,
        "v0": -1.0, "restitution": 0.0,
    },
    "forced_oscillator_contact": {
        "mass": 1.0, "stiffness": 4.0 * math.pi**2, "damping": 0.0,
        "amplitude": 1.0, "omega": 2.0, "phase": 0.0,
        "q0": 1.0, "v0": 0.0, "wall": -10.0, "restitution": 0.5,
    },
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario family plus its physical parameters.

    Unspecified parameters take the family defaults; unknown names or
    out-of-range values raise InvalidSpec at build time.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def resolved(self) -> dict[str, float]:
        if self.kind not in _DEFAULTS:
            raise InvalidSpec(f"unknown scenario kind '{self.kind}' "
                              f"(expected one of {sorted(_DEFAULTS)})")
        merged = dict(_DEFAULTS[self.kind])
        for key, value in self.params.items():
            if key not in merged:
                raise InvalidSpec(f"unknown parameter '{key}' for scenario '{self.kind}'")
            merged[key] = float(value)
            if not math.isfinite(merged[key]):
                raise InvalidSpec(f"scenario parameter '{key}' must be finite, got {value}")
        return merged


def build_scenario(spec: ScenarioSpec) -> tuple[LagrangianModel, SystemState]:
    """Assemble the validated model and a consistent initial state."""
    p = spec.resolved()
    if spec.kind == "bouncing_ball":
        if p["mass"] <= 0.0:
            raise InvalidSpec("ball mass must be positive")
        model = build_model(
            mass=[[p["mass"]]], damping=[[0.0]], stiffness=[[0.0]],
            contact_jacobian=[[1.0]], gap_offset=[0.0],
            restitution=[p["restitution"]],
            forcing=ForcingTerm.constant([-p["mass"] * p["gravity"]]))
        return model, initial_state(model, [p["q0"]], [p["v0"]])

    if spec.kind == "two_ball_impact":
        if p["m1"] <= 0.0 or p["m2"] <= 0.0:
            raise InvalidSpec("ball masses must be positive")
        if p["separation"] < 0.0:
            raise InvalidSpec("initial separation must be nonnegative")
        model = build_model(
            mass=np.diag([p["m1"], p["m2"]]), damping=np.zeros((2, 2)),
            stiffness=np.zeros((2, 2)),
            contact_jacobian=[[-1.0], [1.0]], gap_offset=[-p["gap0"]],
            restitution=[p["restitution"]], forcing=ForcingTerm.zero(2))
        q0 = [0.0, p["gap0"] + p["separation"]]
        return model, initial_state(model, q0, [p["v0_1"], p["v0_2"]])

    if spec.kind == "elastic_bar_chain":
        n = int(round(p["n_masses"]))
        if n < 1:
            raise InvalidSpec("chain needs at least one mass")
        if p["m_total"] <= 0.0 or p["k"] < 0.0 or p["standoff"] < 0.0:
            raise InvalidSpec("chain requires positive mass, k >= 0, standoff >= 0")
        mass = np.eye(n) * (p["m_total"] / n)
        stiffness = np.zeros((n, n))
        for i in range(n - 1):
            # spring between neighbors: rows sum to zero at interior nodes
            stiffness[i, i] += p["k"]
            stiffness[i + 1, i + 1] += p["k"]
            stiffness[i, i + 1] -= p["k"]
            stiffness[i + 1, i] -= p["k"]
        jac = np.zeros((n, 1))
        jac[0, 0] = 1.0           # wall contact on the leading node
        model = build_model(mass=mass, damping=np.zeros((n, n)), stiffness=stiffness,
                            contact_jacobian=jac, gap_offset=[p["standoff"]],
                            restitution=[p["restitution"]], forcing=ForcingTerm.zero(n))
        v0 = np.full(n, p["v0"])
        return model, initial_state(model, np.zeros(n), v0)

    # forced_oscillator_contact
    if p["mass"] <= 0.0 or p["stiffness"] < 0.0 or p["damping"] < 0.0:
        raise InvalidSpec("oscillator requires positive mass and nonnegative k, c")
    model = build_model(
        mass=[[p["mass"]]], damping=[[p["damping"]]], stiffness=[[p["stiffness"]]],
        contact_jacobian=[[1.0]], gap_offset=[-p["wall"]],
        restitution=[p["restitution"]],
        forcing=ForcingTerm.sinusoidal([p["amplitude"]], p["omega"], p["phase"]))
    return model, initial_state(model, [p["q0"]], [p["v0"]])


def reference_solution(spec: ScenarioSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (q, v) where one exists.

    Available for the fully elastic ball (parabolic flights joined by
    velocity reflections) and for the undamped harmonic oscillator away
    from resonance, as long as its contact never activates.

    Raises:
        NotAvailable: no closed form for this scenario/parameters.
    """
    p = spec.resolved()
    if spec.kind == "bouncing_ball":
        if p["restitution"] != 1.0:
            raise NotAvailable("closed-form ball solution requires restitution 1")
        g, q0, v0 = p["gravity"], p["q0"], p["v0"]
        if g <= 0.0 or q0 < 0.0:
            raise NotAvailable("closed-form ball solution requires gravity > 0, q0 >= 0")
        v_star = math.sqrt(v0 * v0 + 2.0 * g * q0)
        t_star = (v0 + v_star) / g          # first touchdown
        if t <= t_star:
            return (np.array([q0 + v0 * t - 0.5 * g * t * t]),
                    np.array([v0 - g * t]))
        period = 2.0 * v_star / g
        tau = math.fmod(t - t_star, period)
        return (np.array([v_star * tau - 0.5 * g * tau * tau]),
                np.array([v_star - g * tau]))

    if spec.kind == "forced_oscillator_contact":
        if p["damping"] != 0.0:
            raise NotAvailable("closed-form oscillator requires zero damping")
        m, k = p["mass"], p["stiffness"]
        amp, omega, phase = p["amplitude"], p["omega"], p["phase"]
        if k <= 0.0:
            raise NotAvailable("closed-form oscillator requires positive stiffness")
        denom = k - m * omega * omega
        if amp != 0.0 and abs(denom) < 1e-9 * k:
            raise NotAvailable("forcing frequency too close to resonance")
        w0 = math.sqrt(k / m)
        qp0 = amp * math.sin(phase) / denom if amp != 0.0 else 0.0
        vp0 = amp * omega * math.cos(phase) / denom if amp != 0.0 else 0.0
        c_cos = p["q0"] - qp0
        c_sin = (p["v0"] - vp0) / w0
        qp = amp * math.sin(omega * t + phase) / denom if amp != 0.0 else 0.0
        vp = amp * omega * math.cos(omega * t + phase) / denom if amp != 0.0 else 0.0
        q = c_cos * math.cos(w0 * t) + c_sin * math.sin(w0 * t) + qp
        v = -c_cos * w0 * math.sin(w0 * t) + c_sin * w0 * math.cos(w0 * t) + vp
        return np.array([q]), np.array([v])

    raise NotAvailable(f"no reference solution for scenario '{spec.kind}'")
