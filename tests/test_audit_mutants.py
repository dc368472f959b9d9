"""The energy audit catches known wrong steps.

Each case runs one scheme twice: once as it is, and once with a small
defect injected into the step or into the audit's coefficient row.  The
clean run must pass the identity gate on every step and the mutant must
fail it on at least one.  The table runs in SI units:

- ``impulse tail``: the impulse's velocity correction scaled by 1.01;
- ``filter work``: the generalized-alpha and HHT filter works dropped;
- ``c_a``: the acceleration energy coefficient scaled by 1.01.

The c_a mutant runs on Newmark(0.6, 0.4), not on generalized-alpha
rho_inf = 0.8, whose c_a = (h^2/4)(2 beta - gamma) ~ 1.5e-9 at h = 1e-3
puts a 1 % change of that term below the gate.
"""

import dataclasses

import numpy as np
import pytest

import nscontact.energy as energy
import nscontact.integrators as integrators
from nscontact import (
    ForcingTerm,
    ScenarioSpec,
    SchemeSpec,
    build_model,
    build_scenario,
    initial_state,
    simulate,
)
from conftest import random_model

H = 1e-3


def ball():
    return build_scenario(ScenarioSpec("bouncing_ball", {"q0": 0.05, "restitution": 0.9}))


def damped_two_contact_model():
    model = random_model(np.random.default_rng(0), n=4, m=2, damped=True)
    jac_t = model.contact_jacobian.T
    q0 = -np.linalg.lstsq(jac_t, model.gap_offset, rcond=None)[0]
    v0 = -np.linalg.lstsq(jac_t, np.ones(model.m), rcond=None)[0]
    return model, initial_state(model, q0, v0)


def oscillator():
    # damped and forced; released at q = 1, it reaches the wall at q = -0.5
    model = build_model([[2.0]], [[0.3]], [[40.0]], [[1.0]], [0.5], [0.5],
                        ForcingTerm.sinusoidal([1.5], omega=2.0))
    return model, initial_state(model, [1.0], [0.0])


def impulse_tail(monkeypatch):
    build_cache = integrators.build_cache

    def mutant(*args):
        cache = build_cache(*args)
        return dataclasses.replace(cache, impulse_to_velocity=1.01 * cache.impulse_to_velocity)

    monkeypatch.setattr(integrators, "build_cache", mutant)


def patch_row(monkeypatch, change):
    constants = energy.audit_constants
    monkeypatch.setattr(energy, "audit_constants", lambda *args: change(constants(*args)))


def filter_work(monkeypatch):
    patch_row(monkeypatch, lambda row: row._replace(filter_left=0.0, filter_works=0.0))


def accel_coeff(monkeypatch):
    patch_row(monkeypatch, lambda row: row._replace(accel_coeff=1.01 * row.accel_coeff))


# (id, run builder, scheme, t_end, mutant)
CASES = [
    ("impulse-tail-mj-ball", ball, SchemeSpec.moreau_jean(0.5), 1.0, impulse_tail),
    ("impulse-tail-ga-damped", damped_two_contact_model, SchemeSpec.from_rho_infinity(0.8),
     0.3, impulse_tail),
    ("filter-work-ga-damped", damped_two_contact_model, SchemeSpec.from_rho_infinity(0.8),
     0.3, filter_work),
    ("filter-work-hht-oscillator", oscillator, SchemeSpec.hht(0.1), 2.0, filter_work),
    ("c_a-newmark-oscillator", oscillator, SchemeSpec.newmark(0.6, 0.4), 2.0, accel_coeff),
]


def gate_failures(build, spec, t_end):
    model, state = build()
    return sum(not rec.report.identity_ok() for rec in simulate(model, state, H, spec, t_end))


@pytest.mark.parametrize("build, spec, t_end, mutant",
                         [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_audit_flags_the_mutant_and_passes_its_clean_twin(monkeypatch, build, spec, t_end,
                                                           mutant):
    assert gate_failures(build, spec, t_end) == 0
    mutant(monkeypatch)
    assert gate_failures(build, spec, t_end) > 0
