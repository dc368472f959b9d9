"""The energy audit catches known wrong steps.

Each case runs one scheme twice: once as it is, and once with a small
defect injected into the run's cache, in the step's impulse map or in
the audit's coefficient row.  The clean run must pass the identity gate
on every step and the mutant must fail it on at least one.  The table
runs in SI units and again in three rescaled unit systems:

- ``impulse tail``: the impulse's velocity correction scaled by 1.01;
- ``filter work``: the generalized-alpha and HHT filter works dropped;
- ``c_a``: the acceleration energy coefficient scaled by 1.01.

The c_a mutant runs on Newmark(0.6, 0.4), not on generalized-alpha
rho_inf = 0.8, whose c_a = (h^2/4)(2 beta - gamma) ~ 1.5e-9 at h = 1e-3
puts a 1 % change of that term below the gate.

Rescaled, every trajectory is the SI one in other units, but the gate's
scale ``1 + max(|dE|, |dH|, |W_ext|)`` keeps an absolute floor: once the
energies fall below ~1e-10 it passes every mutant.  In millimetres the
energies grow by 1e6 instead, and the gate fails the clean HHT and
Newmark oscillators: a correct run exits 2.  The small-unit rows and
those two are strict xfails (ROADMAP item 3, a unit-invariant gate); the
clean twin must pass in every unit system all the same.
"""

import dataclasses
import functools

import numpy as np
import pytest

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


def patch_cache(monkeypatch, change):
    """Build every run's cache with the fields ``change(cache)`` returns replaced."""
    build_cache = integrators.build_cache

    def mutant(*args):
        cache = build_cache(*args)
        return dataclasses.replace(cache, **change(cache))

    monkeypatch.setattr(integrators, "build_cache", mutant)


def impulse_tail(monkeypatch):
    patch_cache(monkeypatch,
                lambda cache: {"impulse_to_velocity": 1.01 * cache.impulse_to_velocity})


def filter_work(monkeypatch):
    patch_cache(monkeypatch, lambda cache: {"phi": 0.0, "filter_works": 0.0})


def accel_coeff(monkeypatch):
    patch_cache(monkeypatch, lambda cache: {"c_a": 1.01 * cache.c_a})


def rescaled(build, length, mass):
    """``build``'s run with lengths and masses in other units; time stays in s."""
    model, state = build()
    forcing = dataclasses.replace(model.forcing,
                                  amplitude=mass * length * model.forcing.amplitude)
    scaled = build_model(mass * model.mass, mass * model.damping, mass * model.stiffness,
                         model.contact_jacobian, length * model.gap_offset,
                         model.restitution, forcing)
    return scaled, initial_state(scaled, length * state.q, length * state.v)


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


# (id prefix, length factor, mass factor); SI runs keep the bare case id
UNIT_SYSTEMS = [("", 1.0, 1.0), ("length-1e-5-", 1e-5, 1.0),
                ("length-mass-1e-3-", 1e-3, 1e-3), ("length-1e3-", 1e3, 1.0)]

# measured: in both small-unit systems the gate flags none of the five
# mutants (the 1 % impulse tail on the ball: 6 steps in SI, worst
# |r|/scale 7.8e-4; 0 steps at lengths x 1e-5, worst 8.4e-14)
MISSED = pytest.mark.xfail(strict=True, raises=AssertionError,
                           reason="ROADMAP item 3: the gate's absolute floor passes "
                                  "every mutant in small units")

# measured: in millimetres the ball and GA rows pass clean and flag 6, 20
# and 300 steps, but the gate fails the clean HHT oscillator on 16 of 2 000
# steps and the clean Newmark oscillator on 12 of 2 000
CLEAN_FAILS = pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                                reason="ROADMAP item 3: the gate fails correct steps "
                                       "in large units")


def marks(prefix, build):
    if prefix == "length-1e3-":
        return [CLEAN_FAILS] if build is oscillator else []
    return [MISSED] if prefix else []


def gate_failures(build, spec, t_end):
    model, state = build()
    return sum(not rec.report.identity_ok() for rec in simulate(model, state, H, spec, t_end))


@pytest.mark.parametrize("build, spec, t_end, mutant", [
    pytest.param(functools.partial(rescaled, build, length, mass), spec, t_end, mutant,
                 id=prefix + name, marks=marks(prefix, build))
    for prefix, length, mass in UNIT_SYSTEMS for name, build, spec, t_end, mutant in CASES])
def test_audit_flags_the_mutant_and_passes_its_clean_twin(monkeypatch, build, spec, t_end,
                                                           mutant):
    if gate_failures(build, spec, t_end):
        # not an assert: an xfail row may fail only on the mutant
        pytest.fail("the clean run fails the identity gate")
    mutant(monkeypatch)
    assert gate_failures(build, spec, t_end) > 0
