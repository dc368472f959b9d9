"""Shared builders for randomized test models."""

import dataclasses

import numpy as np
import pytest

from nscontact import ForcingTerm, build_model


def random_psd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T)


def random_model(rng, n=4, m=2, damped=True, forcing="sinusoidal", stiff=True):
    """A generic validated model with contacts a short fall away."""
    mass = random_psd(rng, n) + n * np.eye(n)
    damping = random_psd(rng, n, scale=0.05) if damped else np.zeros((n, n))
    stiffness = random_psd(rng, n) if stiff else np.zeros((n, n))
    jac = rng.normal(size=(n, m))
    offset = rng.uniform(0.0, 0.05, size=m)
    restitution = rng.uniform(0.0, 1.0, size=m)
    if forcing == "sinusoidal":
        term = ForcingTerm.sinusoidal(rng.normal(size=n), omega=3.0, phase=0.3)
    elif forcing == "constant":
        term = ForcingTerm.constant(rng.normal(size=n))
    else:
        term = ForcingTerm.zero(n)
    return build_model(mass, damping, stiffness, jac, offset, restitution, term)


def record_bytes(record) -> bytes:
    """The bits of a record's end state, impulse and energy report."""
    state = record.state_next
    arrays = (state.q, state.v, state.a, state.z, state.x, state.y, record.P)
    report = np.array(dataclasses.astuple(record.report), dtype=float)
    return b"".join(x.tobytes() for x in (*arrays, report))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
