"""High-frequency spectral radii of the free step, an oracle independent
of the energy audit.

The audit checks each step against an identity whose coefficients come
from the same ``SchemeSpec`` the step reads, so a wrong parameter map
that both share keeps its residual at roundoff.  Here the step acts on a
contact-free 1-dof oscillator (gap offset 1e30, zero load, unit mass,
h = 1, so omega h = sqrt(k)).  The amplification matrix is built column
by column from ``step`` on unit states, (q, v) for the theta family and
(q, v, a) for the averaging family, whose filters do not feed back.  Its
spectral radius is compared with the textbook value of each scheme.
"""

import dataclasses

import numpy as np
import pytest

from nscontact import (
    ForcingTerm,
    SchemeSpec,
    SchemeVariant,
    build_model,
    initial_state,
    step,
)
from nscontact.model import THETA_FAMILY

GA = SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA
KH = SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA


def spectral_radius(spec, omega_h):
    model = build_model([[1.0]], [[0.0]], [[omega_h ** 2]], [[1.0]], [1e30], [0.5],
                        ForcingTerm.zero(1))
    size = 2 if spec.variant in THETA_FAMILY else 3
    columns = []
    for unit in np.eye(size):
        state = dataclasses.replace(initial_state(model, unit[:1], unit[1:2]),
                                    a=unit[2:] if size == 3 else np.zeros(1))
        new, record = step(model, state, 1.0, spec)
        assert record.active_set == ()
        columns.append(np.concatenate([new.q, new.v, new.a][:size]))
    return float(np.abs(np.linalg.eigvals(np.column_stack(columns))).max())


HIGH_FREQUENCY = [
    *(pytest.param(SchemeSpec.from_rho_infinity(rho, variant), rho, 2e-4,
                   id=f"{name}-rho{rho}")
      for variant, name in ((GA, "ga"), (KH, "kh")) for rho in (0.0, 0.3, 0.5, 0.8)),
    *(pytest.param(SchemeSpec.hht(alpha), (1 - alpha) / (1 + alpha), 1e-9,
                   id=f"hht-{alpha}") for alpha in (0.1, 0.2)),
    pytest.param(SchemeSpec.newmark(0.6), 0.9 / 1.1, 1e-9, id="newmark-0.6"),
    pytest.param(SchemeSpec.newmark(0.5), 1.0, 1e-12, id="newmark-0.5"),
    pytest.param(SchemeSpec.moreau_jean(0.5), 1.0, 1e-12, id="mj-0.5"),
    pytest.param(SchemeSpec.moreau_jean_variant(0.5), 1.0, 1e-12, id="mjv-0.5"),
    # |1 - 1/theta|
    pytest.param(SchemeSpec.moreau_jean(0.75), 1.0 / 3.0, 1e-9, id="mj-0.75"),
    pytest.param(SchemeSpec.moreau_jean(1.0), 0.0, 2e-6, id="mj-1"),
    # the midpoint displacement update keeps the high modes undamped
    pytest.param(SchemeSpec.moreau_jean_variant(0.75), 1.0, 1e-9,
                 id="mjv-0.75-no-high-frequency-damping"),
]


@pytest.mark.parametrize("spec, radius, tol", HIGH_FREQUENCY)
def test_high_frequency_spectral_radius(spec, radius, tol):
    assert spectral_radius(spec, 1e6) == pytest.approx(radius, abs=tol)


@pytest.mark.parametrize("spec, radius, tol", HIGH_FREQUENCY)
def test_low_frequency_spectral_radius_is_one(spec, radius, tol):
    # the same schemes; every radius tends to 1 as omega h -> 0
    assert spectral_radius(spec, 1e-2) == pytest.approx(1.0, abs=1e-4)
