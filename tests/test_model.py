"""Model construction, validation, and the basic contact kinematics."""

import math

import numpy as np
import pytest

from nscontact import (
    ForcingKind,
    ForcingTerm,
    InvalidInput,
    SchemeSpec,
    SchemeVariant,
    build_model,
    gap,
    initial_state,
    local_velocity,
)
from conftest import random_model, random_psd


def ball_model(e=1.0):
    return build_model([[1.0]], [[0.0]], [[0.0]], [[1.0]], [0.0], [e],
                       ForcingTerm.constant([-9.81]))


class TestBuildModel:
    def test_one_dof_ball(self):
        model = ball_model()
        assert model.n == 1 and model.m == 1
        assert model.force(3.7) == pytest.approx([-9.81])

    def test_restitution_out_of_range(self):
        with pytest.raises(InvalidInput, match=r"restitution \[1\.5\] outside \[0, 1\]"):
            build_model(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                        [[1.0], [0.0]], [0.0], [1.5], ForcingTerm.zero(2))

    def test_zero_mass_rejected(self):
        with pytest.raises(InvalidInput, match="mass is not positive definite"):
            build_model([[0.0]], [[0.0]], [[0.0]], [[1.0]], [0.0], [1.0],
                        ForcingTerm.zero(1))

    def test_indefinite_stiffness_rejected(self):
        with pytest.raises(InvalidInput, match="stiffness has eigenvalue .* below the semi-definite"):
            build_model(np.eye(2), np.zeros((2, 2)), np.diag([1.0, -1.0]),
                        [[1.0], [0.0]], [0.0], [0.5], ForcingTerm.zero(2))

    def test_dimension_mismatch_names_field(self):
        with pytest.raises(InvalidInput, match="gap_offset must have length 1"):
            build_model(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                        [[1.0], [0.0]], [0.0, 1.0], [0.5], ForcingTerm.zero(2))
        with pytest.raises(InvalidInput, match="contact_jacobian must have 2 rows"):
            build_model(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                        [[1.0]], [0.0], [0.5], ForcingTerm.zero(2))

    def test_every_piecewise_segment_is_checked(self):
        # the first segment fits, the second does not: rejected at build
        # time, not when the run reaches it
        forcing = ForcingTerm.piecewise_constant([0.01], [[1.0], [2.0, 3.0]])
        with pytest.raises(InvalidInput, match="forcing segment 1 must have length 1"):
            build_model([[1.0]], [[0.0]], [[0.0]], [[1.0]], [0.0], [0.5], forcing)

    def test_asymmetric_mass_rejected(self, rng):
        # every asymmetric perturbation above tolerance must be rejected
        for trial in range(25):
            n = int(rng.integers(2, 6))
            sym = random_psd(rng, n) + n * np.eye(n)
            bump = np.zeros((n, n))
            i, j = rng.integers(0, n, size=2)
            while i == j:
                i, j = rng.integers(0, n, size=2)
            bump[i, j] = (1.0 + np.abs(sym).max()) * 1e-8
            with pytest.raises(InvalidInput, match="mass is not symmetric"):
                build_model(sym + bump, np.zeros((n, n)), np.zeros((n, n)),
                            np.ones((n, 1)), [0.0], [0.5], ForcingTerm.zero(n))

    def test_rank_deficient_stiffness_accepted(self):
        # free-free chain stiffness is singular but admissible
        k = np.array([[1.0, -1.0], [-1.0, 1.0]]) * 1000.0
        model = build_model(np.eye(2), np.zeros((2, 2)), k, [[1.0], [0.0]],
                            [0.1], [0.0], ForcingTerm.zero(2))
        assert model.m == 1

    def test_restitution_broadcast(self):
        model = build_model(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                            np.ones((2, 2)), [0.0, 0.0], [0.5], ForcingTerm.zero(2))
        assert model.restitution.tolist() == [0.5, 0.5]


class TestReadOnlyModel:
    """A model's own arrays cannot change under a cache built on it: a
    write into ``stiffness`` after ``build_cache`` used to leave the
    cache matching and the step silently off by the old stiffness."""

    @staticmethod
    def oscillator():
        return build_model([[2.0]], [[0.3]], [[40.0]], [[1.0]], [50.0], [0.5],
                           ForcingTerm.sinusoidal([1.5], omega=2.0))

    @pytest.mark.parametrize("name", ["mass", "damping", "stiffness", "contact_jacobian",
                                      "gap_offset", "restitution"])
    def test_in_place_write_raises(self, name):
        model = self.oscillator()
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0] = 80.0

    def test_caller_arrays_stay_writable(self):
        stiffness = np.array([[40.0]])
        model = build_model([[2.0]], [[0.3]], stiffness, [[1.0]], [50.0], [0.5],
                            ForcingTerm.zero(1))
        stiffness[0, 0] = 80.0
        assert model.stiffness[0, 0] == 40.0

    @pytest.mark.parametrize("make", [
        pytest.param(ForcingTerm.constant, id="constant"),
        pytest.param(lambda amp: ForcingTerm.sinusoidal(amp, omega=2.0), id="sinusoidal"),
        pytest.param(lambda amp: ForcingTerm(ForcingKind.CONSTANT, amp), id="direct"),
    ])
    def test_forcing_owns_its_amplitude(self, make):
        # the forcing used to keep the caller's array: amp[0] = 5 after
        # build_model changed the load from 1.5 to 5 with no sign
        amp = np.array([1.5])
        model = build_model([[2.0]], [[0.3]], [[40.0]], [[1.0]], [50.0], [0.5], make(amp))
        before = model.force(0.3)
        amp[0] = 5.0
        assert np.array_equal(model.force(0.3), before)
        with pytest.raises(ValueError, match="read-only"):
            model.forcing.amplitude[0] = 5.0


class TestNonFiniteInput:
    ARGS = dict(mass=[[1.0]], damping=[[0.0]], stiffness=[[0.0]], contact_jacobian=[[1.0]],
                gap_offset=[0.0], restitution=[0.5], forcing=ForcingTerm.zero(1))

    @pytest.mark.parametrize("field, value", [
        ("mass", [[math.nan]]),
        ("damping", [[math.nan]]),
        ("stiffness", [[math.inf]]),
        ("contact_jacobian", [[math.nan]]),
        ("gap_offset", [math.inf]),
        ("restitution", [math.nan]),
        ("forcing", ForcingTerm.constant([math.inf])),
        ("forcing", ForcingTerm.sinusoidal([1.0], omega=math.nan)),
        ("forcing", ForcingTerm.piecewise_constant([0.5], [[0.0], [math.nan]])),
    ])
    def test_build_model_rejects(self, field, value):
        name = "forcing" if field == "forcing" else field
        with pytest.raises(InvalidInput, match=rf"^{name}.* contains NaN or infinity"):
            build_model(**dict(self.ARGS, **{field: value}))

    @pytest.mark.parametrize("q0, v0, name", [
        ([math.inf], [0.0], "q0"), ([0.0], [math.nan], "v0")])
    def test_initial_state_rejects(self, q0, v0, name):
        with pytest.raises(InvalidInput, match=rf"^{name} contains NaN or infinity"):
            initial_state(ball_model(), q0, v0)


class TestGapAndLocalVelocity:
    def test_identity_jacobian(self):
        model = ball_model()
        assert gap(model, [0.3]) == pytest.approx([0.3])

    def test_touching_configuration(self):
        model = build_model([[1.0]], [[0.0]], [[0.0]], [[1.0]], [-1.0], [1.0],
                            ForcingTerm.zero(1))
        assert gap(model, [1.0]) == pytest.approx([0.0])

    def test_gap_matches_dense_oracle(self, rng):
        model = random_model(rng, n=5, m=3)
        q = rng.normal(size=5)
        expected = np.array([
            sum(model.contact_jacobian[i, a] * q[i] for i in range(5))
            + model.gap_offset[a] for a in range(3)])
        assert gap(model, q) == pytest.approx(expected, rel=1e-13)

    def test_selector_row(self):
        model = build_model(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                            [[1.0], [0.0]], [0.0], [0.5], ForcingTerm.zero(2))
        assert local_velocity(model, [3.0, 5.0]) == pytest.approx([3.0])

    def test_local_velocity_matches_transpose_oracle(self, rng):
        model = random_model(rng, n=4, m=2)
        v = rng.normal(size=4)
        expected = np.array([
            sum(model.contact_jacobian[i, a] * v[i] for i in range(4))
            for a in range(2)])
        assert local_velocity(model, v) == pytest.approx(expected, rel=1e-13)

    def test_dimension_checks(self):
        model = ball_model()
        with pytest.raises(InvalidInput, match="q must have length 1"):
            gap(model, [1.0, 2.0])
        with pytest.raises(InvalidInput, match="v must have length 1"):
            local_velocity(model, np.zeros(3))

    def test_linearity(self, rng):
        model = random_model(rng, n=4, m=3)
        for _ in range(20):
            q1, q2 = rng.normal(size=4), rng.normal(size=4)
            lhs = gap(model, q1 + q2) - model.gap_offset
            rhs = (gap(model, q1) - model.gap_offset) + (gap(model, q2) - model.gap_offset)
            assert lhs == pytest.approx(rhs, abs=1e-12)
            c = float(rng.normal())
            assert local_velocity(model, c * q1 + q2) == pytest.approx(
                c * local_velocity(model, q1) + local_velocity(model, q2), abs=1e-12)


class TestForcingTerm:
    def test_forms(self):
        assert ForcingTerm.zero(2).evaluate(5.0) == pytest.approx([0.0, 0.0])
        assert ForcingTerm.constant([1.0, -2.0]).evaluate(9.0) == pytest.approx([1.0, -2.0])
        sin = ForcingTerm.sinusoidal([2.0], omega=3.0, phase=0.5)
        assert sin.evaluate(0.7) == pytest.approx([2.0 * math.sin(3.0 * 0.7 + 0.5)])

    def test_piecewise(self):
        pw = ForcingTerm.piecewise_constant([1.0, 2.0], [[0.0], [5.0], [-1.0]])
        assert pw.evaluate(0.5) == pytest.approx([0.0])
        assert pw.evaluate(1.5) == pytest.approx([5.0])
        assert pw.evaluate(2.0) == pytest.approx([-1.0])

    def test_piecewise_breakpoints_strictly_increasing(self):
        with pytest.raises(InvalidInput, match="strictly increasing"):
            ForcingTerm.piecewise_constant([1.0, 1.0], [[0.0], [1.0], [2.0]])


class TestSchemeSpec:
    def test_rho_parameterization_closed_forms(self):
        # independent evaluation of the closed forms
        rho = 0.8
        spec = SchemeSpec.from_rho_infinity(rho)
        am = (2 * rho - 1) / (rho + 1)
        af = rho / (rho + 1)
        g = 0.5 + af - am
        assert spec.alpha_m == pytest.approx(am)
        assert spec.alpha_f == pytest.approx(af)
        assert spec.gamma == pytest.approx(g)
        assert spec.beta == pytest.approx(0.25 * (g + 0.5) ** 2)

    def test_rho_one_gives_half_half(self):
        spec = SchemeSpec.from_rho_infinity(1.0)
        assert spec.alpha_m == pytest.approx(0.5)
        assert spec.alpha_f == pytest.approx(0.5)
        assert spec.eta_over_nu == pytest.approx(2.0 / 3.0)

    def test_eta_over_nu_constant_along_rho(self):
        for rho in (0.0, 0.3, 0.9):
            assert SchemeSpec.from_rho_infinity(rho).eta_over_nu == pytest.approx(2.0 / 3.0)

    def test_derived_filter_constants(self):
        spec = SchemeSpec.generalized_alpha(0.1, 0.3)
        assert spec.nu == pytest.approx(0.4)
        assert spec.eta == pytest.approx(0.2)
        assert spec.gamma == pytest.approx(0.7)

    def test_hht_constraints(self):
        spec = SchemeSpec.hht(0.2)
        assert spec.alpha_m == 0.0
        assert spec.nu == pytest.approx(0.5)
        assert spec.eta == pytest.approx(0.2)
        with pytest.raises(InvalidInput, match=r"HHT weight alpha=0\.4 outside \[0, 1/3\]"):
            SchemeSpec.hht(0.4)

    def test_theta_bounds(self):
        with pytest.raises(InvalidInput, match=r"theta=1\.2 outside \[0, 1\]"):
            SchemeSpec.moreau_jean(1.2)
        with pytest.raises(InvalidInput, match=r"spectral radius 1\.5 outside \[0, 1\]"):
            SchemeSpec.from_rho_infinity(1.5)

    def test_newmark_requires_zero_weights(self):
        with pytest.raises(InvalidInput, match="Newmark requires alpha_m = alpha_f = 0"):
            SchemeSpec(SchemeVariant.NONSMOOTH_NEWMARK, alpha_f=0.1)

    @pytest.mark.parametrize("name, build", [
        ("theta", lambda: SchemeSpec.moreau_jean(math.nan)),
        ("gamma", lambda: SchemeSpec.newmark(math.nan)),
        ("beta", lambda: SchemeSpec.hht(0.1, beta=math.inf)),
        ("alpha_m", lambda: SchemeSpec.generalized_alpha(math.nan, 0.3)),
        ("alpha_f", lambda: SchemeSpec.kh_generalized_alpha(0.0, -math.inf)),
    ])
    def test_non_finite_parameter_named(self, name, build):
        # a NaN gamma used to pass and fail later as a raw ValueError in build_cache
        with pytest.raises(InvalidInput, match=rf"^{name}=\S+ is not finite"):
            build()


class TestInitialState:
    def test_consistent_acceleration(self, rng):
        for _ in range(10):
            model = random_model(rng, n=5, m=2)
            q0, v0 = rng.normal(size=5), rng.normal(size=5)
            state = initial_state(model, q0, v0)
            residual = (model.mass @ state.a + model.stiffness @ q0
                        + model.damping @ v0 - model.force(0.0))
            scale = 1.0 + np.abs(model.force(0.0)).max()
            assert np.abs(residual).max() <= 1e-12 * scale
            assert state.a_tilde == pytest.approx(state.a)
            assert not state.z.any() and not state.x.any() and not state.y.any()

    def test_dimension_check(self, rng):
        model = random_model(rng, n=3, m=1)
        with pytest.raises(InvalidInput, match="q0 must have length 3"):
            initial_state(model, [0.0], np.zeros(3))
