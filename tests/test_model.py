"""Model construction, validation, and the basic contact kinematics."""

import dataclasses
import math

import numpy as np
import pytest

from nscontact import (
    ForcingTerm,
    InvalidInput,
    SchemeSpec,
    SchemeVariant,
    build_cache,
    build_model,
    initial_state,
)
from conftest import random_model, random_psd


def ball_model(e=1.0):
    return build_model([[1.0]], [[0.0]], [[0.0]], [[1.0]], [0.0], [e],
                       ForcingTerm.constant([-9.81]))


class TestBuildModel:
    def test_one_dof_ball(self):
        model = ball_model()
        assert model.n == 1 and model.m == 1
        assert model.forcing.evaluate(3.7) == pytest.approx([-9.81])

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
        with pytest.raises(InvalidInput, match=r"forcing amplitude must have length 1, "
                                               r"got \(2,\)"):
            build_model([[1.0]], [[0.0]], [[0.0]], [[1.0]], [0.0], [0.5],
                        ForcingTerm.sinusoidal([1.0, 2.0], omega=3.0))

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

    def test_owned_matrices_are_exactly_symmetric(self, rng):
        # the energy audit reads |x1|^2 - |x0|^2 as (x0 + x1)^T A dx, which
        # needs A = A^T bit for bit; user-assembled input may be skewed at roundoff
        for _ in range(10):
            n = int(rng.integers(2, 7))
            mats = [random_psd(rng, n) * (1.0 + 1e-14 * rng.uniform(size=(n, n)))
                    for _ in range(3)]
            mats[0] += n * np.eye(n)
            assert not any(np.array_equal(mat, mat.T) for mat in mats)
            model = build_model(*mats, np.ones((n, 1)), [0.0], [0.5], ForcingTerm.zero(n))
            for mat in (model.mass, model.damping, model.stiffness):
                assert np.array_equal(mat, mat.T)

    def test_symmetric_input_is_kept_bit_for_bit(self, rng):
        n = 4
        a = rng.normal(size=(n, n))
        mass = np.triu(a) + np.triu(a, 1).T + n * np.eye(n)
        mass[0, 1] = mass[1, 0] = -0.0
        stiffness = np.diag([5e-324, 1.0, 2.0, 3.0])
        model = build_model(mass, np.zeros((n, n)), stiffness, np.ones((n, 1)), [0.0],
                            [0.5], ForcingTerm.zero(n))
        assert model.mass.tobytes() == mass.tobytes()
        assert model.stiffness.tobytes() == stiffness.tobytes()

    def test_slightly_skewed_mass_builds_symmetric(self):
        mass = np.array([[2.0, 0.5], [0.5 * (1 + 1e-13), 3.0]])
        model = build_model(mass, np.zeros((2, 2)), np.zeros((2, 2)), [[1.0], [0.0]],
                            [0.0], [0.5], ForcingTerm.zero(2))
        assert np.array_equal(model.mass, model.mass.T)
        assert model.mass[0, 1] == pytest.approx(0.5, rel=1e-13)
        assert mass[1, 0] != mass[0, 1]

    def test_symmetric_part_of_a_huge_matrix_stays_finite(self):
        # (a + a^T) / 2 would overflow here; a/2 + a^T/2 does not
        big = 1.7e308
        mat = np.array([[big, 0.9 * big], [0.9 * big * (1 + 1e-15), big]])
        model = build_model(mat, mat, mat, [[1.0], [0.0]], [0.0], [0.5],
                            ForcingTerm.zero(2))
        for owned in (model.mass, model.damping, model.stiffness):
            assert np.isfinite(owned).all()
            assert np.array_equal(owned, owned.T)
            assert owned[0, 0] == big

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
        pytest.param(lambda amp: ForcingTerm(amp, 0.0, 0.5 * math.pi), id="direct"),
    ])
    def test_forcing_owns_its_amplitude(self, make):
        # the forcing used to keep the caller's array: amp[0] = 5 after
        # build_model changed the load from 1.5 to 5 with no sign
        amp = np.array([1.5])
        model = build_model([[2.0]], [[0.3]], [[40.0]], [[1.0]], [50.0], [0.5], make(amp))
        before = model.forcing.evaluate(0.3)
        amp[0] = 5.0
        assert np.array_equal(model.forcing.evaluate(0.3), before)
        with pytest.raises(ValueError, match="read-only"):
            model.forcing.amplitude[0] = 5.0


class TestContactRows:
    """The model derives G^T once, as the rows every contact image is formed from."""

    @pytest.mark.parametrize("n, m", [(1, 1), (5, 3)])
    def test_rows_are_the_transpose_read_only_and_kept(self, rng, n, m):
        model = random_model(rng, n=n, m=m)
        rows = model.contact_rows
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert np.array_equal(rows, model.contact_jacobian.T)
        assert model.contact_rows is rows
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1.0

    def test_replaced_jacobian_gets_its_own_rows(self, rng):
        model = random_model(rng, n=5, m=3)
        assert np.array_equal(model.contact_rows, model.contact_jacobian.T)
        jac = rng.normal(size=(5, 3))
        other = dataclasses.replace(model, contact_jacobian=jac)
        assert np.array_equal(other.contact_rows, jac.T)

    def test_initial_state_image_is_the_model_image(self, rng):
        model = random_model(rng, n=5, m=3)
        q0, v0 = rng.normal(size=5), rng.normal(size=5)
        state = initial_state(model, q0, v0)
        u, g = model.contact_image(q0, v0)
        assert np.array_equal(state.u, u) and np.array_equal(state.g, g)


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


class TestForcingTerm:
    def test_forms(self):
        assert ForcingTerm.zero(2).evaluate(5.0) == pytest.approx([0.0, 0.0])
        assert ForcingTerm.constant([1.0, -2.0]).evaluate(9.0) == pytest.approx([1.0, -2.0])
        sin = ForcingTerm.sinusoidal([2.0], omega=3.0, phase=0.5)
        assert sin.evaluate(0.7) == pytest.approx([2.0 * math.sin(3.0 * 0.7 + 0.5)])

    @pytest.mark.parametrize("t", [0.0, -3.5, 1e6])
    def test_constant_load_is_its_amplitude(self, t):
        # sin(0 t + pi/2) is exactly 1.0, so the product keeps every bit,
        # the sign of a zero included
        amp = np.array([-0.0, 0.0, -9.81, 5e-324, 1e308])
        assert ForcingTerm.constant(amp).evaluate(t).tobytes() == amp.tobytes()

    @pytest.mark.parametrize("omega, phase, name", [
        (None, 0.0, "omega"), (2.0, "x", "phase"), (np.array([2.0, 3.0]), 0.0, "omega"),
        (2 + 0j, 0.0, "omega")], ids=["none", "str", "array", "complex"])
    def test_rejects_a_non_real_frequency_or_phase(self, omega, phase, name):
        # these used to escape as a TypeError or ValueError from build_model,
        # or (the complex one) pass it and fail in math.sin at the first step
        with pytest.raises(InvalidInput, match=rf"^forcing {name}="):
            ForcingTerm(np.ones(1), omega, phase)

    def test_keeps_frequency_and_phase_as_floats(self):
        term = ForcingTerm(np.ones(1), np.float64(2.0), 1)
        assert type(term.omega) is float and type(term.phase) is float
        assert term.signal(0.5) == math.sin(2.0 * 0.5 + 1.0)


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
        # nu = eta = 0: the cache's filter work eta/nu takes its limit 2/3
        assert build_cache(ball_model(), spec, 1e-3).phi == pytest.approx(2.0 / 3.0)

    def test_eta_over_nu_constant_along_rho(self):
        # generalized-alpha's filter work phi is eta/nu
        for rho in (0.0, 0.3, 0.5, 0.8, 0.9, 1.0):
            cache = build_cache(ball_model(), SchemeSpec.from_rho_infinity(rho), 1e-3)
            assert cache.phi == pytest.approx(2.0 / 3.0)

    def test_derived_filter_constants(self):
        spec = SchemeSpec.generalized_alpha(0.1, 0.3)
        assert spec.gamma == pytest.approx(0.7)
        # nu = 1/2 - alpha_m = 0.4 and eta = alpha_f - alpha_m = 0.2
        cache = build_cache(ball_model(), spec, 1e-3)
        assert cache.filter_gain == pytest.approx(0.4 / 0.9)
        assert cache.filter_lag == pytest.approx(0.1 / 0.9)
        assert cache.phi == pytest.approx(0.2 / 0.4)

    def test_hht_constraints(self):
        spec = SchemeSpec.hht(0.2)
        assert spec.alpha_m == 0.0
        # nu = 1/2 and eta = alpha: gain 1/2, no lag, filter work eta/nu = 2 alpha
        cache = build_cache(ball_model(), spec, 1e-3)
        assert cache.filter_gain == pytest.approx(0.5)
        assert cache.filter_lag == 0.0
        assert cache.filter_works == pytest.approx(0.4)
        with pytest.raises(InvalidInput, match=r"HHT weight alpha=0\.4 outside \[0, 1/3\]"):
            SchemeSpec.hht(0.4)

    @pytest.mark.parametrize("spec, alpha_c", [
        pytest.param(SchemeSpec.newmark(0.6, 0.4), 0.0, id="newmark"),
        pytest.param(SchemeSpec.hht(0.2), 0.2, id="hht"),
        pytest.param(SchemeSpec.generalized_alpha(0.1, 0.3), 0.3, id="ga"),
        pytest.param(SchemeSpec.kh_generalized_alpha(0.1, 0.3), 0.1, id="kh"),
    ])
    def test_load_weight_is_alpha_m_for_kh_and_alpha_f_otherwise(self, spec, alpha_c):
        assert build_cache(ball_model(), spec, 1e-3).alpha_c == alpha_c

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
                        + model.damping @ v0 - model.forcing.evaluate(0.0))
            scale = 1.0 + np.abs(model.forcing.evaluate(0.0)).max()
            assert np.abs(residual).max() <= 1e-12 * scale
            assert state.a_tilde is None and state.f_prev is None and state.v_prev is None
            assert not state.z.any() and not state.x.any() and not state.y.any()

    def test_dimension_check(self, rng):
        model = random_model(rng, n=3, m=1)
        with pytest.raises(InvalidInput, match="q0 must have length 3"):
            initial_state(model, [0.0], np.zeros(3))
