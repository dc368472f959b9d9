"""Step maps against hand solutions, independent oracles, and each other."""

import dataclasses
import functools

import numpy as np
import pytest

import nscontact.integrators as integrators
from nscontact import (
    ForcingTerm,
    ScenarioSpec,
    SchemeSpec,
    SchemeVariant,
    SimulationError,
    SingularIterationMatrix,
    SystemState,
    build_cache,
    build_model,
    build_scenario,
    initial_state,
    simulate,
    solve_lemke,
    step,
)
from nscontact.model import THETA_FAMILY
from conftest import random_model
from oracles import solve_enumeration


def free_particle(e=0.5, force=None):
    forcing = ForcingTerm.constant([force]) if force is not None else ForcingTerm.zero(1)
    return build_model([[1.0]], [[0.0]], [[0.0]], [[1.0]], [0.0], [e], forcing)


def broken_solver(problem):
    raise RuntimeError("solver knocked out")


def oscillator(m=2.0, c=0.3, k=40.0, wall=-50.0, e=0.5, force_amp=1.5):
    return build_model([[m]], [[c]], [[k]], [[1.0]], [-wall], [e],
                       ForcingTerm.sinusoidal([force_amp], omega=2.0))


# random_model options by id suffix: damped, stiff and loaded; C = K = 0;
# and stiff with C = 0 and no load, like the elastic bar
MODEL_KINDS = {"": {}, "-bare": {"damped": False, "stiff": False},
               "-unloaded": {"damped": False, "forcing": "zero"}}


def with_bare_models(specs):
    """(spec, model options) params: each spec on every model of ``MODEL_KINDS``,
    under its own id with the kind's suffix."""
    return [pytest.param(spec, options, id=name + suffix)
            for name, spec in specs.items() for suffix, options in MODEL_KINDS.items()]


class TestActiveSet:
    """One step of h = 0.1 on three free particles, each with its own
    contact g_a = q_a, that holds the three forecast cases at once."""

    @staticmethod
    def three_contact_step(theta=0.5):
        model = build_model(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3),
                            np.zeros(3), [0.5, 0.5, 0.5], ForcingTerm.zero(3))
        state = initial_state(model, [0.05, 1.0, -0.2], [-1.0, -1.0, 1.0])
        new, rec = step(model, state, 0.1, SchemeSpec.moreau_jean(theta))
        assert rec.active_set == ((0, 2) if theta > 0.0 else (0,))
        assert rec.U_prev == pytest.approx([-1.0, -1.0, 1.0])
        return new, rec

    def test_forecast_closing(self):
        # forecast gap 0.05 - 0.1 < 0 at U = -1; the hand LCP gives P = 1.5
        new, rec = self.three_contact_step()
        assert rec.P[0] == pytest.approx(1.5, abs=1e-14)
        assert new.v[0] == pytest.approx(0.5, abs=1e-14)

    def test_forecast_still_open(self):
        # forecast gap 1.0 - 0.1 > 0
        new, rec = self.three_contact_step()
        assert rec.P[1] == 0.0 and new.v[1] == -1.0

    def test_separating_velocity_excluded(self):
        # penetrated, forecast gap -0.2 + 0.1 < 0, but U = 1 separates;
        # at theta = 0 the weighted law has no weight on U_{k+1}, so the
        # opening contact stays out of the set
        new, rec = self.three_contact_step(theta=0.0)
        assert rec.P[0] == pytest.approx(1.5, abs=1e-14)
        assert rec.P[2] == 0.0 and new.v[2] == 1.0

    def test_penetrated_separating_contact_takes_weighted_law(self):
        # the same contact joins the set at theta = 1/2 with the weighted
        # law U_w = (U_k + U_{k+1}) / 2 >= 0: b = 1 + 1 >= 0, so P = 0
        new, rec = self.three_contact_step()
        assert rec.P[2] == 0.0 and new.v[2] == 1.0

    def test_resting_contact_included(self):
        # gap and U exactly zero under a unit load: the contact holds the
        # particle with the impulse h f of one step
        model = free_particle(force=-1.0)
        new, rec = step(model, initial_state(model, [0.0], [0.0]), 0.1,
                        SchemeSpec.moreau_jean(0.5))
        assert rec.active_set == (0,)
        assert rec.P == pytest.approx([0.1], abs=1e-14)
        assert new.v == pytest.approx([0.0], abs=1e-14)


class TestMoreauJean:
    def test_free_flight(self):
        model = free_particle()
        state = initial_state(model, [0.0], [1.0])
        new, rec = step(model, state, 0.1, SchemeSpec.moreau_jean(0.5))
        assert new.v == pytest.approx([1.0])
        assert new.q == pytest.approx([0.1])
        assert rec.active_set == ()
        assert rec.P == pytest.approx([0.0])

    def test_single_contact_impact_hand_lcp(self):
        # impulse balance v1 - v0 = P with Newton law U1 = -e U0 gives
        # v1 = -e v0 = 0.5 and P = v1 - v0 = 1.5
        model = free_particle(e=0.5)
        state = initial_state(model, [0.0], [-1.0])
        new, rec = step(model, state, 0.01, SchemeSpec.moreau_jean(0.5))
        assert rec.active_set == (0,)
        assert new.v == pytest.approx([0.5], abs=1e-14)
        assert rec.P == pytest.approx([1.5], abs=1e-14)
        assert rec.U_next == pytest.approx([0.5], abs=1e-14)

    def test_oscillator_step_matches_trapezoidal_map(self):
        # independent oracle: one step of the trapezoidal one-leg map
        # [q1; v1] = (I - h/2 J)^{-1} (I + h/2 J) [q0; v0] + load terms
        m, c, k, h = 2.0, 0.3, 40.0, 1e-2
        model = oscillator(m=m, c=c, k=k)
        q0, v0 = 0.7, -0.4
        state = initial_state(model, [q0], [v0])
        new, _ = step(model, state, h, SchemeSpec.moreau_jean(0.5))

        jac = np.array([[0.0, 1.0], [-k / m, -c / m]])
        f_mid = 0.5 * (model.forcing.evaluate(0.0)[0] + model.forcing.evaluate(h)[0])
        lhs = np.eye(2) - 0.5 * h * jac
        rhs = (np.eye(2) + 0.5 * h * jac) @ np.array([q0, v0]) + h * np.array([0.0, f_mid / m])
        expected = np.linalg.solve(lhs, rhs)
        assert new.q == pytest.approx([expected[0]], rel=1e-13)
        assert new.v == pytest.approx([expected[1]], rel=1e-13)

    @pytest.mark.parametrize("spec", [SchemeSpec.moreau_jean(0.7),
                                      SchemeSpec.moreau_jean_variant(0.8),
                                      SchemeSpec.newmark(0.6), SchemeSpec.hht(0.2),
                                      SchemeSpec.from_rho_infinity(0.8),
                                      SchemeSpec.kh_generalized_alpha(0.1, 0.3)])
    def test_carries_averaging_fields_over(self, spec):
        # a_tilde, f_prev and v_prev are never made; a theta step does not
        # advance a or the filters either
        model = oscillator()
        state = initial_state(model, [0.2], [0.1])
        new, rec = step(model, state, 1e-3, spec)
        for st in (state, new):
            assert st.a_tilde is None and st.f_prev is None and st.v_prev is None
        assert rec.w_corr is None
        if spec.variant in THETA_FAMILY:
            for name in ("a", "z", "x", "y"):
                assert getattr(new, name) is getattr(state, name), name


class TestMoreauJeanVariant:
    def test_coincides_with_moreau_jean_at_half(self):
        model = oscillator(e=0.8, wall=-0.1)
        state = initial_state(model, [0.05], [-1.2])
        s_a = s_b = state
        for k in range(200):
            s_a, _ = step(model, s_a, 1e-3, SchemeSpec.moreau_jean(0.5))
            s_b, _ = step(model, s_b, 1e-3, SchemeSpec.moreau_jean_variant(0.5))
            assert np.array_equal(s_a.q, s_b.q)
            assert np.array_equal(s_a.v, s_b.v)

    def test_free_flight_any_theta(self):
        model = free_particle()
        state = initial_state(model, [0.0], [1.0])
        for theta in (0.0, 0.3, 1.0):
            new, _ = step(model, state, 0.1, SchemeSpec.moreau_jean_variant(theta))
            assert new.q == pytest.approx([0.1])

    def test_theta_one_step_matches_block_elimination_oracle(self):
        # solve the coupled one-step equations directly as a 2x2 system in
        # (q1, v1): implicit force evaluation, midpoint displacement
        m, c, k, h, th = 2.0, 0.3, 40.0, 1e-2, 1.0
        model = oscillator(m=m, c=c, k=k)
        q0, v0 = 0.7, -0.4
        state = initial_state(model, [q0], [v0])
        new, _ = step(model, state, h, SchemeSpec.moreau_jean_variant(th))

        f_th = model.forcing.evaluate(h)[0]  # theta = 1 weights the endpoint
        A = np.array([[h * k * th, m + h * c * th],
                      [1.0, -0.5 * h]])
        b = np.array([m * v0 - h * k * (1 - th) * q0 - h * c * (1 - th) * v0 + h * f_th,
                      q0 + 0.5 * h * v0])
        q1, v1 = np.linalg.solve(A, b)
        assert new.q == pytest.approx([q1], rel=1e-12)
        assert new.v == pytest.approx([v1], rel=1e-12)


class TestThetaFamily:
    @pytest.mark.parametrize("spec, options", with_bare_models({
        "mj0.3": SchemeSpec.moreau_jean(0.3), "mj0.7": SchemeSpec.moreau_jean(0.7),
        "mjv0.8": SchemeSpec.moreau_jean_variant(0.8)}))
    def test_step_relations_hold(self, rng, spec, options):
        # every defining relation of the theta step, checked per step on a
        # run whose impulses act; the bare and unloaded models have a zero
        # C, K or load, which the step does not multiply
        model = random_model(rng, n=4, m=2, **options)
        h = 1e-3
        col = model.contact_jacobian[:, 0]
        v0 = -2.0 * col / (col @ col)
        state = initial_state(model, np.zeros(4), v0)
        th, w = spec.theta, spec.displacement_weight
        M, C, K, G = model.mass, model.damping, model.stiffness, model.contact_jacobian
        force = model.forcing.evaluate
        impacts = 0
        for _ in range(300):
            new, rec = step(model, state, h, spec)
            scale = 1.0 + np.abs(new.v).max() + np.abs(rec.P).max()
            # the impulse balance with theta-weighted load, damping and stiffness
            f_th = (1 - th) * force(state.t) + th * force(new.t)
            v_th = (1 - th) * state.v + th * new.v
            q_th = (1 - th) * state.q + th * new.q
            r = M @ (new.v - state.v) - h * (f_th - C @ v_th - K @ q_th) - G @ rec.P
            assert np.abs(r).max() < 1e-11 * scale
            # kinematics with the displacement weight
            q_pred = state.q + h * ((1 - w) * state.v + w * new.v)
            assert new.q == pytest.approx(q_pred, abs=1e-12 * scale)
            # local velocities and complementarity on the active set
            assert rec.U_next == pytest.approx(model.contact_jacobian.T @ new.v,
                                              abs=1e-12 * scale)
            for a in range(model.m):
                if a in rec.active_set:
                    lhs = min(rec.P[a],
                              rec.U_next[a] + model.restitution[a] * rec.U_prev[a])
                    assert abs(lhs) < 1e-9 * scale
                else:
                    assert rec.P[a] == 0.0
            impacts += bool(rec.P.max() > 0.0)
            state = new
        assert impacts > 0


class TestGeneralizedAlpha:
    def test_newmark_trapezoidal_equals_moreau_jean_half(self):
        model = oscillator()
        state = initial_state(model, [0.7], [-0.4])
        s_mj = s_nm = state
        spec = SchemeSpec.newmark(gamma=0.5, beta=0.25)
        for _ in range(100):
            s_mj, _ = step(model, s_mj, 1e-2, SchemeSpec.moreau_jean(0.5))
            s_nm, _ = step(model, s_nm, 1e-2, spec)
            assert s_nm.q == pytest.approx(s_mj.q, abs=1e-12)
            assert s_nm.v == pytest.approx(s_mj.v, abs=1e-12)

    @pytest.mark.parametrize("spec, options", with_bare_models({
        "newmark": SchemeSpec.newmark(0.6, 0.35), "hht": SchemeSpec.hht(0.2, gamma=0.8, beta=0.5),
        "ga": SchemeSpec.from_rho_infinity(0.8),
        "kh": SchemeSpec.from_rho_infinity(0.8, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)}))
    def test_step_relations_hold(self, rng, spec, options):
        # every defining relation of the averaging step, checked per step;
        # the bare and unloaded models have a zero C, K or load, which the
        # step does not multiply
        model = random_model(rng, n=4, m=2, **options)
        h = 1e-3
        # drive the first contact so the run actually produces impacts
        col = model.contact_jacobian[:, 0]
        v0 = -2.0 * col / (col @ col)
        state = initial_state(model, np.zeros(4), v0)
        am, af = spec.alpha_m, spec.alpha_f
        # alpha_c: KH weights load and damping like inertia, the others like stiffness
        ac = am if spec.variant is SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA else af
        nu = 0.5 - am
        g, b = spec.gamma, spec.beta
        M, C, K = model.mass, model.damping, model.stiffness
        force = model.forcing.evaluate
        hits = 0
        for _ in range(300):
            new, rec = step(model, state, h, spec)
            scale = 1.0 + np.abs(new.v).max() + np.abs(rec.P).max()
            # the generalized-alpha balance with load weight alpha_c
            s = (1 - am) * new.a + am * state.a
            r = (M @ s - (1 - ac) * (force(new.t) - C @ new.v)
                 - ac * (force(state.t) - C @ state.v)
                 + (1 - af) * K @ new.q + af * K @ state.q)
            assert np.abs(r).max() < 1e-11 * scale
            # impulse correction M^-1 G P and kinematics
            w = np.linalg.solve(M, model.contact_jacobian @ rec.P)
            v_pred = state.v + h * ((1 - g) * state.a + g * new.a)
            q_pred = (state.q + h * state.v
                      + h * h * ((0.5 - b) * state.a + b * new.a))
            assert new.v == pytest.approx(v_pred + w, abs=1e-11 * scale)
            assert new.q == pytest.approx(q_pred + 0.5 * h * w, abs=1e-11 * scale)
            # the midpoint filter rule on displacement, velocity and load increments
            for f1, f0, inc in ((new.z, state.z, new.q - state.q),
                                (new.x, state.x, new.v - state.v),
                                (new.y, state.y, force(new.t) - force(state.t))):
                r = (0.5 + nu) * f1 + (0.5 - nu) * f0 - nu * inc
                assert np.abs(r).max() < 1e-11 * scale
            # local velocities and complementarity on the active set
            assert rec.U_next == pytest.approx(model.contact_jacobian.T @ new.v,
                                              abs=1e-12 * scale)
            for a in range(model.m):
                if a in rec.active_set:
                    lhs = min(rec.P[a],
                              rec.U_next[a] + model.restitution[a] * rec.U_prev[a])
                    assert abs(lhs) < 1e-9 * scale
                else:
                    assert rec.P[a] == 0.0
            hits += len(rec.active_set)
            state = new
        assert hits > 0

    def test_smooth_run_matches_classical_update(self, rng):
        # independent textbook implementation of the averaging scheme
        model = random_model(rng, n=3, m=1, damped=True)
        spec = SchemeSpec.from_rho_infinity(0.7)
        am, af, g, b = spec.alpha_m, spec.alpha_f, spec.gamma, spec.beta
        h = 1e-3
        M, C, K = model.mass, model.damping, model.stiffness
        q = rng.normal(size=3) * 0.01
        v = rng.normal(size=3) * 0.01
        state = initial_state(model, q, v)
        a = state.a.copy()

        lhs = (1 - am) * M + (1 - af) * h * g * C + (1 - af) * h * h * b * K
        for k in range(200):
            t1 = (k + 1) * h
            f_mix = (1 - af) * model.forcing.evaluate(t1) + af * model.forcing.evaluate(k * h)
            q_pred = q + h * v + h * h * (0.5 - b) * a
            v_pred = v + h * (1 - g) * a
            rhs = (f_mix - am * M @ a
                   - C @ ((1 - af) * (v_pred) + af * v)
                   - K @ ((1 - af) * (q_pred) + af * q))
            a1 = np.linalg.solve(lhs, rhs)
            q = q_pred + h * h * b * a1
            v = v_pred + h * g * a1
            a = a1
            state, rec = step(model, state, h, spec)
            assert rec.P == pytest.approx(np.zeros(1))
        assert state.q == pytest.approx(q, abs=1e-11)
        assert state.v == pytest.approx(v, abs=1e-11)
        assert state.a == pytest.approx(a, abs=1e-10)


class TestKrenkHogsberg:
    def test_zero_weights_reduce_to_newmark_exactly(self):
        model = oscillator(e=0.6, wall=-0.2)
        state = initial_state(model, [0.1], [-1.5])
        spec_nm = SchemeSpec.newmark(gamma=0.6, beta=0.4)
        spec_kh = SchemeSpec.kh_generalized_alpha(0.0, 0.0, gamma=0.6, beta=0.4)
        s_a = s_b = state
        for _ in range(300):
            s_a, _ = step(model, s_a, 1e-3, spec_nm)
            s_b, _ = step(model, s_b, 1e-3, spec_kh)
            assert np.array_equal(s_a.q, s_b.q)
            assert np.array_equal(s_a.v, s_b.v)
            assert np.array_equal(s_a.a, s_b.a)

    def test_matches_generalized_alpha_without_damping_constant_load(self, rng):
        model = random_model(rng, n=3, m=2, damped=False, forcing="constant")
        h = 1e-3
        spec_ga = SchemeSpec.from_rho_infinity(0.85)
        spec_kh = SchemeSpec.from_rho_infinity(
            0.85, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)
        s_a = initial_state(model, rng.normal(size=3) * 0.02, rng.normal(size=3))
        s_b = s_a
        for _ in range(500):
            s_a, _ = step(model, s_a, h, spec_ga)
            s_b, _ = step(model, s_b, h, spec_kh)
        scale = 1.0 + np.abs(s_a.q).max() + np.abs(s_a.v).max()
        assert np.abs(s_a.q - s_b.q).max() < 1e-12 * scale
        assert np.abs(s_a.v - s_b.v).max() < 1e-12 * scale

    def test_inertia_weighted_load_matches_hand_assembled_matrix(self):
        # alpha_m = 0, alpha_f = alpha: fully implicit load and damping,
        # averaged stiffness; assemble and solve that one step directly
        m, c, k, h, alpha = 2.0, 0.3, 40.0, 1e-2, 0.2
        model = oscillator(m=m, c=c, k=k)
        spec = SchemeSpec.kh_generalized_alpha(0.0, alpha)
        g, b = spec.gamma, spec.beta
        q0, v0 = 0.7, -0.4
        state = initial_state(model, [q0], [v0])
        a0 = state.a[0]
        new, _ = step(model, state, h, spec)

        v_pred = v0 + h * (1 - g) * a0
        q_pred = q0 + h * v0 + h * h * (0.5 - b) * a0
        lhs = m + h * g * c + (1 - alpha) * h * h * b * k
        rhs = (model.forcing.evaluate(h)[0] - c * v_pred
               - (1 - alpha) * k * q_pred - alpha * k * q0)
        a1 = rhs / lhs
        assert new.a == pytest.approx([a1], rel=1e-13)
        assert new.v == pytest.approx([v_pred + h * g * a1], rel=1e-13)
        assert new.q == pytest.approx([q_pred + h * h * b * a1], rel=1e-13)


SIX_VARIANTS = [
    SchemeSpec.moreau_jean(0.7), SchemeSpec.moreau_jean_variant(0.6),
    SchemeSpec.newmark(0.6, 0.4), SchemeSpec.hht(0.1), SchemeSpec.from_rho_infinity(0.8),
    SchemeSpec.from_rho_infinity(0.8, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)]


@pytest.mark.parametrize("spec", SIX_VARIANTS, ids=lambda spec: spec.variant.value)
def test_step_leaves_its_input_state_unchanged(spec):
    # a contact step (gaps closed and closing) from nonzero filter states
    rng = np.random.default_rng(11)
    model = random_model(rng, n=4, m=2)
    jac_t = model.contact_jacobian.T
    q0 = -np.linalg.lstsq(jac_t, model.gap_offset, rcond=None)[0]
    v0 = -np.linalg.lstsq(jac_t, np.ones(model.m), rcond=None)[0]
    state = dataclasses.replace(initial_state(model, q0, v0, t0=0.5), z=rng.normal(size=4),
                                x=rng.normal(size=4), y=rng.normal(size=4))
    arrays = [f.name for f in dataclasses.fields(SystemState)
              if isinstance(getattr(state, f.name), np.ndarray)]
    assert len(arrays) == 8
    before = {name: getattr(state, name).tobytes() for name in arrays}
    t = state.t
    _, rec = step(model, state, 1e-3, spec, step_index=1)
    assert rec.P.max() > 0.0
    assert {name: getattr(state, name).tobytes() for name in arrays} == before
    assert state.t == t


def held_arrays(obj):
    """The ndarrays a dataclass instance holds, through nested dataclasses."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from held_arrays(value)


@pytest.mark.parametrize("spec", SIX_VARIANTS, ids=lambda spec: spec.variant.value)
def test_a_step_retains_only_what_it_makes(spec):
    # each record keeps its end state's q, v, u, g and its impulse P; an
    # averaging state adds its a, z, x, y, and a theta state shares them
    rng = np.random.default_rng(3)
    n, m = 5, 3
    model = random_model(rng, n=n, m=m)
    v0 = -model.contact_jacobian @ np.ones(m)
    state = initial_state(model, np.zeros(n), v0)
    records = simulate(model, state, 1e-3, spec, 0.05)
    assert any(rec.active_set for rec in records)
    seen = {id(arr) for arr in held_arrays(state)}
    per_step = 8 * (2 * n + 3 * m if spec.variant in THETA_FAMILY else 6 * n + 3 * m)
    for rec in records:
        new = [arr for arr in {id(arr): arr for arr in held_arrays(rec)}.values()
               if id(arr) not in seen]
        seen.update(id(arr) for arr in new)
        assert sum(arr.nbytes for arr in new) == per_step
    names = {f.name for f in dataclasses.fields(integrators.IterationMatrixCache)}
    assert "minv_g" not in names


def broken_step(*args, **kwargs):
    raise RuntimeError("step knocked out")


SPECS = [SchemeSpec.moreau_jean(0.7), SchemeSpec.moreau_jean_variant(0.6),
         SchemeSpec.newmark(0.6), SchemeSpec.hht(0.2), SchemeSpec.from_rho_infinity(0.8),
         SchemeSpec.from_rho_infinity(0.8, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)]


class TestSimulate:
    def test_zero_steps(self):
        model = free_particle()
        state = initial_state(model, [1.0], [0.0])
        assert simulate(model, state, 1e-3, SchemeSpec.moreau_jean(), 0.0) == []

    def test_non_finite_state_names_the_step(self):
        # q + h v overflows in the first step; the finiteness check runs
        # inside the wrapper, so the run error carries that step
        model = build_model([[1.0]], [[0.0]], [[0.0]], [[1.0]], [-1e308], [0.5],
                            ForcingTerm.zero(1))
        state = initial_state(model, [1e308], [1e308])
        # simulate silences numpy's overflow warnings itself; under the
        # suite's warnings-as-errors filter a leaked one fails this test
        with pytest.raises(SimulationError, match=r"^step 0 \(t=0\) failed: the new "
                                                  r"displacement or velocity is not finite$"
                           ) as info:
            simulate(model, state, 10.0, SchemeSpec.moreau_jean(0.5), 30.0)
        assert info.value.step_index == 0
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_determinism_bitwise(self):
        model = oscillator(e=0.7, wall=-0.05)
        state = initial_state(model, [0.05], [-1.0])
        run = lambda: simulate(model, state, 1e-3, SchemeSpec.hht(0.1), 1.5)
        a, b = run(), run()
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.state_next.q, rb.state_next.q)
            assert np.array_equal(ra.state_next.v, rb.state_next.v)
            assert np.array_equal(ra.P, rb.P)
            assert ra.report.identity_residual == rb.report.identity_residual

    def test_impulse_sign_and_complementarity(self, rng):
        for trial in range(5):
            model = random_model(rng, n=3, m=2)
            state = initial_state(model, rng.normal(size=3) * 0.02, rng.normal(size=3))
            records = simulate(model, state, 1e-3, SchemeSpec.moreau_jean(0.6), 0.3)
            for rec in records:
                assert rec.P.min(initial=0.0) >= -1e-12
                scale = 1.0 + np.abs(rec.P).max() + np.abs(rec.U_next).max()
                for a in range(model.m):
                    if a in rec.active_set:
                        gap_law = rec.U_next[a] + model.restitution[a] * rec.U_prev[a]
                        assert min(rec.P[a], gap_law) == pytest.approx(0.0, abs=1e-9 * scale)
                    else:
                        assert rec.P[a] == 0.0

    @pytest.mark.parametrize("solver, reason", [
        (broken_solver, "solver knocked out"),
        (functools.partial(solve_lemke, max_pivots=0), "Lemke: pivot limit 0 reached")],
        ids=["broken_solver", "lemke_no_pivots"])
    def test_failing_step_reports_index(self, monkeypatch, solver, reason):
        # two identical contacts make W singular, so Lemke's full-support
        # guess cannot answer and the step has to pivot
        model = build_model([[1.0]], [[0.0]], [[0.0]], [[1.0, 1.0]], [0.0, 0.0],
                            [0.5, 0.5], ForcingTerm.zero(1))
        state = initial_state(model, [0.05], [-1.0])
        monkeypatch.setitem(integrators.SOLVERS, "lemke", solver)
        with pytest.raises(SimulationError) as info:
            simulate(model, state, 1e-2, SchemeSpec.moreau_jean(0.5), 1.0)
        assert info.value.step_index >= 4   # free fall from 0.05 at v=-1
        assert f"step {info.value.step_index} " in str(info.value)
        assert reason in str(info.value)

    @pytest.mark.parametrize("spec, forcing", [
        pytest.param(spec, forcing, id=prefix + f"spec{i}")
        for prefix, forcing in (("", "sinusoidal"), ("constant-", "constant"),
                                ("zero-", "zero"))
        for i, spec in enumerate(SPECS)])
    def test_forcing_evaluated_once_per_grid_point(self, monkeypatch, spec, forcing):
        # every load takes one path: the step evaluates its signal at t_k
        # and t_k+1 once each, in that order, and the audit needs both
        # again; only initial_state forms F(t) itself
        model = random_model(np.random.default_rng(5), n=3, m=2, forcing=forcing)
        signals, evaluations = [], []
        signal, evaluate = ForcingTerm.signal, ForcingTerm.evaluate
        monkeypatch.setattr(ForcingTerm, "signal",
                            lambda self, t: signals.append(t) or signal(self, t))
        monkeypatch.setattr(ForcingTerm, "evaluate",
                            lambda self, t: evaluations.append(t) or evaluate(self, t))
        state = initial_state(model, np.zeros(3), np.ones(3))
        assert evaluations == signals == [0.0]
        for audit in (False, True):
            signals.clear()
            evaluations.clear()
            simulate(model, state, 1e-3, spec, 1e-3, audit=audit)
            assert evaluations == []
            if audit:
                assert sorted(signals) == [0.0, 0.0, 1e-3, 1e-3]
            else:
                assert signals == [0.0, 1e-3]

    def test_invalid_step_size(self):
        model = free_particle()
        state = initial_state(model, [1.0], [0.0])
        with pytest.raises(SimulationError):
            simulate(model, state, -1e-3, SchemeSpec.moreau_jean(), 1.0)

    @pytest.mark.parametrize("h, t_end", [(float("nan"), 1.0), (float("inf"), 1.0),
                                          (1e-3, float("nan")), (1e-3, float("inf")),
                                          (1e-320, 1.0)])
    def test_non_finite_step_size_or_end_time(self, h, t_end):
        model = free_particle()
        state = initial_state(model, [1.0], [0.0])
        with pytest.raises(SimulationError) as info:
            simulate(model, state, h, SchemeSpec.moreau_jean(), t_end)
        assert info.value.step_index == -1

    @pytest.mark.parametrize("h, t0, t_end", [(1e-300, 0.0, 1.0), (1e-11, -1e6, 0.0)])
    def test_unresolvable_step_size_fails_before_stepping(self, monkeypatch, h, t0, t_end):
        # (t_end - t0) / h is finite, but t_end - h == t_end or t0 + h == t0:
        # the loop would take ~1e300 steps or never advance t; no step may run
        monkeypatch.setattr(integrators, "step", broken_step)
        model = free_particle()
        state = initial_state(model, [1.0], [0.0], t0)
        with pytest.raises(SimulationError, match="resolution of the time grid") as info:
            simulate(model, state, h, SchemeSpec.moreau_jean(), t_end)
        assert info.value.step_index == -1

    def test_enumeration_solver_matches_pivoting(self, monkeypatch):
        model = oscillator(e=0.6, wall=-0.05)
        state = initial_state(model, [0.05], [-1.0])
        spec = SchemeSpec.moreau_jean(0.5)
        rec_l = simulate(model, state, 1e-3, spec, 1.0)
        monkeypatch.setitem(integrators.SOLVERS, "lemke", solve_enumeration)
        rec_p = simulate(model, state, 1e-3, spec, 1.0)
        assert any(r.P.max() > 0 for r in rec_l)
        for a, b in zip(rec_l, rec_p):
            assert b.state_next.q == pytest.approx(a.state_next.q, abs=1e-8)
            assert abs(b.report.identity_residual) <= 1e-10 * b.report.residual_scale


def pressed_three_contact_run(seed=1):
    """A damped 5-dof model with three contacts under a sinusoidal load that
    presses them all shut (sin(3t + 0.3) > 0 up to t = 0.9), from a start
    on every gap at a closing contact velocity of -1."""
    rng = np.random.default_rng(seed)
    base = random_model(rng, n=5, m=3)
    jac_t = base.contact_jacobian.T
    q0 = -np.linalg.lstsq(jac_t, base.gap_offset, rcond=None)[0]
    v0 = -np.linalg.lstsq(jac_t, np.ones(base.m), rcond=None)[0]
    # G^T M^-1 (amplitude) is -20 per contact, up to the random part
    amplitude = rng.normal(size=5) + 20.0 * base.mass @ v0
    model = build_model(base.mass, base.damping, base.stiffness, base.contact_jacobian,
                        base.gap_offset, base.restitution,
                        ForcingTerm.sinusoidal(amplitude, omega=3.0, phase=0.3))
    return model, initial_state(model, q0, v0)


class TestContactImage:
    """Every state carries its contact image u = G^T v, g = G^T q + w."""

    @pytest.mark.parametrize("spec", SIX_VARIANTS, ids=lambda spec: spec.variant.value)
    def test_states_and_records_share_one_image(self, spec):
        model, state = pressed_three_contact_run()
        h = 1e-3
        rows = model.contact_rows
        records = simulate(model, state, h, spec, 0.3)
        assert len(records) == 300 and sum(bool(rec.active_set) for rec in records) >= 200
        previous_u = state.u
        for rec in records:
            for st in (rec.state_prev, rec.state_next):
                assert np.array_equal(st.u, rows @ st.v)
                assert np.array_equal(st.g, rows @ st.q + model.gap_offset)
            assert rec.U_prev is previous_u
            assert rec.U_next is rec.state_next.u
            assert rec.penetration == max(0.0, -rec.state_next.g.min())
            assert rec.report.identity_ok()
            previous_u = rec.U_next

    @pytest.mark.parametrize("stale", ["other-jacobian", "other-offset", "other-size",
                                       "edited-q", "edited-v"])
    def test_simulate_rejects_a_stale_start_image(self, monkeypatch, stale):
        model, state = pressed_three_contact_run()
        jac, offset = model.contact_jacobian, model.gap_offset
        if stale == "edited-q":
            state.q[0] += 1e-3
        elif stale == "edited-v":
            state.v[0] += 1e-3
        elif stale == "other-size":
            other = random_model(np.random.default_rng(1), n=6, m=3)
            state = initial_state(other, np.zeros(6), np.zeros(6))
        else:
            other = build_model(model.mass, model.damping, model.stiffness,
                                1.5 * jac if stale == "other-jacobian" else jac,
                                offset + 0.01 if stale == "other-offset" else offset,
                                model.restitution, model.forcing)
            state = initial_state(other, state.q, state.v)
        monkeypatch.setattr(integrators, "step", broken_step)
        with pytest.raises(SimulationError, match="contact image") as info:
            simulate(model, state, 1e-3, SchemeSpec.moreau_jean(0.5), 0.3)
        assert info.value.step_index == -1

    def test_delassus_is_the_model_rows_times_the_velocity_map(self):
        model, _ = pressed_three_contact_run()
        for spec in SIX_VARIANTS:
            cache = build_cache(model, spec, 1e-3)
            assert np.array_equal(cache.delassus,
                                  model.contact_rows @ cache.impulse_to_velocity)

    def test_the_cache_keeps_no_rows_of_its_own(self):
        names = {f.name for f in dataclasses.fields(integrators.IterationMatrixCache)}
        assert "contact_rows" not in names

    def test_restart_through_initial_state_passes_the_check(self):
        model, state = pressed_three_contact_run()
        h = 1e-3
        end = simulate(model, state, h, SchemeSpec.moreau_jean(0.5), 0.1)[-1].state_next
        restart = initial_state(model, end.q, end.v, end.t)
        assert np.array_equal(restart.u, end.u) and np.array_equal(restart.g, end.g)
        records = simulate(model, restart, h, SchemeSpec.from_rho_infinity(0.8), 0.2)
        assert len(records) == 100 and all(rec.report.identity_ok() for rec in records)


def ball_column(n=4, spacing=0.01, e=0.5, gravity=9.81):
    """Unit masses stacked over a floor, built like the benchmark's stack
    workload: contact 0 is the floor under ball 0 and contact i >= 1 the
    gap between balls i-1 and i; every gap starts at ``spacing``, at rest."""
    model = build_model(np.eye(n), np.zeros((n, n)), np.zeros((n, n)),
                        np.eye(n) - np.eye(n, k=1), np.zeros(n), [e],
                        ForcingTerm.constant(np.full(n, -gravity)))
    return model, initial_state(model, spacing * np.arange(1, n + 1), np.zeros(n))


@pytest.mark.parametrize("spec", [
    pytest.param(SchemeSpec.moreau_jean(0.5), id="mj"),
    pytest.param(SchemeSpec.from_rho_infinity(
        0.8, variant=SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA), id="kh"),
])
def test_enumeration_solver_matches_lemke_on_a_column(monkeypatch, spec):
    # several contacts share one LCP; the column's Delassus matrix is
    # positive definite, so both solvers must find the same impulses
    model, state = ball_column()
    rec_l = simulate(model, state, 1e-3, spec, 1.0)
    monkeypatch.setitem(integrators.SOLVERS, "lemke", solve_enumeration)
    rec_e = simulate(model, state, 1e-3, spec, 1.0)
    assert max(len(r.active_set) for r in rec_l) >= 2
    assert len(rec_e) == len(rec_l)
    for a, b in zip(rec_l, rec_e):
        assert b.active_set == a.active_set
        assert b.state_next.q == pytest.approx(a.state_next.q, abs=1e-8)
        assert a.report.identity_ok() and b.report.identity_ok()


# without the weighted law for opening contacts both schemes ended with
# contacts (0, 2) active, penetration 37 h and mean velocity -0.029
@pytest.mark.parametrize("spec", [
    pytest.param(SchemeSpec.moreau_jean(0.5), id="mj"),
    pytest.param(SchemeSpec.from_rho_infinity(
        0.8, variant=SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA), id="kh"),
])
def test_ball_column_comes_to_rest_on_every_contact(spec):
    h = 1e-3
    model, state = ball_column()
    last = simulate(model, state, h, spec, 2.0)[-1]
    assert last.active_set == (0, 1, 2, 3)
    assert last.penetration <= h


@pytest.mark.parametrize("spec", [
    pytest.param(SchemeSpec.moreau_jean(0.5), id="mj"),
    pytest.param(SchemeSpec.from_rho_infinity(0.8), id="ga"),
])
def test_settling_ball_stays_in_the_active_set(spec):
    # The e = 0.9 ball of acceptance criterion c10 settles within 4 s.
    # Dropping each contact that penetrates while opening made it flicker
    # in and out of the set: 1 075 activations and a final sink of
    # 0.53 h.  Under the weighted law it activates 49 times and ends at
    # 1.6e-4 h.
    h = 1e-3
    model, state = build_scenario(ScenarioSpec(
        "bouncing_ball", {"q0": 0.05, "restitution": 0.9}))
    records = simulate(model, state, h, spec, 4.0, audit=False)
    activations = sum(1 for prev, rec in zip(records, records[1:])
                      if rec.active_set and not prev.active_set)
    assert activations < 100
    assert records[-1].penetration < 0.01 * h


class TestIterationMatrixCache:
    def test_freed_model_does_not_match_a_new_model(self):
        # The cache's model is dropped, then models with other stiffnesses
        # are built while the cache lives on.  Now and then one of them
        # takes the freed model's memory, and with it its id(): an
        # id()-keyed cache matched in about 1 % of these rounds.
        spec = SchemeSpec.moreau_jean(0.5)
        for _ in range(400):
            cache = build_cache(oscillator(k=40.0), spec, 1e-3)
            others = [oscillator(k=41.0 + k) for k in range(20)]
            assert not any(cache.matches(other, spec, 1e-3) for other in others)
            assert cache.matches(cache.model, spec, 1e-3)

    @pytest.mark.parametrize("spec, bar", [
        pytest.param(SchemeSpec.moreau_jean(0.5), (1e3, 1e-4), id="mj"),
        pytest.param(SchemeSpec.from_rho_infinity(0.8), (1e3, 1e-4), id="ga"),
        pytest.param(SchemeSpec.moreau_jean(0.5), (1e-3, 0.1), id="mj-ms"),
        pytest.param(SchemeSpec.from_rho_infinity(0.8), (1e-3, 0.1), id="ga-ms"),
        pytest.param(SchemeSpec.from_rho_infinity(0.8), None, id="ga-damped"),
    ])
    def test_solve_matrix_is_the_scaled_inverse_without_subnormals(self, spec, bar):
        # bar is the (k, h) of a 200-mass bar, None a small damped model.  The
        # inverse of a long chain's banded iteration matrix decays into the
        # subnormal range, which slows every product with it.  With time in
        # ms (k / 1e6, h * 1e3) the iteration matrix is the same, but
        # sigma A^-1 K shrinks by 1e3 (MJ) or 1e6 (GA) and reaches that
        # range too.  The bar has C = 0, so the damping map is checked on
        # the damped model.
        if bar:
            k, h = bar
            model, _ = build_scenario(ScenarioSpec("elastic_bar_chain",
                                                   {"n_masses": 200, "k": k}))
        else:
            model, h = random_model(np.random.default_rng(3), n=4, m=2), 1e-4
        cache = build_cache(model, spec, h)
        kh = spec.variant is SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA
        sigma, ac, af = ((h, 1 - spec.theta, 1 - spec.theta) if spec.variant in THETA_FAMILY
                         else (1.0, spec.alpha_m if kh else spec.alpha_f, spec.alpha_f))
        matrix = (model.mass + sigma * (1 - ac) * cache.g * model.damping
                  + sigma * (1 - af) * cache.b * model.stiffness)
        solve = integrators._scaled_inverse(matrix, sigma)
        assert solve @ matrix == pytest.approx(sigma * np.eye(model.n), abs=1e-12 * sigma)
        tiny = np.finfo(float).tiny
        for mat, folded in ((model.stiffness, cache.stiffness_map),
                            (model.damping, cache.damping_map)):
            if not mat.any():
                assert folded is None
                continue
            expected = solve @ mat
            assert np.abs(folded - expected).max() <= 1e-12 * np.abs(expected).max()
            magnitudes = np.abs(folded)
            assert not ((magnitudes > 0.0) & (magnitudes < tiny)).any()
        assert (cache.damping_map is None) == (bar is not None)
        magnitudes = np.abs(solve)
        assert not ((magnitudes > 0.0) & (magnitudes < tiny)).any()
        assert (magnitudes == 0.0).any() == (bar is not None)

    def test_block_memo_holds_the_last_active_set(self):
        # one entry: kept while the active set holds, replaced when it changes
        model, state = ball_column()
        spec, h = SchemeSpec.moreau_jean(0.5), 1e-3
        cache = build_cache(model, spec, h)
        sets = []
        for _ in range(1000):
            before = cache.block
            state, rec = step(model, state, h, spec, cache=cache)
            if not rec.active_set:
                assert cache.block is before
                continue
            act, block, inverse = cache.block
            assert act == rec.active_set
            assert np.array_equal(block, cache.delassus[np.ix_(act, act)])
            assert inverse @ block == pytest.approx(np.eye(len(act)), abs=1e-12)
            assert (cache.block is before) == (before is not None and before[0] == act)
            sets.append(act)
        assert sum(a != b for a, b in zip(sets, sets[1:])) >= 10
        assert sets[-1] == (0, 1, 2, 3)

    @pytest.mark.parametrize("spec", [
        pytest.param(SchemeSpec.moreau_jean(0.5), id="mj"),
        pytest.param(SchemeSpec.from_rho_infinity(
            0.8, variant=SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA), id="kh"),
    ])
    def test_wrong_block_inverse_falls_back_to_pivoting(self, monkeypatch, spec):
        # the column at rest carries an impulse on all four contacts, which
        # the full-support exit answers; a memo whose inverse is off by a
        # factor 2 must cost pivots, not give a wrong impulse
        model, state = ball_column()
        h = 1e-3
        cache = build_cache(model, spec, h)
        for _ in range(1000):
            state, _ = step(model, state, h, spec, cache=cache)
        act, block, inverse = cache.block
        assert act == (0, 1, 2, 3)
        cache.block = (act, block, 2.0 * inverse)
        pivots = []

        def recording(problem):
            sol = solve_lemke(problem)
            pivots.append(sol.iterations)
            return sol

        monkeypatch.setitem(integrators.SOLVERS, "lemke", recording)
        _, fresh = step(model, state, h, spec, cache=build_cache(model, spec, h))
        _, poisoned = step(model, state, h, spec, cache=cache)
        assert pivots[0] == 0 < pivots[1]
        assert fresh.P.min() > 0.0
        assert np.abs(poisoned.P - fresh.P).max() <= 1e-12 * np.abs(fresh.P).max()
        assert cache.block[0] == act

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("load", ["zero", "constant", "phase", "sinusoidal"])
    def test_load_terms_equal_the_grid_point_formula(self, spec, load):
        # the step takes its load term as load_map times a mixed signal and
        # the audit its work as (dq.amplitude) times one; both agree with the
        # formulas on the two grid-point loads, sigma A^-1 F_mix and dq.F_c
        rng = np.random.default_rng(3)
        base = random_model(rng, n=4, m=2)
        col = base.contact_jacobian[:, 0]
        # a load that presses the first contact shut keeps it active
        amplitude = rng.normal(size=4) - 20.0 * base.mass @ col / (col @ col)
        forcing = {"zero": ForcingTerm.zero(4), "constant": ForcingTerm.constant(amplitude),
                   "phase": ForcingTerm(amplitude, 0.0, 0.3),
                   "sinusoidal": ForcingTerm.sinusoidal(amplitude, omega=3.0, phase=0.3)}[load]
        model = build_model(base.mass, base.damping, base.stiffness, base.contact_jacobian,
                            base.gap_offset, base.restitution, forcing)
        h = 1e-3
        cache = build_cache(model, spec, h)
        state = initial_state(model, np.zeros(4), -1.5 * col / (col @ col))
        records = simulate(model, state, h, spec, 0.3)
        assert any(rec.P.any() for rec in records)
        ac, af, c = cache.alpha_c, cache.alpha_f, cache.c
        sigma = h if spec.variant in THETA_FAMILY else 1.0
        solve = integrators._scaled_inverse(
            model.mass + sigma * (1 - ac) * cache.g * model.damping
            + sigma * (1 - af) * cache.b * model.stiffness, sigma)
        fields = ("q", "v") if spec.variant in THETA_FAMILY else ("q", "v", "a", "y")
        got = {name: [] for name in (*fields, "W_ext")}
        want = {name: [] for name in got}
        for rec in records:
            sp, sn = rec.state_prev, rec.state_next
            f0, f1 = model.forcing.evaluate(sp.t), model.forcing.evaluate(sn.t)
            pred_v = sp.v + cache.pred_v_a * sp.a
            pred_q = sp.q + h * sp.v + cache.pred_q_a * sp.a
            s = (solve @ ((1 - ac) * f1 + ac * f0)
                 - cache.damping_map @ ((1 - ac) * pred_v + ac * sp.v)
                 - cache.stiffness_map @ ((1 - af) * pred_q + af * sp.q))
            expected = {"q": pred_q + cache.b * s + cache.impulse_to_displacement @ rec.P,
                        "v": pred_v + cache.g * s + cache.impulse_to_velocity @ rec.P,
                        "a": (s + cache.impulse_to_s @ rec.P - spec.alpha_m * sp.a)
                        / (1 - spec.alpha_m),
                        "y": cache.filter_gain * (f1 - f0) - cache.filter_lag * sp.y}
            for name in fields:
                got[name].append(getattr(sn, name))
                want[name].append(expected[name])
            dq = sn.q - sp.q
            y_c = c * sn.y + (1 - c) * sp.y
            got["W_ext"].append(rec.report.W_ext)
            want["W_ext"].append(dq @ (c * f1 + (1 - c) * f0) - cache.filter_works * (dq @ y_c))
        for name in got:
            actual, reference = np.array(got[name]), np.array(want[name])
            assert np.abs(actual - reference).max() <= 1e-13 * np.abs(reference).max(), name

    def test_tiny_mass_loses_against_the_stiffness_floor(self):
        # K's eigenvalue -1e-11 lies inside build_model's semi-definite
        # floor (-1e-10 of its largest), but MJ(1/2) at h = 1 factors
        # M + K / 4, whose second diagonal entry 1e-20 - 2.5e-12 is negative
        model = build_model(np.diag([1.0, 1e-20]), np.zeros((2, 2)), np.diag([1.0, -1e-11]),
                            [[1.0], [0.0]], [0.0], [0.5], ForcingTerm.zero(2))
        spec = SchemeSpec.moreau_jean(0.5)
        with pytest.raises(SingularIterationMatrix):
            build_cache(model, spec, 1.0)
        with pytest.raises(SingularIterationMatrix):
            simulate(model, initial_state(model, [1.0, 0.0], [0.0, 0.0]), 1.0, spec, 2.0)

    @pytest.mark.parametrize("spec, h", [
        pytest.param(SchemeSpec.newmark(), 1e200, id="newmark"),
        pytest.param(SchemeSpec.moreau_jean(0.5), 1e200, id="moreau_jean"),
        # finite weights whose product with K overflows
        pytest.param(SchemeSpec.newmark(), 1e154, id="newmark-finite-weights"),
    ])
    def test_overflowing_step_size_names_the_iteration_matrix(self, spec, h):
        # these used to escape as a bare OverflowError from h**2 (Newmark)
        # and a ValueError from the factorization of an infinite matrix (MJ)
        model, state = build_scenario(ScenarioSpec("forced_oscillator_contact"))
        with pytest.raises(SingularIterationMatrix, match="iteration matrix is not finite"):
            simulate(model, state, h, spec, h)


class TestNonFiniteState:
    def test_non_finite_step_names_its_index(self, monkeypatch):
        model = oscillator()
        state = initial_state(model, [0.05], [-1.0])
        real_step = integrators.step

        def overflowing_step(*args, **kwargs):
            new, rec = real_step(*args, **kwargs)
            if kwargs["step_index"] == 3:
                new.v = np.array([np.inf])
            return new, rec

        monkeypatch.setattr(integrators, "step", overflowing_step)
        for audit in (True, False):
            with pytest.raises(SimulationError, match="step 3") as info:
                simulate(model, state, 1e-3, SchemeSpec.hht(0.1), 0.1, audit=audit)
            assert info.value.step_index == 3
            assert "not finite" in str(info.value)


class TestSmoothOrder:
    def test_second_order_schemes(self):
        model = oscillator(m=1.0, c=0.0, k=4 * np.pi**2, wall=-100.0, force_amp=1.0)
        hs = np.array([1e-2, 5e-3, 2.5e-3])
        # reference: tiny-step trapezoidal run as an independent fine solution
        ref_h = 1.25e-4
        ref_state = initial_state(model, [1.0], [0.0])
        for _ in range(int(round(1.0 / ref_h))):
            ref_state, _ = step(model, ref_state, ref_h, SchemeSpec.moreau_jean(0.5))
        for spec in (SchemeSpec.moreau_jean(0.5), SchemeSpec.from_rho_infinity(0.8)):
            errs = []
            for h in hs:
                state = initial_state(model, [1.0], [0.0])
                records = simulate(model, state, h, spec, 1.0, audit=False)
                fin = records[-1].state_next
                errs.append(np.hypot(fin.q[0] - ref_state.q[0], fin.v[0] - ref_state.v[0]))
            order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert order >= 1.9
