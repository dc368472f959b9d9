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
    local_velocity,
    simulate,
    solve_enumeration,
    solve_lemke,
    step,
)
from nscontact.model import THETA_FAMILY
from conftest import random_model


def free_particle(e=0.5, force=None):
    forcing = ForcingTerm.constant([force]) if force is not None else ForcingTerm.zero(1)
    return build_model([[1.0]], [[0.0]], [[0.0]], [[1.0]], [0.0], [e], forcing)


def broken_solver(problem):
    raise RuntimeError("solver knocked out")


def oscillator(m=2.0, c=0.3, k=40.0, wall=-50.0, e=0.5, force_amp=1.5):
    return build_model([[m]], [[c]], [[k]], [[1.0]], [-wall], [e],
                       ForcingTerm.sinusoidal([force_amp], omega=2.0))


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
        f_mid = 0.5 * (model.force(0.0)[0] + model.force(h)[0])
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
        # no step advances a_tilde, f_prev or v_prev; a theta step does not
        # advance a or the filters either
        model = oscillator()
        state = initial_state(model, [0.2], [0.1])
        new, _ = step(model, state, 1e-3, spec)
        names = ("a_tilde", "f_prev", "v_prev")
        if spec.variant in THETA_FAMILY:
            names += ("a", "z", "x", "y")
        for name in names:
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

        f_th = model.force(h)[0]          # theta = 1 weights the endpoint
        A = np.array([[h * k * th, m + h * c * th],
                      [1.0, -0.5 * h]])
        b = np.array([m * v0 - h * k * (1 - th) * q0 - h * c * (1 - th) * v0 + h * f_th,
                      q0 + 0.5 * h * v0])
        q1, v1 = np.linalg.solve(A, b)
        assert new.q == pytest.approx([q1], rel=1e-12)
        assert new.v == pytest.approx([v1], rel=1e-12)


class TestThetaFamily:
    @pytest.mark.parametrize("spec", [
        SchemeSpec.moreau_jean(0.3), SchemeSpec.moreau_jean(0.7),
        SchemeSpec.moreau_jean_variant(0.8),
    ], ids=["mj0.3", "mj0.7", "mjv0.8"])
    def test_step_relations_hold(self, rng, spec):
        # every defining relation of the theta step, checked per step on a
        # run whose impulses act
        model = random_model(rng, n=4, m=2)
        h = 1e-3
        col = model.contact_jacobian[:, 0]
        v0 = -2.0 * col / (col @ col)
        state = initial_state(model, np.zeros(4), v0)
        th, w = spec.theta, spec.displacement_weight
        M, C, K, G = model.mass, model.damping, model.stiffness, model.contact_jacobian
        impacts = 0
        for _ in range(300):
            new, rec = step(model, state, h, spec)
            scale = 1.0 + np.abs(new.v).max() + np.abs(rec.P).max()
            # the impulse balance with theta-weighted load, damping and stiffness
            f_th = (1 - th) * model.force(state.t) + th * model.force(new.t)
            v_th = (1 - th) * state.v + th * new.v
            q_th = (1 - th) * state.q + th * new.q
            r = M @ (new.v - state.v) - h * (f_th - C @ v_th - K @ q_th) - G @ rec.P
            assert np.abs(r).max() < 1e-11 * scale
            # kinematics with the displacement weight
            q_pred = state.q + h * ((1 - w) * state.v + w * new.v)
            assert new.q == pytest.approx(q_pred, abs=1e-12 * scale)
            # local velocities and complementarity on the active set
            assert rec.U_next == pytest.approx(local_velocity(model, new.v), abs=1e-12 * scale)
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

    @pytest.mark.parametrize("spec", [
        SchemeSpec.newmark(0.6, 0.35), SchemeSpec.hht(0.2, gamma=0.8, beta=0.5),
        SchemeSpec.from_rho_infinity(0.8),
        SchemeSpec.from_rho_infinity(0.8, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA),
    ], ids=["newmark", "hht", "ga", "kh"])
    def test_step_relations_hold(self, rng, spec):
        # every defining relation of the averaging step, checked per step
        model = random_model(rng, n=4, m=2)
        h = 1e-3
        # drive the first contact so the run actually produces impacts
        col = model.contact_jacobian[:, 0]
        v0 = -2.0 * col / (col @ col)
        state = initial_state(model, np.zeros(4), v0)
        am, af, ac = spec.alpha_m, spec.alpha_f, spec.load_weight
        g, b = spec.gamma, spec.beta
        M, C, K = model.mass, model.damping, model.stiffness
        hits = 0
        for _ in range(300):
            new, rec = step(model, state, h, spec)
            scale = 1.0 + np.abs(new.v).max() + np.abs(rec.P).max()
            # the generalized-alpha balance with load weight alpha_c
            s = (1 - am) * new.a + am * state.a
            r = (M @ s - (1 - ac) * (model.force(new.t) - C @ new.v)
                 - ac * (model.force(state.t) - C @ state.v)
                 + (1 - af) * K @ new.q + af * K @ state.q)
            assert np.abs(r).max() < 1e-11 * scale
            # impulse correction and kinematics
            w = rec.w_corr
            assert np.abs(M @ w - model.contact_jacobian @ rec.P).max() < 1e-11 * scale
            v_pred = state.v + h * ((1 - g) * state.a + g * new.a)
            q_pred = (state.q + h * state.v
                      + h * h * ((0.5 - b) * state.a + b * new.a))
            assert new.v == pytest.approx(v_pred + w, abs=1e-11 * scale)
            assert new.q == pytest.approx(q_pred + 0.5 * h * w, abs=1e-11 * scale)
            # local velocities and complementarity on the active set
            assert rec.U_next == pytest.approx(local_velocity(model, new.v), abs=1e-12 * scale)
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
            f_mix = (1 - af) * model.force(t1) + af * model.force(k * h)
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
        rhs = (model.force(h)[0] - c * v_pred
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
    arrays = [f.name for f in dataclasses.fields(SystemState) if f.name != "t"]
    before = {name: getattr(state, name).tobytes() for name in arrays}
    t = state.t
    _, rec = step(model, state, 1e-3, spec, step_index=1)
    assert rec.P.max() > 0.0
    assert {name: getattr(state, name).tobytes() for name in arrays} == before
    assert state.t == t


def broken_step(*args, **kwargs):
    raise RuntimeError("step knocked out")


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
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                SimulationError, match=r"^step 0 \(t=0\) failed: the new displacement "
                                       r"or velocity is not finite$") as info:
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

    @pytest.mark.parametrize("spec", [
        SchemeSpec.moreau_jean(0.7), SchemeSpec.moreau_jean_variant(0.6),
        SchemeSpec.newmark(0.6), SchemeSpec.hht(0.2), SchemeSpec.from_rho_infinity(0.8),
        SchemeSpec.from_rho_infinity(0.8, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)])
    def test_forcing_evaluated_once_per_grid_point(self, monkeypatch, spec):
        # the step evaluates F(t_k) and F(t_k+1) once; the audit needs both again
        model = random_model(np.random.default_rng(5), n=3, m=2)
        state = initial_state(model, np.zeros(3), np.ones(3))
        times = []
        evaluate = ForcingTerm.evaluate
        monkeypatch.setattr(ForcingTerm, "evaluate",
                            lambda self, t: times.append(t) or evaluate(self, t))
        simulate(model, state, 1e-3, spec, 1e-3, audit=False)
        assert times == [0.0, 1e-3]
        times.clear()
        simulate(model, state, 1e-3, spec, 1e-3, audit=True)
        assert sorted(times) == [0.0, 0.0, 1e-3, 1e-3]

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
