"""Scenario builders and their closed-form references."""

import math

import numpy as np
import pytest

from nscontact import (
    InvalidInput,
    NotAvailable,
    ScenarioSpec,
    SchemeSpec,
    build_scenario,
    reference_solution,
    simulate,
)


class TestBuilders:
    def test_bouncing_ball_construction(self):
        model, state = build_scenario(ScenarioSpec(
            "bouncing_ball", {"mass": 1.0, "gravity": 9.81, "q0": 1.0,
                              "v0": 0.0, "restitution": 1.0}))
        assert model.n == 1 and model.m == 1
        assert model.forcing.evaluate(2.0) == pytest.approx([-9.81])
        assert state.q == pytest.approx([1.0])

    def test_chain_stiffness_matches_hand_assembly(self):
        model, _ = build_scenario(ScenarioSpec(
            "elastic_bar_chain", {"n_masses": 3, "m_total": 3.0, "k": 10.0}))
        expected = 10.0 * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert model.stiffness == pytest.approx(expected)
        assert model.mass == pytest.approx(np.eye(3))
        # interior rows sum to zero, contact on the leading node
        assert model.stiffness.sum(axis=1) == pytest.approx(np.zeros(3))
        assert model.contact_jacobian[:, 0] == pytest.approx([1.0, 0.0, 0.0])

    def test_chain_defaults_validate(self):
        model, state = build_scenario(ScenarioSpec("elastic_bar_chain"))
        assert model.n == 10
        assert state.v == pytest.approx(np.full(10, -1.0))

    def test_two_ball_elastic_exchange(self):
        model, state = build_scenario(ScenarioSpec(
            "two_ball_impact", {"m1": 1.0, "m2": 1.0, "gap0": 1.0,
                                "v0_1": 1.0, "v0_2": 0.0, "restitution": 1.0}))
        records = simulate(model, state, 1e-2, SchemeSpec.moreau_jean(0.5), 3.0)
        final = records[-1].state_next
        # equal masses exchange velocities; momentum is conserved throughout
        assert final.v == pytest.approx([0.0, 1.0], abs=1e-12)
        for rec in records:
            p_total = model.mass @ rec.state_next.v
            assert p_total.sum() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_specs(self):
        with pytest.raises(InvalidInput, match="unknown scenario kind 'wobbly_bridge'"):
            build_scenario(ScenarioSpec("wobbly_bridge"))
        with pytest.raises(InvalidInput, match="ball mass must be positive"):
            build_scenario(ScenarioSpec("bouncing_ball", {"mass": -1.0}))
        with pytest.raises(InvalidInput, match="unknown parameter 'spin'"):
            build_scenario(ScenarioSpec("bouncing_ball", {"spin": 3.0}))
        with pytest.raises(InvalidInput, match="chain needs at least one mass"):
            build_scenario(ScenarioSpec("elastic_bar_chain", {"n_masses": 0}))

    @pytest.mark.parametrize("kind, name, value", [
        ("elastic_bar_chain", "n_masses", math.inf),
        ("elastic_bar_chain", "n_masses", math.nan),
        ("bouncing_ball", "q0", math.nan),
    ])
    def test_non_finite_parameter_named(self, kind, name, value):
        with pytest.raises(InvalidInput, match=f"'{name}' must be finite"):
            build_scenario(ScenarioSpec(kind, {name: value}))


class TestReferenceSolutions:
    def test_ball_first_impact_time_and_speed(self):
        spec = ScenarioSpec("bouncing_ball", {"q0": 1.0, "v0": 0.0, "gravity": 9.81,
                                              "restitution": 1.0})
        t_star = math.sqrt(2.0 / 9.81)
        assert t_star == pytest.approx(0.45152, abs=1e-5)
        q, v = reference_solution(spec, t_star)
        assert q == pytest.approx([0.0], abs=1e-12)
        assert v == pytest.approx([-math.sqrt(2 * 9.81)], rel=1e-12)
        assert v == pytest.approx([-4.42945], abs=1e-5)

    def test_ball_reflection_after_impact(self):
        spec = ScenarioSpec("bouncing_ball", {"q0": 1.0, "restitution": 1.0})
        t_star = math.sqrt(2.0 / 9.81)
        q, v = reference_solution(spec, t_star + 1e-9)
        assert v[0] == pytest.approx(4.42945, abs=1e-4)

    def test_ball_periodicity(self):
        spec = ScenarioSpec("bouncing_ball", {"q0": 0.7, "v0": 0.3, "restitution": 1.0})
        g = 9.81
        v_star = math.sqrt(0.3**2 + 2 * g * 0.7)
        t_star = (0.3 + v_star) / g
        period = 2 * v_star / g
        q1, v1 = reference_solution(spec, t_star + 0.123)
        q2, v2 = reference_solution(spec, t_star + 0.123 + 3 * period)
        assert q1 == pytest.approx(q2, abs=1e-10)
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_oscillator_matches_independent_formula(self):
        m, k, A, w, phi = 1.0, 4 * math.pi**2, 1.0, 2.0, 0.4
        spec = ScenarioSpec("forced_oscillator_contact",
                            {"mass": m, "stiffness": k, "amplitude": A,
                             "omega": w, "phase": phi, "q0": 0.8, "v0": -0.3})
        w0 = math.sqrt(k / m)
        den = k - m * w * w
        for t in (0.0, 0.37, 1.9):
            qp = A * math.sin(w * t + phi) / den
            vp = A * w * math.cos(w * t + phi) / den
            c1 = 0.8 - A * math.sin(phi) / den
            c2 = (-0.3 - A * w * math.cos(phi) / den) / w0
            q_exp = c1 * math.cos(w0 * t) + c2 * math.sin(w0 * t) + qp
            v_exp = -c1 * w0 * math.sin(w0 * t) + c2 * w0 * math.cos(w0 * t) + vp
            q, v = reference_solution(spec, t)
            assert q == pytest.approx([q_exp], abs=1e-12)
            assert v == pytest.approx([v_exp], abs=1e-12)

    def test_oscillator_smooth_run_tracks_reference(self):
        spec = ScenarioSpec("forced_oscillator_contact", {"wall": -100.0})
        model, state = build_scenario(spec)
        records = simulate(model, state, 5e-4, SchemeSpec.moreau_jean(0.5), 1.0)
        fin = records[-1].state_next
        q_ref, v_ref = reference_solution(spec, fin.t)
        assert fin.q == pytest.approx(q_ref, abs=5e-6)
        assert fin.v == pytest.approx(v_ref, abs=5e-5)

    def test_not_available_cases(self):
        with pytest.raises(NotAvailable):
            reference_solution(ScenarioSpec("elastic_bar_chain"), 0.1)
        with pytest.raises(NotAvailable):
            reference_solution(
                ScenarioSpec("bouncing_ball", {"restitution": 0.5}), 0.1)
        with pytest.raises(NotAvailable):
            reference_solution(
                ScenarioSpec("forced_oscillator_contact", {"damping": 0.1}), 0.1)
        with pytest.raises(NotAvailable):
            reference_solution(
                ScenarioSpec("forced_oscillator_contact",
                             {"omega": 2 * math.pi, "stiffness": 4 * math.pi**2}), 0.1)

    @pytest.mark.parametrize("mass", [0.0, -1.0])
    def test_not_available_for_non_positive_oscillator_mass(self, mass):
        with pytest.raises(NotAvailable, match="positive mass"):
            reference_solution(ScenarioSpec("forced_oscillator_contact", {"mass": mass}), 0.0)


class TestImpactTimeConvergence:
    def test_first_impact_time_converges_linearly(self):
        spec = ScenarioSpec("bouncing_ball", {"q0": 1.0, "restitution": 1.0})
        t_star = math.sqrt(2.0 / 9.81)
        model, state = build_scenario(spec)
        for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
            records = simulate(model, state, h, SchemeSpec.moreau_jean(0.5), 1.0, audit=False)
            t_impact = next(rec.state_next.t for rec in records if rec.P.max() > 0.0)
            assert abs(t_impact - t_star) <= 2.0 * h
