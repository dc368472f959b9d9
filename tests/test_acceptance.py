"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else; no test
relaxes them at runtime.  Run with `pytest tests/test_acceptance.py -v -s`
to see every line.
"""

import math
from types import SimpleNamespace

import numpy as np

from nscontact import (
    LcpProblem,
    ScenarioSpec,
    SchemeSpec,
    SchemeVariant,
    build_scenario,
    initial_state,
    reference_solution,
    simulate,
    solve_lemke,
)
from nscontact.cli import main
from conftest import random_model
from oracles import solve_enumeration


def _criterion(number: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number:>2}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def ball(q0=0.3, e=1.0, v0=0.0):
    return build_scenario(ScenarioSpec(
        "bouncing_ball", {"q0": q0, "v0": v0, "restitution": e}))


def bar(e=0.0):
    return build_scenario(ScenarioSpec(
        "elastic_bar_chain", {"n_masses": 10, "m_total": 1.0, "k": 1000.0,
                              "standoff": 0.05, "v0": -1.0, "restitution": e}))


def max_scaled_residual(records):
    """Worst |residual| / scale; NaN if any step's residual is NaN."""
    return float(np.max([abs(r.report.identity_residual) / r.report.residual_scale
                         for r in records]))


def test_max_scaled_residual_keeps_nan():
    # a NaN anywhere must reach the criterion, whatever its position
    records = [SimpleNamespace(report=SimpleNamespace(identity_residual=r, residual_scale=1.0))
               for r in (1e-16, math.nan, 1e-15)]
    worst = np.maximum(0.0, max_scaled_residual(records))
    assert math.isnan(worst) and not worst <= 1e-10


def test_c01_theta_scheme_identity():
    worst = 0.0
    impacts = 0
    for theta in (0.5, 0.7, 1.0):
        spec = SchemeSpec.moreau_jean(theta)
        model, state = ball(q0=0.3, e=0.6)
        records = simulate(model, state, 1e-3, spec, 2.0)
        assert len(records) == 2000
        impacts += sum(1 for r in records if r.P.max() > 0)
        worst = np.maximum(worst, max_scaled_residual(records))
        model, state = bar(e=0.1)
        records = simulate(model, state, 2e-4, spec, 1.0)
        assert len(records) == 5000
        impacts += sum(1 for r in records if r.P.max() > 0)
        worst = np.maximum(worst, max_scaled_residual(records))
    _criterion(1, f"theta-scheme energy identity at roundoff "
                  f"(worst {worst:.2e} <= 1e-10, {impacts} impact steps)",
               impacts > 100 and worst <= 1e-10)


def test_c02_theta_dissipation_region():
    worst = -np.inf
    checked = 0
    for theta in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        for e in (0.0, 0.5, 1.0):
            if not theta <= 1.0 / (1.0 + e) + 1e-12:
                continue          # one-directional: no claim outside
            model, state = ball(q0=0.3, e=e)
            records = simulate(model, state, 1e-3, SchemeSpec.moreau_jean(theta), 2.0)
            gain = np.max([r.report.energy_gain / r.report.residual_scale for r in records])
            worst = np.maximum(worst, gain)
            checked += 1
    _criterion(2, f"dissipation inside the theta/restitution region "
                  f"({checked} grid points, worst gain {worst:.2e} <= 1e-10)",
               checked == 9 and worst <= 1e-10)


def start_energies(model, state, reports):
    """E at each step's start: the initial state's, then the previous step's end."""
    e0 = 0.5 * float(state.v @ model.mass @ state.v + state.q @ model.stiffness @ state.q)
    return [e0] + [r.E for r in reports[:-1]]


def test_c03_elastic_conservation():
    model, state = ball(q0=0.2, e=1.0)
    records = simulate(model, state, 1e-3, SchemeSpec.moreau_jean(0.5), 8.5)
    impacts = sum(1 for r in records if r.P.max() > 0)
    reports = [r.report for r in records]
    e_prev = start_energies(model, state, reports)
    per_step = np.max([(r.E - e0 - r.W_ext) / r.residual_scale
                       for r, e0 in zip(reports, e_prev)])
    e_scale = 1.0 + np.max([abs(r.E) for r in reports])
    drift = abs(reports[-1].E - e_prev[0] - sum(r.W_ext for r in reports))
    _criterion(3, f"elastic ball conserves: {impacts} impacts, per-step gain "
                  f"{per_step:.2e} <= 1e-10, drift {drift:.2e} <= 1e-8 * scale",
               impacts >= 20 and per_step <= 1e-10 and drift <= 1e-8 * e_scale)


def test_c04_contact_work_sign_all_averaging_schemes():
    rng = np.random.default_rng(7)
    worst = -np.inf
    impact_steps = 0
    runs = 0
    while runs < 100:
        kind = runs % 4
        if kind == 0:
            gamma = float(rng.uniform(0.5, 1.0))
            spec = SchemeSpec.newmark(gamma, beta=float(rng.uniform(gamma / 2, 0.8)))
        elif kind == 1:
            spec = SchemeSpec.hht(float(rng.uniform(0.0, 1.0 / 3.0)))
        elif kind == 2:
            spec = SchemeSpec.from_rho_infinity(float(rng.uniform(0.0, 1.0)))
        else:
            spec = SchemeSpec.from_rho_infinity(
                float(rng.uniform(0.0, 1.0)),
                SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        model = random_model(rng, n=n, m=m, damped=bool(rng.integers(0, 2)))
        col = model.contact_jacobian[:, int(rng.integers(0, m))]
        v0 = -float(rng.uniform(0.5, 3.0)) * col / (col @ col)
        state = initial_state(model, np.zeros(n), v0)
        h = float(rng.choice([5e-4, 1e-3, 2e-3]))
        records = simulate(model, state, h, spec, 200 * h)
        runs += 1
        for rec in records:
            scale = 1.0 + float(np.abs(rec.U_prev) @ np.abs(rec.P)
                                + np.abs(rec.U_next) @ np.abs(rec.P))
            worst = np.maximum(worst, rec.report.W_contact_step / scale)
            impact_steps += rec.P.max(initial=0.0) > 0
    _criterion(4, f"half-weighted contact work nonpositive over {runs} random runs "
                  f"({impact_steps} impact steps, worst {worst:.2e} <= 1e-12)",
               impact_steps > 200 and worst <= 1e-12)


def test_c05_newmark_identity_and_dissipation():
    worst_res = 0.0
    worst_gain = -np.inf
    for gamma, beta in ((0.5, 0.25), (0.6, 0.3), (0.6, 0.35), (0.9, 0.5)):
        spec = SchemeSpec.newmark(gamma, beta)
        model, state = ball(q0=0.25, e=0.7)
        records = simulate(model, state, 1e-3, spec, 2.0)
        worst_res = np.maximum(worst_res, max_scaled_residual(records))
        if 2 * beta >= gamma >= 0.5:
            worst_gain = np.maximum(worst_gain,
                                    np.max([r.report.energy_gain / r.report.residual_scale
                                            for r in records]))
    # midpoint pair: the energy change equals works plus the contact work,
    # on the ball and on the ten-mass bar impact
    special = 0.0
    for model, state, h, t_end in (ball(q0=0.25, e=0.7) + (1e-3, 2.0),
                                   bar(e=0.0) + (2e-4, 1.0)):
        reports = [rec.report for rec in
                   simulate(model, state, h, SchemeSpec.newmark(0.5, 0.25), t_end)]
        special = np.maximum(special,
                             np.max([abs(r.E - e0 - r.W_ext - r.W_damping
                                         - r.W_contact_step) / r.residual_scale
                                     for r, e0 in zip(reports,
                                                      start_energies(model, state, reports))]))
    _criterion(5, f"Newmark identity {worst_res:.2e} <= 1e-10, conditioned gain "
                  f"{worst_gain:.2e} <= 1e-10, midpoint special form {special:.2e}",
               worst_res <= 1e-10 and worst_gain <= 1e-10 and special <= 1e-10)


def test_c06_hht_identity_and_dissipation():
    worst_res = 0.0
    worst_gain = -np.inf
    for alpha in (0.05, 0.2, 1.0 / 3.0):
        spec = SchemeSpec.hht(alpha)          # order-balanced gamma and beta
        assert 2 * spec.beta >= spec.gamma
        model, state = ball(q0=0.25, e=0.6)
        records = simulate(model, state, 1e-3, spec, 2.0)
        worst_res = np.maximum(worst_res, max_scaled_residual(records))
        worst_gain = np.maximum(worst_gain,
                                np.max([r.report.energy_gain / r.report.residual_scale
                                        for r in records]))
        assert records[0].report.condition_satisfied
    # off-balance weights still satisfy the identity
    spec = SchemeSpec.hht(0.1, gamma=0.8, beta=0.5)
    model, state = ball(q0=0.25, e=0.6)
    records = simulate(model, state, 1e-3, spec, 1.0)
    worst_res = np.maximum(worst_res, max_scaled_residual(records))
    _criterion(6, f"HHT multi-step-work identity {worst_res:.2e} <= 1e-10, "
                  f"conditioned gain {worst_gain:.2e} <= 1e-10",
               worst_res <= 1e-10 and worst_gain <= 1e-10)


def test_c07_kh_identity_dissipation_equivalence():
    worst_res = 0.0
    worst_gain = -np.inf
    for rho in (0.3, 0.8, 1.0):
        spec = SchemeSpec.from_rho_infinity(
            rho, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)
        model, state = ball(q0=0.25, e=0.6)
        records = simulate(model, state, 1e-3, spec, 2.0)
        worst_res = np.maximum(worst_res, max_scaled_residual(records))
        assert records[0].report.condition_satisfied
        worst_gain = np.maximum(worst_gain,
                                np.max([r.report.energy_gain / r.report.residual_scale
                                        for r in records]))
    # no damping + constant load: trajectories match the standard scheme
    model, state = ball(q0=0.25, e=0.6)
    rec_kh = simulate(model, state, 1e-3,
                      SchemeSpec.from_rho_infinity(
                          0.9, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA), 2.0,
                      audit=False)
    rec_ga = simulate(model, state, 1e-3, SchemeSpec.from_rho_infinity(0.9), 2.0,
                      audit=False)
    diff = np.max([np.maximum(np.abs(a.state_next.q - b.state_next.q).max(),
                              np.abs(a.state_next.v - b.state_next.v).max())
                   for a, b in zip(rec_kh, rec_ga)])
    scale = 1.0 + np.max([np.abs(r.state_next.v).max() for r in rec_ga])
    _criterion(7, f"KH identity {worst_res:.2e} <= 1e-10, conditioned gain "
                  f"{worst_gain:.2e}, trajectory match {diff:.2e} <= 1e-12 * scale",
               worst_res <= 1e-10 and worst_gain <= 1e-10 and diff <= 1e-12 * scale)


def test_c08_lcp_cross_check():
    rng = np.random.default_rng(11)
    worst_gap = 0.0
    worst_res = 0.0
    for _ in range(500):
        s = int(rng.integers(1, 9))
        a = rng.normal(size=(s, s))
        problem = LcpProblem(a @ a.T + 0.05 * np.eye(s), 2.0 * rng.normal(size=s))
        lemke = solve_lemke(problem)
        oracle = solve_enumeration(problem)
        worst_gap = np.maximum(worst_gap, np.abs(lemke.z - oracle.z).max(initial=0.0))
        scale = 1.0 + np.abs(problem.b).max()
        worst_res = np.max([worst_res, lemke.residual / scale, oracle.residual / scale])
    _criterion(8, f"500 pivot-vs-enumeration problems agree to {worst_gap:.2e} <= 1e-9 "
                  f"(residuals {worst_res:.2e} <= 1e-10)",
               worst_gap <= 1e-9 and worst_res <= 1e-10)


def test_c09_convergence_orders():
    spec_sc = ScenarioSpec("forced_oscillator_contact",
                           {"amplitude": 1.0, "omega": 2.0, "wall": -100.0})
    hs = [1e-2, 5e-3, 2.5e-3, 1.25e-3]

    def fitted_order(scheme):
        errs = []
        for h in hs:
            model, state = build_scenario(spec_sc)
            records = simulate(model, state, h, scheme, 1.0, audit=False)
            assert not any(r.active_set for r in records)
            fin = records[-1].state_next
            q_ref, v_ref = reference_solution(spec_sc, fin.t)
            errs.append(math.hypot(fin.q[0] - q_ref[0], fin.v[0] - v_ref[0]))
        return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    o_mid = fitted_order(SchemeSpec.moreau_jean(0.5))
    o_alpha = fitted_order(SchemeSpec.from_rho_infinity(0.8))
    o_back = fitted_order(SchemeSpec.moreau_jean(1.0))
    _criterion(9, f"smooth orders: midpoint {o_mid:.3f} >= 1.9, averaging "
                  f"{o_alpha:.3f} >= 1.9, backward {o_back:.3f} = 1.0 +- 0.15",
               o_mid >= 1.9 and o_alpha >= 1.9 and abs(o_back - 1.0) <= 0.15)


def test_c10_penetration_scales_with_step():
    # Penetration at contact activation: the first impact's depth depends
    # on where it falls within a step, so take the worst over 41 drop
    # heights.  The ball (e = 0.9) lands near t = 0.1 and does not come
    # back before t = 0.15.
    def max_first_impact_pen(h):
        worst = 0.0
        for q0 in np.linspace(0.05, 0.0505, 41):
            model, state = ball(q0=q0, e=0.9)
            records = simulate(model, state, h, SchemeSpec.moreau_jean(0.5), 0.15,
                               audit=False)
            worst = max(worst, max(r.penetration for r in records))
        return worst

    pen_h = max_first_impact_pen(1e-3)
    pen_h2 = max_first_impact_pen(5e-4)
    ratio = pen_h / pen_h2
    _criterion(10, f"worst first-impact penetration {pen_h:.3e} vs {pen_h2:.3e}, "
                   f"ratio {ratio:.3f} within [1.6, 2.4]",
               1.6 <= ratio <= 2.4)


def test_c11_byte_identical_reruns(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "scenario.kind = bouncing_ball\n"
        "scenario.q0 = 0.3\n"
        "scenario.restitution = 0.8\n"
        "scheme.variant = generalized_alpha\n"
        "scheme.rho_infinity = 0.9\n"
        "run.h = 1e-3\n"
        "run.t_end = 1.5\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(config), "--out", str(out1)]) == 0
    assert main(["simulate", str(config), "--out", str(out2)]) == 0
    same = ((out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
            and (out1 / "audit.csv").read_bytes() == (out2 / "audit.csv").read_bytes())
    _criterion(11, "byte-identical trajectory.csv and audit.csv across reruns", same)
