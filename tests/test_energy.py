"""Energy functions, filter updates, works, identities, dissipation flags."""

import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from nscontact import (
    ForcingTerm,
    ScenarioSpec,
    SchemeSpec,
    SchemeVariant,
    StepRecord,
    audit_step,
    build_cache,
    build_model,
    build_scenario,
    initial_state,
    simulate,
    step,
)
from nscontact.energy import _forms
from nscontact.model import THETA_FAMILY
from conftest import random_model, random_psd, record_bytes


def make_state(model, q, v, a=None, z=None, t=0.0):
    state = initial_state(model, q, v, t0=t)
    if a is not None:
        state.a = np.asarray(a, dtype=float)
        state.a_tilde = state.a.copy()
    if z is not None:
        state.z = np.asarray(z, dtype=float)
    return state


def plain_model(n=1, k=0.0):
    return build_model(np.eye(n), np.zeros((n, n)), k * np.eye(n),
                       np.ones((n, 1)), [10.0], [0.5], ForcingTerm.zero(n))


def audit_states(model, spec, h, s0, s1, U_prev=(0.0,), U_next=(0.0,), P=(0.0,)):
    """Audit a hand-built step from s0 to s1."""
    rec = StepRecord(step_index=0, state_prev=s0, state_next=s1, P=np.asarray(P),
                     U_prev=np.asarray(U_prev), U_next=np.asarray(U_next),
                     w_corr=np.zeros(model.n), active_set=())
    return audit_step(build_cache(model, spec, h), rec)


def end_energy(model, q, v, spec=SchemeSpec.moreau_jean()):
    """Report E of a step that ends at (q, v)."""
    s0 = make_state(model, np.zeros(model.n), np.zeros(model.n))
    return audit_states(model, spec, 0.1, s0, make_state(model, q, v, t=0.1)).E


class TestTotalEnergy:
    def test_zero_state(self):
        assert end_energy(plain_model(), [0.0], [0.0]) == 0.0

    def test_hand_quadratic_forms(self):
        model = build_model([[2.0]], [[0.0]], [[8.0]], [[1.0]], [0.0], [0.5],
                            ForcingTerm.zero(1))
        assert end_energy(model, [1.0], [1.0]) == pytest.approx(5.0)

    def test_matches_double_loop_oracle(self, rng):
        model = random_model(rng, n=6, m=2)
        q, v = rng.normal(size=6), rng.normal(size=6)
        expected = 0.5 * sum(v[i] * model.mass[i, j] * v[j]
                             for i in range(6) for j in range(6))
        expected += 0.5 * sum(q[i] * model.stiffness[i, j] * q[j]
                              for i in range(6) for j in range(6))
        assert end_energy(model, q, v) == pytest.approx(expected, rel=1e-13)


class TestAlgorithmicEnergy:
    @staticmethod
    def h_alg(model, state, spec, h):
        """Report H of a step that ends at ``state``."""
        start = make_state(model, np.zeros(model.n), np.zeros(model.n))
        return audit_states(model, spec, h, start, state).H_alg

    def test_reduces_to_total_energy(self):
        # matched beta and gamma kill the acceleration term; zero filter
        # state kills the rest
        model = plain_model(k=5.0)
        spec = SchemeSpec.generalized_alpha(0.1, 0.3, gamma=0.7, beta=0.35)
        state = make_state(model, [1.0], [2.0], a=[3.0], z=[0.0])
        assert self.h_alg(model, state, spec, 0.1) == pytest.approx(
            end_energy(model, [1.0], [2.0]))

    def test_newmark_hand_value(self):
        model = plain_model()
        spec = SchemeSpec.newmark(gamma=0.5, beta=0.5)
        state = make_state(model, [0.0], [0.0], a=[2.0])
        # (h^2/4)(2b - g) a M a = (0.01/4)(0.5)(4) = 0.005
        assert self.h_alg(model, state, spec, 0.1) == pytest.approx(0.005)

    def test_hht_filter_coefficient(self):
        # substituting the HHT constants gives the coefficient 2a(1-g)
        alpha, gamma, beta = 0.2, 0.9, 0.6
        model = plain_model(k=3.0)
        spec = SchemeSpec.hht(alpha, gamma=gamma, beta=beta)
        z = np.array([1.7])
        state = make_state(model, [0.4], [0.1], a=[0.3], z=z)
        base = make_state(model, [0.4], [0.1], a=[0.3], z=[0.0])
        h = 0.05
        got = self.h_alg(model, state, spec, h)
        ref = self.h_alg(model, base, spec, h)
        expected = 2 * alpha * (1 - gamma) * float(z @ (3.0 * np.eye(1)) @ z)
        assert got - ref == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_under_seminorm_conditions(self, rng):
        # H is a sum of seminorms when 2b >= g and eta(nu - (g - 1/2)) >= 0
        model = random_model(rng, n=3, m=1)
        spec = SchemeSpec.generalized_alpha(0.1, 0.25, gamma=0.6, beta=0.4)
        nu, eta = 0.5 - spec.alpha_m, spec.alpha_f - spec.alpha_m
        assert eta * (nu - (spec.gamma - 0.5)) >= 0.0
        for _ in range(20):
            state = make_state(model, rng.normal(size=3), rng.normal(size=3),
                               a=rng.normal(size=3), z=rng.normal(size=3))
            assert self.h_alg(model, state, spec, 0.05) >= 0.0


def filter_step(model, spec, s0, h=0.1):
    """One ``step`` of ``spec`` from s0: (s1, z, x, y), the end state and its filters."""
    s1, _ = step(model, s0, h, spec)
    return s1, s1.z, s1.x, s1.y


class TestUpdateFilters:
    def test_zero_time_scale_keeps_zero(self):
        model = plain_model()
        spec = SchemeSpec.generalized_alpha(0.5, 0.5)   # nu = 0
        s0 = make_state(model, [0.0], [1.0])
        s1, z, x, y = filter_step(model, spec, s0)
        assert s1.q != s0.q
        assert z == pytest.approx([0.0]) and x == pytest.approx([0.0])
        assert y == pytest.approx([0.0])

    def test_half_gives_closed_forms(self):
        model = build_model([[1.0]], [[0.0]], [[0.0]], [[1.0]], [10.0], [0.5],
                            ForcingTerm.sinusoidal([2.0], omega=3.0))
        spec = SchemeSpec.hht(0.2)                      # nu = 1/2
        s0 = make_state(model, [0.0], [1.0])
        s0.z, s0.x, s0.y = (np.array([9.0]),) * 3       # history must drop out
        s1, z, x, y = filter_step(model, spec, s0)
        df = model.forcing.evaluate(0.1) - model.forcing.evaluate(0.0)
        assert s1.v != s0.v
        assert 2 * z == pytest.approx(s1.q - s0.q)
        assert 2 * x == pytest.approx(s1.v - s0.v)
        assert 2 * y == pytest.approx(df)

    def test_midpoint_hand_value(self):
        # nu = 0.3: gain 0.3/0.8 = 0.375, lag 0.2/0.8 = 0.25.  At rest q
        # stays constant and z = [1] -> -0.25; at v = 2 the step moves q by
        # h v = 0.2 and z = 0.375 * 0.2 - 0.25 = -0.175
        model = plain_model()
        spec = SchemeSpec.generalized_alpha(0.2, 0.2)   # nu = 0.3
        for v0, expected in ((0.0, -0.25), (2.0, -0.175)):
            s0 = make_state(model, [1.0], [v0], z=[1.0])
            s1, z, _, _ = filter_step(model, spec, s0)
            assert s1.q - s0.q == pytest.approx([0.1 * v0])
            assert z == pytest.approx([expected])


class TestDiscreteWorks:
    def run_one(self, spec, forcing=None, damped=False):
        n = 2
        forcing = forcing or ForcingTerm.zero(n)
        c = 0.4 * np.eye(n) if damped else np.zeros((n, n))
        model = build_model(np.eye(n), c, 2.0 * np.eye(n), np.eye(n)[:, :1],
                            [5.0], [0.5], forcing)
        state = initial_state(model, [0.3, -0.2], [1.0, 0.5])
        return model, simulate(model, state, 1e-2, spec, 0.1)

    @pytest.mark.parametrize("spec", [
        SchemeSpec.moreau_jean(0.7),
        SchemeSpec.moreau_jean_variant(0.8),
        SchemeSpec.newmark(0.6),
        SchemeSpec.hht(0.15),
        SchemeSpec.from_rho_infinity(0.8),
        SchemeSpec.from_rho_infinity(0.8, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA),
    ])
    def test_zero_forcing_gives_zero_external_work(self, spec):
        model, records = self.run_one(spec)
        for rec in records:
            assert rec.report.W_ext == 0.0

    def test_zero_damping_gives_zero_damping_work(self):
        model, records = self.run_one(SchemeSpec.hht(0.2))
        for rec in records:
            assert rec.report.W_damping == 0.0

    def test_hht_works_mix_in_the_previous_step(self, rng):
        # the averaged works of HHT, dq.((1 - alpha) F_gamma + alpha F_gamma,prev)
        # and its damping twin, with the previous step's mixes tracked by
        # hand; the virtual step before the first replicates the initial data
        model = random_model(rng, n=4, m=2, damped=True)
        spec = SchemeSpec.hht(0.2, gamma=0.8, beta=0.5)
        assert spec.gamma != 0.5 + spec.alpha_f
        col = model.contact_jacobian[:, 0]
        state = initial_state(model, np.zeros(4), -2.0 * col / (col @ col))
        records = simulate(model, state, 1e-3, spec, 0.3)
        assert any(rec.active_set for rec in records)
        alpha, gamma, C = spec.alpha_f, spec.gamma, model.damping
        force = model.forcing.evaluate
        f_prev, v_prev = force(0.0), state.v
        for rec in records:
            sp, sn = rec.state_prev, rec.state_next
            f_k, f_k1 = force(sp.t), force(sn.t)
            dq = sn.q - sp.q
            f_mix = (1 - alpha) * ((1 - gamma) * f_k + gamma * f_k1) + alpha * (
                (1 - gamma) * f_prev + gamma * f_k)
            v_mix = (1 - alpha) * ((1 - gamma) * sp.v + gamma * sn.v) + alpha * (
                (1 - gamma) * v_prev + gamma * sp.v)
            assert rec.report.W_ext == pytest.approx(dq @ f_mix, rel=1e-12)
            assert rec.report.W_damping == pytest.approx(-dq @ C @ v_mix, rel=1e-12)
            f_prev, v_prev = f_k, sp.v

    def test_theta_scheme_hand_value(self):
        # h v_mid f_mid = 0.1 * 1.5 * 4 = 0.6
        model = build_model([[1.0]], [[0.0]], [[0.0]], [[1.0]], [10.0], [0.5],
                            ForcingTerm.constant([4.0]))
        s0 = make_state(model, [0.0], [1.0])
        s1 = make_state(model, [0.15], [2.0], t=0.1)
        report = audit_states(model, SchemeSpec.moreau_jean(0.5), 0.1, s0, s1)
        assert report.W_ext == pytest.approx(0.6)
        assert report.W_damping == 0.0


class TestContactWork:
    """W_contact_step = U_w.P, with w = 1/2 for both families here."""

    SPECS = (SchemeSpec.moreau_jean(0.5), SchemeSpec.newmark(0.6))

    def contact_work(self, U_prev, U_next, P):
        model = plain_model()
        s0 = make_state(model, [0.0], [0.0])
        s1 = make_state(model, [0.0], [0.0], t=0.1)
        return [audit_states(model, spec, 0.1, s0, s1, U_prev, U_next, P).W_contact_step
                for spec in self.SPECS]

    def test_zero_impulse(self):
        assert self.contact_work([1.0], [2.0], [0.0]) == [0.0, 0.0]

    def test_elastic_midpoint_vanishes(self):
        # full restitution reverses the local velocity exactly
        assert self.contact_work([-3.0], [3.0], [7.0]) == pytest.approx([0.0, 0.0])

    def test_hand_value(self):
        assert self.contact_work([-1.0], [0.5], [1.5]) == pytest.approx([-0.375, -0.375])


class TestIdentityResidual:
    def test_equilibrium_is_exactly_zero(self):
        model = plain_model(k=3.0)
        state = initial_state(model, [0.0], [0.0])
        for spec in (SchemeSpec.moreau_jean(0.7), SchemeSpec.newmark(0.6),
                     SchemeSpec.hht(0.1), SchemeSpec.from_rho_infinity(0.5)):
            records = simulate(model, state, 1e-2, spec, 0.05)
            for rec in records:
                assert rec.report.identity_residual == 0.0

    @pytest.mark.parametrize("spec", [
        SchemeSpec.moreau_jean(0.5),
        SchemeSpec.moreau_jean(1.0),
        SchemeSpec.moreau_jean_variant(0.9),
        SchemeSpec.newmark(0.6, 0.35),
        SchemeSpec.hht(0.25),
        SchemeSpec.from_rho_infinity(0.65),
        SchemeSpec.from_rho_infinity(0.65, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA),
    ])
    def test_roundoff_residual_with_impacts_damping_forcing(self, rng, spec):
        model = random_model(rng, n=4, m=2, damped=True)
        col = model.contact_jacobian[:, 0]
        state = initial_state(model, np.zeros(4), -2.0 * col / (col @ col))
        records = simulate(model, state, 1e-3, spec, 0.5)
        assert any(rec.active_set for rec in records)
        for rec in records:
            assert abs(rec.report.identity_residual) <= 1e-10 * rec.report.residual_scale


SIX_VARIANTS = [
    SchemeSpec.moreau_jean(0.7),
    SchemeSpec.moreau_jean_variant(0.8),
    SchemeSpec.newmark(0.6),
    SchemeSpec.hht(0.15),
    SchemeSpec.from_rho_infinity(0.7),
    SchemeSpec.from_rho_infinity(0.7, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA),
]


def closed_form_row(spec, h):
    """The audit's coefficient row and filter coefficients, from README's table."""
    w = spec.displacement_weight
    if spec.variant in THETA_FAMILY:
        return SimpleNamespace(c=spec.theta, c_a=0.0, c_z=0.0, k_v=0.5 - w, k_a=0.0,
                               k_q=0.5 - spec.theta, k_z=0.0, phi=0.0, filter_works=0.0,
                               filter_gain=0.0, filter_lag=0.0)
    nu, eta = 0.5 - spec.alpha_m, spec.alpha_f - spec.alpha_m
    gamma, beta = spec.gamma, spec.beta
    return SimpleNamespace(
        c=gamma, c_a=h * h / 4 * (2 * beta - gamma),
        c_z=0.0 if eta == 0.0 or nu == 0.0 else eta / (2 * nu * nu) * (nu - (gamma - 0.5)),
        k_v=0.0, k_a=-(h * h / 2) * (gamma - 0.5) * (2 * beta - gamma),
        k_q=eta + 0.5 - gamma, k_z=0.0 if eta == 0.0 else eta / nu * (gamma - nu - 0.5),
        phi=eta / nu if spec.variant is SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA else 0.0,
        filter_works=eta / nu if spec.variant is SchemeVariant.NONSMOOTH_HHT else 0.0,
        filter_gain=nu / (0.5 + nu), filter_lag=(0.5 - nu) / (0.5 + nu))


@pytest.mark.parametrize("h", [1e-3, 0.05])
@pytest.mark.parametrize("spec", SIX_VARIANTS, ids=lambda spec: spec.variant.value)
def test_cache_holds_the_closed_form_row(rng, spec, h):
    # pinned directly, not through residuals: generalized-alpha's c_a is
    # ~1e-9 at h = 1e-3, so a 1 % error in it stays below the audit gate
    cache = build_cache(random_model(rng, n=3, m=2, damped=True), spec, h)
    for key, value in vars(closed_form_row(spec, h)).items():
        assert getattr(cache, key) == pytest.approx(value, rel=1e-14, abs=0.0), key


class TestAuditStep:
    """The one-pass audit on a damped, sinusoidally forced, multi-contact model."""

    H = 1e-3

    def simultaneous_impact_run(self, rng, spec):
        # every gap starts closed and closing, so the first step solves a
        # three-contact LCP with more than one nonzero impulse
        model = random_model(rng, n=5, m=3, damped=True)
        jac_t = model.contact_jacobian.T
        q0 = -np.linalg.lstsq(jac_t, model.gap_offset, rcond=None)[0]
        v0 = -np.linalg.lstsq(jac_t, np.ones(model.m), rcond=None)[0]
        records = simulate(model, initial_state(model, q0, v0), self.H, spec, 0.3)
        assert np.count_nonzero(records[0].P) >= 2
        return model, records

    @pytest.mark.parametrize("spec", SIX_VARIANTS)
    def test_standalone_audit_matches_simulate(self, rng, spec):
        model, records = self.simultaneous_impact_run(rng, spec)
        cache = build_cache(model, spec, self.H)
        for rec in records:
            in_run = rec.report
            assert audit_step(cache, rec) == in_run
            assert abs(rec.report.identity_residual) <= 1e-10 * rec.report.residual_scale
            assert rec.report.identity_ok()

    @pytest.mark.parametrize("spec", SIX_VARIANTS)
    def test_changes_chain_with_end_energies(self, rng, spec):
        # each audit reads its change dH off its own record; across the run
        # those changes still link the end energies of consecutive steps
        model, records = self.simultaneous_impact_run(rng, spec)
        cache = build_cache(model, spec, self.H)
        # no state is shared between audits: the reverse order gives the same reports
        for rec in reversed(records):
            assert audit_step(cache, rec) == rec.report
        row = closed_form_row(spec, self.H)
        s0 = records[0].state_prev
        start = (0.5 * float(s0.v @ model.mass @ s0.v + s0.q @ model.stiffness @ s0.q)
                 + row.c_a * float(s0.a @ model.mass @ s0.a)
                 + row.c_z * float(s0.z @ model.stiffness @ s0.z))
        h_prev = [start] + [rec.report.H_alg for rec in records[:-1]]
        for rec, h0 in zip(records, h_prev):
            report = rec.report
            if spec.variant in THETA_FAMILY:
                assert report.H_alg == report.E
            dH = report.energy_gain + report.W_ext + report.W_damping
            assert abs(report.H_alg - h0 - dH) <= 1e-13 * report.residual_scale

    @pytest.mark.parametrize("spec", SIX_VARIANTS)
    def test_stacked_forms_match_separate_products(self, rng, spec):
        # the identity of the module docstring, term by term, with one
        # matrix product per quadratic form
        model, records = self.simultaneous_impact_run(rng, spec)
        M, C, K = model.mass, model.damping, model.stiffness
        w = spec.displacement_weight
        row = closed_form_row(spec, self.H)
        c, works = row.c, row.filter_works

        def norm(mat, x):
            return float(x @ (mat @ x))

        def mix(prev, next_, weight):
            return (1 - weight) * prev + weight * next_

        def algorithmic(s):
            return (0.5 * norm(M, s.v) + 0.5 * norm(K, s.q)
                    + row.c_a * norm(M, s.a) + row.c_z * norm(K, s.z))

        for rec in records:
            sp, sn = rec.state_prev, rec.state_next
            dq = sn.q - sp.q
            y_c, x_c = mix(sp.y, sn.y, c), mix(sp.x, sn.x, c)
            f_c = mix(model.forcing.evaluate(sp.t), model.forcing.evaluate(sn.t), c)
            w_ext = dq @ (f_c - works * y_c)
            w_damp = -dq @ (C @ (mix(sp.v, sn.v, c) - works * x_c))
            contact = mix(rec.U_prev @ rec.P, rec.U_next @ rec.P, w)
            reference = (algorithmic(sn) - algorithmic(sp) - w_ext - w_damp
                         + row.phi * dq @ (y_c - C @ x_c)
                         - (contact + row.k_v * norm(M, sn.v - sp.v)
                            + row.k_a * norm(M, sn.a - sp.a) + row.k_q * norm(K, dq)
                            + row.k_z * norm(K, sn.z - sp.z)))
            report = rec.report
            assert abs(report.identity_residual - reference) <= 1e-13 * report.residual_scale

    @pytest.mark.parametrize("spec", SIX_VARIANTS)
    def test_audit_step_is_pure(self, rng, spec):
        model, audited = self.simultaneous_impact_run(rng, spec)
        bare = simulate(model, audited[0].state_prev, self.H, spec, 0.3, audit=False)
        assert len(bare) == len(audited)
        cache = build_cache(model, spec, self.H)
        for rec, in_run in zip(bare, audited):
            assert audit_step(cache, rec) == in_run.report
            assert rec.report is None


class TestIncrementForms:
    """A change of |x|_A^2 is read off one Gram product, not as a difference of two forms."""

    @staticmethod
    def exact_half_change(mat, x1, dx):
        # (1/2)(|x1|^2 - |x0|^2) for x0 = x1 - dx, in rationals
        A = [[Fraction(a) for a in row] for row in mat.tolist()]
        end = [Fraction(a) for a in x1.tolist()]
        start = [a - Fraction(d) for a, d in zip(end, dx.tolist())]

        def form(x):
            return sum(xi * sum(a * xj for a, xj in zip(row, x)) for xi, row in zip(x, A))

        return (form(end) - form(start)) / 2

    @staticmethod
    def stiff_chain(n, k):
        mat = np.zeros((n, n))
        for i in range(n - 1):
            mat[i:i + 2, i:i + 2] += k * np.array([[1.0, -1.0], [-1.0, 1.0]])
        return mat

    @pytest.mark.parametrize("case", ["random", "stiff-chain"])
    def test_change_matches_exact_arithmetic(self, rng, case):
        n = 30
        eps = np.finfo(float).eps
        for _ in range(5):
            if case == "random":
                mat = random_psd(rng, n)
                x1, dx = rng.normal(size=n), 1e-3 * rng.normal(size=n)
            else:
                # near-rigid: K x is a tiny residue of entries of 3e5
                mat = self.stiff_chain(n, 3e5)
                x1, dx = 0.26 + 1e-6 * rng.normal(size=n), 1e-5 * rng.normal(size=n)
            assert np.array_equal(mat, mat.T)
            exact = self.exact_half_change(mat, x1, dx)
            bound = Fraction(8 * eps * np.linalg.norm(x1) * np.linalg.norm(mat @ dx))
            # x and an auxiliary pair go through the same Gram product; the
            # auxiliary change carries its weight c_aux = 1 and no 1/2
            start = x1 - dx
            forms = _forms(mat, x1, dx, (start, x1), 1.0, 0.0, 0.0)
            assert abs(Fraction(forms[1]) - exact) <= bound
            aux_exact = 2 * self.exact_half_change(mat, x1, x1 - start)
            assert abs(Fraction(forms[3]) - aux_exact) <= 2 * bound
            # the difference of the end forms misses by far more
            difference = 0.5 * float(x1 @ mat @ x1) - 0.5 * float(start @ mat @ start)
            assert abs(Fraction(difference) - exact) > bound

    def test_stiff_bar_residual_sits_at_roundoff(self):
        # 200 masses at k = 1e3: K's entries are 2e3 against energies near 0.5,
        # so q^T K q differenced across a step loses ~1e-13 of the energy
        model, state = build_scenario(ScenarioSpec("elastic_bar_chain", {
            "n_masses": 200, "standoff": 0.05, "restitution": 0.0, "v0": -1.0}))
        records = simulate(model, state, 1e-4, SchemeSpec.from_rho_infinity(0.8), 0.1)
        assert len(records) == 1000 and any(rec.active_set for rec in records)
        worst = np.max([abs(rec.report.identity_residual) / rec.report.residual_scale
                        for rec in records])
        assert worst <= 1e-14


class TestIdentityGate:
    def test_non_finite_residual_fails(self):
        model = plain_model(k=3.0)
        spec = SchemeSpec.moreau_jean(0.5)
        rec = simulate(model, initial_state(model, [0.1], [-1.0]), 1e-2, spec, 0.01)[0]
        assert rec.report.identity_ok()
        rec.state_next.v = np.array([np.nan])
        report = audit_step(build_cache(model, spec, 1e-2), rec)
        assert math.isnan(report.identity_residual)
        assert not report.identity_ok()
        assert not report.dissipation_satisfied

    def test_infinite_residual_fails_even_with_infinite_scale(self):
        model = plain_model(k=3.0)
        spec = SchemeSpec.moreau_jean(0.5)
        rec = simulate(model, initial_state(model, [0.1], [-1.0]), 1e-2, spec, 0.01)[0]
        report = replace(rec.report, identity_residual=math.inf, residual_scale=math.inf)
        assert not report.identity_ok()


class TestDissipationCheck:
    def ball_run(self, theta, e, t_end=1.0):
        model, state = build_scenario(
            ScenarioSpec("bouncing_ball", {"q0": 0.3, "restitution": e}))
        return model, simulate(model, state, 1e-3, SchemeSpec.moreau_jean(theta), t_end)

    def test_zero_restitution_admits_theta_up_to_one(self):
        for theta in (0.5, 0.75, 1.0):
            model, records = self.ball_run(theta, 0.0)
            report = records[0].report
            assert report.condition_satisfied and report.dissipation_satisfied

    def test_full_restitution_admits_only_half(self):
        model, records = self.ball_run(0.5, 1.0)
        assert records[0].report.condition_satisfied
        model, records = self.ball_run(0.6, 1.0)
        assert not records[0].report.condition_satisfied

    def test_condition_below_half_theta(self):
        model, records = self.ball_run(0.4, 0.0, t_end=0.3)
        assert not records[0].report.condition_satisfied

    def test_newmark_dissipates_under_its_condition(self):
        model, state = build_scenario(
            ScenarioSpec("bouncing_ball", {"q0": 0.2, "restitution": 0.7}))
        spec = SchemeSpec.newmark(gamma=0.6, beta=0.3)
        records = simulate(model, state, 1e-3, spec, 2.0)
        assert any(rec.active_set for rec in records)
        for rec in records:
            assert rec.report.condition_satisfied and rec.report.dissipation_satisfied


def reference_conditions(model, spec):
    """The per-variant parameter conditions, written out one variant at a time."""
    slack = 1e-12
    v = spec.variant
    if v is SchemeVariant.MOREAU_JEAN:
        th = spec.theta
        per_contact = bool(th >= 0.5 - slack
                           and np.all(th <= 1.0 / (1.0 + model.restitution) + slack))
        bound = 1.0 / (1.0 + model.restitution.max(initial=0.0))
        return per_contact, bool(0.5 - slack <= th <= bound + slack)
    if v is SchemeVariant.MOREAU_JEAN_VARIANT:
        cond = bool(spec.theta >= 0.5 - slack)
        return cond, cond
    gamma, beta = spec.gamma, spec.beta
    base = 2 * beta >= gamma - slack and gamma >= 0.5 - slack
    if v is SchemeVariant.NONSMOOTH_NEWMARK:
        return bool(base), bool(base)
    if v is SchemeVariant.NONSMOOTH_HHT:
        alpha = spec.alpha_f
        cond = bool(base and -slack <= alpha <= gamma - 0.5 + slack
                    and gamma - 0.5 <= 0.5 + slack)
        return cond, cond
    nu, eta = 0.5 - spec.alpha_m, spec.alpha_f - spec.alpha_m
    region = bool(base and -slack <= eta <= gamma - 0.5 + slack
                  and gamma - 0.5 <= nu + slack)
    if v is SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA:
        return region, region
    forcing = model.forcing
    cond = bool(region and not model.damping.any()
                and (forcing.omega == 0.0 or not forcing.amplitude.any()))
    return cond, cond


def condition_grid():
    thetas = [0.0, 0.3, 0.5 - 1e-13, 0.5, 0.55, 2.0 / 3.0, 0.7, 0.8, 0.9, 1.0,
              1.0 / 1.25, 1.0 / 1.25 + 1e-11]
    gammas = [0.4, 0.5, 0.6, 0.75, 0.9, 1.0, 1.05, 1.3]
    betas = [0.1, 0.25, 0.3, 0.45, 0.7]
    for th in thetas:
        yield SchemeSpec.moreau_jean(th)
        yield SchemeSpec.moreau_jean_variant(th)
    for gamma in gammas:
        for beta in betas:
            yield SchemeSpec.newmark(gamma, beta)
            for alpha in (0.0, 0.1, 0.25, 1.0 / 3.0):
                yield SchemeSpec.hht(alpha, gamma, beta)
            for am in (-0.5, -0.2, 0.0, 0.2, 0.4):
                for af in (am, -0.1, 0.0, 0.1, 0.3, 0.45):
                    for variant in (SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA,
                                    SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA):
                        yield SchemeSpec.generalized_alpha(am, af, gamma, beta, variant)
    for rho in (0.0, 0.5, 1.0):
        yield SchemeSpec.from_rho_infinity(rho)
        yield SchemeSpec.hht(1.0 / 3.0 * rho)


class TestConditionFlags:
    """The one condition flag against both variant-by-variant reference forms."""

    def models(self):
        c = 0.3 * np.eye(2)
        zero = np.zeros((2, 2))
        jac = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        for damping, forcing in ((zero, ForcingTerm.constant([0.0, -9.81])),
                                 (c, ForcingTerm.zero(2)),
                                 (zero, ForcingTerm.sinusoidal([1.0, 0.5], omega=2.0)),
                                 (zero, ForcingTerm.sinusoidal([0.0, 0.0], omega=2.0))):
            for e in ([0.0, 0.5, 1.0], [0.25, 0.25, 0.25], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]):
                yield build_model(np.eye(2), damping, np.eye(2), jac, [0.1, 0.1, 0.2], e,
                                  forcing)

    def test_matches_reference_over_grid(self):
        specs = list(condition_grid())
        ga_kh = (SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA,
                 SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)
        assert any(s.variant is SchemeVariant.NONSMOOTH_HHT and s.alpha_f == 0.0
                   and s.gamma > 1.0 for s in specs)
        assert any(s.variant in ga_kh and s.alpha_m == s.alpha_f
                   and s.gamma > 1.0 - s.alpha_m for s in specs)
        seen = set()
        for model in self.models():
            for spec in specs:
                # the per-contact and worst-restitution forms both equal the flag
                flag = build_cache(model, spec, 1e-3).condition
                assert reference_conditions(model, spec) == (flag, flag), spec
                seen.add((spec.variant, flag))
        # every variant shows both flag values somewhere on the grid
        for variant in SchemeVariant:
            assert {flag for v, flag in seen if v is variant} == {True, False}

    def test_zero_frequency_sinusoid_is_a_constant_load(self):
        # the flag reads the load's frequency, not the constructor that built it
        spec = SchemeSpec.from_rho_infinity(0.8)
        finals, flags = [], []
        for forcing in (ForcingTerm.constant([-9.81]),
                        ForcingTerm.sinusoidal([-9.81], 0.0, math.pi / 2)):
            model = build_model([[1.0]], [[0.0]], [[0.0]], [[1.0]], [0.0], [0.5], forcing)
            records = simulate(model, initial_state(model, [0.3], [0.0]), 1e-3, spec, 1.0)
            last = records[-1].state_next
            finals.append(b"".join(x.tobytes() for x in (last.q, last.v, last.a)))
            flags.append({rec.report.condition_satisfied for rec in records})
        assert finals[0] == finals[1]
        assert flags == [{True}, {True}]

    def test_zero_amplitude_sinusoid_is_a_constant_load(self):
        # an all-zero amplitude is constant at any frequency: the flag and
        # every record equal those of the zero load
        spec = SchemeSpec.from_rho_infinity(0.8)
        stiffness = np.array([[2.0, -1.0], [-1.0, 2.0]])
        runs, flags = [], []
        for forcing in (ForcingTerm.zero(2), ForcingTerm.sinusoidal(np.zeros(2), omega=3.0)):
            model = build_model(np.eye(2), np.zeros((2, 2)), stiffness, [[1.0], [0.0]],
                                [0.02], [0.5], forcing)
            flags.append(build_cache(model, spec, 1e-3).condition)
            records = simulate(model, initial_state(model, [0.0, 0.1], [-1.0, 0.5]),
                               1e-3, spec, 0.5)
            assert any(rec.active_set for rec in records)
            runs.append([record_bytes(rec) for rec in records])
        assert flags == [True, True]
        assert runs[0] == runs[1]


class TestSignIdentities:
    def test_impulse_velocity_jump_decomposition(self, rng):
        # -P.(U1 - U0) equals the restitution-weighted sum over the
        # active set, and both are nonpositive
        model = random_model(rng, n=3, m=2)
        col = model.contact_jacobian[:, 1]
        state = initial_state(model, np.zeros(3), -1.5 * col / (col @ col))
        records = simulate(model, state, 1e-3, SchemeSpec.moreau_jean(0.5), 0.5)
        hits = 0
        for rec in records:
            lhs = -float(rec.P @ (rec.U_next - rec.U_prev))
            rhs = sum((1.0 + model.restitution[a]) * rec.P[a] * rec.U_prev[a]
                      for a in rec.active_set)
            scale = 1.0 + np.abs(rec.P).max() * np.abs(rec.U_next).max()
            assert lhs == pytest.approx(rhs, abs=1e-9 * scale)
            assert lhs <= 1e-9 * scale
            hits += rec.P.max() > 0
        assert hits > 0

    def test_half_weighted_contact_work_nonpositive(self, rng):
        for spec in (SchemeSpec.newmark(0.7, 0.45), SchemeSpec.hht(0.3),
                     SchemeSpec.from_rho_infinity(0.4)):
            model = random_model(rng, n=3, m=2)
            col = model.contact_jacobian[:, 0]
            state = initial_state(model, np.zeros(3), -1.0 * col / (col @ col))
            records = simulate(model, state, 1e-3, spec, 0.4)
            for rec in records:
                scale = 1.0 + float(np.abs(rec.U_prev) @ np.abs(rec.P)
                                    + np.abs(rec.U_next) @ np.abs(rec.P))
                assert rec.report.W_contact_step <= 1e-12 * scale

    def test_always_dissipative_at_half_regardless_of_restitution(self):
        # the midpoint theta needs no restitution condition
        for e in (0.0, 0.6, 1.0):
            model, state = build_scenario(
                ScenarioSpec("bouncing_ball", {"q0": 0.25, "restitution": e}))
            records = simulate(model, state, 1e-3, SchemeSpec.moreau_jean(0.5), 1.5)
            for rec in records:
                gain = rec.report.energy_gain
                assert gain <= 1e-10 * rec.report.residual_scale
