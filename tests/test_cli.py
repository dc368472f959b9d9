"""Config parsing, CSV outputs, exit codes and the one residual tolerance."""

import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nscontact.cli as cli
import nscontact.energy as energy
import nscontact.integrators as integrators
from nscontact import ConfigError, reference_solution
from nscontact.cli import _run, main, parse_config

BALL_CONFIG = """\
# elastic ball under gravity
scenario.kind = bouncing_ball
scenario.q0 = 0.3
scenario.v0 = 0
scenario.gravity = 9.81
scenario.restitution = 1.0
scheme.variant = moreau_jean
scheme.theta = 0.5
run.h = 1e-3
run.t_end = 0.5
"""


def write_config(tmp_path, text=BALL_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BAR_CONFIG = """\
scenario.kind = elastic_bar_chain
scenario.n_masses = 6
scenario.standoff = 0.01
scenario.v0 = -1.0
scenario.restitution = 1.0
scheme.variant = moreau_jean
scheme.theta = 0.9
run.h = 1e-3
run.t_end = 0.05
"""

# the benchmark's bar shape: 600 rows of 409 numbers, with roundoff-sized
# values in e-notation and exact zeros after the plastic impact
WIDE_BAR_CONFIG = """\
scenario.kind = elastic_bar_chain
scenario.n_masses = 200
scenario.standoff = 0.05
scenario.v0 = -1.0
scenario.restitution = 0
scheme.variant = generalized_alpha
scheme.rho_infinity = 0.8
run.h = 1e-4
run.t_end = 0.06
"""

NAN_GAIN_CONFIG = """\
scenario.kind = forced_oscillator_contact
scenario.q0 = 1e160
scheme.variant = hht
run.h = 1e-3
run.t_end = 0.01
"""


def _fmt(x) -> str:
    """Per-field formatting the streamed CSV writer must reproduce."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return f"{float(x):.17g}"


def reference_csvs(records, tol):
    """trajectory.csv and audit.csv text, one field at a time."""
    n = records[0].state_next.q.size
    lines = [",".join(["step", "t"] + [f"q_{i}" for i in range(n)]
                      + [f"v_{i}" for i in range(n)]
                      + ["E", "H", "W_ext_cum", "W_damp_cum", "contact_work", "residual",
                         "active_set", "penetration"])]
    w_ext_cum = w_damp_cum = 0.0
    for rec in records:
        w_ext_cum += rec.report.W_ext
        w_damp_cum += rec.report.W_damping
        s = rec.state_next
        lines.append(",".join(
            [str(rec.step_index + 1), _fmt(s.t)] + [_fmt(x) for x in s.q]
            + [_fmt(x) for x in s.v]
            + [_fmt(rec.report.E), _fmt(rec.report.H_alg), _fmt(w_ext_cum),
               _fmt(w_damp_cum), _fmt(rec.report.W_contact_step),
               _fmt(rec.report.identity_residual),
               ";".join(str(a) for a in rec.active_set), _fmt(rec.penetration)]))
    audit = ["step,t,identity_residual,residual_scale,energy_gain,condition_satisfied,"
             "dissipation_satisfied,identity_ok"]
    for rec in records:
        rep = rec.report
        bad = not abs(rep.identity_residual) <= tol * rep.residual_scale
        audit.append(",".join([str(rec.step_index + 1), _fmt(rec.state_next.t),
                               _fmt(rep.identity_residual), _fmt(rep.residual_scale),
                               _fmt(rep.energy_gain), _fmt(rep.condition_satisfied),
                               _fmt(rep.dissipation_satisfied), _fmt(not bad)]))
    return "\n".join(lines) + "\n", "\n".join(audit) + "\n"


def reference_sweep(cfg_path, grid):
    """sweep.csv text, one field at a time."""
    cfg = parse_config(cfg_path)
    axes = cli._parse_grid(grid)
    lines = [",".join([*axes, "condition_satisfied", "dissipation_fraction",
                       "max_energy_gain"])]
    for values in itertools.product(*axes.values()):
        _, records = _run(cli._grid_point(cfg, dict(zip(axes, values))))
        reports = [rec.report for rec in records]
        gains = [rep.energy_gain for rep in reports]
        max_gain = math.nan if any(map(math.isnan, gains)) else max(0.0, *gains) + 0.0
        frac = sum(rep.dissipation_satisfied for rep in reports) / len(reports)
        lines.append(",".join([*map(_fmt, values), _fmt(reports[0].condition_satisfied),
                               _fmt(frac), _fmt(max_gain)]))
    return "\n".join(lines) + "\n"


def reference_convergence(cfg_path, h_values):
    """convergence.csv text, one field at a time."""
    cfg = parse_config(cfg_path)
    errors = []
    for h in h_values:
        _, records = _run(replace(cfg, h=h))
        final = records[-1].state_next
        q_ref, v_ref = reference_solution(cfg.scenario_spec(), final.t)
        errors.append(math.sqrt(float(np.sum((final.q - q_ref) ** 2))
                                + float(np.sum((final.v - v_ref) ** 2))))
    order = float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])
    return "h,error,fitted_order\n" + "".join(
        f"{_fmt(h)},{_fmt(err)},{_fmt(order)}\n" for h, err in zip(h_values, errors))


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.scenario_kind == "bouncing_ball"
        assert cfg.scheme_params["variant"] == "moreau_jean"
        assert cfg.h == pytest.approx(1e-3)
        assert cfg.scheme_spec().theta == 0.5

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write_config(tmp_path, "scenario.kind = bouncing_ball\nrun.h 1e-3\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, BALL_CONFIG + "run.fancy = 1\n")
        with pytest.raises(ConfigError, match="fancy"):
            parse_config(path)

    def test_bad_number_rejected(self, tmp_path):
        path = write_config(tmp_path, BALL_CONFIG.replace("1e-3", "fast"))
        with pytest.raises(ConfigError, match="number"):
            parse_config(path)

    def test_missing_kind_rejected(self, tmp_path):
        path = write_config(tmp_path, "run.h = 1e-3\nrun.t_end = 1\n")
        with pytest.raises(ConfigError, match="scenario.kind"):
            parse_config(path)

    def test_scheme_variants_build(self, tmp_path):
        text = BALL_CONFIG.replace(
            "scheme.variant = moreau_jean\nscheme.theta = 0.5\n",
            "scheme.variant = generalized_alpha\nscheme.rho_infinity = 0.8\n")
        cfg = parse_config(write_config(tmp_path, text))
        spec = cfg.scheme_spec()
        assert spec.alpha_f == pytest.approx(0.8 / 1.8)

    def test_beta_rule_half_gamma(self, tmp_path):
        text = BALL_CONFIG.replace(
            "scheme.variant = moreau_jean\nscheme.theta = 0.5\n",
            "scheme.variant = newmark\nscheme.gamma = 0.8\nscheme.beta_rule = half_gamma\n")
        spec = parse_config(write_config(tmp_path, text)).scheme_spec()
        assert spec.beta == pytest.approx(0.4)

    @pytest.mark.parametrize("line", ["run.h = nan", "run.t_end = nan", "run.t_end = inf",
                                      "run.h = -inf", "run.tol = nan", "run.tol = inf",
                                      "run.tol = -1e-10"])
    def test_non_finite_or_negative_run_controls_rejected(self, tmp_path, line):
        key = line.split(" = ")[0]
        path = write_config(tmp_path, BALL_CONFIG + line + "\n")
        with pytest.raises(ConfigError, match=rf"line 11: {key}"):
            parse_config(path)


class TestSimulateCommand:
    def test_writes_csvs_and_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["step", "t", "q_0", "v_0", "E", "H", "W_ext_cum",
                          "W_damp_cum", "contact_work", "residual", "active_set",
                          "penetration"]
        assert len(rows) == 500
        assert rows[0][0] == "1"
        header, rows = read_csv(out / "audit.csv")
        assert header[0:2] == ["step", "t"]
        assert all(row[-1] == "true" for row in rows)

    def test_seventeen_digit_round_trip(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", cfg, "--out", str(out)])
        _, rows = read_csv(out / "trajectory.csv")
        q_vals = np.array([float(r[2]) for r in rows])
        # rerun and compare parsed values exactly
        out2 = tmp_path / "out2"
        main(["simulate", cfg, "--out", str(out2)])
        _, rows2 = read_csv(out2 / "trajectory.csv")
        q_vals2 = np.array([float(r[2]) for r in rows2])
        assert np.array_equal(q_vals, q_vals2)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", cfg, "--out", str(out1)])
        main(["simulate", cfg, "--out", str(out2)])
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "audit.csv").read_bytes() == (out2 / "audit.csv").read_bytes()

    def test_condition_flag_false_without_failing(self, tmp_path):
        text = BALL_CONFIG.replace("scheme.theta = 0.5", "scheme.theta = 0.4")
        text = text.replace("scenario.restitution = 1.0", "scenario.restitution = 0.0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "audit.csv")
        cond_col = 5
        assert all(row[cond_col] == "false" for row in rows)

    def test_exit_two_when_tolerance_forced_to_zero(self, tmp_path):
        cfg = write_config(tmp_path, BALL_CONFIG + "run.tol = 1e-30\n")
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out)]) == 2

    def test_streamed_rows_match_per_field_formatting(self, tmp_path, monkeypatch):
        # theta = 0.9 with e = 1 fails both conditions
        self._check_rows_match_per_field_formatting(tmp_path, monkeypatch, BAR_CONFIG)

    def test_wide_rows_match_per_field_formatting(self, tmp_path, monkeypatch):
        # 600 rows: full blocks, then a short one
        self._check_rows_match_per_field_formatting(tmp_path, monkeypatch, WIDE_BAR_CONFIG)

    @staticmethod
    def _check_rows_match_per_field_formatting(tmp_path, monkeypatch, config):
        # every seventh step reports a residual far outside the default gate,
        # so both identity_ok values occur whatever the roundoff of the
        # others, and the run exits 2 after writing every row
        real_audit = energy.audit_step

        def failing_audit(cache, record, **kwargs):
            report = real_audit(cache, record, **kwargs)
            if record.step_index % 7 == 3:
                report = replace(report, identity_residual=1e-6 * report.residual_scale)
            return report

        monkeypatch.setattr(energy, "audit_step", failing_audit)
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        run = parse_config(cfg)
        _, records = _run(run)
        assert any(len(rec.active_set) > 0 for rec in records)
        trajectory, audit = reference_csvs(records, run.tol)
        assert (out / "trajectory.csv").read_bytes() == trajectory.encode()
        assert (out / "audit.csv").read_bytes() == audit.encode()
        identity_ok = {line.rsplit(",", 1)[1] for line in audit.splitlines()[1:]}
        assert identity_ok == {"true", "false"}

    def test_nan_residual_fails_the_gate(self, tmp_path, monkeypatch):
        real_audit = energy.audit_step

        def poisoned_audit(cache, record, **kwargs):
            report = real_audit(cache, record, **kwargs)
            if record.step_index == 3:
                report = replace(report, identity_residual=math.nan)
            return report

        monkeypatch.setattr(energy, "audit_step", poisoned_audit)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        _, rows = read_csv(out / "audit.csv")
        assert rows[3][2] == "nan" and rows[3][-1] == "false"
        assert sum(row[-1] == "false" for row in rows) == 1
        header, rows = read_csv(out / "trajectory.csv")
        residual = header.index("residual")
        assert rows[3][residual] == "nan"
        assert sum(row[residual] == "nan" for row in rows) == 1
        assert main(["sweep", cfg, "--grid", "theta=0.5", "--out", str(out)]) == 2

    def test_exit_three_on_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "scenario.kind = bouncing_ball\nnot a config\n")
        assert main(["simulate", path, "--out", str(tmp_path)]) == 3
        assert "line 2" in capsys.readouterr().err

    # h = 1e-320 is positive and finite, but t_end / h overflows to inf
    @pytest.mark.parametrize("line", ["run.h = nan", "run.t_end = inf", "run.tol = nan",
                                      "run.h = 1e-320"])
    def test_exit_three_on_non_finite_run_control(self, tmp_path, capsys, line):
        path = write_config(tmp_path, BALL_CONFIG + line + "\n")
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 3
        assert line.split(" = ")[0] in capsys.readouterr().err

    def test_exit_three_on_solver_key(self, tmp_path, capsys):
        # Lemke is the one contact solver, so there is no run.solver key
        path = write_config(tmp_path, BALL_CONFIG + "run.solver = pgs\n")
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 3
        assert "run.solver" in capsys.readouterr().err

    def test_exit_three_on_missing_file(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 3

    def test_exit_one_on_run_failure(self, tmp_path, capsys):
        # config parses fine; the run itself cannot be built
        cfg = write_config(tmp_path, BALL_CONFIG + "scenario.mass = -1\n")
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err


class TestSweepCommand:
    def test_theta_restitution_grid_matches_region(self, tmp_path):
        cfg = write_config(tmp_path, BALL_CONFIG.replace("run.t_end = 0.5",
                                                         "run.t_end = 1.0"))
        out = tmp_path / "sweep"
        code = main(["sweep", cfg, "--grid", "theta=0.5:1.0:6;e=0,0.5,1", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["theta", "e", "condition_satisfied", "dissipation_fraction",
                          "max_energy_gain"]
        assert len(rows) == 18
        for row in rows:
            theta, e = float(row[0]), float(row[1])
            inside = 0.5 <= theta <= 1.0 / (1.0 + e) + 1e-12
            assert (row[2] == "true") == inside
            if inside:
                assert float(row[3]) == pytest.approx(1.0)

    def test_single_point_grid_matches_simulate(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "one"
        assert main(["sweep", cfg, "--grid", "theta=0.5", "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["theta", "condition_satisfied", "dissipation_fraction",
                          "max_energy_gain"]
        assert len(rows) == 1
        assert rows[0][1] == "true"
        assert float(rows[0][2]) == pytest.approx(1.0)

    def test_newmark_gamma_sweep_with_tied_beta(self, tmp_path):
        text = BALL_CONFIG.replace(
            "scheme.variant = moreau_jean\nscheme.theta = 0.5\n",
            "scheme.variant = newmark\nscheme.beta_rule = half_gamma\n")
        text = text.replace("scenario.restitution = 1.0", "scenario.restitution = 0.6")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "gsweep"
        assert main(["sweep", cfg, "--grid", "gamma=0.5,0.7,0.9,1.0", "--out", str(out)]) == 0
        _, rows = read_csv(out / "sweep.csv")
        for row in rows:
            assert row[1] == "true"              # condition holds for gamma >= 1/2
            assert float(row[2]) == pytest.approx(1.0)

    def test_unknown_axis_exits_three(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", cfg, "--grid", "mass=1,2", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("grid, value", [("theta=a,b", "'a'"),
                                              ("theta=0.5:1:x", "'x'")])
    def test_malformed_axis_values_exit_three(self, tmp_path, capsys, grid, value):
        cfg = write_config(tmp_path)
        assert main(["sweep", cfg, "--grid", grid, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "theta" in err and value in err

    def test_nan_energy_gain_is_written(self, tmp_path):
        # q^T K q overflows, so every step's energy gain is inf - inf = NaN
        cfg = write_config(tmp_path, NAN_GAIN_CONFIG)
        out = tmp_path / "nan"
        assert main(["sweep", cfg, "--grid", "alpha=0,0.1", "--out", str(out)]) == 2
        _, rows = read_csv(out / "sweep.csv")
        assert [row[-1] for row in rows] == ["nan", "nan"]
        assert [row[-2] for row in rows] == ["0", "0"]

    @pytest.mark.parametrize("config, grid, code", [
        (BALL_CONFIG, "theta=0.5:1.0:3;e=0,0.5,1", 0),
        (NAN_GAIN_CONFIG, "alpha=0,0.1", 2),
    ], ids=["ball", "nan_gain"])
    def test_rows_match_per_field_formatting(self, tmp_path, config, grid, code):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "sweep"
        assert main(["sweep", cfg, "--grid", grid, "--out", str(out)]) == code
        assert (out / "sweep.csv").read_bytes() == reference_sweep(cfg, grid).encode()

    def test_axis_incompatible_with_variant_exits_three(self, tmp_path, capsys):
        text = BALL_CONFIG.replace(
            "scheme.variant = moreau_jean\nscheme.theta = 0.5\n",
            "scheme.variant = hht\nscheme.alpha = 0.1\n")
        cfg = write_config(tmp_path, text)
        assert main(["sweep", cfg, "--grid", "theta=0.5,0.6", "--out", str(tmp_path)]) == 3
        assert "theta" in capsys.readouterr().err


class TestConvergenceCommand:
    OSC = """\
scenario.kind = forced_oscillator_contact
scenario.wall = -100
scheme.variant = moreau_jean
scheme.theta = 0.5
run.h = 1e-2
run.t_end = 1.0
"""

    def test_trapezoidal_order_two(self, tmp_path):
        cfg = write_config(tmp_path, self.OSC)
        out = tmp_path / "conv"
        code = main(["convergence", cfg, "--h", "1e-2,5e-3,2.5e-3,1.25e-3",
                     "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out / "convergence.csv")
        assert len(rows) == 4
        assert float(rows[0][2]) >= 1.9

    def test_averaging_scheme_order_two(self, tmp_path):
        text = self.OSC.replace(
            "scheme.variant = moreau_jean\nscheme.theta = 0.5\n",
            "scheme.variant = generalized_alpha\nscheme.rho_infinity = 0.8\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "conva"
        assert main(["convergence", cfg, "--h", "1e-2,5e-3,2.5e-3,1.25e-3",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out / "convergence.csv")
        assert float(rows[0][2]) >= 1.9

    def test_backward_weighting_order_one(self, tmp_path):
        cfg = write_config(tmp_path, self.OSC.replace("theta = 0.5", "theta = 1.0"))
        out = tmp_path / "conv1"
        assert main(["convergence", cfg, "--h", "1e-2,5e-3,2.5e-3,1.25e-3",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out / "convergence.csv")
        assert abs(float(rows[0][2]) - 1.0) <= 0.15

    def test_activated_contact_invalidates_reference(self, tmp_path, capsys):
        # wall close enough to be hit: the study must refuse, not mislead
        text = self.OSC.replace("scenario.wall = -100", "scenario.wall = -0.9")
        cfg = write_config(tmp_path, text)
        assert main(["convergence", cfg, "--h", "1e-2,5e-3,2.5e-3",
                     "--out", str(tmp_path)]) == 1
        assert "error at {'h': 0.01}: the contact activated" in capsys.readouterr().err

    def test_no_reference_exits_one(self, tmp_path, monkeypatch, capsys):
        # whether a reference exists is known before any step size is simulated
        text = self.OSC.replace("forced_oscillator_contact", "elastic_bar_chain")
        text = text.replace("scenario.wall = -100\n", "")
        cfg = write_config(tmp_path, text)
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("simulated"))
        assert main(["convergence", cfg, "--h", "1e-2,5e-3,2.5e-3",
                     "--out", str(tmp_path)]) == 1
        assert "reference" in capsys.readouterr().err

    def test_exit_two_when_tolerance_forced_to_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.OSC + "run.tol = 0\n")
        out = tmp_path / "conv0"
        assert main(["convergence", cfg, "--h", "1e-2,5e-3,2.5e-3", "--out", str(out)]) == 2
        assert "violate the identity residual tolerance" in capsys.readouterr().err
        _, rows = read_csv(out / "convergence.csv")
        assert len(rows) == 3

    def test_rows_match_per_field_formatting(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "conv"
        h_values = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        assert main(["convergence", cfg, "--h", ",".join(map(repr, h_values)),
                     "--out", str(out)]) == 0
        want = reference_convergence(cfg, h_values)
        assert (out / "convergence.csv").read_bytes() == want.encode()

    def test_too_few_step_sizes_exits_three(self, tmp_path):
        cfg = write_config(tmp_path, self.OSC)
        assert main(["convergence", cfg, "--h", "1e-2,5e-3", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("h_list", ["abc,1e-3,2e-3", "0,1e-3,2e-3", "1e-320,1e-3,2e-3",
                                        "inf,1e-3,2e-3"])
    def test_malformed_step_sizes_exit_three(self, tmp_path, capsys, h_list):
        cfg = write_config(tmp_path, self.OSC)
        assert main(["convergence", cfg, "--h", h_list, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "--h" in err and h_list.split(",")[0] in err


def _ball_scheme(block):
    """BALL_CONFIG with its scheme lines replaced by ``block``."""
    return BALL_CONFIG.replace("scheme.variant = moreau_jean\nscheme.theta = 0.5\n", block)


COMMAND_ARGS = {"simulate": [], "sweep": ["--grid", "theta=0.5"],
                "convergence": ["--h", "1e-2,5e-3,2.5e-3"]}

# config values every command rejects before it runs: (id, config, stderr fragment)
CONFIG_FAILURES = [
    ("gamma_nan", _ball_scheme("scheme.variant = newmark\nscheme.gamma = nan\n"),
     "line 8: scheme.gamma"),
    ("alpha_m_nan", _ball_scheme("scheme.variant = generalized_alpha\nscheme.alpha_m = nan\n"),
     "line 8: scheme.alpha_m"),
    ("beta_inf", _ball_scheme("scheme.variant = hht\nscheme.beta = inf\n"),
     "line 8: scheme.beta"),
    ("n_masses_inf", BAR_CONFIG.replace("n_masses = 6", "n_masses = inf"),
     "line 2: scenario.n_masses"),
    ("n_masses_nan", BAR_CONFIG.replace("n_masses = 6", "n_masses = nan"),
     "line 2: scenario.n_masses"),
    # word-valued scheme keys are checked on their line, before any run
    ("variant_unknown", _ball_scheme("scheme.variant = nope\n"),
     "line 7: unknown scheme.variant 'nope'"),
    ("beta_rule_unknown", _ball_scheme("scheme.variant = newmark\nscheme.beta_rule = third\n"),
     "line 8: unknown scheme.beta_rule 'third'"),
    ("variant_missing", _ball_scheme(""), "scheme.variant is required"),
]

# run.h = 0.5 > run.t_end = 0.25 leaves no step to take
NO_STEP_CONFIG = BALL_CONFIG.replace("run.h = 1e-3", "run.h = 0.5").replace(
    "run.t_end = 0.5", "run.t_end = 0.25")
NO_STEP = "must satisfy 0 < h <= run.t_end = 0.25"

OVERFLOW_OSC = """\
scenario.kind = forced_oscillator_contact
scheme.variant = {scheme}
run.h = 1e200
run.t_end = 1e200
"""

# (command, config or None for none on the command line, extra arguments,
#  exit code, stderr fragment)
EXIT_CODES = [
    *[pytest.param(command, config, args, 3, f"config error: {fragment}",
                   id=f"{command}-{name}")
      for name, config, fragment in CONFIG_FAILURES
      for command, args in COMMAND_ARGS.items()],
    *[pytest.param(command, BALL_CONFIG, args, 0, "", id=f"{command}-ok")
      for command, args in COMMAND_ARGS.items()],
    *[pytest.param(command, BALL_CONFIG + "run.tol = 1e-30\n", args, 2, "audit: ",
                   id=f"{command}-identity")
      for command, args in COMMAND_ARGS.items()],
    pytest.param("simulate", BALL_CONFIG + "scenario.mass = -1\n", [], 1,
                 "error: ball mass must be positive", id="simulate-run"),
    pytest.param("sweep", BALL_CONFIG + "scenario.mass = -1\n", ["--grid", "theta=0.5;e=1"],
                 1, "error at {'theta': 0.5, 'e': 1.0}: ball mass must be positive",
                 id="sweep-run"),
    pytest.param("convergence", BALL_CONFIG + "scenario.mass = -1\n",
                 ["--h", "1e-2,5e-3,2.5e-3"], 1,
                 "error at {'h': 0.01}: ball mass must be positive", id="convergence-run"),
    pytest.param("sweep", _ball_scheme("scheme.variant = newmark\n"), ["--grid", "gamma=nan"],
                 3, "config error: grid axis 'gamma'", id="sweep-grid-nan"),
    pytest.param("sweep", BALL_CONFIG, ["--grid", "theta=0.5;theta=1.0"], 3,
                 "config error: grid axis 'theta' is given twice", id="sweep-repeated-axis"),
    pytest.param("convergence", BALL_CONFIG, ["--h", "1e-2,5e-3"], 3,
                 "config error: convergence studies need at least 3", id="convergence-two-h"),
    # a repeated key used to take its last value silently
    pytest.param("simulate", BALL_CONFIG + "scheme.theta = 0.2\n", [], 3,
                 "config error: line 11: 'scheme.theta' is given twice (first on line 8)",
                 id="simulate-repeated-key"),
    # unknown scenario names are config errors, like unknown scheme and run keys
    pytest.param("simulate", BALL_CONFIG + "scenario.radius = 2\n", [], 3,
                 "config error: unknown parameter 'radius' for scenario 'bouncing_ball'",
                 id="simulate-unknown-scenario-key"),
    pytest.param("sweep", BALL_CONFIG.replace("= bouncing_ball", "= bouncing_balls"),
                 ["--grid", "theta=0.5"], 3,
                 "config error: unknown scenario kind 'bouncing_balls'",
                 id="sweep-unknown-scenario-kind"),
    # an unknown variant used to surface only after the missing reference (exit 1)
    pytest.param("convergence", "scenario.kind = two_ball_impact\nscheme.variant = nope\n",
                 ["--h", "1e-2,5e-3,2.5e-3"], 3,
                 "config error: line 2: unknown scheme.variant 'nope'",
                 id="convergence-two-ball-variant-unknown"),
    # a fractional mass count used to be rounded (2.5 built 2 masses, 3.5 built 4)
    pytest.param("simulate", BAR_CONFIG.replace("n_masses = 6", "n_masses = 2.5"), [], 1,
                 "error: n_masses must be a whole number, got 2.5",
                 id="simulate-n_masses-fractional"),
    # h * h overflows to inf: a run failure naming the iteration matrix
    *[pytest.param("simulate", OVERFLOW_OSC.format(scheme=scheme), [], 1,
                   "error: iteration matrix is not finite", id=f"simulate-overflow-{name}")
      for name, scheme in [("newmark", "newmark"),
                           ("moreau_jean", "moreau_jean\nscheme.theta = 0.5")]],
    *[pytest.param(command, NO_STEP_CONFIG, args, 3, f"config error: run.h {NO_STEP}",
                   id=f"{command}-no-step")
      for command, args in [("simulate", []), ("sweep", ["--grid", "theta=0.2,0.5"]),
                            ("convergence", ["--h", "1e-2,5e-3,2.5e-3"])]],
    pytest.param("convergence", NO_STEP_CONFIG.replace("run.h = 0.5", "run.h = 1e-2"),
                 ["--h", "0.5,1e-2,5e-3"], 3, f"config error: --h {NO_STEP}",
                 id="convergence-no-step-h"),
    # the reference is checked before the run that would reject the mass
    *[pytest.param("convergence", TestConvergenceCommand.OSC + f"scenario.mass = {mass}\n",
                   ["--h", "1e-2,5e-3,2.5e-3"], 1,
                   "error: closed-form oscillator requires positive mass",
                   id=f"convergence-oscillator-mass-{mass}")
      for mass in ("0", "-1")],
    # run.tol is the one tolerance and exit 2 is always armed
    pytest.param("simulate", BALL_CONFIG + "run.audit = false\n", [], 3,
                 "config error: line 11: unknown run key 'run.audit'", id="simulate-audit-key"),
    # command-line usage errors are not identity violations
    pytest.param("simulate", BALL_CONFIG, ["--audit"], 3,
                 "nscontact: error: unrecognized arguments: --audit",
                 id="simulate-audit-option"),
    pytest.param("simulate", None, [], 3,
                 "nscontact simulate: error: the following arguments are required: config",
                 id="simulate-no-config"),
    pytest.param("sweep", BALL_CONFIG, [], 3,
                 "nscontact sweep: error: the following arguments are required: --grid",
                 id="sweep-no-grid"),
    pytest.param("run", BALL_CONFIG, [], 3,
                 "nscontact: error: argument command: invalid choice: 'run'",
                 id="unknown-command"),
    pytest.param("simulate", BALL_CONFIG, ["--help"], 0, "", id="simulate-help"),
]


@pytest.mark.parametrize("command, config, args, code, fragment", EXIT_CODES)
def test_exit_code_map(tmp_path, capsys, command, config, args, code, fragment):
    paths = [] if config is None else [write_config(tmp_path, config)]
    assert main([command, *paths, *args, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err
    assert (err == "") == (code == 0)
    if fragment.startswith("nscontact"):
        # argparse's own messages follow its usage line
        assert err.startswith("usage: nscontact")


@pytest.mark.parametrize("command, args", COMMAND_ARGS.items(), ids=list(COMMAND_ARGS))
@pytest.mark.parametrize("config", [c[1] for c in CONFIG_FAILURES],
                         ids=[c[0] for c in CONFIG_FAILURES])
def test_config_failure_makes_no_output_directory(tmp_path, capsys, command, args, config):
    out = tmp_path / "out"
    assert main([command, write_config(tmp_path, config), *args, "--out", str(out)]) == 3
    assert not out.exists()


# run.tol is the one tolerance: a stale NSC_TOL in the environment
# changes no output byte and no exit code
@pytest.mark.parametrize("command, config, args", [
    pytest.param("simulate", BAR_CONFIG, [], id="simulate"),
    pytest.param("sweep", BAR_CONFIG, ["--grid", "theta=0.5,0.9"], id="sweep"),
    pytest.param("convergence", TestConvergenceCommand.OSC, ["--h", "1e-2,5e-3,2.5e-3"],
                 id="convergence"),
])
def test_environment_leaves_the_outcome_unchanged(tmp_path, monkeypatch, capsys, command,
                                                  config, args):
    monkeypatch.delenv("NSC_TOL", raising=False)
    path = write_config(tmp_path, config)
    outcomes = []
    for name in ("bare", "nsc_tol"):
        if name == "nsc_tol":
            monkeypatch.setenv("NSC_TOL", "1e-16")
        out = tmp_path / name
        code = main([command, path, *args, "--out", str(out)])
        outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outcomes.append((code, outputs, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


def _knocked_out_step(*args, **kwargs):
    raise RuntimeError("no step may run")


# t_end / h = 1e300 is finite, but t_end - h == t_end: such a run would loop
# ~1e300 times, so it must be refused before any step
@pytest.mark.parametrize("command, config, args, key", [
    pytest.param("simulate", BALL_CONFIG.replace("run.h = 1e-3", "run.h = 1e-300"), [],
                 "run.h", id="simulate"),
    pytest.param("sweep", BALL_CONFIG.replace("run.h = 1e-3", "run.h = 1e-300"),
                 ["--grid", "theta=0.5"], "run.h", id="sweep"),
    pytest.param("convergence", BALL_CONFIG, ["--h", "1e-300,1e-3,2e-3"], "--h",
                 id="convergence"),
])
def test_unresolvable_step_size_exits_three(tmp_path, monkeypatch, capsys, command, config,
                                            args, key):
    monkeypatch.setattr(integrators, "step", _knocked_out_step)
    path = write_config(tmp_path, config)
    assert main([command, path, *args, "--out", str(tmp_path / "out")]) == 3
    assert f"config error: {key} must satisfy 0 < h <= run.t_end" in capsys.readouterr().err


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(*args):
    """A fresh interpreter with ``src`` on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("config, code, fragment", [
    pytest.param(BALL_CONFIG, 0, "", id="ok"),
    pytest.param(CONFIG_FAILURES[0][1], 3, "config error: line 8: scheme.gamma",
                 id="gamma_nan"),
])
def test_module_entry_point_exit_code(tmp_path, config, code, fragment):
    # the process exit status, which the installed console script relies on
    proc = _run_python("-m", "nscontact.cli", "simulate", write_config(tmp_path, config),
                       "--out", str(tmp_path / "out"))
    assert proc.returncode == code
    assert fragment in proc.stderr and "Traceback" not in proc.stderr


def test_import_loads_no_scipy():
    # numpy is the one numerical dependency
    proc = _run_python("-c", "import sys, nscontact, nscontact.cli; print(sorted("
                             "m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("blocked", ["out_is_a_file", "csv_is_a_directory"])
def test_unwritable_output_exits_one(tmp_path, capsys, blocked):
    cfg = write_config(tmp_path)
    out = Path(cfg) if blocked == "out_is_a_file" else tmp_path / "out"
    if blocked == "csv_is_a_directory":
        (out / "trajectory.csv").mkdir(parents=True)
    assert main(["simulate", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and "Traceback" not in err
