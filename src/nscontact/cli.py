"""Batch front end: simulate, parameter sweeps, convergence studies.

Configs are flat ``key = value`` files with dotted keys (``scenario.*``,
``scheme.*``, ``run.*``): trivially parseable, diff-friendly.  Outputs
are CSV with 17 significant digits so residual-level comparisons
survive a round trip.  Exit codes: 0 success, 1 solver/run failure,
2 identity-residual violation with auditing armed, 3 config error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .energy import DEFAULT_AUDIT_TOL
from .errors import ConfigError, InvalidSpec, NotAvailable, NscontactError
from .integrators import simulate
from .model import THETA_FAMILY, SchemeSpec, SchemeVariant
from .scenarios import ScenarioSpec, build_scenario, reference_solution

_SCHEME_KEYS = {"variant", "theta", "gamma", "beta", "alpha", "alpha_m", "alpha_f",
                "rho_infinity", "beta_rule"}
_RUN_KEYS = {"h", "t_end", "audit", "tol", "solver"}
_GRID_AXES = ("theta", "gamma", "beta", "alpha", "rho_infinity", "e")


def _flag(x) -> str:
    return "true" if x else "false"


@dataclass
class RunConfig:
    """One run: scenario and scheme key/value maps plus run controls."""

    scenario_kind: str
    scenario_params: dict = field(default_factory=dict)
    scheme_params: dict = field(default_factory=dict)
    h: float = 1e-3
    t_end: float = 1.0
    audit: bool = True
    tol: float | None = None
    solver: str = "lemke"

    def scenario_spec(self) -> ScenarioSpec:
        return ScenarioSpec(self.scenario_kind, dict(self.scenario_params))

    def scheme_spec(self) -> SchemeSpec:
        return _build_scheme(self.scheme_params)

    def residual_tol(self) -> float:
        env = os.environ.get("NSC_TOL")
        if env is not None:
            try:
                return float(env)
            except ValueError as exc:
                raise ConfigError(f"NSC_TOL is not a number: {env!r}") from exc
        if self.tol is not None:
            return self.tol
        return DEFAULT_AUDIT_TOL


# Scheme keys each variant accepts besides ``variant`` and ``beta_rule``;
# ``rho_infinity`` excludes ``alpha_m``/``alpha_f``.
_AVERAGING_KEYS = {"gamma", "beta", "alpha_m", "alpha_f", "rho_infinity"}
_VARIANT_KEYS = {
    SchemeVariant.MOREAU_JEAN: {"theta"},
    SchemeVariant.MOREAU_JEAN_VARIANT: {"theta"},
    SchemeVariant.NONSMOOTH_NEWMARK: {"gamma", "beta"},
    SchemeVariant.NONSMOOTH_HHT: {"alpha", "gamma", "beta"},
    SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA: _AVERAGING_KEYS,
    SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA: _AVERAGING_KEYS,
}


def _build_scheme(params: dict) -> SchemeSpec:
    p = dict(params)
    variant = p.pop("variant", None)
    if variant is None:
        raise ConfigError("scheme.variant is required")
    try:
        var = SchemeVariant(variant)
    except ValueError:
        raise ConfigError(f"unknown scheme.variant '{variant}' "
                          f"(expected one of {[v.value for v in SchemeVariant]})") from None
    beta_rule = p.pop("beta_rule", "quarter_square")
    if beta_rule not in ("quarter_square", "half_gamma"):
        raise ConfigError(f"unknown scheme.beta_rule '{beta_rule}'")
    allowed = _VARIANT_KEYS[var]
    if "rho_infinity" in p:
        allowed = allowed - {"alpha_m", "alpha_f"}
    extra = sorted(p.keys() - allowed)
    if extra:
        raise ConfigError(f"scheme keys not valid for this variant: {extra}")

    if var in THETA_FAMILY:
        return SchemeSpec(var, theta=float(p.get("theta", 0.5)))
    if "rho_infinity" in p:
        base = SchemeSpec.from_rho_infinity(p["rho_infinity"], variant=var)
        alpha_m, alpha_f = base.alpha_m, base.alpha_f
    else:
        alpha_m, alpha_f = p.get("alpha_m", 0.0), p.get("alpha_f", p.get("alpha", 0.0))
    spec = SchemeSpec.generalized_alpha(alpha_m, alpha_f, p.get("gamma"), p.get("beta"),
                                        variant=var)
    if beta_rule == "half_gamma" and "beta" not in p:
        spec = replace(spec, beta=0.5 * spec.gamma)
    return spec


def parse_config(path) -> RunConfig:
    """Parse a flat dotted-key config file.

    Raises:
        ConfigError: unreadable file, malformed line, unknown or
            ill-typed key (diagnostics carry the line number).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    cfg = RunConfig(scenario_kind="")
    seen_kind = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"empty key or value in {raw!r}", line=lineno)
        parts = key.split(".")
        if len(parts) != 2:
            raise ConfigError(f"keys use one dot (section.name), got '{key}'", line=lineno)
        section, name = parts
        if section == "scenario":
            if name == "kind":
                cfg.scenario_kind = value
                seen_kind = True
            else:
                cfg.scenario_params[name] = _number(value, key, lineno)
        elif section == "scheme":
            if name not in _SCHEME_KEYS:
                raise ConfigError(f"unknown scheme key '{name}'", line=lineno)
            if name in ("variant", "beta_rule"):
                cfg.scheme_params[name] = value
            else:
                cfg.scheme_params[name] = _number(value, key, lineno)
        elif section == "run":
            if name not in _RUN_KEYS:
                raise ConfigError(f"unknown run key '{name}'", line=lineno)
            if name == "audit":
                if value not in ("true", "false"):
                    raise ConfigError(f"run.audit must be true/false, got '{value}'",
                                      line=lineno)
                cfg.audit = value == "true"
            elif name == "solver":
                if value not in ("lemke", "pgs"):
                    raise ConfigError(f"run.solver must be lemke or pgs, got '{value}'",
                                      line=lineno)
                cfg.solver = value
            else:
                setattr(cfg, "tol" if name == "tol" else name,
                        _number(value, key, lineno))
        else:
            raise ConfigError(f"unknown section '{section}'", line=lineno)

    if not seen_kind:
        raise ConfigError("scenario.kind is required")
    if cfg.h <= 0.0 or cfg.t_end <= 0.0:
        raise ConfigError("run.h and run.t_end must be positive")
    return cfg


def _number(value: str, key: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got '{value}'", line=lineno) from None


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _run(cfg: RunConfig):
    model, state = build_scenario(cfg.scenario_spec())
    spec = cfg.scheme_spec()
    records = simulate(model, state, cfg.h, spec, cfg.t_end, audit=True,
                       audit_tol=cfg.residual_tol(), lcp_solver=cfg.solver)
    return model, spec, records


def _write_csv(path: Path, header: list[str], row_format: str, rows) -> None:
    """Write the header, then each row tuple through ``row_format`` as it is produced.

    Floats use ``%.17g``, which gives the same text as ``format(x, ".17g")``.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row_format % row)


def cmd_simulate(cfg: RunConfig, out_dir) -> int:
    """Run one simulation; write trajectory.csv and audit.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        model, spec, records = _run(cfg)
    except ConfigError:
        raise
    except NscontactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    n = model.n
    header = (["step", "t"] + [f"q_{i}" for i in range(n)] + [f"v_{i}" for i in range(n)]
              + ["E", "H", "W_ext_cum", "W_damp_cum", "contact_work", "residual",
                 "active_set", "penetration"])

    def trajectory_rows():
        w_ext_cum = 0.0
        w_damp_cum = 0.0
        for rec in records:
            rep = rec.report
            w_ext_cum += rep.W_ext
            w_damp_cum += rep.W_damping
            s = rec.state_next
            yield (rec.step_index + 1, s.t, *s.q.tolist(), *s.v.tolist(),
                   rep.E, rep.H_alg, w_ext_cum, w_damp_cum, rep.W_contact_step,
                   rep.identity_residual, ";".join(str(a) for a in rec.active_set),
                   rec.penetration)

    _write_csv(out / "trajectory.csv", header,
               "%d" + ",%.17g" * (2 * n + 7) + ",%s,%.17g\n", trajectory_rows())

    tol = cfg.residual_tol()
    ok = [rec.report.identity_ok(tol) for rec in records]

    def audit_rows():
        for rec, good in zip(records, ok):
            rep = rec.report
            yield (rec.step_index + 1, rec.state_next.t, rep.identity_residual,
                   rep.residual_scale, rep.energy_gain, _flag(rep.condition_satisfied),
                   _flag(rep.condition_satisfied_max_e), _flag(rep.dissipation_satisfied),
                   _flag(good))

    _write_csv(out / "audit.csv",
               ["step", "t", "identity_residual", "residual_scale", "energy_gain",
                "condition_satisfied", "condition_satisfied_max_e",
                "dissipation_satisfied", "identity_ok"],
               "%d,%.17g,%.17g,%.17g,%.17g,%s,%s,%s,%s\n", audit_rows())
    violations = ok.count(False)

    if cfg.audit and violations:
        print(f"audit: {violations} step(s) violate the identity residual tolerance",
              file=sys.stderr)
        return 2
    return 0


def _parse_grid(grid: str) -> list[tuple[str, list[float]]]:
    axes = []
    for chunk in grid.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"grid axis needs 'name=values', got '{chunk}'")
        name, values = (part.strip() for part in chunk.split("=", 1))
        if name not in _GRID_AXES:
            raise ConfigError(f"unknown grid axis '{name}' (expected one of {_GRID_AXES})")
        if ":" in values:
            pieces = values.split(":")
            if len(pieces) != 3:
                raise ConfigError(f"range axis is start:stop:count, got '{values}'")
            start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
            if count < 1:
                raise ConfigError("range axis count must be at least 1")
            axes.append((name, [float(x) for x in np.linspace(start, stop, count)]))
        else:
            axes.append((name, [float(x) for x in values.split(",")]))
    if not 1 <= len(axes) <= 2:
        raise ConfigError("sweep grids use one or two axes")
    return axes


def _apply_axis(cfg: RunConfig, name: str, value: float) -> RunConfig:
    new = replace(cfg, scenario_params=dict(cfg.scenario_params),
                  scheme_params=dict(cfg.scheme_params))
    if name == "e":
        new.scenario_params["restitution"] = value
    elif name == "rho_infinity":
        new.scheme_params.pop("alpha_m", None)
        new.scheme_params.pop("alpha_f", None)
        new.scheme_params[name] = value
    else:
        new.scheme_params[name] = value
    return new


def cmd_sweep(cfg: RunConfig, grid: str, out_dir) -> int:
    """Run the config over a 1- or 2-axis parameter grid; write sweep.csv.

    Grid points run sequentially and rows are written in grid order, so
    the output is deterministic.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        axes = _parse_grid(grid)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    names = [name for name, _ in axes]
    points = [(v,) for v in axes[0][1]]
    if len(axes) == 2:
        points = [(v1, v2) for v1 in axes[0][1] for v2 in axes[1][1]]

    tol = cfg.residual_tol()
    rows = []
    violations = 0
    for point in points:
        point_cfg = cfg
        for name, value in zip(names, point):
            point_cfg = _apply_axis(point_cfg, name, value)
        try:
            model, spec, records = _run(point_cfg)
        except ConfigError:
            raise
        except NscontactError as exc:
            print(f"error at {dict(zip(names, point))}: {exc}", file=sys.stderr)
            return 1
        reports = [rec.report for rec in records]
        n_steps = max(len(reports), 1)
        frac = sum(rep.dissipation_satisfied for rep in reports) / n_steps
        # np.max keeps a NaN gain; initial=0.0 clamps at zero and + 0.0
        # writes an all-zero maximum as 0, not -0
        max_gain = np.max([rep.energy_gain for rep in reports], initial=0.0) + 0.0
        condition = reports[0].condition_satisfied if reports else True
        violations += sum(not rep.identity_ok(tol) for rep in reports)
        rows.append((*point, _flag(condition), frac, max_gain))
    _write_csv(out / "sweep.csv",
               names + ["condition_satisfied", "dissipation_fraction",
                        "max_energy_gain"],
               "%.17g," * len(names) + "%s,%.17g,%.17g\n", rows)
    if cfg.audit and violations:
        print(f"audit: {violations} step(s) violate the identity residual tolerance",
              file=sys.stderr)
        return 2
    return 0


def cmd_convergence(cfg: RunConfig, h_values: list[float], out_dir) -> int:
    """Measure global error against the closed-form reference; fit the order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if len(h_values) < 3:
        print("error: convergence studies need at least 3 step sizes", file=sys.stderr)
        return 3
    errors = []
    scenario = cfg.scenario_spec()
    for h in h_values:
        run_cfg = replace(cfg, h=h)
        try:
            model, spec, records = _run(run_cfg)
            if not records:
                raise InvalidSpec("empty trajectory; t_end too small for this h")
            if scenario.kind != "bouncing_ball" and any(r.active_set for r in records):
                # only the fully elastic ball reference survives contact
                raise NotAvailable("the contact activated; the closed-form "
                                   "reference is only valid while it stays open")
            final = records[-1].state_next
            q_ref, v_ref = reference_solution(scenario, final.t)
        except ConfigError:
            raise
        except NscontactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        err = math.sqrt(float(np.sum((final.q - q_ref) ** 2))
                        + float(np.sum((final.v - v_ref) ** 2)))
        errors.append(err)
    order = float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])
    _write_csv(out / "convergence.csv", ["h", "error", "fitted_order"], "%.17g,%.17g,%.17g\n",
               ((h, err, order) for h, err in zip(h_values, errors)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nscontact",
        description="Contact time-stepping runs with per-step energy audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one config, write trajectory + audit CSVs")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument("--audit", action="store_true",
                       help="arm exit code 2 on identity-residual violations")

    p_sweep = sub.add_parser("sweep", help="run a 1- or 2-axis parameter grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", required=True,
                         help="e.g. 'theta=0.5:1.0:6;e=0,0.5,1'")
    p_sweep.add_argument("--out", default=".", help="output directory")

    p_conv = sub.add_parser("convergence", help="error-vs-h study against a reference")
    p_conv.add_argument("config")
    p_conv.add_argument("--h", required=True, dest="h_list",
                        help="comma-separated step sizes, e.g. '1e-2,5e-3,2.5e-3'")
    p_conv.add_argument("--out", default=".", help="output directory")

    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    try:
        if args.command == "simulate":
            cfg.audit = cfg.audit or args.audit
            return cmd_simulate(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.grid, args.out)
        h_values = [float(x) for x in args.h_list.split(",") if x.strip()]
        return cmd_convergence(cfg, h_values, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
