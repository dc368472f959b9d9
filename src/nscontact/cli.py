"""Batch front end: simulate, parameter sweeps, convergence studies.

Configs are flat ``key = value`` files with dotted keys (``scenario.*``,
``scheme.*``, ``run.*``): trivially parseable, diff-friendly.  Outputs
are CSV with 17 significant digits so residual-level comparisons
survive a round trip.  ``run.tol`` is the one identity-residual
tolerance.  Exit codes: 0 success, 1 solver/run failure, 2 a step
violates the identity residual tolerance, 3 config or command-line
usage error.  The commands return their per-step ``identity_ok`` flags
and raise on failure; ``main`` alone maps an outcome to an exit code
and a stderr line.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .csvtext import BlockText
from .energy import DEFAULT_AUDIT_TOL
from .errors import ConfigError, InvalidInput, NotAvailable, NscontactError
from .integrators import simulate
from .model import THETA_FAMILY, SchemeSpec, SchemeVariant
from .scenarios import ScenarioSpec, build_scenario, reference_solution

_RUN_KEYS = {"h", "t_end", "tol"}
_GRID_AXES = ("theta", "gamma", "beta", "alpha", "rho_infinity", "e")
_BLOCK_CELLS = 8192     # fields per written block: 19 rows of a 200-mass trajectory


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
    tol: float = DEFAULT_AUDIT_TOL

    def scenario_spec(self) -> ScenarioSpec:
        return ScenarioSpec(self.scenario_kind, dict(self.scenario_params))

    def scheme_spec(self) -> SchemeSpec:
        return _build_scheme(self.scheme_params)


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
_SCHEME_KEYS = set().union(*_VARIANT_KEYS.values(), {"variant", "beta_rule"})


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
        ConfigError: unreadable file, malformed line, unknown, repeated
            or ill-typed key (diagnostics carry the line number), or an
            unknown scenario kind or parameter.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    cfg = RunConfig(scenario_kind="")
    first_line = {}
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
                raise ConfigError(f"unknown run key '{key}'", line=lineno)
            number = _number(value, key, lineno)
            if name == "tol" and number < 0.0:
                raise ConfigError(f"{key} must be nonnegative, got '{value}'", line=lineno)
            setattr(cfg, name, number)
        else:
            raise ConfigError(f"unknown section '{section}'", line=lineno)
        # a line is checked on its own first, then against the earlier ones
        if key in first_line:
            raise ConfigError(f"'{key}' is given twice (first on line {first_line[key]})",
                              line=lineno)
        first_line[key] = lineno

    if "scenario.kind" not in first_line:
        raise ConfigError("scenario.kind is required")
    try:
        cfg.scenario_spec().resolved()
    except InvalidInput as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.t_end <= 0.0:
        raise ConfigError("run.t_end must be positive")
    _step_size(cfg.h, "run.h", cfg.t_end)
    return cfg


def _number(value: str, key: str, lineno: int | None = None) -> float:
    """``value`` as a finite float: the one rule for every number the CLI reads."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{key} expects a finite number, got '{value}'", line=lineno)
    return number


def _step_size(h: float, key: str, t_end: float) -> float:
    """``h`` if 0 < h <= t_end, so a run takes at least one step, and
    t_end - h != t_end, so the time grid can tell its points apart."""
    if not (0.0 < h <= t_end and t_end - h != t_end):
        raise ConfigError(f"{key} must satisfy 0 < h <= run.t_end = {t_end!r} with "
                          f"t_end - h != t_end, got {h!r}")
    return h


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _run(cfg: RunConfig):
    model, state = build_scenario(cfg.scenario_spec())
    records = simulate(model, state, cfg.h, cfg.scheme_spec(), cfg.t_end, audit=True,
                       audit_tol=cfg.tol)
    return model, records


@contextmanager
def _labelled(label):
    """Scope of one run of a sweep or study: an error raised in it is
    re-raised carrying ``label``, which ``main`` prints for a run failure."""
    try:
        yield
    except NscontactError as exc:
        exc.label = label
        raise


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header, then the rows as they are produced, in blocks of
    about ``_BLOCK_CELLS`` fields.

    A row is a tuple of fields: a str, written as it is; a number; or a
    1-D float array, one field per entry, one per header name in all.
    Every number is written as exactly its ``"%.17g" % x`` text, the
    same as ``format(x, ".17g")`` (an int below 2^53 reads as its ``%d``
    text); ``csvtext`` gets it from one numpy pass and one ``%`` call of
    ints per block.  Blocks bound the memory a wide row takes and spread
    the pass's fixed cost over many narrow rows.
    """
    text = BlockText()
    rows = iter(rows)
    block_rows = max(1, _BLOCK_CELLS // len(header))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(itertools.islice(rows, block_rows)):
            fh.write(text(block))


def cmd_simulate(cfg: RunConfig, out: Path) -> list[bool]:
    """Run one simulation; write trajectory.csv and audit.csv."""
    model, records = _run(cfg)

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
            yield (rec.step_index + 1, s.t, s.q, s.v,
                   rep.E, rep.H_alg, w_ext_cum, w_damp_cum, rep.W_contact_step,
                   rep.identity_residual, ";".join(str(a) for a in rec.active_set),
                   rec.penetration)

    _write_csv(out / "trajectory.csv", header, trajectory_rows())

    ok = [rec.report.identity_ok(cfg.tol) for rec in records]

    def audit_rows():
        for rec, good in zip(records, ok):
            rep = rec.report
            yield (rec.step_index + 1, rec.state_next.t, rep.identity_residual,
                   rep.residual_scale, rep.energy_gain, _flag(rep.condition_satisfied),
                   _flag(rep.dissipation_satisfied), _flag(good))

    _write_csv(out / "audit.csv",
               ["step", "t", "identity_residual", "residual_scale", "energy_gain",
                "condition_satisfied", "dissipation_satisfied", "identity_ok"],
               audit_rows())
    return ok


def _parse_grid(grid: str) -> dict[str, list[float]]:
    axes = {}
    for chunk in grid.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"grid axis needs 'name=values', got '{chunk}'")
        name, values = (part.strip() for part in chunk.split("=", 1))
        if name not in _GRID_AXES:
            raise ConfigError(f"unknown grid axis '{name}' (expected one of {_GRID_AXES})")
        if name in axes:
            raise ConfigError(f"grid axis '{name}' is given twice")
        key = f"grid axis '{name}'"
        if ":" in values:
            pieces = values.split(":")
            if len(pieces) != 3:
                raise ConfigError(f"range axis is start:stop:count, got '{values}'")
            start, stop = (_number(x, key) for x in pieces[:2])
            try:
                count = int(pieces[2])
            except ValueError:
                count = 0
            if count < 1:
                raise ConfigError(f"range axis '{name}' count must be an integer of at "
                                  f"least 1, got '{pieces[2]}'")
            axes[name] = [float(x) for x in np.linspace(start, stop, count)]
        else:
            axes[name] = [_number(x, key) for x in values.split(",")]
    if not 1 <= len(axes) <= 2:
        raise ConfigError("sweep grids use one or two axes")
    return axes


def _grid_point(cfg: RunConfig, point: dict[str, float]) -> RunConfig:
    """``cfg`` with one grid point's values; axis ``e`` is the scenario restitution."""
    scenario, scheme = dict(cfg.scenario_params), dict(cfg.scheme_params)
    for name, value in point.items():
        if name == "e":
            scenario["restitution"] = value
            continue
        if name == "rho_infinity":
            scheme.pop("alpha_m", None)
            scheme.pop("alpha_f", None)
        scheme[name] = value
    return replace(cfg, scenario_params=scenario, scheme_params=scheme)


def cmd_sweep(cfg: RunConfig, grid: str, out: Path) -> list[bool]:
    """Run the config over a 1- or 2-axis parameter grid; write sweep.csv.

    Grid points run sequentially and rows are written in grid order, so
    the output is deterministic.
    """
    axes = _parse_grid(grid)
    points = [dict(zip(axes, values)) for values in itertools.product(*axes.values())]
    rows = []
    ok = []
    for point in points:
        with _labelled(point):
            _, records = _run(_grid_point(cfg, point))
        reports = [rec.report for rec in records]
        frac = sum(rep.dissipation_satisfied for rep in reports) / len(reports)
        # np.max keeps a NaN gain; initial=0.0 clamps at zero and + 0.0
        # writes an all-zero maximum as 0, not -0
        max_gain = np.max([rep.energy_gain for rep in reports], initial=0.0) + 0.0
        condition = reports[0].condition_satisfied
        ok += [rep.identity_ok(cfg.tol) for rep in reports]
        rows.append((*point.values(), _flag(condition), frac, max_gain))
    _write_csv(out / "sweep.csv",
               [*axes, "condition_satisfied", "dissipation_fraction", "max_energy_gain"], rows)
    return ok


def cmd_convergence(cfg: RunConfig, h_list: str, out: Path) -> list[bool]:
    """Measure global error against the closed-form reference; fit the order."""
    h_values = [_step_size(_number(x, "--h"), "--h", cfg.t_end)
                for x in h_list.split(",") if x.strip()]
    if len(h_values) < 3:
        raise ConfigError("convergence studies need at least 3 step sizes")
    errors = []
    ok = []
    scenario = cfg.scenario_spec()
    # whether a closed form exists depends on the parameters only, not on t
    reference_solution(scenario, 0.0)
    for h in h_values:
        with _labelled({"h": h}):
            _, records = _run(replace(cfg, h=h))
            if scenario.kind != "bouncing_ball" and any(r.active_set for r in records):
                # only the fully elastic ball reference survives contact
                raise NotAvailable("the contact activated; the closed-form "
                                   "reference is only valid while it stays open")
        final = records[-1].state_next
        q_ref, v_ref = reference_solution(scenario, final.t)
        err = math.sqrt(float(np.sum((final.q - q_ref) ** 2))
                        + float(np.sum((final.v - v_ref) ** 2)))
        errors.append(err)
        ok += [rec.report.identity_ok(cfg.tol) for rec in records]
    order = float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])
    _write_csv(out / "convergence.csv", ["h", "error", "fitted_order"],
               ((h, err, order) for h, err in zip(h_values, errors)))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nscontact",
        description="Contact time-stepping runs with per-step energy audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one config, write trajectory + audit CSVs")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=".", help="output directory")

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

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage line to stderr, or the help to
        # stdout for --help (code 0); a usage error is not an identity violation
        return 3 if exc.code else 0
    try:
        cfg = parse_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            identity_ok = cmd_simulate(cfg, out)
        elif args.command == "sweep":
            identity_ok = cmd_sweep(cfg, args.grid, out)
        else:
            identity_ok = cmd_convergence(cfg, args.h_list, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except NscontactError as exc:
        where = f" at {exc.label}" if hasattr(exc, "label") else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # reading the config is a config error; this is the output side
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1

    violations = identity_ok.count(False)
    if violations:
        print(f"audit: {violations} step(s) violate the identity residual tolerance",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
