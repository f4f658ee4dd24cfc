"""Configuration-driven experiment runner and file emission.

Config files are flat ``key = value`` text with dotted section prefixes
(``domain.kind``, ``params.epsilon``, ...).  Outputs are deterministic for
a fixed config and seed: time series as CSV with a pinned column order,
field snapshots as raw little-endian dumps behind an 8-byte magic string,
and a human-readable summary whose every asserted property names the
structural fact it tests, its tolerance and the measured value.
"""

import argparse
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import geometry as geo
from . import flow as fl
from . import barriers as ba
from . import verify as vf
from . import liouville as lv
from .expressions import parse_expression, ExpressionError
from .operator import FlowParams, OperatorError, BlowUpError

SNAPSHOT_MAGIC = b"MCFGRID1"
CSV_HEADER = "t,sup_u,sup_grad,sup_ut,J,diss,src,resid"
EXPERIMENTS = ("flow", "steady", "continuation", "barrier", "comparison",
               "viscosity", "liouville")
CONFIG_KEYS = frozenset((
    "experiment",
    "domain.kind", "domain.dim", "domain.center", "domain.radius", "domain.semi_major",
    "domain.semi_minor", "domain.half_width", "domain.straight_half_length",
    "domain.corner_radius",
    "data.boundary", "data.initial",
    "params.epsilon", "params.nu", "params.cfl_factor", "params.dt_override",
    "grid.spacing",
    "run.horizon", "run.snapshot_times", "run.tolerance", "run.eps_list", "run.seed",
    "run.pairs", "run.probe_budget", "run.out_dir",
    "liouville.plateau_start", "liouville.plateau_value", "liouville.plateau_margin",
))


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass
class RunConfig:
    experiment: str
    domain: geo.DomainSpec
    boundary_expr: object
    initial_expr: object
    problem: fl.IBVP           # built once from domain and data, compatibility checked
    params: FlowParams
    spacing: float
    horizon: float = 1.0
    snapshot_times: tuple = ()
    tolerance: float = 1e-6
    eps_list: tuple = ()
    seed: int = 0
    pairs: int = 20
    probe_budget: int = 2000
    plateau_start: float = 0.25
    plateau_value: float = 1.0
    plateau_margin: float = 0.125
    out_dir: Path = Path(".")
    raw: dict = dc_field(default_factory=dict)


@dataclass
class PropertyCheck:
    name: str
    anchor: str            # which structural fact of the flow this audits
    tolerance: float
    measured: float
    passed: bool


@dataclass
class RunSummary:
    experiment: str
    properties: list
    scalars: dict
    manifest: list

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.properties)


def _parse_kv(path) -> dict:
    raw = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, val = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = val
    return raw


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split())


def _value(raw: dict, key: str, default=None, convert=float):
    """``convert`` of the value of ``key``, or of ``default`` when the key is absent.

    A required key (no default) that is absent raises KeyError; a value that
    does not convert is a ConfigError naming its key.
    """
    text = raw[key] if default is None else raw.get(key, default)
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"invalid {key}: {exc}") from None


def _domain_from(raw: dict) -> geo.DomainSpec:
    kind = raw.get("domain.kind")
    if kind is None:
        raise ConfigError("missing field domain.kind")
    dim = _value(raw, "domain.dim", "2", int)
    center = _value(raw, "domain.center", "", _floats) or (0.0,) * dim
    try:
        if kind == "ball":
            return geo.ball(_value(raw, "domain.radius"), center, dim)
        if kind == "ellipse":
            return geo.ellipse(_value(raw, "domain.semi_major"),
                               _value(raw, "domain.semi_minor"), center, dim)
        if kind == "smoothed-stadium":
            return geo.smoothed_stadium(_value(raw, "domain.half_width"),
                                        _value(raw, "domain.straight_half_length"),
                                        _value(raw, "domain.corner_radius"), center, dim)
    except KeyError as exc:
        raise ConfigError(f"missing field {exc.args[0]} for domain.kind={kind}") from None
    except geo.GeometryError as exc:
        raise ConfigError(f"invalid domain: {exc}") from None
    raise ConfigError(f"unknown domain.kind {kind!r}")


def load_config(path, out_dir=None) -> RunConfig:
    """Parse and fully validate a run configuration.

    Keys outside CONFIG_KEYS are rejected with their line, a value that
    does not convert (a number, a list, an expression) is rejected with its
    key, expressions are smoke-tested at 10 random domain points, the
    smoothing parameter must lie in (0, 1), grid.spacing must pass the grid
    build's admissibility check, run.horizon and run.tolerance must be
    positive, run.pairs must be at least 1, a given run.eps_list must pass
    flow.check_eps_list, and boundary/initial data must agree on the
    boundary (``IBVP`` checks it; the max mismatch is reported on rejection).
    """
    raw = _parse_kv(path)
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    domain = _domain_from(raw)

    boundary = _value(raw, "data.boundary", "0", parse_expression)
    initial = _value(raw, "data.initial", raw.get("data.boundary", "0"), parse_expression)

    rng = np.random.default_rng(12345)
    probe = rng.uniform(-1.0, 1.0, (10, domain.dim)) * np.min(domain.half_extents) \
        + np.asarray(domain.center)
    for name, expr in (("data.boundary", boundary), ("data.initial", initial)):
        try:
            with np.errstate(all="ignore"):     # a non-finite value is reported below
                vals = expr(probe)
        except ExpressionError as exc:
            raise ConfigError(f"invalid {name}: {exc}") from None
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"invalid {name}: evaluates non-finite at sample points")

    try:
        params = FlowParams(
            epsilon=_value(raw, "params.epsilon", "0.05"),
            nu=_value(raw, "params.nu", "0"),
            cfl_factor=_value(raw, "params.cfl_factor", "0.25"),
            dt_override=_value(raw, "params.dt_override") if "params.dt_override" in raw else None,
        )
    except OperatorError as exc:
        raise ConfigError(f"invalid params: {exc}") from None

    spacing = _value(raw, "grid.spacing", "0.03125")
    try:
        geo.check_spacing(domain, spacing)
    except geo.CoarseGridError as exc:
        raise ConfigError(f"invalid grid.spacing: {exc}") from None
    horizon = _value(raw, "run.horizon", "1.0")
    if not horizon > 0:
        raise ConfigError(f"run.horizon must be positive, got {horizon}")
    pairs = _value(raw, "run.pairs", "20", int)
    if pairs < 1:
        raise ConfigError(f"run.pairs must be at least 1, got {pairs}")
    probe_budget = _value(raw, "run.probe_budget", "2000", int)
    if probe_budget < 1:
        raise ConfigError(f"run.probe_budget must be at least 1, got {probe_budget}")
    tolerance = _value(raw, "run.tolerance", "1e-6")
    if not tolerance > 0:
        raise ConfigError(f"run.tolerance must be positive, got {tolerance}")
    eps_list = _value(raw, "run.eps_list", "", _floats)
    if "run.eps_list" in raw:
        try:
            fl.check_eps_list(eps_list)
        except ValueError as exc:
            raise ConfigError(f"invalid run.eps_list: {exc}") from None

    try:
        problem = fl.IBVP(domain, boundary, initial)
    except fl.IncompatibleDataError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(
        experiment=experiment, domain=domain, boundary_expr=boundary,
        initial_expr=initial, problem=problem, params=params,
        spacing=spacing, horizon=horizon,
        snapshot_times=_value(raw, "run.snapshot_times", "", _floats),
        tolerance=tolerance, eps_list=eps_list,
        seed=_value(raw, "run.seed", "0", int),
        pairs=pairs,
        probe_budget=probe_budget,
        plateau_start=_value(raw, "liouville.plateau_start", "0.25"),
        plateau_value=_value(raw, "liouville.plateau_value", "1.0"),
        plateau_margin=_value(raw, "liouville.plateau_margin", "0.125"),
        out_dir=Path(out_dir) if out_dir else Path(raw.get("run.out_dir", ".")),
        raw=raw,
    )


# -- output writers ---------------------------------------------------------

def write_snapshot(path, grid: geo.Grid, values: np.ndarray) -> int:
    """Raw field dump: magic, dimension count, axis counts, box corners, values.

    Counts are little-endian uint32, corners and node values little-endian
    float64, values in row-major node order.  Returns the byte count.
    """
    lo = np.asarray(grid.origin, dtype="<f8")
    hi = lo + (np.asarray(grid.shape) - 1) * grid.spacing
    blob = (SNAPSHOT_MAGIC
            + np.asarray([grid.dim], dtype="<u4").tobytes()
            + np.asarray(grid.shape, dtype="<u4").tobytes()
            + lo.tobytes() + np.asarray(hi, dtype="<f8").tobytes()
            + np.ascontiguousarray(values, dtype="<f8").tobytes())
    Path(path).write_bytes(blob)
    return len(blob)


def read_snapshot(path):
    """Inverse of write_snapshot: returns (shape, lo_corner, hi_corner, values)."""
    blob = Path(path).read_bytes()
    if blob[:8] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:8]!r}")
    off = 8
    ndim = int(np.frombuffer(blob, "<u4", 1, off)[0])
    off += 4
    shape = tuple(int(c) for c in np.frombuffer(blob, "<u4", ndim, off))
    off += 4 * ndim
    lo = np.frombuffer(blob, "<f8", ndim, off).copy()
    off += 8 * ndim
    hi = np.frombuffer(blob, "<f8", ndim, off).copy()
    off += 8 * ndim
    values = np.frombuffer(blob, "<f8", int(np.prod(shape)), off).reshape(shape).copy()
    return shape, lo, hi, values


def write_series_csv(path, report: fl.FlowReport, params: FlowParams) -> None:
    """Time series in the pinned column order t,sup_u,sup_grad,sup_ut,J,diss,src,resid."""
    trace = vf.energy_series(report, params)
    rows = [CSV_HEADER]
    for i in range(len(report.t)):
        cells = [report.t[i], report.sup_u[i], report.sup_grad[i], report.sup_ut[i],
                 report.energy[i], report.dissipation[i], report.source[i],
                 trace.residual[i]]
        rows.append(",".join(f"{c:.17g}" for c in cells))
    Path(path).write_text("\n".join(rows) + "\n")


def write_summary(path, summary: RunSummary) -> None:
    lines = [f"experiment: {summary.experiment}",
             f"all_passed: {summary.all_passed}"]
    for p in summary.properties:
        lines.append(f"property {p.name}: {'pass' if p.passed else 'FAIL'} "
                     f"(audits: {p.anchor}; tolerance: {p.tolerance:.6g}; "
                     f"measured: {p.measured:.6g})")
    for k in sorted(summary.scalars):
        lines.append(f"{k}: {summary.scalars[k]:.10g}")
    for m in summary.manifest:
        lines.append(f"file: {m}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_flow(out: Path, report: fl.FlowReport, grid: geo.Grid,
                params: FlowParams) -> list:
    """Emit the series and the snapshots of one flow run; returns their paths."""
    files = [out / "series.csv"]
    write_series_csv(files[0], report, params)
    for step, _t, values in report.snapshots:
        files.append(out / f"snapshot_{step:08d}.mcfgrid")
        write_snapshot(files[-1], grid, values)
    return files


# -- experiment runners -------------------------------------------------------
#
# Each runner computes one experiment on the grid ``run`` built and writes its
# own data files into ``out``; it returns (checks, scalars, files, warnings).

def _run_flow(cfg: RunConfig, grid: geo.Grid, out: Path):
    problem = cfg.problem
    report = fl.solve_ibvp(problem, grid, cfg.params, cfg.horizon, cfg.snapshot_times)
    checks = []
    h = grid.spacing
    b0 = vf.ut_initial_slice_bound(problem, grid, cfg.params)
    checks.append(PropertyCheck(
        "rate-ceiling", "time-derivative bound from the initial slice",
        b0 + 10 * h, float(report.sup_ut.max()), bool(report.sup_ut.max() <= b0 + 10 * h)))
    if cfg.params.nu == 0.0:
        inside_pts = grid.points[grid.inside]
        bpts = geo.boundary_points(cfg.domain, 512)
        data_max = max(float(np.max(cfg.initial_expr(inside_pts))),
                       float(np.max(cfg.boundary_expr(bpts))))
        data_min = min(float(np.min(cfg.initial_expr(inside_pts))),
                       float(np.min(cfg.boundary_expr(bpts))))
        over = max(float(report.max_u.max()) - data_max,
                   data_min - float(report.min_u.min()), 0.0)
        checks.append(PropertyCheck(
            "max-principle", "solution stays inside the data range", 1e-8,
            over, over <= 1e-8))
    else:
        bound = ba.sup_norm_bound(problem, grid, cfg.params)
        checks.append(PropertyCheck(
            "max-norm-bound", "steady comparison field dominates the flow",
            bound.value, float(report.sup_u.max()),
            bool(report.sup_u.max() <= bound.value) and bound.available))
    trace = vf.energy_series(report, cfg.params)
    scalars = {
        "steps": report.steps, "dt": report.dt,
        "max_energy_residual": trace.max_interior_residual,
        "sup_u": float(report.sup_u.max()), "sup_grad": float(report.sup_grad.max()),
        "aborted": float(bool(report.aborted)),
    }
    return checks, scalars, _write_flow(out, report, grid, cfg.params), report.warnings


def _run_steady(cfg: RunConfig, grid: geo.Grid, out: Path):
    res = fl.relax_to_steady(cfg.problem, grid, cfg.params, cfg.tolerance)
    snaps, times = vf.replicate_steady(res.state.values)
    n_sub = len(vf.viscosity_spot_check(snaps, times, grid, cfg.params, "sub",
                                        cfg.probe_budget))
    n_super = len(vf.viscosity_spot_check(snaps, times, grid, cfg.params, "super",
                                          cfg.probe_budget))
    checks = [
        PropertyCheck("steady-residual", "relaxation reaches the steady equation",
                      cfg.tolerance, res.residual, res.converged),
        PropertyCheck("steady-viscosity-clean",
                      "steady field passes both one-sided differential checks",
                      0.0, float(n_sub + n_super), n_sub + n_super == 0),
    ]
    snap_path = out / f"steady_{res.steps:08d}.mcfgrid"
    write_snapshot(snap_path, grid, res.state.values)
    return (checks, {"steps": res.steps, "residual": res.residual}, [snap_path],
            res.warnings)


def _run_continuation(cfg: RunConfig, grid: geo.Grid, out: Path):
    eps_list = cfg.eps_list or (0.2, 0.1, 0.05)
    table = fl.epsilon_continuation(cfg.problem, grid, cfg.params, eps_list, cfg.horizon)
    checks = [PropertyCheck("continuation-cauchy",
                            "terminal fields tighten as the smoothing vanishes",
                            0.0, float(table.sup_diffs[-1]), table.monotone_decreasing)]
    scalars = {f"diff_{i}": d for i, d in enumerate(table.sup_diffs)}
    return checks, scalars, [], table.warnings


def _run_barrier(cfg: RunConfig, grid: geo.Grid, out: Path):
    h = grid.spacing
    upper = ba.build_upper_barrier(cfg.domain, grid, cfg.boundary_expr,
                                   cfg.initial_expr, cfg.params)
    # the bound depends on |data| and on {nu, -nu}: the mirrored problem shares it
    lower = ba.build_lower_barrier(cfg.domain, grid, cfg.boundary_expr, cfg.initial_expr,
                                   cfg.params, sup_u_bound=upper.sup_u_bound)
    r_up = ba.barrier_supersolution_residual(upper, cfg.domain, grid,
                                             cfg.boundary_expr, cfg.params)
    r_lo = ba.barrier_supersolution_residual(lower, cfg.domain, grid,
                                             cfg.boundary_expr, cfg.params)
    report = fl.solve_ibvp(cfg.problem, grid, cfg.params, cfg.horizon,
                           snapshot_times=np.linspace(0, cfg.horizon, 9))
    worst = -np.inf
    hvals = np.full(grid.shape, np.nan)
    hvals[grid.inside] = cfg.boundary_expr(grid.points[grid.inside])
    for _s, _t, values in report.snapshots:
        gap = (values - hvals - upper.psi)[upper.collar]
        worst = max(worst, float(np.max(gap)))
    checks = [
        PropertyCheck("barrier-upper-certified", "distance barrier is a supersolution",
                      0.0, r_up, r_up >= 0.0),
        PropertyCheck("barrier-lower-certified", "mirrored barrier is a subsolution",
                      0.0, r_lo, r_lo >= 0.0),
        PropertyCheck("collar-domination", "flow stays under boundary data plus barrier",
                      10 * h, worst, worst <= 10 * h),
    ]
    scalars = {
        "upper_slope": upper.slope, "lower_slope": lower.slope,
        "collar_width": upper.collar_width, "data_lipschitz": upper.data_lipschitz,
    }
    return checks, scalars, _write_flow(out, report, grid, cfg.params), report.warnings


def _run_comparison(cfg: RunConfig, grid: geo.Grid, out: Path):
    lows, highs = zip(*(ba.random_ordered_pair(cfg.domain, cfg.seed + k)
                        for k in range(cfg.pairs)))
    worst = ba.comparison_experiment(lows, highs, grid, cfg.params, cfg.horizon).max_violation
    checks = [PropertyCheck("ordering-preserved", "ordered data evolve ordered",
                            1e-10, worst, worst <= 1e-10)]
    return checks, {"pairs": cfg.pairs, "max_violation": worst}, [], []


def _run_viscosity(cfg: RunConfig, grid: geo.Grid, out: Path):
    dt = cfg.horizon / 4
    times = (cfg.horizon - 2 * dt, cfg.horizon - dt, cfg.horizon)
    report = fl.solve_ibvp(cfg.problem, grid, cfg.params, cfg.horizon, snapshot_times=times)
    snaps = [s[2] for s in report.snapshots]
    stimes = [s[1] for s in report.snapshots]
    violations = []
    for mode in ("sub", "super"):
        violations += vf.viscosity_spot_check(snaps, stimes, grid, cfg.params, mode,
                                              cfg.probe_budget)
    vpath = out / "violations.csv"
    rows = ["t,location,branch,margin"]
    for v in violations:
        rows.append(f"{v.time:.17g},\"{v.index}\",{v.branch},{v.margin:.17g}")
    vpath.write_text("\n".join(rows) + "\n")
    checks = [PropertyCheck("viscosity-clean", "no one-sided differential violations",
                            10 * grid.spacing, float(len(violations)),
                            len(violations) == 0)]
    return checks, {"violations": float(len(violations))}, [vpath], report.warnings


def _run_liouville(cfg: RunConfig, grid: geo.Grid, out: Path):
    problem = lv.CylinderProblem(
        domain=cfg.domain, initial_data=cfg.initial_expr,
        plateau_start=cfg.plateau_start, plateau_value=cfg.plateau_value,
        plateau_margin=cfg.plateau_margin)
    report = lv.flatness_and_sandwich(problem, grid, cfg.params, cfg.horizon)
    bound = report.flatness_bound(cfg.params, grid.spacing, problem.data_lipschitz)
    env = report.envelopes
    upper_field = np.where(grid.inside, env.upper_value, np.nan)
    lower_field = np.where(grid.inside,
                           env.lower_profile(grid.points[..., -1].ravel()).reshape(grid.shape),
                           np.nan)
    snaps_u, times_u = vf.replicate_steady(upper_field)
    snaps_l, times_l = vf.replicate_steady(lower_field)
    n_super = len(vf.viscosity_spot_check(snaps_u, times_u, grid, cfg.params, "super",
                                          cfg.probe_budget))
    n_sub = len(vf.viscosity_spot_check(snaps_l, times_l, grid, cfg.params, "sub",
                                        cfg.probe_budget))
    checks = [
        PropertyCheck("flatness-bound", "plateau deviation under drift plus grid slack",
                      bound, report.sup_flatness, report.sup_flatness <= bound),
        PropertyCheck("envelope-upper-super", "upper envelope passes the super check",
                      0.0, float(n_super), n_super == 0),
        PropertyCheck("envelope-lower-sub", "lower envelope passes the sub check",
                      0.0, float(n_sub), n_sub == 0),
    ]
    cpath = out / "flatness.csv"
    rows = ["t,flatness,lower_violation,upper_violation"]
    for i in range(len(report.t)):
        rows.append(f"{report.t[i]:.17g},{report.flatness[i]:.17g},"
                    f"{report.lower_violation[i]:.17g},{report.upper_violation[i]:.17g}")
    cpath.write_text("\n".join(rows) + "\n")
    scalars = {
        "sup_flatness": report.sup_flatness, "bound": bound,
        "max_monotone_violation": float(report.monotone_violation.max()),
    }
    return checks, scalars, [cpath], []


_RUNNERS = {
    "flow": _run_flow,
    "steady": _run_steady,
    "continuation": _run_continuation,
    "barrier": _run_barrier,
    "comparison": _run_comparison,
    "viscosity": _run_viscosity,
    "liouville": _run_liouville,
}


def run(cfg: RunConfig) -> RunSummary:
    """Run one validated config: output directory, grid, experiment, warnings, summary."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = geo.build_grid(cfg.domain, cfg.spacing)
    checks, scalars, files, warnings = _RUNNERS[cfg.experiment](cfg, grid, out)
    for warning in warnings:
        print(f"[{cfg.experiment}] warning: {warning}", file=sys.stderr)
    summary_path = out / "summary.txt"
    summary = RunSummary(cfg.experiment, checks, scalars,
                         [str(f) for f in files + [summary_path]])
    write_summary(summary_path, summary)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcflow",
        description="Level-set curvature flow solver and estimate certifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", action="append", required=True,
                       help="config file (repeatable)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    args = parser.parse_args(argv)

    configs = []
    for i, path in enumerate(args.config):
        try:
            out = None
            if args.out:
                out = args.out if len(args.config) == 1 else str(Path(args.out) / f"run{i:03d}")
            cfg = load_config(path, out_dir=out)
        except (ConfigError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if cfg.experiment != args.command:
            print(f"error: config {path} declares experiment={cfg.experiment}, "
                  f"but the {args.command} subcommand was invoked", file=sys.stderr)
            return 2
        if args.seed is not None:
            cfg.seed = args.seed
        configs.append(cfg)

    ok = True
    for path, cfg in zip(args.config, configs):
        try:
            summary = run(cfg)
        except BlowUpError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            ok = False
            continue
        for p in summary.properties:
            status = "pass" if p.passed else "FAIL"
            print(f"[{summary.experiment}] {p.name}: {status} "
                  f"(measured {p.measured:.6g}, tolerance {p.tolerance:.6g})")
        ok &= summary.all_passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
