"""Configuration-driven experiment runner and file emission.

Config files are flat ``key = value`` text with dotted section prefixes
(``domain.kind``, ``params.epsilon``, ...).  Outputs are deterministic for
a fixed config and seed: time series as CSV with a pinned column order,
field snapshots as raw little-endian dumps behind an 8-byte magic string,
and a human-readable summary whose every asserted property names the
structural fact it tests, its tolerance and the measured value.
"""

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry as geo
from . import flow as fl
from . import barriers as ba
from . import verify as vf
from . import liouville as lv
from .expressions import parse_expression, ExpressionError
from .operator import (FlowParams, OperatorError, BlowUpError, boundary_values,
                       init_state, march, stable_dt, whole_steps)

SNAPSHOT_MAGIC = b"MCFGRID1"
CSV_HEADER = "t,sup_u,sup_grad,sup_ut,J,diss,src,resid"
CONFIG_KEYS = frozenset((
    "experiment",
    "domain.kind", "domain.dim", "domain.center", "domain.radius", "domain.semi_major",
    "domain.semi_minor", "domain.half_width", "domain.straight_half_length",
    "domain.corner_radius",
    "data.boundary", "data.initial",
    "params.epsilon", "params.nu", "params.dt_override",
    "grid.spacing",
    "run.horizon", "run.snapshot_times", "run.tolerance", "run.eps_list", "run.seed",
    "run.pairs", "run.probe_budget", "run.out_dir",
    "liouville.plateau_start", "liouville.plateau_value", "liouville.plateau_margin",
))

# the first 30 draws of np.random.default_rng(12345).uniform(-1, 1): the 10
# points of the expression smoke test are the first 10 * dim of them, written
# out so that loading a config imports no numpy.random
SMOKE_DRAWS = (
    -0.5453279550656607, -0.36648332058049427, 0.5947309146654682, 0.3525093415019491,
    -0.217780898796182, -0.33437214426723094, 0.19661750717437965, -0.6265316287925733,
    0.3455120880292426, 0.8836057305398743, -0.503508570740858, 0.8977623036666365,
    0.3344749062007448, -0.8082041288117758, -0.11632066766437443, 0.7729598386550354,
    0.3949069997640442, -0.3470542718597758, 0.467856326660133, -0.5597300889090275,
    -0.8368108609155838, -0.680208797849905, -0.3197996300905894, -0.06961369259589811,
    -0.46715794341845807, 0.6315528068496139, -0.613411221421011, -0.7410618476455995,
    -0.8166704969101282, 0.19713602732982638,
)


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
    horizon: float
    snapshot_times: tuple
    tolerance: float
    eps_list: tuple
    seed: int
    pairs: int
    probe_budget: int
    plateau_start: float
    plateau_value: float
    plateau_margin: float
    out_dir: Path


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


def _float(text: str) -> float:
    """The number text spells; ValueError unless it is finite."""
    if not np.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _floats(text: str) -> tuple:
    return tuple(_float(v) for v in text.split())


def _value(raw: dict, key: str, default=None, convert=_float):
    """``convert`` of the value of ``key``, or of ``default`` when the key is absent.

    A required key (no default) that is absent raises KeyError; a value that
    does not convert, or is a non-finite float, is a ConfigError naming its key.
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
    does not convert (a finite number, a list, an expression) is rejected
    with its key, expressions are smoke-tested at 10 fixed pseudo-random
    domain points (SMOKE_DRAWS), the smoothing parameter must lie in (0, 1),
    grid.spacing must pass the grid build's admissibility check, run.horizon
    and run.tolerance must be positive, run.snapshot_times must lie in
    [0, run.horizon], run.seed must be at least 0, run.pairs and
    run.probe_budget at least 1, a given run.eps_list must pass
    flow.check_eps_list, a comparison needs a ball,
    a liouville run a smoothed stadium, params.nu >= 0 and a plateau (its
    positive margin included) inside the straight section, and
    boundary/initial data must be finite and agree on the boundary (``IBVP``
    checks it; the first non-finite sample or the max mismatch is reported).
    """
    raw = _parse_kv(path)
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    domain = _domain_from(raw)

    boundary = _value(raw, "data.boundary", "0", parse_expression)
    initial = _value(raw, "data.initial", raw.get("data.boundary", "0"), parse_expression)

    probe = (np.array(SMOKE_DRAWS[:10 * domain.dim]).reshape(10, domain.dim)
             * np.min(domain.half_extents) + np.asarray(domain.center))
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
    snapshot_times = _value(raw, "run.snapshot_times", "", _floats)
    for t in snapshot_times:
        if not 0 <= t <= horizon:
            raise ConfigError(f"run.snapshot_times must lie in [0, run.horizon = {horizon}], "
                              f"got {t}")
    seed = _value(raw, "run.seed", "0", int)
    if seed < 0:
        raise ConfigError(f"run.seed must be at least 0, got {seed}")
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

    plateau_start = _value(raw, "liouville.plateau_start", "0.25")
    plateau_margin = _value(raw, "liouville.plateau_margin", "0.125")
    if experiment == "comparison" and domain.kind != "ball":
        raise ConfigError(f"comparison needs domain.kind = ball, got {domain.kind!r}")
    if experiment == "liouville":
        if domain.kind != "smoothed-stadium":
            raise ConfigError(f"liouville needs domain.kind = smoothed-stadium, "
                              f"got {domain.kind!r}")
        if params.nu < 0:
            raise ConfigError(f"liouville needs params.nu >= 0, got {params.nu}")
        if not plateau_margin > 0:
            raise ConfigError(f"liouville.plateau_margin must be positive, got {plateau_margin}")
        straight = domain.straight_half_length - domain.corner_radius
        if not plateau_start + plateau_margin <= straight:
            raise ConfigError(f"liouville.plateau_start + liouville.plateau_margin = "
                              f"{plateau_start + plateau_margin} leaves the straight section "
                              f"(|axial| <= {straight})")

    try:
        problem = fl.IBVP(domain, boundary, initial)
    except fl.IncompatibleDataError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(
        experiment=experiment, domain=domain, boundary_expr=boundary,
        initial_expr=initial, problem=problem, params=params,
        spacing=spacing, horizon=horizon,
        snapshot_times=snapshot_times,
        tolerance=tolerance, eps_list=eps_list,
        seed=seed,
        pairs=pairs,
        probe_budget=probe_budget,
        plateau_start=plateau_start,
        plateau_value=_value(raw, "liouville.plateau_value", "1.0"),
        plateau_margin=plateau_margin,
        out_dir=Path(out_dir) if out_dir else Path(raw.get("run.out_dir", ".")),
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


def write_series_csv(path, report: fl.FlowReport) -> None:
    """Time series in the pinned column order t,sup_u,sup_grad,sup_ut,J,diss,src,resid."""
    residual = vf.energy_series(report)
    rows = [CSV_HEADER]
    for i in range(len(report.t)):
        cells = [report.t[i], report.sup_u[i], report.sup_grad[i], report.sup_ut[i],
                 report.energy[i], report.dissipation[i], report.source[i],
                 residual[i]]
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


def _write_flow(out: Path, report: fl.FlowReport, grid: geo.Grid) -> list:
    """Emit the series and the snapshots of one flow run; returns their paths."""
    files = [out / "series.csv"]
    write_series_csv(files[0], report)
    for step, _t, values in report.snapshots:
        files.append(out / f"snapshot_{step:08d}.mcfgrid")
        write_snapshot(files[-1], grid, values)
    return files


# -- experiment runners -------------------------------------------------------
#
# Each runner computes one experiment on the grid ``run`` built and writes its
# own data files into ``out``; it returns (checks, scalars, files).

def _run_flow(cfg: RunConfig, grid: geo.Grid, out: Path):
    problem = cfg.problem
    report = fl.solve_ibvp(problem, grid, cfg.params, cfg.horizon, cfg.snapshot_times)
    checks = []
    h = grid.spacing
    b0 = float(report.sup_ut[0])     # the rate on the initial slice, the rate ceiling
    checks.append(PropertyCheck(
        "rate-ceiling", "time-derivative bound from the initial slice",
        b0 + 10 * h, float(report.sup_ut.max()), bool(report.sup_ut.max() <= b0 + 10 * h)))
    if cfg.params.nu == 0.0:
        data_min, data_max = fl.data_range(problem, grid)
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
    scalars = {
        "steps": report.steps, "dt": report.dt,
        "max_energy_residual": vf.max_settled_residual(report, report.t[0]),
        "sup_u": float(report.sup_u.max()), "sup_grad": float(report.sup_grad.max()),
        "aborted": float(bool(report.aborted)),
    }
    return checks, scalars, _write_flow(out, report, grid)


def _run_steady(cfg: RunConfig, grid: geo.Grid, out: Path):
    res = fl.relax_to_steady(cfg.problem, grid, cfg.params, cfg.tolerance)
    snaps, times = vf.replicate_steady(res.values)
    n_bad = len(vf.viscosity_spot_check(snaps, times, grid, cfg.params, cfg.probe_budget))
    checks = [
        PropertyCheck("steady-residual", "relaxation reaches the steady equation",
                      cfg.tolerance, res.residual, res.converged),
        PropertyCheck("steady-viscosity-clean",
                      "steady field passes both one-sided differential checks",
                      0.0, float(n_bad), n_bad == 0),
    ]
    snap_path = out / f"steady_{res.steps:08d}.mcfgrid"
    write_snapshot(snap_path, grid, res.values)
    return checks, {"steps": res.steps, "residual": res.residual}, [snap_path]


def _run_continuation(cfg: RunConfig, grid: geo.Grid, out: Path):
    eps_list = cfg.eps_list or (0.2, 0.1, 0.05)
    table = fl.epsilon_continuation(cfg.problem, grid, cfg.params, eps_list, cfg.horizon)
    checks = [PropertyCheck("continuation-cauchy",
                            "terminal fields tighten as the smoothing vanishes",
                            0.0, float(table.sup_diffs[-1]), table.monotone_decreasing)]
    scalars = {f"diff_{i}": d for i, d in enumerate(table.sup_diffs)}
    return checks, scalars, []


def _run_barrier(cfg: RunConfig, grid: geo.Grid, out: Path):
    h = grid.spacing
    upper, lower = ba.build_barriers(cfg.problem, grid, cfg.params)
    r_up, r_lo = upper.margin, lower.margin
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
    return checks, scalars, _write_flow(out, report, grid)


def _run_comparison(cfg: RunConfig, grid: geo.Grid, out: Path):
    lows, highs = zip(*(ba.random_ordered_pair(cfg.domain, cfg.seed + k)
                        for k in range(cfg.pairs)))
    worst = ba.comparison_experiment(lows, highs, grid, cfg.params, cfg.horizon).max_violation
    checks = [PropertyCheck("ordering-preserved", "ordered data evolve ordered",
                            1e-10, worst, worst <= 1e-10)]
    return checks, {"pairs": cfg.pairs, "max_violation": worst}, []


def _run_viscosity(cfg: RunConfig, grid: geo.Grid, out: Path):
    # the checker's time stencil reads three equally spaced snapshots: steps
    # n - 2m, n - m and n of the n-step march, m = n // 4
    dt = stable_dt(cfg.params, grid)
    n = whole_steps(cfg.horizon, dt)
    m = n // 4
    if m < 1:
        raise ConfigError(f"run.horizon = {cfg.horizon} gives {n} steps of dt = {dt:.6g}; "
                          f"the viscosity check needs at least 4")
    keep = (n - 2 * m, n - m, n)
    bvals = boundary_values(grid, cfg.problem.boundary_data)
    snaps, stimes = [], []
    for k, t, u, ws in march(init_state(grid, cfg.problem.initial_data, bvals), grid,
                             cfg.params, bvals, n):
        if k in keep:
            snaps.append(ws.box(u))
            stimes.append(t)
    violations = vf.viscosity_spot_check(snaps, stimes, grid, cfg.params, cfg.probe_budget)
    vpath = out / "violations.csv"
    rows = ["t,location,branch,margin"]
    for v in violations:
        rows.append(f"{v.time:.17g},\"{v.index}\",{v.branch},{v.margin:.17g}")
    vpath.write_text("\n".join(rows) + "\n")
    checks = [PropertyCheck("viscosity-clean", "no one-sided differential violations",
                            0.0, float(len(violations)), len(violations) == 0)]
    return checks, {"violations": float(len(violations))}, [vpath]


def _run_liouville(cfg: RunConfig, grid: geo.Grid, out: Path):
    problem = lv.CylinderProblem(
        domain=cfg.domain, initial_data=cfg.initial_expr,
        plateau_start=cfg.plateau_start, plateau_value=cfg.plateau_value,
        plateau_margin=cfg.plateau_margin)
    report = lv.flatness_and_sandwich(problem, grid, cfg.params, cfg.horizon)
    env = report.envelopes
    upper_field = np.where(grid.inside, env.upper_value, np.nan)
    lower_field = np.where(grid.inside,
                           env.lower_profile(grid.points[..., -1].ravel()).reshape(grid.shape),
                           np.nan)
    snaps_u, times_u = vf.replicate_steady(upper_field)
    snaps_l, times_l = vf.replicate_steady(lower_field)
    # each envelope certifies one side: super on the upper, sub on the lower
    n_super = sum(v.mode == "super" for v in vf.viscosity_spot_check(
        snaps_u, times_u, grid, cfg.params, cfg.probe_budget))
    n_sub = sum(v.mode == "sub" for v in vf.viscosity_spot_check(
        snaps_l, times_l, grid, cfg.params, cfg.probe_budget))
    checks = [
        PropertyCheck("flatness-bound", "plateau deviation under drift plus grid slack",
                      report.bound, report.sup_flatness,
                      report.sup_flatness <= report.bound),
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
        "sup_flatness": report.sup_flatness, "bound": report.bound,
        "max_monotone_violation": float(report.monotone_violation.max()),
    }
    return checks, scalars, [cpath]


_RUNNERS = {
    "flow": _run_flow,
    "steady": _run_steady,
    "continuation": _run_continuation,
    "barrier": _run_barrier,
    "comparison": _run_comparison,
    "viscosity": _run_viscosity,
    "liouville": _run_liouville,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(cfg: RunConfig) -> RunSummary:
    """Run one validated config: output directory, grid, experiment, warnings
    (printed once the experiment returns: a run that raises prints none), summary."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = geo.build_grid(cfg.domain, cfg.spacing)
    checks, scalars, files = _RUNNERS[cfg.experiment](cfg, grid, out)
    for warning in fl.collect_warnings(cfg.domain, grid, cfg.params):
        print(f"[{cfg.experiment}] warning: {warning}", file=sys.stderr)
    summary_path = out / "summary.txt"
    summary = RunSummary(cfg.experiment, checks, scalars,
                         [str(f) for f in files + [summary_path]])
    write_summary(summary_path, summary)
    return summary


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="mcflow",
        description="Level-set curvature flow solver and estimate certifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", action="append", required=True,
                       help="config file (repeatable)")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
        configs.append(cfg)

    rc = 0
    for path, cfg in zip(args.config, configs):
        try:
            summary = run(cfg)
        except (ConfigError, BlowUpError, ba.BarrierError, lv.EnvelopeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            # a ConfigError here is a config unfit for its grid: too few steps
            rc = max(rc, 2 if isinstance(exc, ConfigError) else 1)
            continue
        for p in summary.properties:
            status = "pass" if p.passed else "FAIL"
            print(f"[{summary.experiment}] {p.name}: {status} "
                  f"(measured {p.measured:.6g}, tolerance {p.tolerance:.6g})")
        if not summary.all_passed:
            rc = max(rc, 1)
    return rc


if __name__ == "__main__":
    sys.exit(main())
