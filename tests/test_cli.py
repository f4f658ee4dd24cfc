import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mcflow as mc
from mcflow import barriers as ba
from mcflow import cli
from mcflow import flow as fl


MINIMAL_FLOW = """
experiment = flow
domain.kind = ball
domain.radius = 1.0
data.boundary = 0
data.initial = 0
params.epsilon = 0.05
params.nu = 0
grid.spacing = 0.0625
run.horizon = 0.01
"""

# an override step 20 times the stability bound: the update overflows
BLOWUP_COMPARISON = """
experiment = comparison
domain.kind = ball
domain.radius = 1.0
params.epsilon = 0.1
params.dt_override = 0.01
grid.spacing = 0.0625
run.horizon = 5
run.pairs = 1
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_minimal_config(tmp_path):
    cfg = cli.load_config(_write(tmp_path, MINIMAL_FLOW))
    assert cfg.experiment == "flow"
    assert cfg.domain.kind == "ball"
    assert cfg.params.epsilon == 0.05


def test_config_rejects_zero_epsilon(tmp_path):
    bad = MINIMAL_FLOW.replace("params.epsilon = 0.05", "params.epsilon = 0")
    with pytest.raises(cli.ConfigError, match="epsilon"):
        cli.load_config(_write(tmp_path, bad))


def test_config_rejects_an_empty_comparison(tmp_path):
    bad = BLOWUP_COMPARISON.replace("run.pairs = 1", "run.pairs = 0")
    with pytest.raises(cli.ConfigError, match="run.pairs must be at least 1, got 0"):
        cli.load_config(_write(tmp_path, bad))


# the benchmark's prolate spheroid (1, 0.6, 0.6): spacings above 0.3 are inadmissible
SPHEROID_FLOW = """
experiment = flow
domain.kind = ellipse
domain.dim = 3
domain.semi_major = 1.0
domain.semi_minor = 0.6
data.boundary = 0
data.initial = 0.3*max(0, 1 - x1^2 - (x2^2+x3^2)/0.36)^2
params.epsilon = 0.05
grid.spacing = 0.125
run.horizon = 0.002
"""


@pytest.mark.parametrize("spacing", ["2.0", "0", "-0.1"])
def test_config_rejects_an_inadmissible_spacing(tmp_path, spacing):
    bad = SPHEROID_FLOW.replace("grid.spacing = 0.125", f"grid.spacing = {spacing}")
    domain = mc.ellipse(1.0, 0.6, dim=3)
    with pytest.raises(mc.CoarseGridError) as built:
        mc.build_grid(domain, float(spacing))
    with pytest.raises(cli.ConfigError) as loaded:
        cli.load_config(_write(tmp_path, bad))
    assert str(loaded.value) == f"invalid grid.spacing: {built.value}"


def test_main_rejects_an_inadmissible_spacing_before_any_run(tmp_path, capsys):
    bad = _write(tmp_path, SPHEROID_FLOW.replace("grid.spacing = 0.125", "grid.spacing = 2.0"),
                 "bad.cfg")
    good = _write(tmp_path, SPHEROID_FLOW, "good.cfg")
    rc = cli.main(["flow", "--config", str(bad), "--config", str(good),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: invalid grid.spacing: spacing 2.0 too coarse")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("horizon", ["-1", "0"])
def test_config_rejects_a_nonpositive_horizon(tmp_path, horizon):
    bad = MINIMAL_FLOW.replace("run.horizon = 0.01", f"run.horizon = {horizon}")
    with pytest.raises(cli.ConfigError, match=f"run.horizon must be positive, got {float(horizon)}"):
        cli.load_config(_write(tmp_path, bad))
    assert cli.main(["flow", "--config", str(_write(tmp_path, bad)),
                     "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_config_rejects_a_probe_budget_below_one(tmp_path, budget):
    bad = MINIMAL_FLOW + f"run.probe_budget = {budget}\n"
    with pytest.raises(cli.ConfigError, match=f"run.probe_budget must be at least 1, got {budget}"):
        cli.load_config(_write(tmp_path, bad))
    assert cli.main(["flow", "--config", str(_write(tmp_path, bad)),
                     "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_config_rejects_a_negative_seed(tmp_path, seed):
    bad = BLOWUP_COMPARISON + f"run.seed = {seed}\n"
    with pytest.raises(cli.ConfigError, match=f"run.seed must be at least 0, got {seed}"):
        cli.load_config(_write(tmp_path, bad))
    assert cli.main(["comparison", "--config", str(_write(tmp_path, bad)),
                     "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("times, bad", [("-0.5 0.005", -0.5), ("0.005 0.02", 0.02)])
def test_config_rejects_a_snapshot_time_outside_the_run(tmp_path, times, bad):
    text = MINIMAL_FLOW + f"run.snapshot_times = {times}\n"
    with pytest.raises(cli.ConfigError) as loaded:
        cli.load_config(_write(tmp_path, text))
    assert str(loaded.value) == (f"run.snapshot_times must lie in [0, run.horizon = 0.01], "
                                 f"got {bad}")
    assert cli.main(["flow", "--config", str(_write(tmp_path, text)),
                     "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "demos" / "configs")
                                        .glob("*.cfg")), ids=lambda p: p.name)
def test_every_shipped_config_loads(path):
    cli.load_config(path)


@pytest.mark.parametrize("tolerance", ["0", "-1e-6"])
def test_config_rejects_a_nonpositive_tolerance(tmp_path, tolerance):
    bad = MINIMAL_FLOW.replace("experiment = flow", "experiment = steady") \
        + f"run.tolerance = {tolerance}\n"
    with pytest.raises(cli.ConfigError) as loaded:
        cli.load_config(_write(tmp_path, bad))
    assert str(loaded.value) == f"run.tolerance must be positive, got {float(tolerance)}"
    assert cli.main(["steady", "--config", str(_write(tmp_path, bad)),
                     "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("eps_list, reason", [
    ("0.1 0.2 0.05", "smoothing values must be strictly decreasing, got (0.1, 0.2, 0.05)"),
    ("0.2 0.2 0.1", "smoothing values must be strictly decreasing, got (0.2, 0.2, 0.1)"),
    ("0.2 0.1", "continuation needs at least 3 smoothing values, got 2"),
    ("", "continuation needs at least 3 smoothing values, got 0"),
])
def test_config_rejects_a_bad_eps_list(tmp_path, eps_list, reason):
    bad = MINIMAL_FLOW.replace("experiment = flow", "experiment = continuation") \
        + f"run.eps_list = {eps_list}\n"
    with pytest.raises(cli.ConfigError) as loaded:
        cli.load_config(_write(tmp_path, bad))
    assert str(loaded.value) == f"invalid run.eps_list: {reason}"
    assert cli.main(["continuation", "--config", str(_write(tmp_path, bad)),
                     "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


# each bad line and its message; a later line overrides an earlier one
KEYED_ERRORS = {
    "params.nu = abc": "invalid params.nu: could not convert string to float: 'abc'",
    "run.pairs = 2.5": "invalid run.pairs: invalid literal for int() with base 10: '2.5'",
    "domain.radius = one": "invalid domain.radius: could not convert string to float: 'one'",
    "run.eps_list = 2 1 0.5":
        "invalid run.eps_list: smoothing values must lie in (0, 1), got (2.0, 1.0, 0.5)",
    "data.boundary = abs(x1, x2)":
        "invalid data.boundary: abs takes exactly one argument in expression 'abs(x1, x2)'",
    "data.initial = x3":
        "invalid data.initial: expression 'x3' uses x3 but points have dimension 2",
    "data.initial = sqrt(x1)": "invalid data.initial: evaluates non-finite at sample points",
}
# a non-finite number is refused before any rule of its key can misread it
KEYED_ERRORS |= {f"{key} = {value}": f"invalid {key}: {bad!r} is not a finite number"
                 for key, value, bad in (
                     ("params.dt_override", "nan", "nan"), ("params.dt_override", "inf", "inf"),
                     ("params.nu", "inf", "inf"), ("run.horizon", "inf", "inf"),
                     ("run.tolerance", "inf", "inf"), ("run.tolerance", "nan", "nan"),
                     ("grid.spacing", "nan", "nan"), ("domain.radius", "inf", "inf"),
                     ("domain.radius", "nan", "nan"), ("domain.center", "nan 0", "nan"),
                     ("liouville.plateau_value", "nan", "nan"),
                     ("run.snapshot_times", "0.005 -inf", "-inf"),
                     ("run.horizon", "1e999", "1e999"))}


@pytest.mark.parametrize("line", KEYED_ERRORS)
def test_config_error_names_its_key(tmp_path, capsys, line):
    bad = _write(tmp_path, MINIMAL_FLOW.replace("experiment = flow", "experiment = continuation")
                 + line + "\n")
    with pytest.raises(cli.ConfigError) as loaded:
        cli.load_config(bad)
    assert str(loaded.value) == KEYED_ERRORS[line]
    assert cli.main(["continuation", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {KEYED_ERRORS[line]}\n"
    assert not (tmp_path / "o").exists()


def test_main_reports_too_deep_an_expression(tmp_path, capsys):
    bad = _write(tmp_path, MINIMAL_FLOW.replace("data.boundary = 0", "data.boundary = "
                                                 + " + ".join(["x1"] * 3000)))
    assert cli.main(["flow", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid data.boundary: nested too deeply")


def test_config_rejects_boundary_mismatch(tmp_path):
    bad = MINIMAL_FLOW.replace("data.initial = 0", "data.initial = x1 + 0.5")
    with pytest.raises(cli.ConfigError, match="differ by"):
        cli.load_config(_write(tmp_path, bad))


def test_main_rejects_data_non_finite_on_the_boundary(tmp_path, capsys):
    # NaN on the arc x1 < -0.95, which the 10 smoke-test points (x1 >= -0.55) miss
    root = "sqrt(x1 + 0.95)"
    cfg = _write(tmp_path, MINIMAL_FLOW.replace("experiment = flow", "experiment = steady")
                 .replace("data.boundary = 0", f"data.boundary = {root}")
                 .replace("data.initial = 0", f"data.initial = {root}"))
    pts = mc.boundary_points(mc.ball(1.0), fl.COMPATIBILITY_SAMPLES)
    first = pts[np.argmax(pts[:, 0] < -0.95)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["steady", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: boundary data evaluate non-finite at the "
                                   f"boundary point ({first[0]:.6g}, {first[1]:.6g})\n")
    assert not (tmp_path / "o").exists()


def test_config_parse_error_reports_line(tmp_path):
    with pytest.raises(cli.ConfigError, match=":2:"):
        cli.load_config(_write(tmp_path, "experiment = flow\nnonsense line\n"))


def test_config_bad_expression_reported(tmp_path):
    bad = MINIMAL_FLOW.replace("data.boundary = 0", "data.boundary = frob(x1)")
    with pytest.raises(cli.ConfigError, match="expression"):
        cli.load_config(_write(tmp_path, bad))


def test_config_rejects_unknown_key(tmp_path):
    for line in ("params.sigma = 0.5", "params.epsilom = 0.05", "params.cfl_factor = 0.25"):
        text = "experiment = flow\n" + line + "\n" + MINIMAL_FLOW
        with pytest.raises(cli.ConfigError, match=f":2: unknown key '{line.split()[0]}'"):
            cli.load_config(_write(tmp_path, text))


def test_config_unknown_experiment(tmp_path):
    bad = MINIMAL_FLOW.replace("experiment = flow", "experiment = wizardry")
    with pytest.raises(cli.ConfigError, match="experiment"):
        cli.load_config(_write(tmp_path, bad))


def test_snapshot_round_trip_bit_identical(tmp_path, grid16):
    rng = np.random.default_rng(5)
    values = np.where(grid16.inside, rng.normal(size=grid16.shape), np.nan)
    p = tmp_path / "snap.mcfgrid"
    cli.write_snapshot(p, grid16, values)
    shape, lo, hi, back = cli.read_snapshot(p)
    assert shape == grid16.shape
    assert np.array_equal(lo, grid16.origin)
    assert back.tobytes() == values.astype("<f8").tobytes()


def test_snapshot_byte_length_exact(tmp_path):
    # 5x5 grid: 8 magic + 4 ndim + 8 counts + 32 corners + 200 values
    grid = mc.build_grid(mc.ball(1.0), 0.5)
    values = np.where(grid.inside, 1.0, np.nan)
    n = cli.write_snapshot(tmp_path / "s.mcfgrid", grid, values)
    assert n == 8 + 4 + 2 * 4 + 4 * 8 + 25 * 8 == 252


def test_snapshot_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.mcfgrid"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        cli.read_snapshot(p)


def test_series_csv_header_and_rows(tmp_path, unit_ball, grid16):
    prob = mc.IBVP(unit_ball, lambda p: np.zeros(len(p)),
                   lambda p: 0.3 * (1 - np.sum(p ** 2, axis=1)) ** 2)
    rep = mc.solve_ibvp(prob, grid16, mc.FlowParams(epsilon=0.05), horizon=0.01)
    p = tmp_path / "series.csv"
    cli.write_series_csv(p, rep)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "t,sup_u,sup_grad,sup_ut,J,diss,src,resid"
    assert len(lines) == len(rep.t) + 1
    assert all(len(line.split(",")) == 8 for line in lines[1:])


def test_empty_series_csv_header_only(tmp_path, grid16):
    rep = mc.FlowReport(t=np.array([]), sup_u=np.array([]), min_u=np.array([]),
                        max_u=np.array([]), sup_grad=np.array([]),
                        sup_grad_interior=np.array([]), sup_grad_ring=np.array([]),
                        sup_ut=np.array([]), energy=np.array([]),
                        dissipation=np.array([]), source=np.array([]),
                        ut_sq_integral=np.array([]))
    p = tmp_path / "empty.csv"
    cli.write_series_csv(p, rep)
    assert p.read_text() == "t,sup_u,sup_grad,sup_ut,J,diss,src,resid\n"


def test_flow_run_writes_outputs_and_passes(tmp_path):
    cfg_text = MINIMAL_FLOW + "run.snapshot_times = 0.005 0.01\n"
    cfg = cli.load_config(_write(tmp_path, cfg_text), out_dir=tmp_path / "out")
    summary = cli.run(cfg)
    assert summary.all_passed
    names = [p.name for p in (tmp_path / "out").iterdir()]
    assert "series.csv" in names
    assert "summary.txt" in names
    assert sum(n.endswith(".mcfgrid") for n in names) == 2


def test_run_out_dir_places_the_outputs_without_out(tmp_path):
    out = tmp_path / "x"
    path = _write(tmp_path, MINIMAL_FLOW + f"run.out_dir = {out}\n")
    assert cli.main(["flow", "--config", str(path)]) == 0
    assert {"summary.txt", "series.csv"} <= {p.name for p in out.iterdir()}


def test_run_outputs_deterministic(tmp_path):
    text = MINIMAL_FLOW.replace("data.boundary = 0", "data.boundary = x1") \
                       .replace("data.initial = 0", "data.initial = x1")
    outs = []
    for tag in ("a", "b"):
        cfg = cli.load_config(_write(tmp_path, text, f"{tag}.cfg"),
                              out_dir=tmp_path / tag)
        cli.run(cfg)
        outs.append((tmp_path / tag / "series.csv").read_bytes())
    assert outs[0] == outs[1]


def test_main_exit_codes(tmp_path):
    cfg = _write(tmp_path, MINIMAL_FLOW)
    rc = cli.main(["flow", "--config", str(cfg), "--out", str(tmp_path / "o1")])
    assert rc == 0
    rc = cli.main(["steady", "--config", str(cfg), "--out", str(tmp_path / "o2")])
    assert rc == 2        # experiment kind mismatch


def test_import_keeps_scipy_out():
    # scipy.sparse.linalg alone would add about 30 MB of peak RSS and 0.5 s
    # to every run; the package is numpy-only
    src = str(Path(mc.__file__).resolve().parent.parent)
    code = ("import sys, mcflow, mcflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"


def test_a_flow_run_leaves_numpy_random_unimported(tmp_path):
    # the expression smoke test reads written-out draws; importing
    # numpy.random would add about 2.7 MB of peak RSS to every run
    src = str(Path(mc.__file__).resolve().parent.parent)
    cfg = _write(tmp_path, MINIMAL_FLOW.replace("data.initial = 0",
                                                "data.initial = 0.1*(1 - x1^2 - x2^2)"))
    code = ("import sys; from mcflow.cli import main; "
            f"rc = main(['flow', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]); "
            "print(rc, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 False"


def test_smoke_draws_are_the_seeded_uniform_draws():
    # every config accepted or rejected with the seeded generator stays so
    for dim in (2, 3):
        want = np.random.default_rng(12345).uniform(-1.0, 1.0, (10, dim))
        got = np.array(cli.SMOKE_DRAWS[:10 * dim]).reshape(10, dim)
        assert got.tobytes() == want.tobytes()


def test_steady_warnings_reach_stderr(tmp_path, capsys):
    # the steady solve, and a flow run and a continuation ladder with nu
    # outside the admissible interval (-0.5, 0.5) of the unit disk
    for experiment, nu in (("steady", "0"), ("flow", "0.7"), ("continuation", "0.7")):
        text = MINIMAL_FLOW.replace("experiment = flow", f"experiment = {experiment}") \
            .replace("data.boundary = 0", "data.boundary = x1") \
            .replace("data.initial = 0", "data.initial = x1") \
            .replace("params.nu = 0", f"params.nu = {nu}") \
            .replace("grid.spacing = 0.0625", "grid.spacing = 0.25")
        cfg = _write(tmp_path, text, f"{experiment}.cfg")
        cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / experiment)])
        err = capsys.readouterr().err
        assert f"[{experiment}] warning: grid spacing above an eighth" in err
        if nu != "0":
            assert f"[{experiment}] warning: nu={nu} outside the admissible interval" in err


def test_main_reports_blowup_as_error(tmp_path, capsys):
    cfg = _write(tmp_path, BLOWUP_COMPARISON)
    with warnings.catch_warnings():
        # the finiteness check is the guard: no overflow warning on the way
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["comparison", "--config", str(cfg), "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {cfg}: non-finite value at node (")
    assert "Traceback" not in err


def test_main_runs_on_after_a_blowup(tmp_path, capsys):
    bad = _write(tmp_path, BLOWUP_COMPARISON, "bad.cfg")
    good = _write(tmp_path, BLOWUP_COMPARISON.replace("params.dt_override = 0.01\n", "")
                  .replace("run.horizon = 5", "run.horizon = 0.05"), "good.cfg")
    out = tmp_path / "d"
    rc = cli.main(["comparison", "--config", str(bad), "--config", str(good),
                   "--out", str(out)])
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert rc == 1
    assert len(errors) == 1 and errors[0].startswith(f"error: {bad}: ")
    summary = (out / "run001" / "summary.txt").read_text()
    assert "all_passed: True" in summary
    assert "property ordering-preserved: pass" in summary


def test_main_names_the_pair_that_blows_up(tmp_path, capsys):
    cfg = _write(tmp_path, BLOWUP_COMPARISON.replace("run.pairs = 1", "run.pairs = 3"))
    rc = cli.main(["comparison", "--config", str(cfg), "--out", str(tmp_path / "c")])
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    # each pair alone: the stack stops at the earliest step, lowest pair first
    grid = mc.build_grid(mc.ball(1.0), 0.0625)
    params = mc.FlowParams(epsilon=0.1, dt_override=0.01)
    alone = []
    for pair in range(3):
        low, high = ba.random_ordered_pair(mc.ball(1.0), pair)
        with pytest.raises(mc.BlowUpError) as exc:
            ba.comparison_experiment(low, high, grid, params, horizon=5)
        alone.append((exc.value.step, pair, exc.value.field, exc.value.node))
    step, pair, field, node = min(alone)
    assert rc == 1
    assert errors == [f"error: {cfg}: non-finite value at node {node} on step {step} "
                      f"in pair {pair} ({('low', 'high')[field]} field)"]


def test_barrier_run_solves_each_steady_problem_once(tmp_path, monkeypatch):
    text = """
experiment = barrier
domain.kind = ball
domain.radius = 1.0
data.boundary = x1
data.initial = x1
params.epsilon = 0.05
params.nu = 0.3
grid.spacing = 0.0625
run.horizon = 0.01
"""
    cfg = cli.load_config(_write(tmp_path, text), out_dir=tmp_path / "b")
    grid = mc.build_grid(cfg.domain, cfg.spacing)
    slopes = [bar.slope for bar in ba.build_barriers(cfg.problem, grid, cfg.params)]
    real = ba.relax_to_steady
    nus = []

    def counted(problem, grid, params, *args, **kwargs):
        nus.append(params.nu)
        return real(problem, grid, params, *args, **kwargs)

    monkeypatch.setattr(ba, "relax_to_steady", counted)
    summary = cli.run(cfg)
    assert nus == [0.3]
    assert [summary.scalars["upper_slope"], summary.scalars["lower_slope"]] == slopes


STADIUM = """
domain.kind = smoothed-stadium
domain.half_width = 0.5
domain.straight_half_length = 1.5
domain.corner_radius = 0.25
data.boundary = min(1, max(0, (x2 + 0.25)/0.5))
params.epsilon = 0.05
grid.spacing = 0.0625
run.horizon = 0.01
"""
BALL = STADIUM.replace("smoothed-stadium", "ball\ndomain.radius = 1.0")
BARRIER_BALL = "experiment = barrier\n" + BALL.replace("min(1, max(0, (x2 + 0.25)/0.5))", "x1")


@pytest.mark.parametrize("text, rc, message", [
    ("experiment = liouville\nliouville.plateau_start = 1.2\n" + STADIUM, 2,
     "liouville.plateau_start + liouville.plateau_margin = 1.325 leaves the straight "
     "section (|axial| <= 1.25)"),
    ("experiment = liouville\n" + BALL, 2,
     "liouville needs domain.kind = smoothed-stadium, got 'ball'"),
    ("experiment = liouville\nparams.nu = -0.1\n" + STADIUM, 2,
     "liouville needs params.nu >= 0, got -0.1"),
    ("experiment = comparison\n" + BALL.replace(
        "ball\ndomain.radius = 1.0", "ellipse\ndomain.semi_major = 1.0\ndomain.semi_minor = 0.5"),
     2, "comparison needs domain.kind = ball, got 'ellipse'"),
    ("experiment = barrier\n" + STADIUM.replace("min(1, max(0, (x2 + 0.25)/0.5))", "x1"), 1,
     "{cfg}: curvature lower bound 0.00e+00 below threshold 0.001; barriers need a "
     "strictly convex boundary"),
    ("experiment = liouville\n" + STADIUM.replace("min(1, max(0, (x2 + 0.25)/0.5))", "0"), 1,
     "{cfg}: initial data does not sit at the plateau value past plateau_start"),
    ("experiment = liouville\n" + STADIUM.replace("min(1, max(0, (x2 + 0.25)/0.5))", "-x2"), 1,
     "{cfg}: initial data is not non-decreasing along the axis"),
], ids=["liouville-plateau", "liouville-ball", "liouville-nu", "comparison-ellipse",
        "barrier-stadium", "liouville-off-plateau", "liouville-falling"])
def test_main_reports_an_unsupported_config_in_one_error_line(tmp_path, capsys, text, rc,
                                                              message):
    # a config rule stops the command before any run (exit 2); a barrier the
    # domain does not admit, or liouville data without an envelope, fails its
    # own run only, and the next config runs (exit 1)
    cfg = _write(tmp_path, text)
    experiment = text.split()[2]
    argv = [experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if rc == 2:
        with pytest.raises(cli.ConfigError):
            cli.load_config(cfg)
    else:
        good = {"barrier": BARRIER_BALL, "liouville": "experiment = liouville\n" + STADIUM}
        argv += ["--config", str(_write(tmp_path, good[experiment], "good.cfg"))]
    assert cli.main(argv) == rc
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: {message.format(cfg=cfg)}"]
    assert (tmp_path / "o").exists() == (rc == 1)
    if rc == 1:
        assert (tmp_path / "o" / "run001" / "summary.txt").exists()


def test_main_missing_config(tmp_path):
    rc = cli.main(["flow", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2


def test_comparison_experiment_via_cli(tmp_path):
    text = """
experiment = comparison
domain.kind = ball
domain.radius = 1.0
params.epsilon = 0.1
grid.spacing = 0.125
run.horizon = 0.05
run.pairs = 2
run.seed = 0
"""
    cfg = cli.load_config(_write(tmp_path, text), out_dir=tmp_path / "cmp")
    summary = cli.run(cfg)
    assert summary.all_passed
    assert summary.scalars["max_violation"] <= 1e-10


def test_steady_experiment_via_cli(tmp_path):
    text = """
experiment = steady
domain.kind = ball
domain.radius = 1.0
data.boundary = x1
data.initial = x1
params.epsilon = 0.05
grid.spacing = 0.0625
run.tolerance = 1e-6
"""
    cfg = cli.load_config(_write(tmp_path, text), out_dir=tmp_path / "st")
    summary = cli.run(cfg)
    assert summary.all_passed
    assert summary.scalars["steps"] == 0


def test_liouville_experiment_via_cli(tmp_path):
    text = """
experiment = liouville
domain.kind = smoothed-stadium
domain.half_width = 0.5
domain.straight_half_length = 1.5
domain.corner_radius = 0.25
data.boundary = min(1, max(0, (x2 - 0.25 + 0.5)/0.5))
data.initial = min(1, max(0, (x2 - 0.25 + 0.5)/0.5))
params.epsilon = 0.05
params.nu = 0
grid.spacing = 0.0625
run.horizon = 0.1
liouville.plateau_start = 0.25
liouville.plateau_value = 1.0
liouville.plateau_margin = 0.25
"""
    cfg = cli.load_config(_write(tmp_path, text), out_dir=tmp_path / "lv")
    summary = cli.run(cfg)
    assert summary.all_passed
    assert (tmp_path / "lv" / "flatness.csv").exists()


def test_summary_names_tolerance_and_measured(tmp_path):
    cfg = cli.load_config(_write(tmp_path, MINIMAL_FLOW), out_dir=tmp_path / "s")
    cli.run(cfg)
    text = (tmp_path / "s" / "summary.txt").read_text()
    assert "tolerance:" in text and "measured:" in text and "audits:" in text


def test_liouville_and_comparison_warnings_reach_stderr(tmp_path, capsys):
    # a stadium with flat sides admits no drift: nu = 0 lies outside (0, 0),
    # printed without a negative zero
    cfg = _write(tmp_path, "experiment = liouville\n" + STADIUM, "lv.cfg")
    assert cli.main(["liouville", "--config", str(cfg), "--out", str(tmp_path / "lv")]) == 0
    err = capsys.readouterr().err
    assert "[liouville] warning: nu=0.0 outside the admissible interval (0, 0)" in err
    text = ("experiment = comparison\n" + BALL).replace("grid.spacing = 0.0625",
                                                       "grid.spacing = 0.25")
    cfg = _write(tmp_path, text + "run.pairs = 1\n", "cmp.cfg")
    assert cli.main(["comparison", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    assert "[comparison] warning: grid spacing above an eighth" in capsys.readouterr().err


DEMO_CONFIGS = Path(__file__).parents[1] / "demos" / "configs"
VISCOSITY_CFG = DEMO_CONFIGS / "viscosity.cfg"
# each experiment's demo config, cut to a short horizon, with a change that
# makes it warn: a drift outside the disk's interval (-0.5, 0.5), a coarse
# grid, the flat-sided stadium's empty interval at nu = 0
NU_07 = "params.nu = 0.7\ngrid.spacing = 0.0625\n"
WARNING_RUNS = {
    "flow": ("flow_bump.cfg", NU_07),
    "steady": ("steady_drift.cfg", NU_07),
    "continuation": ("continuation.cfg", NU_07),
    "barrier": ("barrier_linear.cfg", NU_07),
    "viscosity": ("viscosity.cfg", NU_07),
    "comparison": ("comparison.cfg", "grid.spacing = 0.25\n"),
    "liouville": ("liouville_ramp.cfg", ""),
}


@pytest.mark.parametrize("experiment", WARNING_RUNS)
def test_every_run_prints_the_warnings_of_the_one_rule(tmp_path, capsys, experiment):
    name, change = WARNING_RUNS[experiment]
    # the flow demo's snapshot times lie past the short horizon
    lines = [line for line in (DEMO_CONFIGS / name).read_text().splitlines(keepends=True)
             if not line.startswith("run.snapshot_times")]
    path = _write(tmp_path, "".join(lines) + "run.horizon = 0.01\n" + change)
    cfg = cli.load_config(path)
    want = fl.collect_warnings(cfg.domain, mc.build_grid(cfg.domain, cfg.spacing), cfg.params)
    assert cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert want
    assert capsys.readouterr().err.splitlines() == [f"[{experiment}] warning: {w}"
                                                    for w in want]


def test_a_run_ending_in_an_error_prints_no_warning(tmp_path, capsys):
    # the override step is 20 times the stability bound, which warns, and blows up
    path = _write(tmp_path, BLOWUP_COMPARISON)
    cfg = cli.load_config(path)
    assert fl.collect_warnings(cfg.domain, mc.build_grid(cfg.domain, cfg.spacing), cfg.params)
    assert cli.main(["comparison", "--config", str(path), "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: non-finite value")


def _spy_on_the_checker(monkeypatch):
    """The (snapshots, times) of every viscosity_spot_check call a run makes."""
    seen, check = [], cli.vf.viscosity_spot_check

    def spy(snaps, times, *args):
        seen.append((snaps, times))
        return check(snaps, times, *args)

    monkeypatch.setattr(cli.vf, "viscosity_spot_check", spy)
    return seen


@pytest.mark.parametrize("extra", ["", "params.dt_override = 0.0004\nrun.horizon = 0.2\n"],
                         ids=["seed-0", "override-500-steps"])
def test_viscosity_run_checks_the_snapshots_solve_ibvp_returns(tmp_path, monkeypatch, extra):
    # steps n/2, 3n/4 and n: 512, 768, 1024 at seed 0, 250, 375, 500 with the override
    cfg = _write(tmp_path, VISCOSITY_CFG.read_text() + extra)
    seen = _spy_on_the_checker(monkeypatch)
    assert cli.main(["viscosity", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
    loaded = cli.load_config(cfg)
    grid = mc.build_grid(loaded.domain, loaded.spacing)
    h = loaded.horizon
    report = mc.solve_ibvp(loaded.problem, grid, loaded.params, h,
                           snapshot_times=(h / 2, 3 * h / 4, h))
    assert [s[0] for s in report.snapshots] == ([512, 768, 1024] if not extra
                                                else [250, 375, 500])
    assert len(seen) == 1                  # one call checks both inequalities
    for snaps, times in seen:
        assert [t for _, t, _ in report.snapshots] == times
        assert [v.tobytes() for _, _, v in report.snapshots] == [v.tobytes() for v in snaps]


def test_viscosity_run_keeps_no_step_record(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a viscosity run built a step recorder")

    monkeypatch.setattr(fl, "_Recorder", refuse)
    assert cli.main(["viscosity", "--config", str(VISCOSITY_CFG),
                     "--out", str(tmp_path / "v")]) == 0


def test_viscosity_snapshots_are_equally_spaced_on_any_step_count(tmp_path, monkeypatch,
                                                                  capsys):
    # 33 steps: 17, 25 and 33; the rounded quarter times land on 16, 25 and 33
    cfg = _write(tmp_path, VISCOSITY_CFG.read_text()
                 + "params.dt_override = 0.0009\nrun.horizon = 0.03\n")
    seen = _spy_on_the_checker(monkeypatch)
    assert cli.main(["viscosity", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
    assert "error" not in capsys.readouterr().err
    times = seen[0][1]
    assert times == pytest.approx([17 * 0.0009, 25 * 0.0009, 33 * 0.0009], abs=1e-15)


@pytest.mark.parametrize("experiment, config", [("steady", "steady_drift.cfg"),
                                                ("viscosity", "viscosity.cfg")])
def test_a_run_fits_each_checked_centre_once(tmp_path, monkeypatch, experiment, config):
    # one jet per block of centres and snapshot triple, for both inequalities
    fits, jet, check = [], cli.vf.difference_jet, cli.vf.viscosity_spot_check

    def counting(*args):
        fits.append(1)
        return jet(*args)

    monkeypatch.setattr(cli.vf, "difference_jet", counting)
    seen = _spy_on_the_checker(monkeypatch)
    cfg = DEMO_CONFIGS / config
    assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    run_fits = len(fits)
    fits.clear()
    loaded = cli.load_config(cfg)
    grid = mc.build_grid(loaded.domain, loaded.spacing)
    check(*seen[0], grid, loaded.params, loaded.probe_budget)
    assert run_fits == len(fits) > 0


def test_viscosity_rejects_a_horizon_under_four_steps(tmp_path, capsys):
    # dt = h^2 / 8 = 1/2048: a horizon of 0.001 takes 2 steps
    cfg = _write(tmp_path, VISCOSITY_CFG.read_text() + "run.horizon = 0.001\n")
    assert cli.main(["viscosity", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {cfg}: run.horizon = 0.001 gives 2 steps of dt = 0.000488281; "
                   "the viscosity check needs at least 4\n")


def test_viscosity_run_reports_a_blowup_in_one_error_line(tmp_path, capsys):
    # the blow-up data of the flow tests: bump on the disk, eps 0.2, dt 0.01
    text = """
experiment = viscosity
domain.kind = ball
domain.radius = 1.0
data.boundary = 0
data.initial = 0.3*(1 - x1^2 - x2^2)^2
params.epsilon = 0.2
params.dt_override = 0.01
grid.spacing = 0.0625
run.horizon = 5.0
"""
    cfg = _write(tmp_path, text)
    loaded = cli.load_config(cfg)
    grid = mc.build_grid(loaded.domain, loaded.spacing)
    bvals = mc.boundary_values(grid, loaded.boundary_expr)
    with pytest.raises(mc.BlowUpError) as alone:
        for _ in mc.march(mc.init_state(grid, loaded.initial_expr, bvals), grid,
                          loaded.params, bvals, 500):
            pass
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["viscosity", "--config", str(cfg), "--out", str(tmp_path / "v")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}: {alone.value}\n"
