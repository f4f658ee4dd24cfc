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


@pytest.mark.parametrize("spacing", ["2.0", "0", "-0.1", "nan"])
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


@pytest.mark.parametrize("tolerance", ["0", "-1e-6", "nan"])
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


def test_config_rejects_boundary_mismatch(tmp_path):
    bad = MINIMAL_FLOW.replace("data.initial = 0", "data.initial = x1 + 0.5")
    with pytest.raises(cli.ConfigError, match="differ by"):
        cli.load_config(_write(tmp_path, bad))


def test_config_parse_error_reports_line(tmp_path):
    with pytest.raises(cli.ConfigError, match=":2:"):
        cli.load_config(_write(tmp_path, "experiment = flow\nnonsense line\n"))


def test_config_bad_expression_reported(tmp_path):
    bad = MINIMAL_FLOW.replace("data.boundary = 0", "data.boundary = frob(x1)")
    with pytest.raises(cli.ConfigError, match="expression"):
        cli.load_config(_write(tmp_path, bad))


def test_config_rejects_unknown_key(tmp_path):
    for line in ("params.sigma = 0.5", "params.epsilom = 0.05"):
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
    cli.write_series_csv(p, rep, mc.FlowParams(epsilon=0.05))
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
    cli.write_series_csv(p, rep, mc.FlowParams(epsilon=0.05))
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
    slopes = [builder(cfg.domain, grid, cfg.boundary_expr, cfg.initial_expr,
                      cfg.params).slope
              for builder in (ba.build_upper_barrier, ba.build_lower_barrier)]
    real = ba.relax_to_steady
    nus = []

    def counted(problem, grid, params, *args, **kwargs):
        nus.append(params.nu)
        return real(problem, grid, params, *args, **kwargs)

    monkeypatch.setattr(ba, "relax_to_steady", counted)
    summary = cli.run(cfg)
    assert sorted(nus) == [-0.3, 0.3]
    assert [summary.scalars["upper_slope"], summary.scalars["lower_slope"]] == slopes


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
