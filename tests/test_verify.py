import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mcflow as mc
from mcflow import verify as vf

from helpers import (zero, linear_x1, bump, spot_check_loop, quadratic_min_on_ball_bruteforce,
                     ut_initial_slice_bound)


@pytest.fixture(scope="module")
def bump_report(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, zero, bump)
    return mc.solve_ibvp(prob, grid16, mc.FlowParams(epsilon=0.05), horizon=0.25)


def test_energy_series_stationary_all_zero(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    rep = mc.solve_ibvp(prob, grid16, mc.FlowParams(epsilon=0.05), horizon=0.02)
    assert np.max(np.abs(rep.energy - rep.energy[0])) < 1e-12
    assert np.max(rep.dissipation) < 1e-12
    assert vf.max_settled_residual(rep, rep.t[0]) < 1e-12


def test_energy_descent_without_drift(bump_report):
    dj = np.diff(bump_report.energy)
    assert dj.max() <= 1e-8


def test_energy_residual_halves_with_refinement(unit_ball, grid16, grid32):
    params = mc.FlowParams(epsilon=0.05)
    maxr = []
    for grid in (grid16, grid32):
        prob = mc.IBVP(unit_ball, zero, bump)
        rep = mc.solve_ibvp(prob, grid, params, horizon=0.25)
        maxr.append(vf.max_settled_residual(rep, settle_time=0.05))
    assert maxr[0] / maxr[1] >= 2.0


def test_dissipation_budget_stationary_zero(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    params = mc.FlowParams(epsilon=0.05)
    rep = mc.solve_ibvp(prob, grid16, params, horizon=0.02)
    bud = vf.dissipation_budget(rep, params, grid16)
    assert bud.total < 1e-20
    assert bud.within_bound


def test_weighted_dissipation_matches_energy_drop(unit_ball, grid16):
    # without drift the identity integrates to J(0) - J(T)
    params = mc.FlowParams(epsilon=0.05)
    prob = mc.IBVP(unit_ball, zero, bump)
    rep = mc.solve_ibvp(prob, grid16, params, horizon=0.5)
    dt = np.gradient(rep.t)
    weighted = float(np.sum(rep.dissipation * dt))
    drop = float(rep.energy[0] - rep.energy[-1])
    assert weighted == pytest.approx(drop, abs=0.02 * max(rep.energy[0], 1.0))


def test_dissipation_budget_bounded_with_drift(unit_ball, grid16):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    rep = mc.solve_ibvp(prob, grid16, params, horizon=0.5)
    bud = vf.dissipation_budget(rep, params, grid16, split_time=0.25)
    assert np.isfinite(bud.total)
    assert bud.within_bound
    assert bud.head + bud.tail == pytest.approx(bud.total)


def test_ut_bound_zero_for_stationary_linear(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    b0 = ut_initial_slice_bound(prob, grid16, mc.FlowParams(epsilon=0.05))
    assert b0 < 1e-12


def test_ut_bound_closed_form_for_driven_linear(unit_ball, grid16):
    p = np.array([0.6, -0.2])
    fn = lambda q: q @ p
    prob = mc.IBVP(unit_ball, fn, fn)
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    b0 = ut_initial_slice_bound(prob, grid16, params)
    assert b0 == pytest.approx(0.3 * np.sqrt(0.05 ** 2 + p @ p), abs=1e-11)


def test_first_recorded_rate_is_the_initial_slice_bound(unit_ball, grid16):
    # the CLI's rate ceiling is the report's step-0 sup|u_t|, bit for bit
    prob = mc.IBVP(unit_ball, zero, bump)
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    rep = mc.solve_ibvp(prob, grid16, params, horizon=0.001)
    assert rep.sup_ut[0] == ut_initial_slice_bound(prob, grid16, params) > 0.0


def test_flow_rate_stays_under_initial_bound(unit_ball, grid16, bump_report):
    params = mc.FlowParams(epsilon=0.05)
    prob = mc.IBVP(unit_ball, zero, bump)
    b0 = ut_initial_slice_bound(prob, grid16, params)
    assert bump_report.sup_ut.max() <= b0 + 10 * grid16.spacing


def test_gradient_interior_max_stationary(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    rep = mc.solve_ibvp(prob, grid16, mc.FlowParams(epsilon=0.05), horizon=0.02)
    gm = vf.gradient_interior_max_check(rep)
    assert gm.interior_max == pytest.approx(1.0, abs=1e-10)
    assert gm.parabolic_boundary_max == pytest.approx(1.0, abs=1e-10)
    assert gm.passes(tol=1e-10)


def test_gradient_interior_max_bump(bump_report, grid16):
    gm = vf.gradient_interior_max_check(bump_report)
    assert gm.passes(tol=10 * grid16.spacing)


def test_degenerate_branch_bound_formulas():
    m = np.diag([2.0, -3.0])
    assert vf.degenerate_branch_bound(m, "sub") == pytest.approx(-1.0 + 3.0)
    assert vf.degenerate_branch_bound(m, "super") == pytest.approx(-1.0 - 2.0)
    psd = np.diag([1.0, 2.0])
    assert vf.degenerate_branch_bound(psd, "sub") == pytest.approx(3.0)   # eta = 0
    assert vf.degenerate_branch_bound(psd, "super") == pytest.approx(1.0)
    with pytest.raises(ValueError):
        vf.degenerate_branch_bound(m, "both")


def test_degenerate_branch_matches_bruteforce_sampling():
    rng = np.random.default_rng(42)
    for i in range(40):
        dim = 2 if i % 2 == 0 else 3
        a = rng.normal(size=(dim, dim))
        m = 0.5 * (a + a.T)
        brute = quadratic_min_on_ball_bruteforce(m, samples=10000)
        closed = min(float(np.linalg.eigvalsh(m)[0]), 0.0)
        assert abs(brute - closed) < 1e-6
        # the sub bound is tr(M) minus that minimum
        assert vf.degenerate_branch_bound(m, "sub") == pytest.approx(
            np.trace(m) - closed, abs=1e-12)


def test_spot_check_needs_three_snapshots(grid16):
    u = np.where(grid16.inside, 0.0, np.nan)
    with pytest.raises(ValueError):
        vf.viscosity_spot_check([u, u], [0.0, 0.1], grid16, mc.FlowParams(epsilon=0.05))


def test_spot_check_rejects_uneven_spacing(grid16):
    u = np.where(grid16.inside, 0.0, np.nan)
    with pytest.raises(ValueError):
        vf.viscosity_spot_check([u, u, u], [0.0, 0.1, 0.5], grid16,
                                mc.FlowParams(epsilon=0.05))


def test_spot_check_constant_field_clean(grid16):
    u = np.where(grid16.inside, 1.5, np.nan)
    params = mc.FlowParams(epsilon=0.05)
    assert vf.viscosity_spot_check([u, u, u], [0, 0.1, 0.2], grid16, params) == []


def test_spot_check_flags_planted_counterexample(grid16):
    # u = -10 t is flat in space but sinks: a super-solution violation
    snaps = [np.where(grid16.inside, -10.0 * t, np.nan) for t in (0.0, 0.1, 0.2)]
    params = mc.FlowParams(epsilon=0.05)
    probes = vf.viscosity_spot_check(snaps, [0.0, 0.1, 0.2], grid16, params)
    sup = [v for v in probes if v.mode == "super"]
    sub = [v for v in probes if v.mode == "sub"]
    assert len(sup) > 0
    assert all(v.margin < -10 * grid16.spacing for v in sup)
    assert all(v.branch == "degenerate" for v in sup)
    assert sub == []          # sinking fast is fine for a sub-solution


def test_spot_check_solver_output_clean(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    params = mc.FlowParams(epsilon=0.05)
    rep = mc.solve_ibvp(prob, grid16, params, horizon=0.1,
                        snapshot_times=(0.025, 0.05, 0.075))
    snaps = [s[2] for s in rep.snapshots]
    times = [s[1] for s in rep.snapshots]
    assert vf.viscosity_spot_check(snaps, times, grid16, params) == []


def test_spot_check_violations_sorted(grid16):
    snaps = [np.where(grid16.inside, -10.0 * t, np.nan) for t in (0.0, 0.1, 0.2)]
    v = vf.viscosity_spot_check(snaps, [0.0, 0.1, 0.2], grid16, mc.FlowParams(epsilon=0.05))
    keys = [(x.mode, x.time) + x.index for x in v]
    assert keys == sorted(keys)


@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_spot_check_violations_have_their_whole_box_inside(unit_ball, h):
    # the centre filter checks the box arms only: a box corner can reach an
    # exterior node, and such a box was never touch-tested
    grid = mc.build_grid(unit_ball, h)
    snaps = [np.where(grid.inside, -10.0 * t, np.nan) for t in (0.0, 0.1, 0.2)]
    sup = [v for v in vf.viscosity_spot_check(snaps, [0.0, 0.1, 0.2], grid,
                                              mc.FlowParams(epsilon=0.05))
           if v.mode == "super"]
    assert len(sup) > 0
    for v in sup:
        box = tuple(slice(i - 2, i + 3) for i in v.index)
        assert grid.inside[box].all(), f"violation at {v.index} has an exterior node in its box"


@pytest.mark.parametrize("mode, value", [("sub", -np.inf), ("super", np.inf), ("sub", np.nan)])
def test_spot_check_box_with_a_nonfinite_value_never_touches(grid16, mode, value):
    u = np.where(grid16.inside, 1.0, np.nan)
    node = (16, 16)
    u[node] = value
    snaps, times = vf.replicate_steady(u)
    with np.errstate(invalid="ignore"):        # fits whose stencil holds inf subtract infinities
        probes = [v for v in vf.viscosity_spot_check(snaps, times, grid16,
                                                     mc.FlowParams(epsilon=0.05),
                                                     tolerance=-np.inf)
                  if v.mode == mode]
    assert len(probes) > 0
    assert all(max(abs(i - j) for i, j in zip(v.index, node)) > 2 for v in probes)


@lru_cache(maxsize=None)
def _oracle_grid(name):
    # the disk has 561 centres (three blocks of at most 256); the spheroid
    # exercises the cross-Hessian terms of three dimensions
    domain, h = {"disk": (mc.ball(1.0), 1 / 16),
                 "stadium": (mc.smoothed_stadium(0.5, 1.5, 0.25), 1 / 16),
                 "spheroid": (mc.ellipse(1.0, 0.6, dim=3), 1 / 8)}[name]
    return mc.build_grid(domain, h)


def _oracle_fields(grid, kind, n_snaps, seed):
    """Snapshots at t = 0, 0.1, ...: a random quadratic with a time slope,
    the same with noise or with NaN holes inside, or the planted -10 t; or
    the quadratic as a steady field, one array at t = 0, 1, 2."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(grid.dim, grid.dim))
    x = grid.points - 0.2 * rng.uniform(-1.0, 1.0, grid.dim)
    quad = np.einsum("...i,ij,...j->...", x, a + a.T, x) + 0.3 * x @ rng.normal(size=grid.dim)
    slope = 3.0 * rng.normal()
    if kind == "steady":
        return vf.replicate_steady(np.where(grid.inside, quad, np.nan))
    times = [0.1 * i for i in range(n_snaps)]
    snaps = []
    for t in times:
        if kind == "planted":
            f = np.full(grid.shape, -10.0 * t)
        else:
            f = quad + slope * t
        if kind == "noisy":
            f = f + 10.0 ** rng.integers(-13, -2) * rng.normal(size=grid.shape)
        f = np.where(grid.inside, f, np.nan)
        if kind == "nan-box":
            nodes = np.argwhere(grid.inside)
            holes = nodes[rng.choice(len(nodes), size=len(nodes) // 40, replace=False)]
            f[tuple(holes.T)] = np.nan
        snaps.append(f)
    return snaps, times


def _probe_bits(v):
    return (v.index, v.time, v.branch, np.array([v.margin, v.time_slope]).tobytes(),
            v.gradient.tobytes(), v.hessian.tobytes(), v.point.tobytes())


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(grid=st.sampled_from(("disk", "stadium", "spheroid")),
       kind=st.sampled_from(("quadratic", "noisy", "planted", "nan-box", "steady")),
       n_snaps=st.sampled_from((3, 4)), mode=st.sampled_from(("sub", "super")),
       drift=st.booleans(), budget=st.sampled_from((2000, 150)),
       report_all=st.booleans(), seed=st.integers(0, 10_000))
@example(grid="disk", kind="quadratic", n_snaps=3, mode="sub", drift=False,
         budget=2000, report_all=True, seed=0)
@example(grid="spheroid", kind="quadratic", n_snaps=4, mode="super", drift=True,
         budget=2000, report_all=True, seed=1)
@example(grid="stadium", kind="nan-box", n_snaps=3, mode="super", drift=False,
         budget=2000, report_all=True, seed=2)
@example(grid="disk", kind="planted", n_snaps=4, mode="super", drift=False,
         budget=2000, report_all=False, seed=3)
@example(grid="spheroid", kind="steady", n_snaps=3, mode="sub", drift=True,
         budget=2000, report_all=True, seed=4)
def test_spot_check_matches_the_per_probe_oracle(grid, kind, n_snaps, mode, drift,
                                                 budget, report_all, seed):
    g = _oracle_grid(grid)
    snaps, times = _oracle_fields(g, kind, n_snaps, seed)
    params = mc.FlowParams(epsilon=0.2, nu=0.3) if drift else mc.FlowParams(epsilon=0.05)
    # an infinite negative tolerance reports every touched probe
    tol = -np.inf if report_all else None
    got = [v for v in vf.viscosity_spot_check(snaps, times, g, params, budget, tolerance=tol)
           if v.mode == mode]
    want = spot_check_loop(snaps, times, g, params, mode, budget, tolerance=tol)
    assert [_probe_bits(v) for v in got] == [_probe_bits(v) for v in want]
    # the node index of a probe is written to violations.csv as Python ints print
    assert all(type(i) is int for v in got for i in v.index)


def test_spot_check_temporaries_stay_small(grid32):
    u = np.where(grid32.inside, grid32.points[..., 0], np.nan)
    snaps, times = vf.replicate_steady(u)
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    vf.viscosity_spot_check(snaps, times, grid32, params)     # warm caches
    tracemalloc.start()
    try:
        vf.viscosity_spot_check(snaps, times, grid32, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20, f"allocation peak {peak} B"


def test_max_settled_residual_skips_endpoints(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, zero, bump)
    params = mc.FlowParams(epsilon=0.05)
    rep = mc.solve_ibvp(prob, grid16, params, horizon=0.1)
    residual = np.abs(vf.energy_series(rep))
    assert vf.max_settled_residual(rep, rep.t[0]) == np.max(residual[1:-1])
    assert vf.max_settled_residual(rep, settle_time=0.02) <= np.max(residual[1:-1])
