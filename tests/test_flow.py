import dataclasses
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mcflow as mc
from mcflow import flow as fl

from helpers import (zero, linear_x1, bump, linear_plus_bump, relax_explicit, RecorderOracle,
                     built_grid, BUILT_GRIDS)

# first converged run of the drift steady state, kept as a scheme anchor
STEADY_CENTER_H16_NU03 = 0.148835559260


def test_incompatible_data_rejected(unit_ball):
    with pytest.raises(fl.IncompatibleDataError):
        mc.IBVP(unit_ball, zero, lambda p: p[:, 0] + 0.5)


@pytest.mark.parametrize("bad", ["boundary", "initial", "both"])
def test_data_non_finite_on_the_boundary_rejected(unit_ball, bad):
    # sqrt(x1 + 0.95) is NaN on the arc x1 < -0.95 of the unit circle; one
    # function given as both data is reported as the boundary data
    root = lambda p: np.sqrt(p[:, 0] + 0.95)
    data = {"boundary": (root, zero), "initial": (zero, root), "both": (root, root)}[bad]
    pts = mc.boundary_points(unit_ball, fl.COMPATIBILITY_SAMPLES)
    first = pts[np.argmax(pts[:, 0] < -0.95)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(fl.IncompatibleDataError) as exc:
            mc.IBVP(unit_ball, *data)
    name = "initial" if bad == "initial" else "boundary"
    assert str(exc.value) == (f"{name} data evaluate non-finite at the boundary point "
                              f"({first[0]:.6g}, {first[1]:.6g})")


def test_zero_data_zero_solution(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, zero, zero)
    rep = mc.solve_ibvp(prob, grid16, mc.FlowParams(epsilon=0.05), horizon=0.05)
    assert rep.sup_u.max() == 0.0
    assert rep.sup_ut.max() == 0.0
    assert rep.aborted is None


def test_linear_data_stationary(unit_ball, grid32):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    rep = mc.solve_ibvp(prob, grid32, mc.FlowParams(epsilon=0.05), horizon=0.05)
    assert rep.sup_ut.max() < 1e-12
    assert abs(rep.sup_u.max() - rep.sup_u[0]) < 1e-12


def test_snapshots_at_requested_steps(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, zero, bump)
    params = mc.FlowParams(epsilon=0.05)
    rep = mc.solve_ibvp(prob, grid16, params, horizon=0.02, snapshot_times=(0.0, 0.01, 0.02))
    assert len(rep.snapshots) == 3
    dt = rep.dt
    for step, t, _v in rep.snapshots:
        assert t == pytest.approx(step * dt)
        assert step * dt <= 0.02 + 1e-12


@pytest.mark.parametrize("bad", [-0.5, 0.0125])
def test_snapshot_time_outside_the_run_rejected(unit_ball, grid16, bad):
    prob = mc.IBVP(unit_ball, zero, bump)
    with pytest.raises(ValueError, match=rf"snapshot time {bad} lies outside"):
        mc.solve_ibvp(prob, grid16, mc.FlowParams(epsilon=0.05), horizon=0.01,
                      snapshot_times=(bad, 0.005, 0.01))


def test_max_principle_nu_zero(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, zero, bump)
    rep = mc.solve_ibvp(prob, grid16, mc.FlowParams(epsilon=0.05), horizon=0.2)
    assert rep.max_u.max() <= 0.3 + 1e-8
    assert rep.min_u.min() >= 0.0 - 1e-8


def test_warnings_surface_inadmissible_speed(unit_ball, grid16):
    warns = fl.collect_warnings(unit_ball, grid16, mc.FlowParams(epsilon=0.05, nu=0.7))
    assert any("admissible" in w for w in warns)


def test_relax_stationary_converges_immediately(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    res = mc.relax_to_steady(prob, grid16, mc.FlowParams(epsilon=0.05), tol=1e-6)
    assert res.converged
    assert res.steps == 0


def test_relax_bump_returns_to_linear(unit_ball):
    # the linear field solves the driftless steady equation; grid refinement
    # keeps the terminal deviation at the relaxation-tolerance scale
    for h in (1 / 8, 1 / 16):
        grid = mc.build_grid(unit_ball, h)
        prob = mc.IBVP(unit_ball, linear_x1, linear_plus_bump)
        res = mc.relax_to_steady(prob, grid, mc.FlowParams(epsilon=0.05), tol=1e-6)
        assert res.converged
        dev = np.max(np.abs(res.values[grid.inside] - grid.points[grid.inside][:, 0]))
        assert dev < 1e-5


def test_relax_drift_steady_regression_anchor(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    res = mc.relax_to_steady(prob, grid16, mc.FlowParams(epsilon=0.05, nu=0.3), tol=1e-6)
    assert res.converged
    assert res.residual < 1e-6
    center = res.values[tuple(np.array(grid16.shape) // 2)]
    assert center == pytest.approx(STEADY_CENTER_H16_NU03, abs=1e-6)


def test_relax_budget_exhaustion_flagged(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    res = mc.relax_to_steady(prob, grid16, mc.FlowParams(epsilon=0.05, nu=0.3),
                             tol=1e-12, max_steps=10)
    assert not res.converged
    assert res.steps == 10


def test_relax_unsolvable_drift_stops_at_the_default_budget(unit_ball):
    # nu = 3 is far past |nu| < n H0 = 1, the barrier condition on the unit
    # disk, and the solve does not converge: it must stop at the default
    # budget, in seconds, and report the failure
    grid = mc.build_grid(unit_ball, 1 / 8)
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    res = mc.relax_to_steady(prob, grid, mc.FlowParams(epsilon=0.05, nu=3.0), tol=1e-6)
    assert not res.converged
    assert res.steps <= 20_000


def test_relax_rejects_bad_tolerance(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    with pytest.raises(ValueError):
        mc.relax_to_steady(prob, grid16, mc.FlowParams(epsilon=0.05), tol=0.0)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(h=st.sampled_from((1 / 8, 1 / 16)),
       angle=st.floats(-np.pi / 6, np.pi / 6),
       nu=st.sampled_from((0.0, 0.3, -0.3)))
def test_newton_matches_explicit_oracle(unit_ball, h, angle, nu):
    grid = mc.build_grid(unit_ball, h)
    c, s = np.cos(angle), np.sin(angle)
    data = lambda p: c * p[:, 0] + s * p[:, 1]
    prob = mc.IBVP(unit_ball, data, data)
    params = mc.FlowParams(epsilon=0.05, nu=nu)
    tol = 1e-7
    newton = mc.relax_to_steady(prob, grid, params, tol=tol)
    assert newton.converged
    fresh = mc.regularized_rhs(newton.values[grid.inside], grid, params,
                               mc.boundary_values(grid, data))
    assert newton.residual == float(np.max(np.abs(fresh[grid.interior[grid.inside]])))
    assert newton.residual < tol
    explicit = relax_explicit(prob, grid, params, tol)
    assert explicit.converged
    gap = np.max(np.abs(newton.values[grid.inside] - explicit.values[grid.inside]))
    assert gap <= 1e-6


@pytest.mark.parametrize("domain, h", [(mc.ellipse(1.0, 0.6), 1 / 16),
                                         (mc.ellipse(1.0, 0.6, dim=3), 1 / 8)])
def test_box_laplacian_inverse_undoes_the_box_laplacian(domain, h):
    # a random field on the grid box, zero on the edge of the box one node
    # wider; a box unlike in every axis pins which sine matrix acts where,
    # and unequal coefficients which eigenvalue factor
    grid = mc.build_grid(domain, h)
    inner = tuple(slice(1, -1) for _ in grid.shape)
    u = np.zeros(tuple(n + 2 for n in grid.shape))
    u[inner] = np.random.default_rng(0).standard_normal(grid.shape)
    every_node = np.arange(u[inner].size)
    inverse = fl._BoxLaplacianInverse(grid, every_node)
    unequal = {2: (0.05, 1.0), 3: (1.0, 0.3, 0.02)}[grid.dim]
    for coef in ((1.0,) * grid.dim, unequal):
        lap = np.zeros(grid.shape)
        for ax, a in enumerate(coef):
            lap += a * (np.roll(u, 1, ax)[inner] - 2 * u[inner] + np.roll(u, -1, ax)[inner])
        lap /= h ** 2
        inverse.set_coefficients(coef)
        back = inverse(lap.ravel())
        assert np.max(np.abs(back - u[inner].ravel())) < 1e-12 * np.max(np.abs(u)), coef


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(**BUILT_GRIDS, seed=st.integers(0, 10_000), amplitude=st.floats(0.0, 1.0),
       slope=st.floats(-100.0, 100.0), eps=st.floats(0.01, 0.5))
def test_frozen_coefficients_lie_in_the_unit_interval(kind, dim, center, size, ratio,
                                                       fraction, seed, amplitude, slope, eps):
    # a steep ramp along x1 under random node noise: the x1 coefficient
    # falls towards eps^2 / s^2 but stays positive
    grid = built_grid(kind, dim, center, size, ratio, fraction)
    assume(grid.interior.any())
    ramp = lambda p: slope * p[:, 0]
    bv = mc.boundary_values(grid, ramp)
    values = mc.init_state(grid, ramp, bv)
    noise = np.random.default_rng(seed).standard_normal(grid.shape)
    values[grid.interior[grid.inside]] += amplitude * noise[grid.interior]
    mc.apply_closure(values, bv)
    ws = mc.Workspace(grid)
    mc.regularized_rhs(values, grid, mc.FlowParams(epsilon=eps), bv, ws)
    coef = fl._frozen_coefficients(ws)
    assert coef.shape == (dim,)
    assert np.all(coef > 0.0) and np.all(coef <= 1.0), coef
    assert coef.sum() > dim - 1, coef       # dim - mean |g|^2 / s^2


def _steady_x1(h, nu, dim=2, angle=0.0):
    """The steady solve of x1 data, rotated towards x2 by angle, on the unit ball."""
    domain = mc.ball(1.0, dim=dim)
    grid = mc.build_grid(domain, h)
    c, s = np.cos(angle), np.sin(angle)
    data = (lambda p: c * p[:, 0] + s * p[:, 1]) if angle else linear_x1
    prob = mc.IBVP(domain, data, data)
    return mc.relax_to_steady(prob, grid, mc.FlowParams(epsilon=0.05, nu=nu), tol=1e-6,
                              max_steps=20_000)


def test_newton_converges_where_the_unpreconditioned_solve_stalled():
    # without the preconditioner Newton stalled here, and the explicit
    # fallback ended at residual 4e-2 after 20,000 evaluations
    res = _steady_x1(1 / 32, 0.9)
    assert res.converged
    assert res.steps <= 400


@pytest.mark.parametrize("h, dim, bound", [(1 / 64, 2, 400), (1 / 16, 3, 150)])
def test_preconditioned_newton_cost(h, dim, bound):
    # unpreconditioned: 1,615 evaluations on the disk, 193 on the 3D ball
    res = _steady_x1(h, 0.3, dim)
    assert res.converged
    assert res.steps <= bound


@pytest.mark.parametrize("h, dim, angle, bound", [(1 / 32, 2, 0.0, 70),
                                                 (1 / 32, 2, np.pi / 6, 80),
                                                 (1 / 32, 2, -np.pi / 6, 80),
                                                 (1 / 16, 3, 0.0, 50)])
def test_frozen_coefficients_cut_the_newton_cost(h, dim, angle, bound):
    # with unit coefficients: 131, 84 and 68 evaluations on the disk (x1,
    # then rotated by +-pi/6), 92 on the 3D ball
    res = _steady_x1(h, 0.3, dim, angle)
    assert res.converged
    assert res.steps <= bound


@pytest.mark.parametrize("eps", [0.025, 0.0125, 0.00625])
def test_cold_start_at_small_smoothing_converges(unit_ball, grid32, eps):
    # x1^2 data, nu = 0, no warm start: full Newton steps take 372, 440
    # and 664 evaluations with one BLAS thread
    data = lambda p: p[:, 0] ** 2
    prob = mc.IBVP(unit_ball, data, data)
    res = mc.relax_to_steady(prob, grid32, mc.FlowParams(epsilon=eps), tol=1e-6)
    assert res.converged and res.residual < 1e-6
    assert res.steps <= 1_000


def test_continuation_stationary_data_eps_independent(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    table = mc.epsilon_continuation(prob, grid16, mc.FlowParams(epsilon=0.2),
                                    (0.2, 0.1, 0.05), horizon=0.05)
    assert all(d <= 1e-10 for d in table.sup_diffs)


def test_continuation_blowup_names_its_row_node_and_step(unit_ball, grid16):
    # an override step ten times the stability bound overflows the first row
    params = mc.FlowParams(epsilon=0.2, dt_override=0.01)
    prob = mc.IBVP(unit_ball, zero, bump)
    with pytest.raises(mc.BlowUpError) as row:
        mc.epsilon_continuation(prob, grid16, params, (0.2, 0.1, 0.05), horizon=5.0)
    bvals = mc.boundary_values(grid16, prob.boundary_data)
    with pytest.raises(mc.BlowUpError) as alone:
        for _ in mc.march(mc.init_state(grid16, bump, bvals), grid16, params, bvals, 500):
            pass
    assert isinstance(row.value.node, tuple) and row.value.step > 0
    assert (row.value.node, row.value.step) == (alone.value.node, alone.value.step)
    assert str(row.value) == f"continuation row eps=0.2 aborted: {alone.value}"


def test_blowup_run_returns_aborted_without_a_warning(unit_ball, grid16):
    # the same overflowing step: on the steps before the update turns
    # non-finite, the recorder squares rates and gradients past the float range
    params = mc.FlowParams(epsilon=0.2, dt_override=0.01)
    prob = mc.IBVP(unit_ball, zero, bump)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = mc.solve_ibvp(prob, grid16, params, horizon=5.0)
    bvals = mc.boundary_values(grid16, prob.boundary_data)
    with pytest.raises(mc.BlowUpError) as alone:
        for _ in mc.march(mc.init_state(grid16, bump, bvals), grid16, params, bvals, 500):
            pass
    assert rep.aborted == str(alone.value)
    assert f"at node {alone.value.node} on step {alone.value.step}" in rep.aborted
    assert rep.steps == alone.value.step - 1 == len(rep.t) - 1


def test_continuation_needs_three_strictly_decreasing(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    with pytest.raises(ValueError):
        mc.epsilon_continuation(prob, grid16, mc.FlowParams(epsilon=0.2), (0.2,), 0.1)
    with pytest.raises(ValueError):
        mc.epsilon_continuation(prob, grid16, mc.FlowParams(epsilon=0.2),
                                (0.2, 0.2, 0.1), 0.1)


def test_continuation_rejects_smoothing_outside_the_unit_interval(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\), got \(2.0, 1.0, 0.5\)"):
        mc.epsilon_continuation(prob, grid16, mc.FlowParams(epsilon=0.2), (2, 1, 0.5), 0.1)


def test_report_series_lengths_agree(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, zero, bump)
    rep = mc.solve_ibvp(prob, grid16, mc.FlowParams(epsilon=0.05), horizon=0.02)
    n = len(rep.t)
    for arr in (rep.sup_u, rep.min_u, rep.max_u, rep.sup_grad, rep.sup_ut,
                rep.energy, rep.dissipation, rep.source, rep.ut_sq_integral):
        assert len(arr) == n
        assert np.all(np.isfinite(arr))


def _recorder_grids():
    """The disk at h = 1/16, the spheroid (1, 0.6) at h = 1/8, and the disk
    seen without interior nodes and without ring nodes."""
    disk = mc.build_grid(mc.ball(1.0), 1 / 16)
    no_interior = dataclasses.replace(disk, interior=np.zeros_like(disk.interior),
                                      near_boundary=disk.inside.copy())
    no_ring = dataclasses.replace(disk, interior=disk.inside.copy(),
                                  near_boundary=np.zeros_like(disk.inside))
    spheroid = mc.build_grid(mc.ellipse(1.0, 0.6, dim=3), 1 / 8)
    return {"disk": (disk, disk), "spheroid": (spheroid, spheroid),
            "no-interior": (disk, no_interior), "no-ring": (disk, no_ring)}


def _seen_workspace(ws, seen):
    """ws with the interior and ring of the grid seen, and its rate 0 off
    that interior: the node split the recorder reads from the workspace."""
    interior = seen.interior[seen.inside]
    return SimpleNamespace(rate=np.where(interior, ws.rate, 0.0), grads=ws.grads,
                           grad_sq=ws.grad_sq, s_node=ws.s_node, box=ws.box,
                           inside_flat=ws.inside_flat, interior=np.flatnonzero(interior),
                           ring=np.flatnonzero(~interior))


@pytest.mark.parametrize("kind", ["disk", "spheroid", "no-interior", "no-ring"])
@pytest.mark.parametrize("nu", [0.0, 0.3])
def test_recorder_matches_masked_oracle(kind, nu):
    grid, seen = _recorder_grids()[kind]
    params = mc.FlowParams(epsilon=0.05, nu=nu)
    bv = mc.boundary_values(grid, linear_plus_bump)
    rec, ref = fl._Recorder(seen, params), RecorderOracle(seen, params)
    for _, t, u, ws in mc.march(mc.init_state(grid, linear_plus_bump, bv), grid, params,
                                bv, 50):
        if seen is not grid:
            ws = _seen_workspace(ws, seen)
        rec.record(t, u, ws)
        ref.record(t, u, ws)
    assert rec.rows.keys() == ref.rows.keys()
    for name, row in ref.rows.items():
        assert len(row) == 51
        assert np.array(rec.rows[name]).tobytes() == np.array(row).tobytes(), name


def test_record_temporaries_stay_small():
    # the spheroid (1, 0.6) at h = 1/16: a 33 x 21 x 21 box, 113 KiB a field
    grid = mc.build_grid(mc.ellipse(1.0, 0.6, dim=3), 1 / 16)
    params = mc.FlowParams(epsilon=0.05)
    bv = mc.boundary_values(grid, bump)
    # the compact array and workspace of the march
    u = mc.init_state(grid, bump, bv)
    ws = mc.Workspace(grid)
    mc.regularized_rhs(u, grid, params, bv, ws)
    rec = fl._Recorder(grid, params)
    rec.record(0.0, u, ws)     # warm caches
    tracemalloc.start()
    try:
        rec.record(0.0, u, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * u.nbytes, f"allocation peak {peak} B"


def test_laplacian_inverse_matvec_buffers_no_gather(grid32):
    # every GMRES matvec of a steady solve gathers the interior nodes into its
    # own buffer; a gather in mode "raise" copies them to a temporary first
    idx = np.flatnonzero(grid32.interior)
    inverse = fl._BoxLaplacianInverse(grid32, idx)
    v = np.linspace(-1.0, 1.0, len(idx))
    inverse(v)     # warm caches
    tracemalloc.start()
    try:
        inverse(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(idx), f"allocation peak {peak} B"


def test_one_function_as_both_data_is_sampled_once(unit_ball):
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return zero(pts)

    assert mc.IBVP(unit_ball, counted, counted).initial_data is counted
    assert calls == [fl.COMPATIBILITY_SAMPLES]
