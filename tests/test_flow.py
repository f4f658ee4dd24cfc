import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mcflow as mc
from mcflow import flow as fl

from helpers import zero, linear_x1, bump, linear_plus_bump, RecorderOracle

# first converged run of the drift steady state, kept as a scheme anchor
STEADY_CENTER_H16_NU03 = 0.148835559260


def test_incompatible_data_rejected(unit_ball):
    with pytest.raises(fl.IncompatibleDataError):
        mc.IBVP(unit_ball, zero, lambda p: p[:, 0] + 0.5)


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


def test_max_principle_nu_zero(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, zero, bump)
    rep = mc.solve_ibvp(prob, grid16, mc.FlowParams(epsilon=0.05), horizon=0.2)
    assert rep.max_u.max() <= 0.3 + 1e-8
    assert rep.min_u.min() >= 0.0 - 1e-8


def test_warnings_surface_inadmissible_speed(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    rep = mc.solve_ibvp(prob, grid16, mc.FlowParams(epsilon=0.05, nu=0.7), horizon=0.001)
    assert any("admissible" in w for w in rep.warnings)


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
        dev = np.max(np.abs(res.state.values[grid.inside] - grid.points[grid.inside][:, 0]))
        assert dev < 1e-5


def test_relax_drift_steady_regression_anchor(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    res = mc.relax_to_steady(prob, grid16, mc.FlowParams(epsilon=0.05, nu=0.3), tol=1e-6)
    assert res.converged
    assert res.residual < 1e-6
    center = res.state.values[tuple(np.array(grid16.shape) // 2)]
    assert center == pytest.approx(STEADY_CENTER_H16_NU03, abs=1e-6)


def test_relax_budget_exhaustion_flagged(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    res = mc.relax_to_steady(prob, grid16, mc.FlowParams(epsilon=0.05, nu=0.3),
                             tol=1e-12, max_steps=10)
    assert not res.converged
    assert res.steps == 10


def test_relax_rejects_bad_tolerance(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    with pytest.raises(ValueError):
        mc.relax_to_steady(prob, grid16, mc.FlowParams(epsilon=0.05), tol=0.0)


def test_relax_rejects_unknown_method(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    with pytest.raises(ValueError, match="method"):
        mc.relax_to_steady(prob, grid16, mc.FlowParams(epsilon=0.05), tol=1e-6,
                           method="multigrid")


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
    assert newton.method == "newton" and newton.converged
    fresh = mc.regularized_rhs(newton.state.values, grid, params,
                               mc.boundary_values(grid, data))
    assert newton.residual == float(np.max(np.abs(fresh[grid.interior])))
    assert newton.residual < tol
    explicit = mc.relax_to_steady(prob, grid, params, tol=tol, method="explicit")
    assert explicit.method == "explicit" and explicit.converged
    gap = np.max(np.abs(newton.state.values[grid.inside] - explicit.state.values[grid.inside]))
    assert gap <= 1e-6


def test_newton_failure_falls_back_to_explicit(unit_ball, grid16, monkeypatch):
    # Newton cut off after 30 residual evaluations: the explicit loop must
    # finish from its best iterate and count both phases in steps
    real = fl._newton_steady
    outcomes = []

    def cut_short(state, rate, grid, params, bvals, ws, tol, budget):
        out = real(state, rate, grid, params, bvals, ws, tol, 30)
        assert np.max(np.abs(out.rate[grid.interior])) >= tol
        outcomes.append(out)
        return out

    monkeypatch.setattr(fl, "_newton_steady", cut_short)
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    res = mc.relax_to_steady(prob, grid16, mc.FlowParams(epsilon=0.05, nu=0.3), tol=1e-6)
    assert res.method == "explicit"
    assert res.converged and res.residual < 1e-6
    assert res.newton_iterations == outcomes[0].iterations
    assert res.steps > outcomes[0].evals == 30
    center = res.state.values[tuple(np.array(grid16.shape) // 2)]
    assert center == pytest.approx(STEADY_CENTER_H16_NU03, abs=1e-6)


@pytest.mark.parametrize("domain, h", [(mc.ellipse(1.0, 0.6), 1 / 16),
                                         (mc.ellipse(1.0, 0.6, dim=3), 1 / 8)])
def test_box_laplacian_inverse_undoes_the_box_laplacian(domain, h):
    # a random field on the grid box, zero on the edge of the box one node
    # wider; a box unlike in every axis pins which sine matrix acts where
    grid = mc.build_grid(domain, h)
    inner = tuple(slice(1, -1) for _ in grid.shape)
    u = np.zeros(tuple(n + 2 for n in grid.shape))
    u[inner] = np.random.default_rng(0).standard_normal(grid.shape)
    lap = -2 * grid.dim * u[inner]
    for ax in range(grid.dim):
        lap += np.roll(u, 1, ax)[inner] + np.roll(u, -1, ax)[inner]
    lap /= h ** 2
    every_node = np.arange(lap.size)
    back = fl._BoxLaplacianInverse(grid, every_node)(lap.ravel())
    assert np.max(np.abs(back - u[inner].ravel())) < 1e-12 * np.max(np.abs(u))


def _steady_x1(h, nu, dim=2):
    domain = mc.ball(1.0, dim=dim)
    grid = mc.build_grid(domain, h)
    prob = mc.IBVP(domain, linear_x1, linear_x1)
    return mc.relax_to_steady(prob, grid, mc.FlowParams(epsilon=0.05, nu=nu), tol=1e-6,
                              max_steps=20_000)


def test_newton_converges_where_the_unpreconditioned_solve_stalled():
    # without the preconditioner Newton stalled here, and the explicit
    # fallback ended at residual 4e-2 after 20,000 evaluations
    res = _steady_x1(1 / 32, 0.9)
    assert res.method == "newton" and res.converged
    assert res.steps <= 400


@pytest.mark.parametrize("h, dim, bound", [(1 / 64, 2, 400), (1 / 16, 3, 150)])
def test_preconditioned_newton_cost(h, dim, bound):
    # unpreconditioned: 1,615 evaluations on the disk, 193 on the 3D ball
    res = _steady_x1(h, 0.3, dim)
    assert res.method == "newton" and res.converged
    assert res.steps <= bound


def test_continuation_stationary_data_eps_independent(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    table = mc.epsilon_continuation(prob, grid16, mc.FlowParams(epsilon=0.2),
                                    (0.2, 0.1, 0.05), horizon=0.05)
    assert all(d <= 1e-10 for d in table.sup_diffs)


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


@pytest.mark.parametrize("kind", ["disk", "spheroid", "no-interior", "no-ring"])
@pytest.mark.parametrize("nu", [0.0, 0.3])
def test_recorder_matches_masked_oracle(kind, nu):
    grid, seen = _recorder_grids()[kind]
    params = mc.FlowParams(epsilon=0.05, nu=nu)
    bv = mc.boundary_values(grid, linear_plus_bump)
    rec, ref = fl._Recorder(seen, params), RecorderOracle(seen, params)
    for _, state, ws in mc.march(mc.init_state(grid, linear_plus_bump, bv), grid, params,
                                 bv, 50):
        rec.record(state, ws)
        ref.record(state, ws)
    assert rec.rows.keys() == ref.rows.keys()
    for name, row in ref.rows.items():
        assert len(row) == 51
        assert np.array(rec.rows[name]).tobytes() == np.array(row).tobytes(), name


def test_record_temporaries_stay_small():
    # the spheroid (1, 0.6) at h = 1/16: a 33 x 21 x 21 box, 113 KiB a field
    grid = mc.build_grid(mc.ellipse(1.0, 0.6, dim=3), 1 / 16)
    params = mc.FlowParams(epsilon=0.05)
    bv = mc.boundary_values(grid, bump)
    state = mc.init_state(grid, bump, bv)
    ws = mc.Workspace(grid)
    mc.regularized_rhs(state.values, grid, params, bv, ws)
    rec = fl._Recorder(grid, params)
    rec.record(state, ws)     # warm caches
    tracemalloc.start()
    try:
        rec.record(state, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * state.values.nbytes, f"allocation peak {peak} B"
