import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mcflow as mc
from mcflow import barriers as ba, flow as fl
from mcflow import operator as op

from helpers import (zero, linear_x1, quadratic_r2, bump, observed_orders, step,
                     boundary_trace_residual, rate_closed_form, diffusion_tensor,
                     quadrature, SliceWorkspace, regularized_rhs_slices,
                     built_domain, built_grid, BUILT_GRIDS, build_grid_rolled,
                     boundary_values_per_family, march_box_flat)

WS_FIELDS = ("rate", "grads", "grad_sq", "s_node")


def _node_index(grid, x, y):
    """Compact position of the inside node at (x, y)."""
    pts = grid.points[grid.inside]
    return int(np.flatnonzero((np.abs(pts[:, 0] - x) < 1e-9)
                              & (np.abs(pts[:, 1] - y) < 1e-9))[0])


def test_params_validation():
    with pytest.raises(op.OperatorError):
        mc.FlowParams(epsilon=0.0)
    with pytest.raises(op.OperatorError):
        mc.FlowParams(epsilon=1.0)


def test_gradient_zero_on_constants(grid32):
    bv = op.boundary_values(grid32, lambda p: np.full(len(p), 3.0))
    st = op.init_state(grid32, lambda p: np.full(len(p), 3.0), bv)
    g = op.node_gradient(st, grid32, bv)
    assert np.max(np.abs(g)) < 1e-12


def test_gradient_exact_on_linear(grid32):
    p = np.array([0.7, -0.4])
    fn = lambda q: q @ p
    bv = op.boundary_values(grid32, fn)
    st = op.init_state(grid32, fn, bv)
    g = op.node_gradient(st, grid32, bv)
    for k in range(2):
        assert np.max(np.abs(g[k] - p[k])) < 1e-11


def test_gradient_exact_on_quadratic_interior(grid32):
    bv = op.boundary_values(grid32, quadratic_r2)
    st = op.init_state(grid32, quadratic_r2, bv)
    g = op.node_gradient(st, grid32, bv)
    idx = _node_index(grid32, 0.25, 0.25)
    assert g[0][idx] == pytest.approx(0.5, abs=1e-12)
    assert g[1][idx] == pytest.approx(0.5, abs=1e-12)


def test_rate_closed_form_quadratic():
    # shrinking-circle field: rate = 4 - 8 r^2/(eps^2 + 4 r^2)
    params = mc.FlowParams(epsilon=0.1, nu=0.0)
    val = rate_closed_form([1.0, 0.0], 2 * np.eye(2), params)
    assert val == pytest.approx(4 - 8 * 0.25 / (0.01 + 1.0), abs=1e-12)
    assert val == pytest.approx(2.019801980198020, abs=1e-12)


def test_discrete_rate_matches_closed_form(grid32):
    params = mc.FlowParams(epsilon=0.1, nu=0.0)
    bv = op.boundary_values(grid32, quadratic_r2)
    st = op.init_state(grid32, quadratic_r2, bv)
    rate = op.regularized_rhs(st, grid32, params, bv)
    idx = _node_index(grid32, 0.5, 0.0)
    assert rate[idx] == pytest.approx(2.019801980198020, abs=2e-3)


def test_rate_linear_field_is_pure_source(grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    bv = op.boundary_values(grid32, linear_x1)
    st = op.init_state(grid32, linear_x1, bv)
    rate = op.regularized_rhs(st, grid32, params, bv)
    expect = 0.3 * np.sqrt(0.05 ** 2 + 1.0)
    vals = rate[grid32.interior[grid32.inside]]
    assert np.max(np.abs(vals - expect)) < 1e-11


def test_rate_epsilon_limit_of_quadratic(grid32):
    # eps -> 0 at r > 0: rate -> 2, the exact shrinking-circle speed
    bv = op.boundary_values(grid32, quadratic_r2)
    st = op.init_state(grid32, quadratic_r2, bv)
    idx = _node_index(grid32, 0.5, 0.0)
    vals = []
    for eps in (0.1, 0.01, 0.001):
        rate = op.regularized_rhs(st, grid32, mc.FlowParams(epsilon=eps), bv)
        vals.append(rate[idx])
    assert abs(vals[-1] - 2.0) < 5e-3
    assert abs(vals[-1] - 2.0) < abs(vals[0] - 2.0)


def test_stable_dt_formula(grid32, grid16):
    assert op.stable_dt(mc.FlowParams(epsilon=0.1), grid32) == pytest.approx(
        0.25 / (2 * 32 ** 2))
    g3 = mc.build_grid(mc.ball(1.0, dim=3), 1 / 16)
    assert op.stable_dt(mc.FlowParams(epsilon=0.1), g3) == pytest.approx(
        0.25 * (1 / 256) / 3)


@pytest.mark.parametrize("domain, h, horizon, steps", [
    (mc.ball(1.0), 1 / 32, 1.0, 8192),
    (mc.ellipse(1.0, 0.6, dim=3), 1 / 16, 0.5, 1536),
    (mc.ball(1.0), 1 / 16, 0.25, 512),
    (mc.ball(1.0), 1 / 16, 0.5, 1024),
    (mc.smoothed_stadium(0.5, 1.5, 0.25), 1 / 32, 0.5, 4096),
])
def test_whole_steps_of_the_benchmark_runs(domain, h, horizon, steps):
    grid = mc.build_grid(domain, h)
    assert op.whole_steps(horizon, op.stable_dt(mc.FlowParams(epsilon=0.05), grid)) == steps


def test_whole_steps_forgives_round_off():
    assert 0.3 / 0.1 < 3
    assert op.whole_steps(0.3, 0.1) == 3
    assert op.whole_steps(0.25, 0.1) == 2


@pytest.mark.parametrize("duration", [-0.3, 0.05])
def test_whole_steps_is_zero_under_one_step(duration):
    assert op.whole_steps(duration, 0.1) == 0


def test_dt_override_warning_threshold(grid32):
    h2 = grid32.spacing ** 2
    ok = mc.FlowParams(epsilon=0.1, dt_override=0.2 * h2)
    bad = mc.FlowParams(epsilon=0.1, dt_override=h2)
    # the rule of flow.collect_warnings: dt <= 0.5 h^2 / dim
    assert fl.collect_warnings(grid32.domain, grid32, ok) == []
    assert fl.collect_warnings(grid32.domain, grid32, bad) == [
        f"dt_override={h2} exceeds the stability bound {0.25 * h2:.6g}"]
    assert op.stable_dt(bad, grid32) == h2


def test_step_constant_stationary_when_nu_zero(grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    c = 2.0
    fn = lambda p: np.full(len(p), c)
    bv = op.boundary_values(grid32, fn)
    st = op.init_state(grid32, fn, bv)
    new = step(st, grid32, params, bv)
    assert np.max(np.abs(new - c)) < 1e-14


def test_step_constant_drifts_at_eps_nu(grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    c = 2.0
    fn = lambda p: np.full(len(p), c)
    bv = op.boundary_values(grid32, fn)
    st = op.init_state(grid32, fn, bv)
    new = step(st, grid32, params, bv)
    dt = op.stable_dt(params, grid32)
    drift = new[grid32.interior[grid32.inside]] - c
    assert np.max(np.abs(drift - dt * 0.05 * 0.3)) < 1e-12


def test_step_quadratic_moves_by_closed_form_rate(grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    bv = op.boundary_values(grid32, quadratic_r2)
    st = op.init_state(grid32, quadratic_r2, bv)
    new = step(st, grid32, params, bv)
    dt = op.stable_dt(params, grid32)
    idx = _node_index(grid32, 0.5, 0.0)
    expect = st[idx] + dt * (4 - 8 * 0.25 / (0.05 ** 2 + 1.0))
    assert new[idx] == pytest.approx(expect, abs=dt * 5e-3)


def test_boundary_trace_exact_after_steps(grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    bv = op.boundary_values(grid32, linear_x1)
    st = op.init_state(grid32, linear_x1, bv)
    for k in range(5):
        st = step(st, grid32, params, bv, k)
    assert boundary_trace_residual(st, bv) < 1e-12


def test_diffusion_tensor_eigenvalues_in_unit_interval(grid32):
    rng = np.random.default_rng(11)
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    for _ in range(50):
        p = rng.normal(scale=2.0, size=2)
        lam = np.linalg.eigvalsh(diffusion_tensor(p, params))
        assert lam[0] > 0.0
        assert lam[-1] <= 1.0 + 1e-14


def test_consistency_orders_quadratic_family(unit_ball):
    """Residual of the exact shrinking-circle solution on nested sample nodes."""
    params = mc.FlowParams(epsilon=1e-3, nu=0.0)
    res = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = mc.build_grid(unit_ball, h)
        bv = op.boundary_values(grid, quadratic_r2)
        st = op.init_state(grid, quadratic_r2, bv)
        rate = op.regularized_rhs(st, grid, params, bv)
        r = np.linalg.norm(grid.points, axis=-1)
        stride = int(round((1 / 16) / h))
        sel = np.zeros(grid.shape, bool)
        sel[::stride, ::stride] = True
        mask = grid.interior & sel & (r >= 0.2) & (r <= 0.8)
        res.append(float(np.max(np.abs(2.0 - rate[mask[grid.inside]]))))
    orders = observed_orders(res)
    assert min(orders) >= 1.5


def test_consistency_linear_family_exact(unit_ball):
    params = mc.FlowParams(epsilon=0.07, nu=0.25)
    p = np.array([0.8, -0.3])
    fn = lambda q: q @ p
    expect = 0.25 * np.sqrt(0.07 ** 2 + p @ p)
    for h in (1 / 16, 1 / 32):
        grid = mc.build_grid(unit_ball, h)
        bv = op.boundary_values(grid, fn)
        st = op.init_state(grid, fn, bv)
        rate = op.regularized_rhs(st, grid, params, bv)
        assert np.max(np.abs(rate[grid.interior[grid.inside]] - expect)) < 1e-11


def test_per_step_ordering_preserved(grid16):
    # one Euler step keeps ordered fields ordered (empirical, smooth data)
    params = mc.FlowParams(epsilon=0.1, nu=0.0)
    fn_lo = lambda p: p[:, 0]
    fn_hi = lambda p: p[:, 0] + 0.1 * (1 - np.sum(p ** 2, axis=1))
    bv_lo = op.boundary_values(grid16, fn_lo)
    bv_hi = op.boundary_values(grid16, fn_hi)
    lo = op.init_state(grid16, fn_lo, bv_lo)
    hi = op.init_state(grid16, fn_hi, bv_hi)
    for k in range(20):
        lo = step(lo, grid16, params, bv_lo, k)
        hi = step(hi, grid16, params, bv_hi, k)
    gap = lo - hi
    assert np.max(gap) <= 1e-10


@pytest.mark.parametrize("layout", ["box", "short"])
def test_operator_rejects_a_field_outside_the_compact_layout(grid16, layout):
    params = mc.FlowParams(epsilon=0.05)
    bv = op.boundary_values(grid16, bump)
    start = op.init_state(grid16, bump, bv)
    values = op.Workspace(grid16).box(start) if layout == "box" else start[:-1]
    calls = (lambda: op.node_gradient(values, grid16, bv),
             lambda: op.node_gradient(values, grid16, bv, op.Workspace(grid16)),
             lambda: op.regularized_rhs(values, grid16, params, bv),
             lambda: op.regularized_rhs(values, grid16, params, bv, op.Workspace(grid16)),
             lambda: next(op.march(values, grid16, params, bv, 1)))
    for call in calls:
        with pytest.raises(op.OperatorError, match=re.escape(f"got shape {values.shape}")) as exc:
            call()
        assert f"expected a compact array of shape ({grid16.n_inside}," in str(exc.value)


def test_blowup_error_names_node_and_step(grid16):
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    bv = op.boundary_values(grid16, zero)
    st = op.init_state(grid16, zero, bv)
    st[grid16.interior[grid16.inside]] = np.inf
    with pytest.raises(op.BlowUpError) as exc:
        step(st, grid16, params, bv, step_index=7)
    assert "step 7" in str(exc.value)
    assert exc.value.node is not None


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000), nu=st.sampled_from((0.0, 0.3, -0.3)))
def test_march_keeps_ordered_pairs_ordered(unit_ball, grid16, seed, nu):
    params = mc.FlowParams(epsilon=0.1, nu=nu)
    low, high = ba.random_ordered_pair(unit_ball, seed)
    bv_lo = op.boundary_values(grid16, low.boundary_data)
    bv_hi = op.boundary_values(grid16, high.boundary_data)
    lo0 = op.init_state(grid16, low.initial_data, bv_lo)
    hi0 = op.init_state(grid16, high.initial_data, bv_hi)
    for (_, _, lo, _), (_, _, hi, _) in zip(op.march(lo0, grid16, params, bv_lo, 40),
                                            op.march(hi0, grid16, params, bv_hi, 40)):
        assert np.max(lo - hi) <= 1e-10
        assert boundary_trace_residual(lo, bv_lo) < 1e-12
        assert boundary_trace_residual(hi, bv_hi) < 1e-12


def test_solve_ibvp_matches_repeated_steps(unit_ball, grid16):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    n = 25
    horizon = n * op.stable_dt(params, grid16)
    rep = mc.solve_ibvp(mc.IBVP(unit_ball, bump, bump), grid16, params, horizon,
                        snapshot_times=(horizon,))
    bv = op.boundary_values(grid16, bump)
    st_, t_ = op.init_state(grid16, bump, bv), 0.0
    for k in range(1, n + 1):
        st_ = step(st_, grid16, params, bv, k)
        t_ += op.stable_dt(params, grid16)
    snap_step, t, values = rep.snapshots[-1]
    assert snap_step == rep.steps == n
    assert t == rep.t[-1] == t_
    assert values.tobytes() == op.Workspace(grid16).box(st_).tobytes()


def test_march_leaves_start_state_untouched(grid16):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    bv = op.boundary_values(grid16, bump)
    start = op.init_state(grid16, bump, bv)
    before = start.tobytes()
    for k, t, u, ws in op.march(start, grid16, params, bv, 5):
        assert u is not start
        fresh = op.Workspace(grid16)
        op.regularized_rhs(u, grid16, params, bv, fresh)
        for name in ("rate", "grads", "s_node"):
            assert np.array_equal(getattr(ws, name), getattr(fresh, name), equal_nan=True)
    assert k == 5
    assert start.tobytes() == before
    assert t > 0.0


@pytest.fixture(scope="module")
def stack_grids(grid16):
    """The disk and the ellipse (1, 0.5) at h = 1/16, and the disk with
    hand-made defects that no grid of the three domain kinds has: a node cut
    on both sides of an axis, and a chain of three near-boundary nodes each
    closed through the next, so the closure runs three levels."""
    fix = {k: getattr(grid16, k).copy()
           for k in ("theta", "interior", "near_boundary", "closure_axis", "closure_side")}
    ring = [tuple(i) for i in np.argwhere(grid16.near_boundary)
            if grid16.closure_axis[tuple(i)] == 0 and grid16.closure_side[tuple(i)] == 1
            and np.isnan(grid16.theta[0, 0][tuple(i)])]
    mid = grid16.shape[1] // 2
    sliver = max(ring, key=lambda n: abs(n[1] - mid))
    fix["theta"][0, 0][sliver] = 0.5
    # head closes through its minus-x neighbor; make that one close through
    # its plus-y neighbor, and that one through its minus-x neighbor
    head = min(ring, key=lambda n: abs(n[1] - mid))
    links = (((head[0] - 1, head[1]), 1, 0), ((head[0] - 1, head[1] + 1), 0, 1))
    for node, axis, side in links:
        assert grid16.interior[node]
        fix["theta"][axis, 1 - side][node] = 0.9
        fix["interior"][node] = False
        fix["near_boundary"][node] = True
        fix["closure_axis"][node] = axis
        fix["closure_side"][node] = 1 - side
    assert grid16.interior[head[0] - 2, head[1] + 1]
    return {"disk": grid16, "ellipse": mc.build_grid(mc.ellipse(1.0, 0.5), 1 / 16),
            "defects": dataclasses.replace(grid16, **fix)}


def _stack_data(unit_ball, fields):
    """'zero', 'bump', 'tiny' (1e-12 bump) or a random_ordered_pair seed
    (its low data if even, else high)."""
    named = {"zero": zero, "bump": bump, "tiny": lambda p: 1e-12 * bump(p)}
    return [named[f] if f in named else ba.random_ordered_pair(unit_ball, f)[f % 2].initial_data
            for f in fields]


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(fields=st.lists(st.sampled_from(("zero", "bump", "tiny")) | st.integers(0, 10_000),
                       min_size=1, max_size=5),
       nu=st.sampled_from((0.0, 0.3, -0.3)),
       kind=st.sampled_from(("disk", "ellipse", "defects")))
# the defects grid closes in three levels, and a field of amplitude 1e-12
# steps beside fields of order one
@example(fields=["bump", "zero", 7], nu=0.0, kind="ellipse")
@example(fields=[4, "tiny", "bump", 3], nu=0.0, kind="defects")
def test_stacked_march_matches_separate_marches(unit_ball, stack_grids, fields, nu, kind):
    grid = stack_grids[kind]
    params = mc.FlowParams(epsilon=0.1, nu=nu)
    data = _stack_data(unit_ball, fields)
    bv = op.boundary_values(grid, data)
    if kind == "defects":
        assert _two_sided_cuts(grid) and (bv.c_inner < 0).any()
        assert np.isin(bv.c_inner, bv.nb_nodes).any()
    alone = []
    for f in data:
        bv_f = op.boundary_values(grid, f)
        alone.append(op.march(op.init_state(grid, f, bv_f), grid, params, bv_f, 16))
    stacked = op.march(op.init_state(grid, data, bv), grid, params, bv, 16)
    for (k, t, u, ws), *singles in zip(stacked, *alone):
        assert u.shape == (grid.n_inside, len(data))
        for b, (_, t_b, single, ws_b) in enumerate(singles):
            assert np.array_equal(u[..., b], single, equal_nan=True)
            for name in WS_FIELDS:
                assert np.array_equal(getattr(ws, name)[..., b], getattr(ws_b, name),
                                      equal_nan=True)
            assert t == t_b
    assert k == 16


def test_stack_of_one_matches_the_unstacked_field(grid16):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    bv1 = op.boundary_values(grid16, [bump])
    bv = op.boundary_values(grid16, bump)
    for (_, _, one, ws1), (_, _, plain, ws) in zip(
            op.march(op.init_state(grid16, [bump], bv1), grid16, params, bv1, 8),
            op.march(op.init_state(grid16, bump, bv), grid16, params, bv, 8)):
        assert one.shape == (grid16.n_inside, 1)
        assert one[..., 0].tobytes() == plain.tobytes()
        for name in WS_FIELDS:
            assert getattr(ws1, name)[..., 0].tobytes() == getattr(ws, name).tobytes()


def test_closure_cycle_is_rejected_naming_a_node_on_it(grid16):
    # four interior nodes around one cell, each closed through the next
    i, j = grid16.shape[0] // 2, grid16.shape[1] // 2
    cycle = (((i, j), 0, 0), ((i + 1, j), 1, 0), ((i + 1, j + 1), 0, 1), ((i, j + 1), 1, 1))
    fix = {k: getattr(grid16, k).copy()
           for k in ("theta", "interior", "near_boundary", "closure_axis", "closure_side")}
    for node, axis, side in cycle:
        assert grid16.interior[node]
        fix["theta"][axis, side][node] = 0.5
        fix["interior"][node] = False
        fix["near_boundary"][node] = True
        fix["closure_axis"][node] = axis
        fix["closure_side"][node] = side
    grid = dataclasses.replace(grid16, **fix)
    with pytest.raises(op.OperatorError, match="cycle") as exc:
        op.boundary_values(grid, bump)
    assert any(f"node {node}" in str(exc.value) for node, _, _ in cycle)


def _blowup(grid, data, params):
    bv = op.boundary_values(grid, data)
    with pytest.raises(op.BlowUpError) as exc:
        for _ in op.march(op.init_state(grid, data, bv), grid, params, bv, 500):
            pass
    return exc.value


def test_blowup_in_a_stack_names_earliest_step_lowest_field(unit_ball, grid16):
    # the override step of the CLI blow-up config, about 10 times 0.5 h^2 / dim;
    # zero data at nu = 0 never move, so the first field stays finite
    params = mc.FlowParams(epsilon=0.1, dt_override=0.01)
    low, high = ba.random_ordered_pair(unit_ball, 0)
    # low and high blow up on the same step, the high field at an earlier node
    data = [zero, low.initial_data, bump, high.initial_data]
    alone = {b: _blowup(grid16, f, params) for b, f in enumerate(data) if b}
    first = min(alone, key=lambda b: (alone[b].step, b))
    err = _blowup(grid16, data, params)
    assert (err.step, err.node, err.field) == (alone[first].step, alone[first].node, first)
    assert str(err) == f"non-finite value at node {err.node} of field {first} on step {err.step}"
    single = alone[first]
    assert single.field is None
    assert str(single) == f"non-finite value at node {single.node} on step {single.step}"


def test_quadrature_measures_disk_area(grid32):
    one = np.where(grid32.inside, 1.0, np.nan)
    assert quadrature(one, grid32) == pytest.approx(np.pi, rel=0.01)


def _two_sided_cuts(grid):
    """Count of (axis, node) whose grid line the boundary cuts on both sides."""
    return int(np.isfinite(grid.theta).all(axis=1).sum())


def _closure_branches(grid, bv):
    """(two-sided cuts, constant closures, closures that read a near-boundary node)."""
    return (_two_sided_cuts(grid), int((bv.c_inner < 0).sum()),
            int(np.isin(bv.c_inner, bv.nb_nodes).sum()))


# (kind, dim, center, size, ratio, fraction): the slender off-centre ellipse
# and spheroid reach all three branches, the disk at h = 0.1 chains, the
# ellipse (1, 0.5) off centre at h = 1/16 a two-sided cut, the ellipse
# (1, 0.25) at h = 0.4375 b has two-node chords whose nodes close through
# each other; the spheroid (1, 0.25) at h = b/12 has lattice nodes on its
# boundary to round-off
BRANCH_GRIDS = (("ellipse", 2, (0.013, -0.021, 0.0), 1.0, 0.15, 1 / 3),
                ("ellipse", 3, (0.013, -0.021, 0.0), 1.0, 0.15, 1 / 3),
                ("ball", 2, (0.0, 0.0, 0.0), 1.0, 1.0, 0.1),
                ("ellipse", 2, (0.013, -0.021, 0.0), 1.0, 0.5, 1 / 8),
                ("ellipse", 2, (0.0, 0.0, 0.0), 1.0, 0.25, 0.4375),
                ("ellipse", 3, (0.0, 0.0, 0.0), 1.0, 0.25, 1 / 12))


def _branch_grid(i):
    return dict(zip(("kind", "dim", "center", "size", "ratio", "fraction"), BRANCH_GRIDS[i]))


@pytest.mark.parametrize("i, reached", [(0, (True, True, True)), (1, (True, True, True)),
                                       (2, (False, False, True)), (3, (True, False, False)),
                                       (4, (False, True, False))])
def test_built_grids_reach_every_closure_branch(i, reached):
    kind, dim, center, size, ratio, fraction = BRANCH_GRIDS[i]
    domain = built_domain(kind, dim, center, size, ratio)
    grid = mc.build_grid(domain, fraction * min(domain.shape_parameters))
    counts = _closure_branches(grid, op.boundary_values(grid, linear_x1))
    assert tuple(n > 0 for n in counts) == reached


def _closure_fields(dim):
    slope = np.array([0.7, -0.4, 0.3])[:dim]
    linear = lambda p: 0.2 + p @ slope
    fields = [lambda p: np.sin(3 * p[:, 0]) * np.cos(2 * p[:, -1]),
              lambda p: 0.3 * (1.0 - np.sum(p ** 2, axis=1)) ** 2 + 0.1 * p[:, 0],
              linear]
    return slope, linear, fields


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(**BUILT_GRIDS, stacked=st.booleans(), nu=st.sampled_from((0.0, 0.3)))
@example(**_branch_grid(0), stacked=True, nu=0.0)
@example(**_branch_grid(1), stacked=False, nu=0.3)
@example(**_branch_grid(2), stacked=True, nu=0.3)
@example(**_branch_grid(3), stacked=False, nu=0.0)
@example(**_branch_grid(4), stacked=False, nu=0.0)
@example(**_branch_grid(5), stacked=True, nu=0.0)
def test_closure_on_built_grids(kind, dim, center, size, ratio, fraction, stacked, nu):
    grid = built_grid(kind, dim, center, size, ratio, fraction)
    inside = grid.inside
    tol = 1e-12
    slope, linear, fields = _closure_fields(dim)

    # linear data: the closure and every cut stencil are exact
    bv = op.boundary_values(grid, linear)
    start = op.init_state(grid, linear, bv)
    assert np.abs(start - linear(grid.points[inside])).max() <= tol
    grads = op.node_gradient(start, grid, bv)
    # a stencil across a cut theta*h long loses about eps*|u|/(theta*h) to
    # round-off: a node on the boundary to round-off has its cut clamped at 1e-12
    theta = np.fmin(grid.theta[:, 0], grid.theta[:, 1])
    theta = np.where(np.isnan(theta), 1.0, theta)
    loss = 16 * np.finfo(float).eps * np.abs(start).max() / grid.spacing
    for k in range(dim):
        assert np.all(np.abs(grads[k] - slope[k]) <= 1e-9 + loss / theta[k][inside])

    data = fields if stacked else fields[0]
    bv = op.boundary_values(grid, data)
    # the residual sees a wrong value at either kind of closed node
    const = bv.c_inner < 0
    for nodes in (bv.nb_nodes[const], bv.nb_nodes[~const]):
        if len(nodes):
            values = op.init_state(grid, data, bv)
            values[nodes] += 1.0
            assert boundary_trace_residual(values, bv) >= 0.5

    # from the raw samples, one closure call closes the ring
    raw = op._sample(data, grid.points[inside])
    assert boundary_trace_residual(op.apply_closure(raw, bv), bv) <= tol

    params = mc.FlowParams(epsilon=0.1, nu=nu)
    for _, _, u, ws in op.march(op.init_state(grid, data, bv), grid, params, bv, 3):
        assert boundary_trace_residual(u, bv) <= tol
        assert np.isfinite(ws.grads).all()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**BUILT_GRIDS)
@example(**_branch_grid(3))
@example(**_branch_grid(5))
def test_lattice_edge_nodes_are_cut_on_their_edge_side(kind, dim, center, size, ratio,
                                                       fraction):
    # the compact operator's last-axis shifts cross from the end of one run
    # of inside nodes to the next; a run ending on the lattice edge must end
    # on a node that takes the cut formula on its edge side
    grid = built_grid(kind, dim, center, size, ratio, fraction)
    for ax in range(dim):
        for side, edge in ((0, 0), (1, -1)):
            at_edge = (slice(None),) * ax + (edge,)
            assert not grid.interior[at_edge].any()
            assert np.isfinite(grid.theta[ax, side][at_edge][grid.inside[at_edge]]).all()


def _assert_matches_slice_oracle(grid, data, params, steps):
    """Rate at interior nodes, gradient and smoothed norm at inside nodes,
    bit for bit against the slice oracle, and the squared gradient norm
    against the summed squares of the gradient, on every state of a short
    march."""
    bv = op.boundary_values(grid, data)
    for _, _, u, ws in op.march(op.init_state(grid, data, bv), grid, params, bv, steps):
        ref = SliceWorkspace(grid, u.shape[1:])
        regularized_rhs_slices(ws.box(u), grid, params, bv, ref)
        assert ws.rate[ws.interior].tobytes() == ref.rate[grid.interior].tobytes()
        assert ws.s_node.tobytes() == ref.s_node[grid.inside].tobytes()
        assert ws.grads.tobytes() == ref.grads[:, grid.inside].tobytes()
        summed = np.sum(ws.grads ** 2, axis=0)
        assert ws.grad_sq.tobytes() == summed.tobytes()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(**BUILT_GRIDS, stacked=st.booleans(), nu=st.sampled_from((0.0, 0.3)))
@example(**_branch_grid(0), stacked=True, nu=0.0)
@example(**_branch_grid(1), stacked=False, nu=0.3)
@example(**_branch_grid(2), stacked=True, nu=0.3)
@example(**_branch_grid(3), stacked=False, nu=0.0)
@example(**_branch_grid(4), stacked=True, nu=0.0)
@example(**_branch_grid(5), stacked=True, nu=0.3)
def test_flat_operator_matches_slice_oracle(kind, dim, center, size, ratio, fraction,
                                            stacked, nu):
    grid = built_grid(kind, dim, center, size, ratio, fraction)
    _, _, fields = _closure_fields(dim)
    _assert_matches_slice_oracle(grid, fields if stacked else fields[0],
                                 mc.FlowParams(epsilon=0.1, nu=nu), 3)


@pytest.mark.parametrize("stacked", [False, True])
def test_flat_operator_matches_slice_oracle_on_defects(stack_grids, stacked):
    _, _, fields = _closure_fields(2)
    _assert_matches_slice_oracle(stack_grids["defects"], fields if stacked else fields[0],
                                 mc.FlowParams(epsilon=0.1, nu=0.3), 3)


def _assert_matches_box_flat_oracle(grid, data, params, steps):
    """The compact march against the box-flat oracle, bit for bit, on every
    state up to steps: the rate at interior nodes, the gradient, its squared
    norm and the smoothed norm at inside nodes, and the state."""
    bv = op.boundary_values(grid, data)
    start = op.init_state(grid, data, bv)
    box_start = op.Workspace(grid, start.shape[1:]).box(start)
    inside = grid.inside
    for (k, t, u, ws), (_, t_ref, ref, rws) in zip(op.march(start, grid, params, bv, steps),
                                                   march_box_flat(box_start, grid, params, bv,
                                                                  steps),
                                                   strict=True):
        assert ws.rate[ws.interior].tobytes() == rws.rate[grid.interior].tobytes()
        assert ws.grads.tobytes() == rws.grads[:, inside].tobytes()
        assert ws.grad_sq.tobytes() == rws.grad_sq[inside].tobytes()
        assert ws.s_node.tobytes() == rws.s_node[inside].tobytes()
        assert ws.box(u).tobytes() == ref.tobytes()
        assert t == t_ref
    assert k == steps


def _assert_blowup_matches_box_flat_oracle(grid, data):
    """At a step a hundred times the stability bound both marches blow up:
    the same node, step, field and message."""
    params = mc.FlowParams(epsilon=0.1, dt_override=50 * grid.spacing ** 2 / grid.dim)
    bv = op.boundary_values(grid, data)
    start = op.init_state(grid, data, bv)
    box_start = op.Workspace(grid, start.shape[1:]).box(start)
    errors = []
    for run, first in ((op.march, start), (march_box_flat, box_start)):
        with pytest.raises(op.BlowUpError) as exc:
            for _ in run(first, grid, params, bv, 2000):
                pass
        errors.append(exc.value)
    got, want = errors
    assert (got.node, got.step, got.field, str(got)) == (want.node, want.step, want.field,
                                                          str(want))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(**BUILT_GRIDS, stacked=st.booleans(), nu=st.sampled_from((0.0, 0.3)))
@example(**_branch_grid(0), stacked=True, nu=0.0)
@example(**_branch_grid(1), stacked=False, nu=0.3)
@example(**_branch_grid(4), stacked=True, nu=0.3)
@example(kind="smoothed-stadium", dim=3, center=(0.0, 0.0, 0.0), size=1.0, ratio=0.5,
         fraction=1 / 4, stacked=True, nu=0.3)
# dyadic spacings (h = 1/16 and 1/8), where the operator multiplies by 1 / h
@example(kind="ball", dim=2, center=(0.0, 0.0, 0.0), size=1.0, ratio=1.0,
         fraction=1 / 16, stacked=False, nu=0.3)
@example(kind="ball", dim=2, center=(0.0, 0.0, 0.0), size=1.0, ratio=1.0,
         fraction=1 / 16, stacked=True, nu=0.0)
@example(kind="ball", dim=3, center=(0.0, 0.0, 0.0), size=1.0, ratio=1.0,
         fraction=1 / 8, stacked=False, nu=0.0)
@example(kind="ball", dim=3, center=(0.0, 0.0, 0.0), size=1.0, ratio=1.0,
         fraction=1 / 8, stacked=True, nu=0.3)
def test_compact_operator_matches_the_box_flat_oracle(kind, dim, center, size, ratio,
                                                      fraction, stacked, nu):
    grid = built_grid(kind, dim, center, size, ratio, fraction)
    _, _, fields = _closure_fields(dim)
    data = fields if stacked else fields[0]
    _assert_matches_box_flat_oracle(grid, data, mc.FlowParams(epsilon=0.1, nu=nu), 50)
    _assert_blowup_matches_box_flat_oracle(grid, data)


@pytest.mark.parametrize("stacked", [False, True])
def test_compact_operator_matches_the_box_flat_oracle_on_defects(stack_grids, stacked):
    grid = stack_grids["defects"]
    _, _, fields = _closure_fields(2)
    data = fields if stacked else fields[0]
    _assert_matches_box_flat_oracle(grid, data, mc.FlowParams(epsilon=0.1, nu=0.3), 50)
    _assert_blowup_matches_box_flat_oracle(grid, data)


@pytest.mark.parametrize("h", [1 / 16, 0.06], ids=["dyadic", "non-dyadic"])
def test_signed_zeros_match_the_box_flat_oracle(unit_ball, h):
    # -0.0 past x1 + x2 = 0 and +0.0 before it: a node whose plus neighbors
    # hold -0.0 has a -0.0 face flux on every axis, and the first axis writes
    # the rate where the oracle adds to +0.0; nu = -0.0 (a config's "-0") must
    # not keep the -0.0
    grid = mc.build_grid(unit_ball, h)
    zeros = lambda p: np.where(p[:, 0] + p[:, 1] > 0, -0.0, 0.0)
    for nu in (-0.0, 0.0):
        _assert_matches_box_flat_oracle(grid, zeros, mc.FlowParams(epsilon=0.1, nu=nu), 2)


@pytest.mark.parametrize("kind", ["disk", "spheroid", "disk-stack"])
def test_grad_sq_is_the_summed_square_of_the_node_gradient(grid16, kind):
    # the recorder's gradient maxima read ws.grad_sq, not the squared gradient
    grid = mc.build_grid(mc.ellipse(1.0, 0.6, dim=3), 1 / 8) if kind == "spheroid" else grid16
    _, _, fields = _closure_fields(grid.dim)
    _assert_matches_slice_oracle(grid, fields if kind == "disk-stack" else fields[0],
                                 mc.FlowParams(epsilon=0.05, nu=0.3), 3)


@pytest.mark.parametrize("domain", [mc.ball(1.0), mc.ellipse(1.0, 0.6, dim=3),
                                    mc.smoothed_stadium(0.5, 1.5, 0.25)],
                         ids=["disk", "spheroid", "stadium"])
def test_workspace_buffers_start_on_a_cache_line(domain):
    # a buffer 16 bytes past a line makes the rate's SIMD loads split lines;
    # every float and boolean array of a Workspace is a buffer
    grid = mc.build_grid(domain, 1 / 16)
    for stack in ((), (3,)):
        ws = op.Workspace(grid, stack)
        buffers = {name: a for name, a in vars(ws).items()
                   if isinstance(a, np.ndarray) and a.dtype in (np.float64, np.bool_)}
        assert set(buffers) == {"grads", "grad_sq", "s_node", "rate", "dn", "acc", "tmp",
                                "finite", "across", "cut_buf"}
        for name, a in buffers.items():
            assert a.ctypes.data % op.CACHE_LINE == 0 and a.flags.c_contiguous, name


# a dyadic spacing, where the operator multiplies by 1 / h, and one where it divides
TEMPORARY_SPACINGS = pytest.mark.parametrize("h", [1 / 16, 0.06], ids=["dyadic", "non-dyadic"])


@TEMPORARY_SPACINGS
def test_rhs_temporaries_stay_small(h):
    # the spheroid (1, 0.6) at h = 1/16: a 33 x 21 x 21 box, 113 KiB a field
    grid = mc.build_grid(mc.ellipse(1.0, 0.6, dim=3), h)
    params = mc.FlowParams(epsilon=0.05)
    bv = op.boundary_values(grid, bump)
    values = op.init_state(grid, bump, bv)
    ws = op.Workspace(grid)
    op.regularized_rhs(values, grid, params, bv, ws)     # warm caches
    tracemalloc.start()
    try:
        op.regularized_rhs(values, grid, params, bv, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ws.box(values).nbytes // 2, f"allocation peak {peak} B"


@TEMPORARY_SPACINGS
def test_march_step_temporaries_stay_small(h):
    # one step of the spheroid march: Euler update, closure and rate, all in
    # the compact layout; under a byte per inside node, so no per-node mask
    grid = mc.build_grid(mc.ellipse(1.0, 0.6, dim=3), h)
    params = mc.FlowParams(epsilon=0.05)
    bv = op.boundary_values(grid, bump)
    steps = op.march(op.init_state(grid, bump, bv), grid, params, bv, 3)
    next(steps)
    next(steps)         # warm caches
    tracemalloc.start()
    try:
        next(steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.n_inside, f"allocation peak {peak} B"


# x from every class of doubles: ordinary, subnormal, near overflow, +-0, +-inf, NaN
SCALED = st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                  | st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -3e-320,
                                     2.2250738585072014e-308, 1.7976931348623157e308,
                                     -1.5e308)),
                  min_size=1, max_size=16)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(-12, 12), x=SCALED)
@example(k=-12, x=[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310,
                   1.7976931348623157e308, -1.7976931348623157e308, 1.0, -0.1])
@example(k=12, x=[5e-324, -5e-324, 1e-308, 1.7976931348623157e308, np.nan, -0.0])
def test_power_of_two_scaling_has_the_bits_of_the_division(k, x):
    c = 2.0 ** k
    scale, by = op._scaling(c)
    assert scale is np.multiply and by == 1.0 / c
    a, x = np.array(x), np.array(x)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        scale(a, by, out=a)
        want = np.divide(x, c)
    assert a.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(c=st.floats(1e-6, 1e6).filter(lambda c: np.frexp(c)[0] != 0.5))
@example(c=0.06)
@example(c=2 * 0.06)
@example(c=0.1)
@example(c=3.0)
@example(c=5e-324)       # a power of two whose reciprocal overflows
def test_other_spacing_factors_take_the_division(c):
    assert op._scaling(c) == (np.divide, c)


@pytest.mark.parametrize("h, scale", [(1 / 16, np.multiply), (1 / 32, np.multiply),
                                      (0.06, np.divide), (0.1, np.divide)])
def test_workspace_decides_the_scaling_from_the_spacing(h, scale):
    ws = op.Workspace(mc.build_grid(mc.ball(1.0), h))
    assert [s for s, _ in (ws.by_2h, ws.by_half_h, ws.by_h)] == [scale] * 3


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(**BUILT_GRIDS)
@example(**_branch_grid(0))
@example(**_branch_grid(1))
@example(**_branch_grid(2))
@example(**_branch_grid(3))
@example(**_branch_grid(4))
@example(**_branch_grid(5))
def test_set_up_equals_the_rolled_and_per_family_oracles(kind, dim, center, size, ratio,
                                                         fraction):
    # the sliced cut masks, the near-boundary closure argmin and cell
    # fractions, and the one gathered boundary evaluation change no bit
    grid = built_grid(kind, dim, center, size, ratio, fraction)
    ref = build_grid_rolled(grid.domain, grid.spacing)
    for f in dataclasses.fields(mc.Grid):
        got, want = getattr(grid, f.name), getattr(ref, f.name)
        if f.name == "domain":
            assert got == want
        else:
            assert _same_bytes(got, want), f.name
    _, _, fields = _closure_fields(dim)
    for data in (fields[0], fields):
        bv, want = op.boundary_values(grid, data), boundary_values_per_family(grid, data)
        assert bv.level_ends == want.level_ends
        for f in dataclasses.fields(op.BoundaryValues):
            if f.name not in ("cuts", "level_ends"):
                assert _same_bytes(getattr(bv, f.name), getattr(want, f.name)), f.name
        for slot in op._AxisCuts.__slots__:
            assert _same_bytes(getattr(bv.cuts, slot), getattr(want.cuts, slot)), slot


@pytest.mark.parametrize("stacked", [False, True])
def test_set_up_evaluates_each_data_function_once(stacked):
    grid = mc.build_grid(mc.ellipse(1.0, 0.6, dim=3), 1 / 8)
    calls = []

    def counted(k, f):
        def g(pts):
            calls.append(k)
            return f(pts)
        return g

    _, _, fields = _closure_fields(3)
    data = [counted(k, f) for k, f in enumerate(fields)] if stacked else counted(0, fields[0])
    bv = op.boundary_values(grid, data)
    assert sorted(calls) == ([0, 1, 2] if stacked else [0])
    calls.clear()
    op.init_state(grid, data, bv)
    assert sorted(calls) == ([0, 1, 2] if stacked else [0])
