import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mcflow as mc
from mcflow import barriers as ba
from mcflow import operator as op

from helpers import zero, linear_x1, quadratic_r2, bump, observed_orders

WS_FIELDS = ("rate", "grads", "s_node")


def _node_index(grid, x, y):
    return tuple(np.argwhere((np.abs(grid.points[..., 0] - x) < 1e-9)
                             & (np.abs(grid.points[..., 1] - y) < 1e-9))[0])


def test_params_validation():
    with pytest.raises(op.OperatorError):
        mc.FlowParams(epsilon=0.0)
    with pytest.raises(op.OperatorError):
        mc.FlowParams(epsilon=1.0)
    with pytest.raises(op.OperatorError):
        mc.FlowParams(epsilon=0.1, cfl_factor=0.6)


def test_gradient_zero_on_constants(grid32):
    bv = op.boundary_values(grid32, lambda p: np.full(len(p), 3.0))
    st = op.init_state(grid32, lambda p: np.full(len(p), 3.0), bv)
    g = op.node_gradient(st.values, grid32, bv)
    assert np.nanmax(np.abs(g[:, grid32.inside])) < 1e-12


def test_gradient_exact_on_linear(grid32):
    p = np.array([0.7, -0.4])
    fn = lambda q: q @ p
    bv = op.boundary_values(grid32, fn)
    st = op.init_state(grid32, fn, bv)
    g = op.node_gradient(st.values, grid32, bv)
    for k in range(2):
        assert np.nanmax(np.abs(g[k][grid32.inside] - p[k])) < 1e-11


def test_gradient_exact_on_quadratic_interior(grid32):
    bv = op.boundary_values(grid32, quadratic_r2)
    st = op.init_state(grid32, quadratic_r2, bv)
    g = op.node_gradient(st.values, grid32, bv)
    idx = _node_index(grid32, 0.25, 0.25)
    assert g[0][idx] == pytest.approx(0.5, abs=1e-12)
    assert g[1][idx] == pytest.approx(0.5, abs=1e-12)


def test_rate_closed_form_quadratic():
    # shrinking-circle field: rate = 4 - 8 r^2/(eps^2 + 4 r^2)
    params = mc.FlowParams(epsilon=0.1, nu=0.0)
    val = op.rate_closed_form([1.0, 0.0], 2 * np.eye(2), params)
    assert val == pytest.approx(4 - 8 * 0.25 / (0.01 + 1.0), abs=1e-12)
    assert val == pytest.approx(2.019801980198020, abs=1e-12)


def test_discrete_rate_matches_closed_form(grid32):
    params = mc.FlowParams(epsilon=0.1, nu=0.0)
    bv = op.boundary_values(grid32, quadratic_r2)
    st = op.init_state(grid32, quadratic_r2, bv)
    rate = op.regularized_rhs(st.values, grid32, params, bv)
    idx = _node_index(grid32, 0.5, 0.0)
    assert rate[idx] == pytest.approx(2.019801980198020, abs=2e-3)


def test_rate_linear_field_is_pure_source(grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    bv = op.boundary_values(grid32, linear_x1)
    st = op.init_state(grid32, linear_x1, bv)
    rate = op.regularized_rhs(st.values, grid32, params, bv)
    expect = 0.3 * np.sqrt(0.05 ** 2 + 1.0)
    vals = rate[grid32.interior]
    assert np.max(np.abs(vals - expect)) < 1e-11


def test_rate_epsilon_limit_of_quadratic(grid32):
    # eps -> 0 at r > 0: rate -> 2, the exact shrinking-circle speed
    bv = op.boundary_values(grid32, quadratic_r2)
    st = op.init_state(grid32, quadratic_r2, bv)
    idx = _node_index(grid32, 0.5, 0.0)
    vals = []
    for eps in (0.1, 0.01, 0.001):
        rate = op.regularized_rhs(st.values, grid32, mc.FlowParams(epsilon=eps), bv)
        vals.append(rate[idx])
    assert abs(vals[-1] - 2.0) < 5e-3
    assert abs(vals[-1] - 2.0) < abs(vals[0] - 2.0)


def test_stable_dt_formula(grid32, grid16):
    assert op.stable_dt(mc.FlowParams(epsilon=0.1), grid32) == pytest.approx(
        0.25 / (2 * 32 ** 2))
    g3 = mc.build_grid(mc.ball(1.0, dim=3), 1 / 16)
    assert op.stable_dt(mc.FlowParams(epsilon=0.1), g3) == pytest.approx(
        0.25 * (1 / 256) / 3)


def test_dt_override_warning_threshold(grid32):
    h2 = grid32.spacing ** 2
    ok = mc.FlowParams(epsilon=0.1, dt_override=0.2 * h2)
    bad = mc.FlowParams(epsilon=0.1, dt_override=h2)
    assert not op.dt_exceeds_stability(ok, grid32)
    assert op.dt_exceeds_stability(bad, grid32)
    assert op.stable_dt(bad, grid32) == h2


def test_step_constant_stationary_when_nu_zero(grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    c = 2.0
    fn = lambda p: np.full(len(p), c)
    bv = op.boundary_values(grid32, fn)
    st = op.init_state(grid32, fn, bv)
    new = op.step(st, grid32, params, bv)
    assert np.nanmax(np.abs(new.values[grid32.inside] - c)) < 1e-14


def test_step_constant_drifts_at_eps_nu(grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    c = 2.0
    fn = lambda p: np.full(len(p), c)
    bv = op.boundary_values(grid32, fn)
    st = op.init_state(grid32, fn, bv)
    new = op.step(st, grid32, params, bv)
    dt = op.stable_dt(params, grid32)
    drift = new.values[grid32.interior] - c
    assert np.max(np.abs(drift - dt * 0.05 * 0.3)) < 1e-12


def test_step_quadratic_moves_by_closed_form_rate(grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    bv = op.boundary_values(grid32, quadratic_r2)
    st = op.init_state(grid32, quadratic_r2, bv)
    new = op.step(st, grid32, params, bv)
    dt = op.stable_dt(params, grid32)
    idx = _node_index(grid32, 0.5, 0.0)
    expect = st.values[idx] + dt * (4 - 8 * 0.25 / (0.05 ** 2 + 1.0))
    assert new.values[idx] == pytest.approx(expect, abs=dt * 5e-3)


def test_boundary_trace_exact_after_steps(grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    bv = op.boundary_values(grid32, linear_x1)
    st = op.init_state(grid32, linear_x1, bv)
    for k in range(5):
        st = op.step(st, grid32, params, bv, k)
    assert op.boundary_trace_residual(st.values, grid32, bv) < 1e-12


def test_diffusion_tensor_eigenvalues_in_unit_interval(grid32):
    rng = np.random.default_rng(11)
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    for _ in range(50):
        p = rng.normal(scale=2.0, size=2)
        lam = np.linalg.eigvalsh(op.diffusion_tensor(p, params))
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
        rate = op.regularized_rhs(st.values, grid, params, bv)
        r = np.linalg.norm(grid.points, axis=-1)
        stride = int(round((1 / 16) / h))
        sel = np.zeros(grid.shape, bool)
        sel[::stride, ::stride] = True
        mask = grid.interior & sel & (r >= 0.2) & (r <= 0.8)
        res.append(float(np.max(np.abs(2.0 - rate[mask]))))
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
        rate = op.regularized_rhs(st.values, grid, params, bv)
        assert np.max(np.abs(rate[grid.interior] - expect)) < 1e-11


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
        lo = op.step(lo, grid16, params, bv_lo, k)
        hi = op.step(hi, grid16, params, bv_hi, k)
    gap = (lo.values - hi.values)[grid16.inside]
    assert np.max(gap) <= 1e-10


def test_blowup_error_names_node_and_step(grid16):
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    bv = op.boundary_values(grid16, zero)
    st = op.init_state(grid16, zero, bv)
    st.values[grid16.interior] = np.inf
    with pytest.raises(op.BlowUpError) as exc:
        op.step(st, grid16, params, bv, step_index=7)
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
    inside = grid16.inside
    for (_, lo, _), (_, hi, _) in zip(op.march(lo0, grid16, params, bv_lo, 40),
                                      op.march(hi0, grid16, params, bv_hi, 40)):
        assert np.max(lo.values[inside] - hi.values[inside]) <= 1e-10
        assert op.boundary_trace_residual(lo.values, grid16, bv_lo) < 1e-12
        assert op.boundary_trace_residual(hi.values, grid16, bv_hi) < 1e-12


def test_solve_ibvp_matches_repeated_steps(unit_ball, grid16):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    n = 25
    horizon = n * op.stable_dt(params, grid16)
    rep = mc.solve_ibvp(mc.IBVP(unit_ball, bump, bump), grid16, params, horizon,
                        snapshot_times=(horizon,))
    bv = op.boundary_values(grid16, bump)
    st_ = op.init_state(grid16, bump, bv)
    for k in range(1, n + 1):
        st_ = op.step(st_, grid16, params, bv, k)
    step, t, values = rep.snapshots[-1]
    assert step == rep.steps == n
    assert t == rep.t[-1] == st_.time
    assert values.tobytes() == st_.values.tobytes()


def test_march_leaves_start_state_untouched(grid16):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    bv = op.boundary_values(grid16, bump)
    start = op.init_state(grid16, bump, bv)
    before = start.values.tobytes()
    for k, state, ws in op.march(start, grid16, params, bv, 5, first_step=3):
        assert state is not start
        fresh = op.Workspace(grid16)
        op.regularized_rhs(state.values, grid16, params, bv, fresh)
        for name in ("rate", "grads", "s_node"):
            assert np.array_equal(getattr(ws, name), getattr(fresh, name), equal_nan=True)
    assert k == 7
    assert start.values.tobytes() == before and start.time == 0.0
    assert state.time > 0.0


@pytest.fixture(scope="module")
def stack_grids(grid16):
    """The disk and the ellipse (1, 0.5) at h = 1/16, and the disk with
    hand-made defects that no grid of the three domain kinds has: a node cut
    on both sides of an axis, and a chain of three near-boundary nodes each
    closed through the next, so the closure needs three Jacobi sweeps."""
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
# on the defects grid the tiny field closes in one Jacobi sweep, before the
# chain is final, and the others take three: each field must stop at its own
# sweep, neither at the first field's nor at the last one's
@example(fields=["bump", "zero", 7], nu=0.0, kind="ellipse")
@example(fields=[4, "tiny", "bump", 3], nu=0.0, kind="defects")
def test_stacked_march_matches_separate_marches(unit_ball, stack_grids, fields, nu, kind):
    grid = stack_grids[kind]
    params = mc.FlowParams(epsilon=0.1, nu=nu)
    data = _stack_data(unit_ball, fields)
    bv = op.boundary_values(grid, data)
    if kind == "defects":
        assert any(len(c.both) for c in bv.axis_cuts) and (bv.c_inner < 0).any()
        assert np.isin(bv.c_inner, bv.nb_flat).any()
    alone = []
    for f in data:
        bv_f = op.boundary_values(grid, f)
        alone.append(op.march(op.init_state(grid, f, bv_f), grid, params, bv_f, 16))
    stacked = op.march(op.init_state(grid, data, bv), grid, params, bv, 16)
    for (k, state, ws), *singles in zip(stacked, *alone):
        assert state.values.shape == grid.shape + (len(data),)
        for b, (_, single, ws_b) in enumerate(singles):
            assert np.array_equal(state.values[..., b], single.values, equal_nan=True)
            for name in WS_FIELDS:
                assert np.array_equal(getattr(ws, name)[..., b], getattr(ws_b, name),
                                      equal_nan=True)
            assert state.time == single.time
    assert k == 16


def test_stack_of_one_matches_the_unstacked_field(grid16):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    bv1 = op.boundary_values(grid16, [bump])
    bv = op.boundary_values(grid16, bump)
    for (_, one, ws1), (_, plain, ws) in zip(
            op.march(op.init_state(grid16, [bump], bv1), grid16, params, bv1, 8),
            op.march(op.init_state(grid16, bump, bv), grid16, params, bv, 8)):
        assert one.values.shape == grid16.shape + (1,)
        assert one.values[..., 0].tobytes() == plain.values.tobytes()
        for name in WS_FIELDS:
            assert getattr(ws1, name)[..., 0].tobytes() == getattr(ws, name).tobytes()


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
    assert op.quadrature(one, grid32) == pytest.approx(np.pi, rel=0.01)


def _built_domain(kind, dim, center, size, ratio):
    center = tuple(center[:dim])
    if kind == "ball":
        return mc.ball(size, center, dim)
    if kind == "ellipse":
        return mc.ellipse(size, ratio * size, center, dim)
    return mc.smoothed_stadium(0.5 * size, 1.25 * size, 0.5 * size * max(ratio, 0.4),
                               center, dim)


def _closure_branches(grid, bv):
    """(two-sided cuts, constant closures, closures that read a near-boundary node)."""
    return (sum(len(c.both) for c in bv.axis_cuts), int((bv.c_inner < 0).sum()),
            int(np.isin(bv.c_inner, bv.nb_flat).sum()))


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
    domain = _built_domain(kind, dim, center, size, ratio)
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
@given(kind=st.sampled_from(("ball", "ellipse", "smoothed-stadium")),
       dim=st.sampled_from((2, 3)),
       center=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
       size=st.floats(0.8, 1.2), ratio=st.floats(0.15, 1.0),
       fraction=st.floats(1 / 16, 1 / 2), stacked=st.booleans(),
       nu=st.sampled_from((0.0, 0.3)))
@example(**_branch_grid(0), stacked=True, nu=0.0)
@example(**_branch_grid(1), stacked=False, nu=0.3)
@example(**_branch_grid(2), stacked=True, nu=0.3)
@example(**_branch_grid(3), stacked=False, nu=0.0)
@example(**_branch_grid(4), stacked=False, nu=0.0)
@example(**_branch_grid(5), stacked=True, nu=0.0)
def test_closure_on_built_grids(kind, dim, center, size, ratio, fraction, stacked, nu):
    if dim == 3:
        fraction = max(fraction, 1 / 12)     # keeps the 3D boxes small
    domain = _built_domain(kind, dim, center, size, ratio)
    grid = mc.build_grid(domain, fraction * min(domain.shape_parameters))
    inside = grid.inside
    tol = 1e-12
    slope, linear, fields = _closure_fields(dim)

    # linear data: the closure and every cut stencil are exact
    bv = op.boundary_values(grid, linear)
    state = op.init_state(grid, linear, bv)
    assert np.abs(state.values[inside] - linear(grid.points[inside])).max() <= tol
    grads = op.node_gradient(state.values, grid, bv)
    # a stencil across a cut theta*h long loses about eps*|u|/(theta*h) to
    # round-off: a node on the boundary to round-off has its cut clamped at 1e-12
    theta = np.fmin(grid.theta[:, 0], grid.theta[:, 1])
    theta = np.where(np.isnan(theta), 1.0, theta)
    loss = 16 * np.finfo(float).eps * np.abs(state.values[inside]).max() / grid.spacing
    for k in range(dim):
        assert np.all(np.abs(grads[k][inside] - slope[k]) <= 1e-9 + loss / theta[k][inside])

    data = fields if stacked else fields[0]
    bv = op.boundary_values(grid, data)
    # the residual sees a wrong value at either kind of closed node
    const = bv.c_inner < 0
    for nodes in (bv.nb_flat[const], bv.nb_flat[~const]):
        if len(nodes):
            values = op.init_state(grid, data, bv).values
            op._flat(values, dim)[nodes] += 1.0
            assert op.boundary_trace_residual(values, grid, bv) >= 0.5

    # from the raw samples, the Jacobi sweeps close the ring well before max_iter
    raw = np.full(grid.shape + (() if callable(data) else (len(data),)), np.nan)
    raw[inside] = op._sample(data, grid.points[inside])
    sweeps = next(k for k in range(1, 65) if op.boundary_trace_residual(
        op.apply_closure(raw.copy(), grid, bv, max_iter=k), grid, bv) <= tol)
    assert sweeps <= 8

    params = mc.FlowParams(epsilon=0.1, nu=nu)
    for _, state, ws in op.march(op.init_state(grid, data, bv), grid, params, bv, 3):
        assert op.boundary_trace_residual(state.values, grid, bv) <= tol
        assert np.isfinite(ws.grads[:, inside]).all()
