"""Discretization of the smoothed level-set curvature-flow operator.

The evolution law is

    u_t = sqrt(eps^2 + |grad u|^2) * (div(grad u / sqrt(eps^2 + |grad u|^2)) + nu)

discretized in flux form: face-centered fluxes F = grad u / s with the
normal component from the two face nodes and tangential components
averaged from node gradients, then a centered flux difference.  Node
gradients use central differences at interior nodes and boundary-anchored
nonuniform differences at near-boundary nodes, so no stencil ever reads an
exterior node.  Near-boundary nodes are not time-stepped: after each Euler
update they are closed by interpolation along their nearest boundary cut,
which imposes the boundary trace exactly and keeps the update monotone.
Every time-stepped experiment advances through the one forward-Euler
generator `march`.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Grid


class OperatorError(ValueError):
    """Invalid operator parameters."""


class BlowUpError(RuntimeError):
    """The explicit update produced a non-finite value."""

    def __init__(self, message, node=None, step=None):
        super().__init__(message)
        self.node = node
        self.step = step


@dataclass(frozen=True)
class FlowParams:
    """Knobs of the regularized operator and its explicit time step.

    epsilon smooths the gradient norm (strictly positive; the raw equation
    is never stepped directly) and nu is the constant driving speed.
    """

    epsilon: float
    nu: float = 0.0
    cfl_factor: float = 0.25
    dt_override: float | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise OperatorError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.cfl_factor <= 0.5:
            raise OperatorError(f"cfl_factor must lie in (0, 0.5], got {self.cfl_factor}")
        if self.dt_override is not None and self.dt_override <= 0:
            raise OperatorError("dt_override must be positive")


@dataclass
class FieldState:
    """A scalar grid field at one instant; NaN marks exterior nodes."""

    values: np.ndarray
    time: float = 0.0

    def copy(self) -> "FieldState":
        return FieldState(self.values.copy(), self.time)


class _AxisCuts:
    """Flat-index fixup data for one axis: where grid lines hit the boundary."""

    __slots__ = ("only_p", "op_theta", "op_hb", "op_inner",
                 "only_m", "om_theta", "om_hb", "om_inner",
                 "both", "b_tp", "b_tm", "b_hbp", "b_hbm")

    def __init__(self, grid: Grid, hb: np.ndarray, ax: int):
        stride = int(np.prod(grid.shape[ax + 1:], dtype=int))
        cut_m = np.isfinite(grid.theta[ax, 0])
        cut_p = np.isfinite(grid.theta[ax, 1])
        only_p = (cut_p & ~cut_m).ravel()
        only_m = (cut_m & ~cut_p).ravel()
        both = (cut_p & cut_m).ravel()
        th_p = grid.theta[ax, 1].ravel()
        th_m = grid.theta[ax, 0].ravel()
        hb_p = hb[ax, 1].ravel()
        hb_m = hb[ax, 0].ravel()
        self.only_p = np.flatnonzero(only_p)
        self.op_theta = th_p[self.only_p]
        self.op_hb = hb_p[self.only_p]
        self.op_inner = self.only_p - stride
        self.only_m = np.flatnonzero(only_m)
        self.om_theta = th_m[self.only_m]
        self.om_hb = hb_m[self.only_m]
        self.om_inner = self.only_m + stride
        self.both = np.flatnonzero(both)
        self.b_tp = th_p[self.both]
        self.b_tm = th_m[self.both]
        self.b_hbp = hb_p[self.both]
        self.b_hbm = hb_m[self.both]


@dataclass
class BoundaryValues:
    """Boundary data evaluated at every grid cut, plus closure metadata.

    hb[axis, side] holds the prescribed value at the boundary crossing of
    each cut (NaN where uncut).  The closure arrays drive the per-step
    interpolation of near-boundary nodes along their canonical (smallest
    theta) cut: value = (hb + theta * inner) / (1 + theta), or a constant
    two-sided interpolant where the opposite neighbor is exterior.
    """

    hb: np.ndarray
    axis_cuts: list
    nb_flat: np.ndarray
    c_theta: np.ndarray
    c_hb: np.ndarray
    c_inner: np.ndarray      # flat index of the inner neighbor, -1 if exterior
    c_const: np.ndarray      # precomputed value where both sides are cut


def boundary_values(grid: Grid, h_fn: Callable) -> BoundaryValues:
    """Evaluate time-independent boundary data on all cut points of a grid."""
    dim = grid.dim
    hb = np.full((dim, 2) + grid.shape, np.nan)
    for ax in range(dim):
        for side in (0, 1):
            mask = grid.cut_mask(ax, side)
            if mask.any():
                hb[ax, side][mask] = h_fn(grid.cut_points(ax, side))

    axis_cuts = [_AxisCuts(grid, hb, ax) for ax in range(dim)]

    nb = grid.near_boundary
    nb_flat = np.flatnonzero(nb.ravel())
    ax_c = grid.closure_axis[nb]
    side_c = grid.closure_side[nb]
    k = len(nb_flat)
    c_theta = np.empty(k)
    c_hb = np.empty(k)
    c_inner = np.full(k, -1, dtype=np.int64)
    c_const = np.full(k, np.nan)

    strides = [int(np.prod(grid.shape[a + 1:], dtype=int)) for a in range(dim)]
    nb_idx = np.argwhere(nb)
    for j in range(k):
        ax, side = int(ax_c[j]), int(side_c[j])
        idx = tuple(nb_idx[j])
        c_theta[j] = grid.theta[ax, side][idx]
        c_hb[j] = hb[ax, side][idx]
        opp = grid.theta[ax, 1 - side][idx]
        if np.isfinite(opp):
            # sliver cut on both sides: interpolate between the two
            # boundary values, independent of any node
            t_in, t_out = opp, c_theta[j]
            hb_in = hb[ax, 1 - side][idx]
            c_const[j] = (t_in * c_hb[j] + t_out * hb_in) / (t_in + t_out)
        else:
            c_inner[j] = nb_flat[j] + (-strides[ax] if side == 1 else strides[ax])
    return BoundaryValues(hb=hb, axis_cuts=axis_cuts, nb_flat=nb_flat, c_theta=c_theta,
                          c_hb=c_hb, c_inner=c_inner, c_const=c_const)


class Workspace:
    """Preallocated scratch arrays for the per-step operator evaluation.

    One instance per (grid, run); reusing it across steps removes the
    allocation churn that otherwise dominates small-grid stepping.  After a
    rate evaluation, grads and s_node hold the node gradient and smoothed
    gradient norm of the evaluated field.
    """

    def __init__(self, grid: Grid):
        shape = grid.shape
        dim = grid.dim
        self.grads = np.full((dim,) + shape, np.nan)
        self.s_node = np.full(shape, np.nan)
        self.dn = np.full(shape, np.nan)
        self.tang = np.full(shape, np.nan)
        self.acc = np.full(shape, np.nan)
        self.flux = np.full(shape, np.nan)
        self.div = np.full(shape, np.nan)
        self.rate = np.full(shape, np.nan)
        self.tmp = np.full(shape, np.nan)
        self.interior_flat = np.flatnonzero(grid.interior.ravel())
        self.slices = _axis_slices(shape)


def _axis_slices(shape):
    """Per-axis slice tuples: (mid, plus, minus, lo, hi, from_lo, from_hi)."""
    out = []
    dim = len(shape)
    for ax in range(dim):
        full = [slice(None)] * dim
        def s(a, b):
            sl = list(full)
            sl[ax] = slice(a, b)
            return tuple(sl)
        out.append({
            "mid": s(1, -1), "plus": s(2, None), "minus": s(0, -2),
            "lo": s(0, -1), "hi": s(1, None),
        })
    return out


def apply_closure(values: np.ndarray, grid: Grid, bvals: BoundaryValues,
                  tol: float = 1e-14, max_iter: int = 64) -> np.ndarray:
    """Set near-boundary nodes by boundary-anchored linear interpolation.

    Iterated Jacobi-style because an inner neighbor may itself be a
    near-boundary node; the dependence coefficient theta/(1+theta) <= 1/2
    makes the pass a contraction.
    """
    flat = values.ravel()
    have_const = np.isfinite(bvals.c_const)
    dependent = ~have_const
    if have_const.any():
        flat[bvals.nb_flat[have_const]] = bvals.c_const[have_const]
    if dependent.any():
        idx = bvals.nb_flat[dependent]
        th = bvals.c_theta[dependent]
        hb = bvals.c_hb[dependent]
        inner = bvals.c_inner[dependent]
        for _ in range(max_iter):
            new = (hb + th * flat[inner]) / (1.0 + th)
            change = np.max(np.abs(new - flat[idx])) if len(new) else 0.0
            flat[idx] = new
            if change < tol:
                break
    return values


def boundary_trace_residual(values: np.ndarray, grid: Grid, bvals: BoundaryValues) -> float:
    """Max mismatch between the theta-interpolated trace and the boundary data."""
    flat = values.ravel()
    res = 0.0
    have_const = np.isfinite(bvals.c_const)
    if have_const.any():
        res = float(np.max(np.abs(flat[bvals.nb_flat[have_const]] - bvals.c_const[have_const])))
    dep = ~have_const
    if dep.any():
        idx = bvals.nb_flat[dep]
        th = bvals.c_theta[dep]
        hb = bvals.c_hb[dep]
        inner = bvals.c_inner[dep]
        trace = (1.0 + th) * flat[idx] - th * flat[inner]
        res = max(res, float(np.max(np.abs(trace - hb))))
    return res


def node_gradient(values: np.ndarray, grid: Grid, bvals: BoundaryValues,
                  ws: Workspace | None = None) -> np.ndarray:
    """Gradient at every inside node, shape (dim, *grid.shape), NaN outside.

    Central differences on full stencils; where an axis is cut, the
    nonuniform three-point formula through the boundary value (exact on
    quadratics) replaces it.
    """
    ws = ws or Workspace(grid)
    h = grid.spacing
    flat = values.ravel()
    with np.errstate(invalid="ignore"):
        for ax in range(grid.dim):
            sl = ws.slices[ax]
            g = ws.grads[ax]
            np.subtract(values[sl["plus"]], values[sl["minus"]], out=g[sl["mid"]])
            g[sl["mid"]] /= 2 * h
            gf = g.ravel()
            cuts = bvals.axis_cuts[ax]
            if len(cuts.only_p):
                th = cuts.op_theta
                gf[cuts.only_p] = (cuts.op_hb - th ** 2 * flat[cuts.op_inner]
                                   - (1 - th ** 2) * flat[cuts.only_p]) / (th * (1 + th) * h)
            if len(cuts.only_m):
                th = cuts.om_theta
                gf[cuts.only_m] = (th ** 2 * flat[cuts.om_inner] - cuts.om_hb
                                   + (1 - th ** 2) * flat[cuts.only_m]) / (th * (1 + th) * h)
            if len(cuts.both):
                tp, tm = cuts.b_tp, cuts.b_tm
                gf[cuts.both] = (tm ** 2 * cuts.b_hbp - tp ** 2 * cuts.b_hbm
                                 + (tp ** 2 - tm ** 2) * flat[cuts.both]) / (tp * tm * (tp + tm) * h)
    return ws.grads


def regularized_rhs(values: np.ndarray, grid: Grid, params: FlowParams,
                    bvals: BoundaryValues, ws: Workspace | None = None) -> np.ndarray:
    """Evolution rate at interior nodes (NaN elsewhere).

    Flux form: rate = s * (sum_k D_k(grad_k u / s_face) + nu) with
    s = sqrt(eps^2 + |grad u|^2).  Equals the trace form
    (delta_kl - u_k u_l / s^2) u_kl + nu*s up to O(h^2).
    """
    ws = ws or Workspace(grid)
    h = grid.spacing
    eps2 = params.epsilon ** 2
    grads = node_gradient(values, grid, bvals, ws)
    # a blowing-up field may overflow here; euler_update's finiteness check
    # turns that into a BlowUpError
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(grads[0], grads[0], out=ws.s_node)
        for j in range(1, grid.dim):
            ws.s_node += grads[j] ** 2
        ws.s_node += eps2
        np.sqrt(ws.s_node, out=ws.s_node)

        div = ws.div
        div.fill(0.0)
        for ax in range(grid.dim):
            sl = ws.slices[ax]
            lo, hi = sl["lo"], sl["hi"]
            dn, tang, acc, flux = ws.dn, ws.tang, ws.acc, ws.flux
            np.subtract(values[hi], values[lo], out=dn[lo])
            dn[lo] /= h
            acc.fill(0.0)
            for j in range(grid.dim):
                if j == ax:
                    continue
                gj = grads[j]
                np.add(gj[lo], gj[hi], out=tang[lo])
                tang[lo] *= 0.5
                np.multiply(tang[lo], tang[lo], out=tang[lo])
                acc[lo] += tang[lo]
            # acc = tangential |grad|^2 at the face; assemble s_face in place
            np.multiply(dn[lo], dn[lo], out=ws.tmp[lo])
            acc[lo] += ws.tmp[lo]
            acc[lo] += eps2
            np.sqrt(acc[lo], out=acc[lo])
            np.divide(dn[lo], acc[lo], out=flux[lo])
            np.subtract(flux[hi], flux[lo], out=ws.tmp[hi])
            div[hi] += ws.tmp[hi]
        div /= h
        div += params.nu
        np.multiply(ws.s_node, div, out=ws.rate)
        ws.rate[~grid.interior] = np.nan
    return ws.rate


def rate_closed_form(p: np.ndarray, hess: np.ndarray, params: FlowParams) -> float:
    """Pointwise trace-form rate for exact gradient p and Hessian hess.

    Oracle for tests and barrier diagnostics:
    (delta_kl - p_k p_l / (eps^2 + |p|^2)) hess_kl + nu * sqrt(eps^2 + |p|^2).
    """
    p = np.asarray(p, dtype=float)
    s2 = params.epsilon ** 2 + float(p @ p)
    return float(np.sum(diffusion_tensor(p, params) * np.asarray(hess, dtype=float))
                 + params.nu * np.sqrt(s2))


def diffusion_tensor(p: np.ndarray, params: FlowParams) -> np.ndarray:
    """The degenerate diffusion tensor at gradient p; eigenvalues lie in (0, 1]."""
    p = np.asarray(p, dtype=float)
    s2 = params.epsilon ** 2 + float(p @ p)
    return np.eye(len(p)) - np.outer(p, p) / s2


def stable_dt(params: FlowParams, grid: Grid) -> float:
    """Explicit step: cfl_factor * h^2 / dim unless overridden."""
    if params.dt_override is not None:
        return params.dt_override
    return params.cfl_factor * grid.spacing ** 2 / grid.dim


def dt_exceeds_stability(params: FlowParams, grid: Grid) -> bool:
    """True when an override step violates dt <= 0.5 h^2 / dim."""
    if params.dt_override is None:
        return False
    return params.dt_override > 0.5 * grid.spacing ** 2 / grid.dim + 1e-300


def euler_update(state: FieldState, rate: np.ndarray, dt: float, grid: Grid,
                 bvals: BoundaryValues, ws: Workspace, step_index: int = 0) -> None:
    """Advance interior nodes by dt*rate in place and re-close the boundary ring.

    A non-finite update raises BlowUpError before the state is touched.
    """
    flat = state.values.ravel()
    idx = ws.interior_flat
    upd = rate.ravel()[idx]
    if len(idx) and not np.isfinite(np.max(np.abs(upd))):
        bad = idx[~np.isfinite(upd)][0]
        node = tuple(int(i) for i in np.unravel_index(bad, grid.shape))
        raise BlowUpError(f"non-finite value at node {node} on step {step_index}",
                          node=node, step=step_index)
    flat[idx] += dt * upd
    apply_closure(state.values, grid, bvals)
    state.time += dt


def march(state: FieldState, grid: Grid, params: FlowParams, bvals: BoundaryValues,
          n_steps: int, first_step: int = 1):
    """Forward-Euler march yielding (k, state, ws), the start as k = first_step - 1.

    The start state is copied once and advanced in place, so the caller's
    state is never changed.  ws.rate, ws.grads and ws.s_node belong to the
    yielded state until the next step overwrites them and the state.  A
    non-finite update raises BlowUpError naming the node and step.
    """
    ws = Workspace(grid)
    dt = stable_dt(params, grid)
    state = state.copy()
    regularized_rhs(state.values, grid, params, bvals, ws)
    yield first_step - 1, state, ws
    for k in range(first_step, first_step + n_steps):
        euler_update(state, ws.rate, dt, grid, bvals, ws, k)
        regularized_rhs(state.values, grid, params, bvals, ws)
        yield k, state, ws


def step(state: FieldState, grid: Grid, params: FlowParams, bvals: BoundaryValues,
         step_index: int = 0) -> FieldState:
    """One out-of-place forward-Euler update; boundary trace re-imposed exactly."""
    ws = Workspace(grid)
    new = state.copy()
    euler_update(new, regularized_rhs(state.values, grid, params, bvals, ws),
                 stable_dt(params, grid), grid, bvals, ws, step_index)
    return new


def init_state(grid: Grid, g_fn: Callable, bvals: BoundaryValues) -> FieldState:
    """Sample initial data on inside nodes and close the boundary ring.

    The closure makes the initial state exactly what the scheme evolves,
    so rate bounds taken on it are attained by the first recorded step.
    """
    values = np.full(grid.shape, np.nan)
    values[grid.inside] = g_fn(grid.points[grid.inside])
    apply_closure(values, grid, bvals)
    return FieldState(values, 0.0)


def quadrature(field: np.ndarray, grid: Grid) -> float:
    """Domain integral: weighted node sum with theta-fraction boundary cells."""
    w = grid.qweight
    vals = np.where(grid.inside & np.isfinite(field), field, 0.0)
    return float(np.sum(vals * w) * grid.spacing ** grid.dim)
