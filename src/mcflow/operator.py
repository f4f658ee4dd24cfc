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

The functions below also step a stack of B fields that share one grid, one
FlowParams and one dt: values of shape (*grid.shape, B), boundary data and
initial data given as sequences of B functions.  The stack lives on the
trailing axis, so the flat views used for gathers are values.reshape((N, B))
and every field gets exactly the bits it gets alone: the arithmetic is
elementwise, and the closure's Jacobi sweeps stop per field.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import Grid


class OperatorError(ValueError):
    """Invalid operator parameters."""


class BlowUpError(RuntimeError):
    """The explicit update produced a non-finite value."""

    def __init__(self, message, node=None, step=None, field=None):
        super().__init__(message)
        self.node = node
        self.step = step
        self.field = field      # index in the stack; None for an unstacked field


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


def _flat(a: np.ndarray, dim: int) -> np.ndarray:
    """View of a field, or a stack of fields, with its dim grid axes merged into one."""
    return a.reshape((-1,) + a.shape[dim:])


def _sample(fns, pts: np.ndarray) -> np.ndarray:
    """One function's values at pts, or a sequence's stacked on a trailing axis."""
    if callable(fns):
        return fns(pts)
    return np.stack([f(pts) for f in fns], axis=-1)


class _AxisCuts:
    """Flat-index fixup data for one axis: where grid lines hit the boundary.

    The theta arrays carry a trailing unit axis per stack axis of hb, so they
    broadcast against the per-field boundary values and gathered nodes.
    """

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
        unit = (1,) * (hb.ndim - 2 - grid.dim)
        th_p = grid.theta[ax, 1].reshape((-1,) + unit)
        th_m = grid.theta[ax, 0].reshape((-1,) + unit)
        hb_p = _flat(hb[ax, 1], grid.dim)
        hb_m = _flat(hb[ax, 0], grid.dim)
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

    The prescribed value hb at the boundary crossing of each cut is kept
    only where it is read: in the per-axis gradient fixups (axis_cuts) and
    in the closure arrays.  Those drive the per-step interpolation of
    near-boundary nodes along their canonical (smallest theta) cut:
    value = (hb + theta * inner) / (1 + theta), or a constant two-sided
    interpolant (c_inner < 0) where the opposite neighbor is exterior too or
    closes back through this node along the same line.
    For a stack of B fields the hb arrays and c_const gain a trailing axis
    of length B and the theta arrays a trailing unit axis.
    """

    axis_cuts: list
    nb_flat: np.ndarray
    c_theta: np.ndarray
    c_hb: np.ndarray
    c_inner: np.ndarray      # flat index of the inner neighbor, -1 if exterior
    c_const: np.ndarray      # precomputed value where both sides are cut


def boundary_values(grid: Grid, h_fn: Callable | Sequence[Callable]) -> BoundaryValues:
    """Evaluate time-independent boundary data on all cut points of a grid.

    h_fn is one function, or a sequence of B functions for a stack of fields.
    """
    dim = grid.dim
    stack = () if callable(h_fn) else (len(h_fn),)
    hb = np.full((dim, 2) + grid.shape + stack, np.nan)
    for ax in range(dim):
        for side in (0, 1):
            mask = grid.cut_mask(ax, side)
            if mask.any():
                hb[ax, side][mask] = _sample(h_fn, grid.cut_points(ax, side))

    axis_cuts = [_AxisCuts(grid, hb, ax) for ax in range(dim)]

    nb = grid.near_boundary
    nb_flat = np.flatnonzero(nb.ravel())
    ax_c = grid.closure_axis[nb]
    side_c = grid.closure_side[nb]
    k = len(nb_flat)
    c_theta = np.empty(k)
    c_hb = np.empty((k,) + stack)
    c_inner = np.full(k, -1, dtype=np.int64)
    c_const = np.full((k,) + stack, np.nan)

    strides = np.array([int(np.prod(grid.shape[a + 1:], dtype=int)) for a in range(dim)])
    # flat index of each node's inner neighbor, across from its canonical cut
    inner = nb_flat + np.where(side_c == 1, -1, 1) * strides[ax_c]
    # a pair: the inner neighbor closes back through this node along the same line
    pair = (nb.ravel()[inner] & (grid.closure_axis.ravel()[inner] == ax_c)
            & (grid.closure_side.ravel()[inner] == 1 - side_c)).tolist()
    nb_idx = np.argwhere(nb)
    for j in range(k):
        ax, side = int(ax_c[j]), int(side_c[j])
        idx = tuple(nb_idx[j])
        c_theta[j] = grid.theta[ax, side][idx]
        c_hb[j] = hb[ax, side][idx]
        opp = grid.theta[ax, 1 - side][idx]
        # interpolate between two boundary values, independent of any node,
        # where the line is cut on both sides (a sliver), or at a pair: its
        # fixed point, which the Jacobi sweeps reach only at a rate up to 1/2
        # per sweep
        if np.isfinite(opp):
            t_in, hb_in = opp, hb[ax, 1 - side][idx]
        elif pair[j]:
            t_in = 1.0 + grid.theta[ax, 1 - side].flat[inner[j]]
            hb_in = _flat(hb[ax, 1 - side], dim)[inner[j]]
        else:
            c_inner[j] = inner[j]
            continue
        t_out = c_theta[j]
        c_const[j] = (t_in * c_hb[j] + t_out * hb_in) / (t_in + t_out)
    return BoundaryValues(axis_cuts=axis_cuts, nb_flat=nb_flat,
                          c_theta=c_theta.reshape((k,) + (1,) * len(stack)),
                          c_hb=c_hb, c_inner=c_inner, c_const=c_const)


class Workspace:
    """Preallocated scratch arrays for the per-step operator evaluation.

    One instance per (grid, run); reusing it across steps removes the
    allocation churn that otherwise dominates small-grid stepping.  After a
    rate evaluation, grads and s_node hold the node gradient and smoothed
    gradient norm of the evaluated field.  stack is the trailing shape of
    the fields it serves: () for one field, (B,) for a stack of B, which
    costs B * (5 + dim) full-grid arrays.
    """

    def __init__(self, grid: Grid, stack: tuple = ()):
        shape = grid.shape + stack
        dim = grid.dim
        self.grads = np.full((dim,) + shape, np.nan)
        self.s_node = np.full(shape, np.nan)
        self.dn = np.full(shape, np.nan)        # face difference, then face flux
        self.acc = np.full(shape, np.nan)
        self.rate = np.full(shape, np.nan)
        self.tmp = np.full(shape, np.nan)
        self.interior_flat = np.flatnonzero(grid.interior.ravel())
        self.exterior = ~grid.interior
        self.slices = _axis_slices(grid.shape)


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
    makes the pass a contraction.  In a stack each field stops at the sweep
    where it would stop alone: later sweeps leave it untouched.
    """
    flat = _flat(values, grid.dim)
    have_const = bvals.c_inner < 0
    dependent = ~have_const
    if have_const.any():
        flat[bvals.nb_flat[have_const]] = bvals.c_const[have_const]
    if dependent.any():
        idx = bvals.nb_flat[dependent]
        th = bvals.c_theta[dependent]
        hb = bvals.c_hb[dependent]
        inner = bvals.c_inner[dependent]
        frozen = None       # fields that converged on an earlier sweep
        for _ in range(max_iter):
            new = (hb + th * flat[inner]) / (1.0 + th)
            old = flat[idx]
            if frozen is not None:
                new = np.where(frozen, old, new)
            flat[idx] = new
            change = np.max(np.abs(new - old), axis=0, keepdims=True)
            done = [c < tol for c in change.ravel().tolist()]
            if all(done):
                break
            if any(done):
                # a frozen field changes by 0 on later sweeps, so it stays done
                frozen = np.reshape(done, flat.shape[1:])
    return values


def boundary_trace_residual(values: np.ndarray, grid: Grid, bvals: BoundaryValues) -> float:
    """Max mismatch between the theta-interpolated trace and the boundary data."""
    flat = _flat(values, grid.dim)
    res = 0.0
    have_const = bvals.c_inner < 0
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
    """Gradient at every inside node, shape (dim, *values.shape), NaN outside.

    Central differences on full stencils; where an axis is cut, the
    nonuniform three-point formula through the boundary value (exact on
    quadratics) replaces it.
    """
    ws = ws or Workspace(grid, values.shape[grid.dim:])
    h = grid.spacing
    flat = _flat(values, grid.dim)
    with np.errstate(invalid="ignore"):
        for ax in range(grid.dim):
            sl = ws.slices[ax]
            g = ws.grads[ax]
            np.subtract(values[sl["plus"]], values[sl["minus"]], out=g[sl["mid"]])
            g[sl["mid"]] /= 2 * h
            gf = _flat(g, grid.dim)
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
    ws = ws or Workspace(grid, values.shape[grid.dim:])
    h = grid.spacing
    eps2 = params.epsilon ** 2
    grads = node_gradient(values, grid, bvals, ws)
    # a blowing-up field may overflow here; euler_update's finiteness check
    # turns that into a BlowUpError
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(grads[0], grads[0], out=ws.s_node)
        for j in range(1, grid.dim):
            np.multiply(grads[j], grads[j], out=ws.tmp)
            ws.s_node += ws.tmp
        ws.s_node += eps2
        np.sqrt(ws.s_node, out=ws.s_node)

        # the flux divergence accumulates in rate
        rate = ws.rate
        rate.fill(0.0)
        for ax in range(grid.dim):
            sl = ws.slices[ax]
            lo, hi = sl["lo"], sl["hi"]
            dn, acc, tmp = ws.dn, ws.acc, ws.tmp
            np.subtract(values[hi], values[lo], out=dn[lo])
            dn[lo] /= h
            acc.fill(0.0)
            for j in range(grid.dim):
                if j == ax:
                    continue
                gj = grads[j]
                # tmp holds the face-averaged tangential gradient component
                np.add(gj[lo], gj[hi], out=tmp[lo])
                tmp[lo] *= 0.5
                np.multiply(tmp[lo], tmp[lo], out=tmp[lo])
                acc[lo] += tmp[lo]
            # acc = tangential |grad|^2 at the face; assemble s_face in place
            np.multiply(dn[lo], dn[lo], out=tmp[lo])
            acc[lo] += tmp[lo]
            acc[lo] += eps2
            np.sqrt(acc[lo], out=acc[lo])
            # the face flux replaces the face difference in dn
            np.divide(dn[lo], acc[lo], out=dn[lo])
            np.subtract(dn[hi], dn[lo], out=tmp[hi])
            rate[hi] += tmp[hi]
        rate /= h
        rate += params.nu
        rate *= ws.s_node
        rate[ws.exterior] = np.nan
    return rate


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

    A non-finite update raises BlowUpError before the state is touched.  It
    names the first node in flat order; in a stack, of the lowest field
    with a non-finite update.
    """
    flat = _flat(state.values, grid.dim)
    idx = ws.interior_flat
    upd = _flat(rate, grid.dim)[idx]
    if not np.isfinite(upd).all():
        bad = ~np.isfinite(upd.reshape(len(idx), -1))
        field = int(np.argmax(bad.any(axis=0)))
        node = tuple(int(i) for i in np.unravel_index(idx[np.argmax(bad[:, field])],
                                                      grid.shape))
        if state.values.ndim == grid.dim:
            raise BlowUpError(f"non-finite value at node {node} on step {step_index}",
                              node=node, step=step_index)
        raise BlowUpError(f"non-finite value at node {node} of field {field} "
                          f"on step {step_index}", node=node, step=step_index, field=field)
    upd *= dt
    flat[idx] += upd
    apply_closure(state.values, grid, bvals)
    state.time += dt


def march(state: FieldState, grid: Grid, params: FlowParams, bvals: BoundaryValues,
          n_steps: int, first_step: int = 1):
    """Forward-Euler march yielding (k, state, ws), the start as k = first_step - 1.

    The start state is copied once and advanced in place, so the caller's
    state is never changed.  ws.rate, ws.grads and ws.s_node belong to the
    yielded state until the next step overwrites them and the state.  A
    stack of fields (values of shape (*grid.shape, B) with bvals built for
    B boundary functions) advances with one operator call per step, each
    field bit for bit as it would alone.  A non-finite update raises
    BlowUpError naming the node and step, and in a stack the field.
    """
    ws = Workspace(grid, state.values.shape[grid.dim:])
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
    ws = Workspace(grid, state.values.shape[grid.dim:])
    new = state.copy()
    euler_update(new, regularized_rhs(state.values, grid, params, bvals, ws),
                 stable_dt(params, grid), grid, bvals, ws, step_index)
    return new


def init_state(grid: Grid, g_fn: Callable | Sequence[Callable],
               bvals: BoundaryValues) -> FieldState:
    """Sample initial data on inside nodes and close the boundary ring.

    g_fn is one function, or a sequence of B functions for a stack of fields
    (bvals built for as many).  The closure makes the initial state exactly
    what the scheme evolves, so rate bounds taken on it are attained by the
    first recorded step.
    """
    values = np.full(grid.shape + (() if callable(g_fn) else (len(g_fn),)), np.nan)
    values[grid.inside] = _sample(g_fn, grid.points[grid.inside])
    apply_closure(values, grid, bvals)
    return FieldState(values, 0.0)


def quadrature(field: np.ndarray, grid: Grid) -> float:
    """Domain integral: weighted node sum with theta-fraction boundary cells."""
    w = grid.qweight
    vals = np.where(grid.inside & np.isfinite(field), field, 0.0)
    return float(np.sum(vals * w) * grid.spacing ** grid.dim)
