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
The closure plan, built once per grid and boundary data, sets the constant
closures in one write and the rest level by level, each after the closed
node it reads.  Every time-stepped experiment advances through the one
forward-Euler generator `march`.

The stencils are contiguous shifts of the C-order flattening of the grid
axes: along an axis of stride s, a central difference is v[2s:] - v[:-2s]
and a face difference v[s:] - v[:-s].  A shift wraps from the end of one
grid line to the next, onto lattice-edge nodes only.  build_grid makes each
of those exterior or cut on its edge side, so the cut formula or the
exterior NaN write replaces every wrapped value, and interior nodes get the
bits of per-axis slices.

The functions below also step a stack of B fields that share one grid, one
FlowParams and one dt: values of shape (*grid.shape, B), boundary data and
initial data given as sequences of B functions.  The stack lives on the
trailing axis, so the flat views are values.reshape((N, B)) and every field
gets exactly the bits it gets alone: the arithmetic, closure included, is
elementwise.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import Grid

CFL_FACTOR = 0.25        # explicit step in units of h^2 / dim; stability allows 0.5


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
    dt_override: float | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise OperatorError(f"epsilon must lie in (0, 1), got {self.epsilon}")
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
    """Gradient data for one axis at the nodes whose grid line the boundary cuts.

    Each side of a node has a fraction t and a value: the cut fraction theta
    and the boundary value where the side is cut, 1 and the neighbor node
    where it is not.  A cut side's neighbor index is the node itself: a node
    on the boundary to round-off can sit on the lattice edge, where the
    neighbor index would leave the array.  The cut masks and the t-derived
    coefficients carry a trailing unit axis per stack axis of hb, so they
    broadcast against the per-field boundary values and gathered nodes.
    """

    __slots__ = ("idx", "ip", "im", "cut_p", "cut_m", "hb_p", "hb_m",
                 "tp2", "tm2", "w0", "den")

    def __init__(self, grid: Grid, hb: np.ndarray, ax: int):
        stride = int(np.prod(grid.shape[ax + 1:], dtype=int))
        theta = grid.theta[ax].reshape(2, -1)
        self.idx = np.flatnonzero(np.isfinite(theta).any(axis=0))
        unit = (-1,) + (1,) * (hb.ndim - 2 - grid.dim)
        tm, tp = theta[:, self.idx]
        cut_m, cut_p = np.isfinite(tm), np.isfinite(tp)
        self.im = np.where(cut_m, self.idx, self.idx - stride)
        self.ip = np.where(cut_p, self.idx, self.idx + stride)
        self.cut_m, self.cut_p = cut_m.reshape(unit), cut_p.reshape(unit)
        self.hb_m = _flat(hb[ax, 0], grid.dim)[self.idx]
        self.hb_p = _flat(hb[ax, 1], grid.dim)[self.idx]
        tm = np.where(cut_m, tm, 1.0).reshape(unit)
        tp = np.where(cut_p, tp, 1.0).reshape(unit)
        self.tm2, self.tp2 = tm ** 2, tp ** 2
        self.w0 = self.tp2 - self.tm2
        self.den = tp * tm * (tp + tm) * grid.spacing


@dataclass
class BoundaryValues:
    """Boundary data evaluated at every grid cut, and the closure plan.

    The prescribed value hb at the boundary crossing of each cut is kept
    only where it is read: in the per-axis gradient data (axis_cuts) and in
    the closure arrays.  Each near-boundary node is closed along its
    canonical (smallest theta) cut.  The constant closures come first in
    nb_flat: where the node's line is cut on both sides (a sliver) or its
    inner neighbor closes back through it along the same line (a pair), the
    value is the interpolant between two boundary values, c_const.  The
    dependent closures follow, level by level,
    value = (hb + theta * inner) / (1 + theta), each level reading only
    interior nodes and nodes set before it; level_ends holds the end of the
    constants and of each level.  For a stack of B fields the hb arrays and
    c_const gain a trailing axis of length B and the theta arrays a trailing
    unit axis.
    """

    axis_cuts: list
    nb_flat: np.ndarray      # near-boundary nodes in closure order, flat
    c_theta: np.ndarray
    c_hb: np.ndarray
    c_inner: np.ndarray      # flat index of the node a closure reads, -1 at a constant
    c_const: np.ndarray      # values of the constant closures
    level_ends: tuple


def boundary_values(grid: Grid, h_fn: Callable | Sequence[Callable]) -> BoundaryValues:
    """Evaluate time-independent boundary data once, on all cut points of a grid.

    The cut points of every (axis, side) family come from one Grid.cuts.
    h_fn is one function, or a sequence of B functions for a stack of fields.
    Raises OperatorError naming a node whose closure reads through a cycle
    of near-boundary nodes longer than a pair.
    """
    dim = grid.dim
    stack = () if callable(h_fn) else (len(h_fn),)
    hb = np.full((dim, 2) + grid.shape + stack, np.nan)
    cuts, pts = grid.cuts()
    hb.reshape((-1,) + stack)[cuts] = _sample(h_fn, pts)

    axis_cuts = [_AxisCuts(grid, hb, ax) for ax in range(dim)]

    nb = grid.near_boundary.ravel()
    nb_flat = np.flatnonzero(nb)
    ax = grid.closure_axis.ravel()[nb_flat]
    side = grid.closure_side.ravel()[nb_flat]
    theta = grid.theta.reshape(dim, 2, -1)
    hbf = hb.reshape((dim, 2, -1) + stack)
    unit = (-1,) + (1,) * len(stack)
    strides = np.array([int(np.prod(grid.shape[a + 1:], dtype=int)) for a in range(dim)])
    sliver = np.isfinite(theta[ax, 1 - side, nb_flat])
    # the inner neighbor, across from the canonical cut; a sliver has none
    inner = np.where(sliver, nb_flat, nb_flat + np.where(side == 1, -1, 1) * strides[ax])
    pair = (~sliver & nb[inner] & (grid.closure_axis.ravel()[inner] == ax)
            & (grid.closure_side.ravel()[inner] == 1 - side))
    const = sliver | pair
    # a constant closure interpolates between its own boundary value and the
    # one across the line: of a sliver, or of a pair's partner, whose cut lies
    # one spacing further out
    t_out = theta[ax, side, nb_flat]
    t_in = np.where(sliver, theta[ax, 1 - side, inner], 1.0 + theta[ax, 1 - side, inner])
    c_hb = hbf[ax, side, nb_flat]
    c_const = ((t_in.reshape(unit) * c_hb + t_out.reshape(unit) * hbf[ax, 1 - side, inner])
               / (t_in + t_out).reshape(unit))

    # closure levels: a dependent node is set after the near-boundary node it reads
    k = len(nb_flat)
    pos = np.full(nb.size, -1)
    pos[nb_flat] = np.arange(k)
    reads = np.where(const, -1, pos[inner])
    done = const.copy()
    order = [np.flatnonzero(const)]
    while not done.all():
        ready = ~done & ((reads < 0) | done[reads])
        if not ready.any():
            node = np.unravel_index(nb_flat[np.argmin(done)], grid.shape)
            raise OperatorError(f"closure of near-boundary node {tuple(map(int, node))} "
                                "reads through a cycle of near-boundary nodes")
        order.append(np.flatnonzero(ready))
        done |= ready
    level_ends = tuple(np.cumsum([len(o) for o in order]).tolist())
    order = np.concatenate(order)
    return BoundaryValues(axis_cuts=axis_cuts, nb_flat=nb_flat[order],
                          c_theta=t_out[order].reshape(unit), c_hb=c_hb[order],
                          c_inner=np.where(const, -1, inner)[order],
                          c_const=c_const[order[:level_ends[0]]], level_ends=level_ends)


class Workspace:
    """Preallocated scratch arrays for the per-step operator evaluation.

    One instance per (grid, run); reusing it across steps removes the
    allocation churn that otherwise dominates small-grid stepping.  After a
    rate evaluation, grads, grad_sq and s_node hold the node gradient, its
    squared norm and the smoothed gradient norm of the evaluated field.
    stack is the trailing shape of the fields it serves: () for one field,
    (B,) for a stack of B, which costs B * (6 + dim) full-grid arrays.

    dn, acc and tmp are flat, (N, *stack): flat node i + strides[ax] is the
    neighbor of i along axis ax.  Values that a shift wraps across a grid
    line reach only lattice-edge nodes, and there the cut formula or the NaN
    write at exterior_flat (every non-interior node) replaces them.
    """

    def __init__(self, grid: Grid, stack: tuple = ()):
        shape = grid.shape + stack
        dim = grid.dim
        self.grads = np.full((dim,) + shape, np.nan)
        self.grad_sq = np.full(shape, np.nan)
        self.s_node = np.full(shape, np.nan)
        self.rate = np.full(shape, np.nan)
        flat = (grid.interior.size,) + stack
        self.dn = np.full(flat, np.nan)         # face difference, then face flux
        self.acc = np.full(flat, np.nan)
        self.tmp = np.full(flat, np.nan)
        self.strides = tuple(int(np.prod(grid.shape[ax + 1:], dtype=int))
                             for ax in range(dim))
        self.interior_flat = np.flatnonzero(grid.interior.ravel())
        self.exterior_flat = np.flatnonzero(~grid.interior.ravel())


def apply_closure(values: np.ndarray, grid: Grid, bvals: BoundaryValues) -> np.ndarray:
    """Set near-boundary nodes by boundary-anchored linear interpolation.

    One write of the constant closures, then one pass per closure level:
    every node gets its exact interpolant, whatever near-boundary nodes it
    reads, and every field of a stack the bits it gets alone.
    """
    flat = _flat(values, grid.dim)
    ends = bvals.level_ends
    flat[bvals.nb_flat[:ends[0]]] = bvals.c_const
    for a, b in zip(ends, ends[1:]):
        th = bvals.c_theta[a:b]
        flat[bvals.nb_flat[a:b]] = (bvals.c_hb[a:b] + th * flat[bvals.c_inner[a:b]]) / (1.0 + th)
    return values


def node_gradient(values: np.ndarray, grid: Grid, bvals: BoundaryValues,
                  ws: Workspace | None = None) -> np.ndarray:
    """Gradient at every inside node, shape (dim, *values.shape).

    Central differences on full stencils; where an axis is cut, the
    nonuniform three-point formula through the boundary value (exact on
    quadratics) replaces it:
    (tm^2 u_plus - tp^2 u_minus + (tp^2 - tm^2) u) / (tp tm (tp + tm) h),
    with an uncut side at t = 1 reading its neighbor node.  Every inside
    node on a lattice edge is cut on its edge side, so the cut formula
    replaces the wrapped central difference there.  Off the inside nodes an
    entry is NaN or a wrapped difference, and means nothing.
    """
    ws = ws or Workspace(grid, values.shape[grid.dim:])
    h = grid.spacing
    v = _flat(values, grid.dim)
    grads = ws.grads.reshape((grid.dim,) + v.shape)
    with np.errstate(invalid="ignore"):
        for ax, s in enumerate(ws.strides):
            g = grads[ax]
            np.subtract(v[2 * s:], v[:-2 * s], out=g[s:-s])
            g[s:-s] /= 2 * h
            c = bvals.axis_cuts[ax]
            up, um = v[c.ip], v[c.im]
            np.copyto(up, c.hb_p, where=c.cut_p)
            np.copyto(um, c.hb_m, where=c.cut_m)
            g[c.idx] = (c.tm2 * up - c.tp2 * um + c.w0 * v[c.idx]) / c.den
    return ws.grads


def regularized_rhs(values: np.ndarray, grid: Grid, params: FlowParams,
                    bvals: BoundaryValues, ws: Workspace | None = None) -> np.ndarray:
    """Evolution rate at interior nodes (NaN elsewhere).

    Flux form: rate = s * (sum_k D_k(grad_k u / s_face) + nu) with
    s = sqrt(eps^2 + |grad u|^2).  Equals the trace form
    (delta_kl - u_k u_l / s^2) u_kl + nu*s up to O(h^2).  The face between
    flat nodes i and i + s sits at i in dn and acc.  ws.grad_sq keeps
    |grad u|^2, summed in axis order, for the step recorder.
    """
    ws = ws or Workspace(grid, values.shape[grid.dim:])
    h = grid.spacing
    eps2 = params.epsilon ** 2
    node_gradient(values, grid, bvals, ws)
    v = _flat(values, grid.dim)
    grads = ws.grads.reshape((grid.dim,) + v.shape)
    grad_sq, s_node, rate = (_flat(a, grid.dim) for a in (ws.grad_sq, ws.s_node, ws.rate))
    dn, acc, tmp = ws.dn, ws.acc, ws.tmp
    # a blowing-up field may overflow here; euler_update's finiteness check
    # turns that into a BlowUpError
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(grads[0], grads[0], out=grad_sq)
        for j in range(1, grid.dim):
            np.multiply(grads[j], grads[j], out=tmp)
            grad_sq += tmp
        np.add(grad_sq, eps2, out=s_node)
        np.sqrt(s_node, out=s_node)

        # the flux divergence accumulates in rate
        rate.fill(0.0)
        for ax, s in enumerate(ws.strides):
            d, a, t = dn[:-s], acc[:-s], tmp[:-s]
            np.subtract(v[s:], v[:-s], out=d)
            d /= h
            # a sums the squared face averages t of the tangential components
            for k, j in enumerate(j for j in range(grid.dim) if j != ax):
                np.add(grads[j][:-s], grads[j][s:], out=t)
                t *= 0.5
                if k == 0:
                    np.multiply(t, t, out=a)
                else:
                    np.multiply(t, t, out=t)
                    a += t
            # assemble s_face in a; the face flux replaces the face difference in d
            np.multiply(d, d, out=t)
            a += t
            a += eps2
            np.sqrt(a, out=a)
            np.divide(d, a, out=d)
            np.subtract(dn[s:], d, out=tmp[s:])
            rate[s:] += tmp[s:]
        rate /= h
        rate += params.nu
        rate *= s_node
        rate[ws.exterior_flat] = np.nan
    return ws.rate


def stable_dt(params: FlowParams, grid: Grid) -> float:
    """Explicit step: CFL_FACTOR * h^2 / dim unless overridden."""
    if params.dt_override is not None:
        return params.dt_override
    return CFL_FACTOR * grid.spacing ** 2 / grid.dim


def whole_steps(duration: float, dt: float) -> int:
    """Completed steps of size dt within duration, forgiving a 1e-12 step of round-off."""
    return int(np.floor(duration / dt + 1e-12))


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
          n_steps: int):
    """Forward-Euler march yielding (k, state, ws) for k = 0 (the start) to n_steps.

    The start state is copied once and advanced in place, so the caller's
    state is never changed.  The arrays of ws belong to the yielded state
    until the next step overwrites them and the state.  A stack of fields
    (values of shape (*grid.shape, B) with bvals built for B boundary
    functions) advances with one operator call per step, each field bit for
    bit as it would alone.  A non-finite update raises BlowUpError naming
    the node and step, and in a stack the field.
    """
    ws = Workspace(grid, state.values.shape[grid.dim:])
    dt = stable_dt(params, grid)
    state = state.copy()
    regularized_rhs(state.values, grid, params, bvals, ws)
    yield 0, state, ws
    for k in range(1, n_steps + 1):
        euler_update(state, ws.rate, dt, grid, bvals, ws, k)
        regularized_rhs(state.values, grid, params, bvals, ws)
        yield k, state, ws


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
