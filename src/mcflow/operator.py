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
forward-Euler generator `march`, which also keeps the time.

The operator evaluates the inside nodes only, in the compact layout: an
array of shape (n_inside, *stack) holding the inside nodes in the C order
of the grid box.  Along the last grid axis (stride 1) the stencils are
contiguous shifts of the compact array: a central difference is
v[2:] - v[:-2] and a face difference v[1:] - v[:-1].  Inside the domain a
grid line's inside nodes form one run, so the shift reads the true
neighbor everywhere but across the end of a run, where it lands on the next
run.  The node such a shift serves is cut on that side (build_grid cuts
every inside node whose neighbor is outside or off the lattice): its cut
formula replaces the gradient, and the face there is read by no interior
rate.  The other axes read their neighbors through index arrays built once
per Workspace; a neighbor outside the domain is the node itself, with the
same effect.  The rate is kept at the interior nodes and is 0 on the
near-boundary ring.  The compact array is the one field layout of the
functions below and the whole march state: init_state builds it, march
steps it and the steady Newton residual evaluates it.  A box field (NaN
off the inside nodes) is made only where a field leaves the solver, by
Workspace.box: snapshots, the viscosity run's fields and the steady
result.

The face norm folds the half of the tangential face average away: with
t = g_j[i] + g_j[i + s], d = (u[i + s] - u[i]) / (h/2) and 4 eps^2 for
eps^2 every term is four times the one of the averaged formula, exactly,
since every factor is a power of two; so the flux d / sqrt(sum t^2 + d^2
+ 4 eps^2) has the bits of the averaged one short of overflow, which only
gradients near 1e154, in a run about to blow up, reach.

The spacing factors 2h (central differences), h/2 (face differences) and h
(divergence) are applied by a multiply by 1/c where c and 1/c are powers of
two (_scaling; every demo and benchmark spacing is 1/16 or 1/32), and by a
division otherwise.  1/c is then exact, so x * (1/c) rounds the exact value
x / c just as the division does: the bits are the same, at well under half
the cost.  The first axis of the divergence writes the rate rather than
adding to zeros; where that leaves -0.0 in place of +0.0, adding nu (taken
as +0.0 when it is -0.0) gives +0.0, as the sum from zeros does.

The functions below also step a stack of B fields that share one grid, one
FlowParams and one dt: compact arrays of shape (n_inside, B), boundary
data and initial data given as sequences of B functions.  The stack lives
on the trailing axis and every field gets exactly the bits it gets alone:
the arithmetic, closure included, is elementwise.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import Grid

CFL_FACTOR = 0.25        # explicit step in units of h^2 / dim; stability allows 0.5
CACHE_LINE = 64          # bytes; _aligned_full starts its arrays on this boundary


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


def _strides(shape: tuple) -> list:
    """Flat stride of each axis of a C-order box."""
    return [int(np.prod(shape[ax + 1:], dtype=int)) for ax in range(len(shape))]


def _positions(inside_flat: np.ndarray, size: int) -> np.ndarray:
    """Compact position of every inside node of a box of size nodes; the
    entries off the inside nodes are never read."""
    pos = np.empty(size, np.intp)
    pos[inside_flat] = np.arange(len(inside_flat))
    return pos


def _aligned_full(shape: tuple, fill, dtype=float) -> np.ndarray:
    """A new array of shape filled with fill whose data start on a cache line.

    malloc aligns to 16 bytes only, so most 64-byte SIMD loads of a pass
    over such an array split two lines; over-allocating by a line and
    slicing removes the split.  Elementwise ufuncs and pairwise sums give
    the same bits at any alignment.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=int)) * dtype.itemsize
    raw = np.empty(nbytes + CACHE_LINE, np.uint8)
    skip = -raw.ctypes.data % CACHE_LINE
    out = raw[skip:skip + nbytes].view(dtype).reshape(shape)
    out.fill(fill)
    return out


def _scaling(c: float) -> tuple:
    """(ufunc, operand) applying 1/c in place: (np.multiply, 1/c) when c and
    1/c are powers of two, so the product rounds the exact quotient as the
    division does, and (np.divide, c) otherwise."""
    if math.frexp(c)[0] == 0.5:
        inv = 1.0 / c
        if math.frexp(inv)[0] == 0.5:
            return np.multiply, inv
    return np.divide, c


def _sample(fns, pts: np.ndarray) -> np.ndarray:
    """One function's values at pts, or a sequence's stacked on a trailing axis."""
    if callable(fns):
        return fns(pts)
    return np.stack([f(pts) for f in fns], axis=-1)


class _AxisCuts:
    """Gradient data at the nodes whose grid line the boundary cuts, every axis in one set.

    Entry k serves axis a at compact node node[k]: it replaces row[k] =
    a * n_inside + node[k] of the gradient seen as dim * n_inside rows.  Each
    side has a fraction t and a value: the cut fraction theta and the
    boundary value where the side is cut, 1 and the neighbor node where it
    is not.  A cut side's neighbor index is the node itself (a node on the
    boundary to round-off can sit on the lattice edge, where the neighbor
    would leave the box), and its boundary value is NaN where the side is
    not cut.  The cut masks and the t-derived coefficients carry a trailing
    unit axis per stack axis, so they broadcast against the per-field
    boundary values and gathered nodes.
    """

    __slots__ = ("row", "node", "ip", "im", "cut_p", "cut_m", "hb_p", "hb_m",
                 "tp2", "tm2", "w0", "den")


@dataclass
class BoundaryValues:
    """Boundary data evaluated at every grid cut, and the closure plan.

    The prescribed value at the boundary crossing of each cut is kept only
    where it is read: in the gradient data (cuts) and in the closure arrays,
    gathered from the one evaluation by cut index.  Node indices are compact
    positions (see the module docstring).  Each near-boundary node is closed
    along its canonical (smallest theta) cut.  The constant closures come
    first in nb_nodes: where the node's line is cut on both sides (a sliver)
    or its inner neighbor closes back through it along the same line (a
    pair), the value is the interpolant between two boundary values,
    c_const.  The dependent closures follow, level by level,
    value = (hb + theta * inner) / (1 + theta), each level reading only
    interior nodes and nodes set before it; level_ends holds the end of the
    constants and of each level.  For a stack of B fields the boundary
    values and c_const gain a trailing axis of length B and the theta arrays
    a trailing unit axis.  c_den = 1 + theta is stored once, and levels
    holds each level's slices and a view of one scratch array the size of
    the largest level, which the level is computed in: one BoundaryValues
    serves one closure at a time.
    """

    cuts: _AxisCuts
    nb_nodes: np.ndarray     # near-boundary nodes in closure order
    c_theta: np.ndarray
    c_hb: np.ndarray
    c_inner: np.ndarray      # node a closure reads, -1 at a constant
    c_const: np.ndarray      # values of the constant closures
    level_ends: tuple
    c_den: np.ndarray = field(init=False)

    def __post_init__(self):
        self.c_den = 1.0 + self.c_theta
        ends = self.level_ends
        buf = np.empty((max((b - a for a, b in zip(ends, ends[1:])), default=0),)
                       + self.c_hb.shape[1:])
        # per level: its nodes, the nodes they read, theta, hb, 1 + theta and
        # the scratch it is computed in
        self.levels = [(self.nb_nodes[a:b], self.c_inner[a:b], self.c_theta[a:b],
                        self.c_hb[a:b], self.c_den[a:b], buf[:b - a])
                       for a, b in zip(ends, ends[1:])]


def boundary_values(grid: Grid, h_fn: Callable | Sequence[Callable]) -> BoundaryValues:
    """Evaluate time-independent boundary data once, on all cut points of a grid.

    The cut points of every (axis, side) family come from one Grid.cuts.
    h_fn is one function, or a sequence of B functions for a stack of fields.
    Raises OperatorError naming a node whose closure reads through a cycle
    of near-boundary nodes longer than a pair.
    """
    dim, size = grid.dim, grid.inside.size
    stack = () if callable(h_fn) else (len(h_fn),)
    unit = (-1,) + (1,) * len(stack)
    cut_index, pts = grid.cuts()
    hv = _sample(h_fn, pts)
    inside_flat = np.flatnonzero(grid.inside)
    compact = _positions(inside_flat, size)
    strides = np.array(_strides(grid.shape))
    theta = grid.theta.reshape(dim, 2, size)

    # one gradient entry per (axis, node) with a cut, axis-major; each cut
    # fills its side of its entry
    family, node = np.divmod(cut_index, size)
    key = family // 2 * size + node
    has = np.zeros(dim * size, bool)
    has[key] = True
    entries = np.flatnonzero(has)
    entry_at = np.empty(dim * size, np.intp)       # read only at entries
    entry_at[entries] = np.arange(len(entries))
    side = family % 2
    t = np.ones((2, len(entries)))
    cut = np.zeros((2, len(entries)), bool)
    hbs = np.full((2, len(entries)) + stack, np.nan)
    t[side, entry_at[key]] = grid.theta.reshape(-1)[cut_index]
    cut[side, entry_at[key]] = True
    hbs[side, entry_at[key]] = hv

    def hb(ax, side, node):
        """Boundary values of the (ax, side) cuts of box nodes, each of them cut."""
        return hbs[side, entry_at[ax * size + node]]

    ax, node = np.divmod(entries, size)
    c = _AxisCuts()
    c.node = compact[node]
    c.row = ax * len(inside_flat) + c.node
    cut_m, cut_p = cut
    c.im = compact[np.where(cut_m, node, node - strides[ax])]
    c.ip = compact[np.where(cut_p, node, node + strides[ax])]
    c.hb_m, c.hb_p = hbs
    c.cut_m, c.cut_p = cut_m.reshape(unit), cut_p.reshape(unit)
    tm, tp = (a.reshape(unit) for a in t)
    c.tm2, c.tp2 = tm ** 2, tp ** 2
    c.w0 = c.tp2 - c.tm2
    c.den = tp * tm * (tp + tm) * grid.spacing

    nb = grid.near_boundary.ravel()
    nb_flat = np.flatnonzero(nb)
    ax = grid.closure_axis.ravel()[nb_flat].astype(np.intp)
    side = grid.closure_side.ravel()[nb_flat].astype(np.intp)
    sliver = np.isfinite(theta[ax, 1 - side, nb_flat])
    # the inner neighbor, across from the canonical cut; a sliver has none
    inner = np.where(sliver, nb_flat, nb_flat + np.where(side == 1, -1, 1) * strides[ax])
    pair = (~sliver & nb[inner] & (grid.closure_axis.ravel()[inner] == ax)
            & (grid.closure_side.ravel()[inner] == 1 - side))
    const = sliver | pair
    t_out = theta[ax, side, nb_flat]
    c_hb = hb(ax, side, nb_flat)
    # a constant closure interpolates between its own boundary value and the
    # one across the line: of a sliver, or of a pair's partner, whose cut lies
    # one spacing further out
    ck, ax_k, across = inner[const], ax[const], 1 - side[const]
    t_across = theta[ax_k, across, ck]
    t_in = np.where(sliver[const], t_across, 1.0 + t_across).reshape(unit)
    t_k = t_out[const].reshape(unit)
    c_const = (t_in * c_hb[const] + t_k * hb(ax_k, across, ck)) / (t_in + t_k)

    # closure levels: a dependent node is set after the near-boundary node it reads
    pos = np.full(size, -1)
    pos[nb_flat] = np.arange(len(nb_flat))
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
    return BoundaryValues(cuts=c, nb_nodes=compact[nb_flat[order]],
                          c_theta=t_out[order].reshape(unit), c_hb=c_hb[order],
                          c_inner=np.where(const, -1, compact[inner])[order],
                          c_const=c_const, level_ends=level_ends)


class Workspace:
    """The compact layout of a grid and the scratch arrays of the per-step operator.

    One instance per (grid, run); reusing it across steps removes the
    allocation churn that otherwise dominates small-grid stepping.  Compact
    position i holds box node inside_flat[i]; interior and ring list the
    positions of the interior and of the near-boundary nodes.  After a rate
    evaluation, grads, grad_sq and s_node hold the node gradient, its
    squared norm and the smoothed gradient norm of the evaluated field at
    every inside node, and rate the evolution rate, 0 on the ring.  shape is
    (n_inside, *stack), the shape of the compact arrays it serves: stack is
    () for one field and (B,) for a stack of B, which costs B * (5 + 2 dim)
    compact arrays, a boolean one (finite) and the gathers of the cut
    formula.  Every buffer starts on a cache line (_aligned_full).

    Along the last axis the neighbor of position i is i + 1.  Along axis
    ax < dim - 1 it is plus[ax][i] (minus[ax][i] on the minus side), or i
    itself where the neighbor is not inside; across[ax] keeps the values at
    plus[ax] that the node gradient gathers, for the face differences.  Either
    way a node whose stencil leaves its grid line's run of inside nodes is
    cut on that side: the cut formula replaces its gradient, and only ring
    rates, which are set to 0, read its face.
    """

    def __init__(self, grid: Grid, stack: tuple = ()):
        dim = grid.dim
        inside = grid.inside.ravel()
        self.inside_flat = np.flatnonzero(inside)
        n = len(self.inside_flat)
        self.stack, self.grid_shape = stack, grid.shape
        interior = grid.interior.ravel()[self.inside_flat]
        self.interior = np.flatnonzero(interior)
        self.ring = np.flatnonzero(~interior)
        compact = _positions(self.inside_flat, inside.size)
        self.plus, self.minus = [], []
        for ax, s in enumerate(_strides(grid.shape)[:-1]):
            coord = self.inside_flat // s % grid.shape[ax]
            for nbrs, step, ok in ((self.plus, s, coord < grid.shape[ax] - 1),
                                   (self.minus, -s, coord > 0)):
                ok[ok] = inside[self.inside_flat[ok] + step]
                nbr = np.arange(n)
                nbr[ok] = compact[self.inside_flat[ok] + step]
                nbrs.append(nbr)
        self.shape = shape = (n,) + stack
        self.grads = _aligned_full((dim,) + shape, np.nan)
        self.grad_sq = _aligned_full(shape, np.nan)
        self.s_node = _aligned_full(shape, np.nan)
        self.rate = _aligned_full(shape, np.nan)
        self.dn = _aligned_full(shape, np.nan)       # face difference, then face flux
        self.acc = _aligned_full(shape, np.nan)
        self.tmp = _aligned_full(shape, np.nan)
        self.finite = _aligned_full(shape, False, bool)  # euler_update's finiteness mask
        self.across = _aligned_full((dim - 1,) + shape, np.nan)
        # the axes other than ax, per ax: the tangential components of its faces
        self.tangential = tuple(tuple(j for j in range(dim) if j != ax) for ax in range(dim))
        # how the central, face and divergence differences apply 1 / (2h),
        # 1 / (h/2) and 1 / h (_scaling)
        h = grid.spacing
        self.by_2h, self.by_half_h, self.by_h = (_scaling(c) for c in (2 * h, h / 2, h))
        # the three gathers of the cut formula: one entry per (axis, cut node)
        cut = np.isfinite(grid.theta)
        cut_rows = np.count_nonzero(cut[:, 0] | cut[:, 1])
        self.cut_buf = _aligned_full((3, cut_rows) + stack, np.nan)

    def box(self, a: np.ndarray) -> np.ndarray:
        """A compact array as a new box field, NaN off the inside nodes."""
        out = np.full(self.grid_shape + self.stack, np.nan)
        out.reshape((-1,) + self.stack)[self.inside_flat] = a
        return out


def _workspace(values: np.ndarray, grid: Grid, ws: Workspace | None) -> Workspace:
    """ws, or a new Workspace for values; OperatorError unless values is a
    compact array of the grid, of ws's stack when ws is given."""
    expected = ws.shape if ws else (grid.n_inside,) + values.shape[1:]
    if values.shape != expected:
        raise OperatorError(f"expected a compact array of shape {expected}, "
                            f"got shape {values.shape}")
    return ws or Workspace(grid, values.shape[1:])


def apply_closure(values: np.ndarray, bvals: BoundaryValues) -> np.ndarray:
    """Set near-boundary nodes by boundary-anchored linear interpolation.

    values is a compact array, closed in place.  One write of the constant
    closures, then one pass per closure level: every node gets its exact
    interpolant, whatever near-boundary nodes it reads, and every field of a
    stack the bits it gets alone.
    """
    values[bvals.nb_nodes[:bvals.level_ends[0]]] = bvals.c_const
    for nodes, inner, theta, hb, den, lvl in bvals.levels:
        # (hb + theta * inner) / (1 + theta), operation by operation
        values.take(inner, axis=0, out=lvl, mode="clip")
        lvl *= theta
        lvl += hb
        lvl /= den
        values[nodes] = lvl
    return values


def node_gradient(values: np.ndarray, grid: Grid, bvals: BoundaryValues,
                  ws: Workspace | None = None) -> np.ndarray:
    """Gradient of a compact array at every inside node, in ws.grads.

    Central differences on full stencils; where an axis is cut, the
    nonuniform three-point formula through the boundary value (exact on
    quadratics) replaces it:
    (tm^2 u_plus - tp^2 u_minus + (tp^2 - tm^2) u) / (tp tm (tp + tm) h),
    with an uncut side at t = 1 reading its neighbor node.  The cut formula
    runs once, for the cut nodes of every axis together.  A values array
    that is not the grid's compact array (of ws's stack) is an OperatorError.
    No floating-point error state is set here: a caller passing non-finite
    or huge values opens its own np.errstate, as regularized_rhs does, or
    gets numpy's RuntimeWarning.
    """
    v = values
    ws = _workspace(v, grid, ws)
    grads = ws.grads
    scale, by = ws.by_2h
    for ax, (plus, minus) in enumerate(zip(ws.plus, ws.minus)):
        v.take(plus, axis=0, out=ws.across[ax], mode="clip")
        v.take(minus, axis=0, out=ws.tmp, mode="clip")
        np.subtract(ws.across[ax], ws.tmp, out=grads[ax])
        scale(grads[ax], by, out=grads[ax])
    g = grads[-1][1:-1]
    np.subtract(v[2:], v[:-2], out=g)
    scale(g, by, out=g)
    c = bvals.cuts
    up, um, u0 = ws.cut_buf
    v.take(c.ip, axis=0, out=up, mode="clip")
    v.take(c.im, axis=0, out=um, mode="clip")
    v.take(c.node, axis=0, out=u0, mode="clip")
    np.copyto(up, c.hb_p, where=c.cut_p)
    np.copyto(um, c.hb_m, where=c.cut_m)
    up *= c.tm2
    um *= c.tp2
    up -= um
    u0 *= c.w0
    up += u0
    up /= c.den
    grads.reshape((-1,) + v.shape[1:])[c.row] = up
    return grads


def regularized_rhs(values: np.ndarray, grid: Grid, params: FlowParams,
                    bvals: BoundaryValues, ws: Workspace | None = None) -> np.ndarray:
    """Evolution rate of a compact array at the interior nodes, in ws.rate
    (0 on the ring).

    Flux form: rate = s * (sum_k D_k(grad_k u / s_face) + nu) with
    s = sqrt(eps^2 + |grad u|^2).  Equals the trace form
    (delta_kl - u_k u_l / s^2) u_kl + nu*s up to O(h^2).  The face between
    node i and its plus neighbor along an axis sits at i in dn and acc.
    ws.grad_sq keeps |grad u|^2, summed in axis order, for the step recorder.
    A values array that is not the grid's compact array (of ws's stack) is
    an OperatorError.
    """
    v = values
    ws = _workspace(v, grid, ws)
    eps2 = params.epsilon ** 2
    dim = grid.dim
    grads, grad_sq, s_node, rate = ws.grads, ws.grad_sq, ws.s_node, ws.rate
    dn, acc, tmp = ws.dn, ws.acc, ws.tmp
    # a blowing-up field may overflow here; euler_update's finiteness check
    # turns that into a BlowUpError
    with np.errstate(invalid="ignore", over="ignore"):
        node_gradient(v, grid, bvals, ws)
        np.multiply(grads[0], grads[0], out=grad_sq)
        for j in range(1, dim):
            np.multiply(grads[j], grads[j], out=tmp)
            grad_sq += tmp
        np.add(grad_sq, eps2, out=s_node)
        np.sqrt(s_node, out=s_node)

        # the flux divergence accumulates in rate; the first axis, never the
        # last, writes it
        scale, by = ws.by_half_h
        for ax, tangential in enumerate(ws.tangential):
            last = ax == dim - 1
            if last:
                d, a, t = dn[:-1], acc[:-1], tmp[:-1]
                np.subtract(v[1:], v[:-1], out=d)
            else:
                d, a, t = dn, acc, tmp
                np.subtract(ws.across[ax], v, out=d)
            scale(d, by, out=d)
            # a sums the squares of the doubled face averages t of the
            # tangential components
            for k, j in enumerate(tangential):
                if last:
                    np.add(grads[j][:-1], grads[j][1:], out=t)
                else:
                    grads[j].take(ws.plus[ax], axis=0, out=t, mode="clip")
                    t += grads[j]
                if k == 0:
                    np.multiply(t, t, out=a)
                else:
                    np.multiply(t, t, out=t)
                    a += t
            # assemble 2 s_face in a; the face flux replaces the face difference in d
            np.multiply(d, d, out=t)
            a += t
            a += 4 * eps2
            np.sqrt(a, out=a)
            np.divide(d, a, out=d)
            if last:
                np.subtract(dn[1:], d, out=tmp[1:])
                rate[1:] += tmp[1:]
            else:
                dn.take(ws.minus[ax], axis=0, out=tmp, mode="clip")
                if ax == 0:
                    np.subtract(dn, tmp, out=rate)
                else:
                    np.subtract(dn, tmp, out=tmp)
                    rate += tmp
        scale, by = ws.by_h
        scale(rate, by, out=rate)
        # the first axis's write can leave -0.0 where a sum from zeros gives
        # +0.0; adding nu turns it into +0.0 too, once + 0.0 has made a -0.0
        # nu +0.0
        rate += params.nu + 0.0
        rate *= s_node
        rate[ws.ring] = 0.0
    return rate


def stable_dt(params: FlowParams, grid: Grid) -> float:
    """Explicit step: CFL_FACTOR * h^2 / dim unless overridden."""
    if params.dt_override is not None:
        return params.dt_override
    return CFL_FACTOR * grid.spacing ** 2 / grid.dim


def whole_steps(duration: float, dt: float) -> int:
    """Completed steps of size dt within duration, forgiving a 1e-12 step of
    round-off; 0 for a duration under one step, a negative one included."""
    return max(int(np.floor(duration / dt + 1e-12)), 0)


def euler_update(values: np.ndarray, dt: float, bvals: BoundaryValues, ws: Workspace,
                 step_index: int = 0) -> None:
    """Advance a compact array by dt * ws.rate in place and re-close the boundary ring.

    The rate is 0 on the ring, which the closure then sets.  A non-finite
    update raises BlowUpError before the array is touched.  It names the
    first node in flat order; in a stack, of the lowest field with a
    non-finite update.
    """
    rate = ws.rate
    if not np.isfinite(rate, out=ws.finite).all():
        bad = ~ws.finite.reshape(len(rate), -1)
        field = int(np.argmax(bad.any(axis=0)))
        node = tuple(int(i) for i in np.unravel_index(
            ws.inside_flat[np.argmax(bad[:, field])], ws.grid_shape))
        if not ws.stack:
            raise BlowUpError(f"non-finite value at node {node} on step {step_index}",
                              node=node, step=step_index)
        raise BlowUpError(f"non-finite value at node {node} of field {field} "
                          f"on step {step_index}", node=node, step=step_index, field=field)
    values += np.multiply(rate, dt, out=ws.tmp)
    apply_closure(values, bvals)


def march(values: np.ndarray, grid: Grid, params: FlowParams, bvals: BoundaryValues,
          n_steps: int):
    """Forward-Euler march from time 0 yielding (k, t, u, ws) for k = 0 (the
    start) to n_steps.

    u is a copy of the compact array values, advanced in place, so the
    caller's array is never changed; ws.box gives its box field.  t is the
    sum of k steps dt, added one at a time.  u and the arrays of ws belong
    to step k until the next step overwrites them.  A stack of fields
    (values of shape (n_inside, B) with bvals built for B boundary
    functions) advances with one operator call per step, each field bit for
    bit as it would alone.  A start that is not a compact array of the grid
    is an OperatorError; a non-finite update raises BlowUpError naming the
    node and step, and in a stack the field.
    """
    ws = _workspace(values, grid, None)
    dt = stable_dt(params, grid)
    u, t = values.copy(), 0.0
    regularized_rhs(u, grid, params, bvals, ws)
    yield 0, t, u, ws
    for k in range(1, n_steps + 1):
        euler_update(u, dt, bvals, ws, k)
        t += dt
        regularized_rhs(u, grid, params, bvals, ws)
        yield k, t, u, ws


def init_state(grid: Grid, g_fn: Callable | Sequence[Callable],
               bvals: BoundaryValues) -> np.ndarray:
    """Sample initial data on inside nodes and close the boundary ring: the
    compact start of a march.

    g_fn is one function, or a sequence of B functions for a stack of fields
    (bvals built for as many).  The closure makes the initial state exactly
    what the scheme evolves, so rate bounds taken on it are attained by the
    first recorded step.
    """
    stack = () if callable(g_fn) else (len(g_fn),)
    pts = grid.points[grid.inside]
    v = np.empty((len(pts),) + stack)
    v[...] = _sample(g_fn, pts)
    return apply_closure(v, bvals)
