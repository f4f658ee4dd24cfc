"""Shared data fields and small oracles for the test suite."""

from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

import mcflow as mc
from mcflow import barriers as ba
from mcflow import flow as fl
from mcflow import geometry as geo
from mcflow import operator as op
from mcflow import verify as vf


# Euler steps relax_explicit may take: 13,082 reach tol 1e-7 at h = 1/16, nu = +-0.3
EXPLICIT_MAX_STEPS = 200_000


def zero(pts):
    return np.zeros(len(pts))


def linear_x1(pts):
    return pts[:, 0]


def quadratic_r2(pts):
    return np.sum(pts ** 2, axis=1)


def bump(pts):
    return 0.3 * (1.0 - np.sum(pts ** 2, axis=1)) ** 2


def linear_plus_bump(pts):
    return pts[:, 0] + 0.5 * (1.0 - np.sum(pts ** 2, axis=1)) ** 2


def observed_orders(residuals):
    """Successive halving orders; infinite when both residuals are roundoff."""
    out = []
    for a, b in zip(residuals, residuals[1:]):
        if a < 1e-12 and b < 1e-12:
            out.append(np.inf)
        else:
            out.append(np.log2(a / b))
    return out


def fd_gradient(f, pts, step=1e-6):
    """Central-difference gradient of a scalar point function."""
    pts = np.asarray(pts, dtype=float)
    n, dim = pts.shape
    g = np.empty((n, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = step
        g[:, k] = (f(pts + e) - f(pts - e)) / (2 * step)
    return g


def fd_laplacian(f, pts, step):
    """Five/seven-point Laplacian of a scalar point function at spacing step."""
    pts = np.asarray(pts, dtype=float)
    n, dim = pts.shape
    out = -2.0 * dim * f(pts)
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = step
        out = out + f(pts + e) + f(pts - e)
    return out / step ** 2


def relax_explicit(problem, grid, params, tol, max_steps=EXPLICIT_MAX_STEPS):
    """Oracle for relax_to_steady: Euler steps of the flow from the data
    until sup|rate| < tol at the interior nodes, at most max_steps of them."""
    bvals = op.boundary_values(grid, problem.boundary_data)
    for k, _, u, ws in op.march(op.init_state(grid, problem.initial_data, bvals),
                                grid, params, bvals, max_steps):
        res = float(np.max(np.abs(ws.rate[ws.interior])))
        if res < tol:
            break
    return mc.SteadyResult(values=ws.box(u), steps=k,
                           converged=res < tol, residual=res, newton_iterations=0)


def sup_norm_bound_two_solves(problem, grid, params):
    """Oracle for barriers.sup_norm_bound: one steady solve at nu and one at
    -nu, where the bound takes the mirror of the +|nu| solve."""
    one = lambda p: np.ones(len(p))
    lo, hi = fl.data_range(problem, grid)
    kappa = max(abs(lo), abs(hi))
    vmax = -np.inf
    ok = True
    for nu in {params.nu, -params.nu}:
        p = replace(params, nu=nu, dt_override=None)
        res = mc.relax_to_steady(mc.IBVP(problem.domain, one, one), grid, p,
                                 tol=ba.SUP_NORM_TOL)
        ok &= res.converged
        vmax = max(vmax, float(np.max(res.values[grid.inside])))
        if float(np.min(res.values[grid.inside])) < -1e-8:
            ok = False
    return mc.SupNormBound(value=vmax + kappa, available=ok, steady_max=vmax,
                           data_shift=kappa)


def spot_check_loop(snapshots, times, grid, params, mode, probe_budget=2000,
                    box_radius=2, tolerance=None):
    """Per-probe oracle for verify.viscosity_spot_check.

    The checker's sampling, fit, touch test and margins, one centre at a
    time with scalar indexing.  A box holding a non-finite value never
    touches.
    """
    h, dim = grid.spacing, grid.dim
    tol = 10.0 * h if tolerance is None else tolerance
    grad_floor = max(10.0 * h ** 2, params.epsilon ** 2)
    ok = grid.inside.copy()
    for ax in range(dim):
        for shift in range(1, box_radius + 1):
            ok &= np.roll(grid.inside, shift, axis=ax)
            ok &= np.roll(grid.inside, -shift, axis=ax)
    edge = np.zeros(grid.shape, bool)
    edge[(slice(box_radius, -box_radius),) * dim] = True
    centers = np.argwhere(ok & edge)
    if len(centers) == 0:
        return []
    stride = max(1, int(np.ceil(len(centers) * (len(snapshots) - 2) / max(probe_budget, 1))))
    centers = centers[::stride]
    offsets = np.array(list(product(range(-box_radius, box_radius + 1), repeat=dim)))
    unit = np.eye(dim, dtype=int)
    sign = 1.0 if mode == "sub" else -1.0
    violations = []
    for s in range(1, len(snapshots) - 1):
        u_prev, u, u_next = snapshots[s - 1], snapshots[s], snapshots[s + 1]
        dtv = (times[s + 1] - times[s - 1]) / 2.0
        for c in centers:
            ci = tuple(c)
            q = (u_next[ci] - u_prev[ci]) / (2.0 * dtv)
            p = np.empty(dim)
            hess = np.empty((dim, dim))
            for k in range(dim):
                up, um = tuple(c + unit[k]), tuple(c - unit[k])
                p[k] = (u[up] - u[um]) / (2 * h)
                hess[k, k] = (u[up] - 2 * u[ci] + u[um]) / h ** 2
            for k in range(dim):
                for l in range(k + 1, dim):
                    pp = tuple(c + unit[k] + unit[l])
                    pm = tuple(c + unit[k] - unit[l])
                    mp = tuple(c - unit[k] + unit[l])
                    mm = tuple(c - unit[k] - unit[l])
                    hess[k, l] = hess[l, k] = (u[pp] - u[pm] - u[mp] + u[mm]) / (4 * h ** 2)
            touched = True
            for si, us in ((s - 1, u_prev), (s, u), (s + 1, u_next)):
                vals = us[tuple((c + offsets).T)]
                dx = offsets * h
                model = (u[ci] + dx @ p + 0.5 * np.einsum("ni,ij,nj->n", dx, hess, dx)
                         + q * (times[si] - times[s]))
                gap = sign * (vals - model)
                if not np.all(np.isfinite(gap)) or np.max(gap) > vf.TOUCH_SLACK:
                    touched = False
                    break
            if not touched:
                continue
            pn = float(np.linalg.norm(p))
            if pn > grad_floor:
                rhs = float(np.trace(hess)) - float(p @ hess @ p) / pn ** 2 + params.nu * pn
                branch = "gradient"
            else:
                rhs = vf.degenerate_branch_bound(hess, mode)
                branch = "degenerate"
            margin = sign * (rhs - q)
            if margin < -tol:
                violations.append(vf.ViscosityProbe(
                    mode=mode, index=ci, point=grid.points[ci].copy(), time=float(times[s]),
                    gradient=p, hessian=hess, time_slope=float(q), branch=branch,
                    margin=float(margin)))
    violations.sort(key=lambda v: (v.time,) + v.index)
    return violations


def rate_closed_form(p, hess, params) -> float:
    """Pointwise trace-form rate for exact gradient p and Hessian hess:
    (delta_kl - p_k p_l / (eps^2 + |p|^2)) hess_kl + nu * sqrt(eps^2 + |p|^2)."""
    p = np.asarray(p, dtype=float)
    s2 = params.epsilon ** 2 + float(p @ p)
    return float(np.sum(diffusion_tensor(p, params) * np.asarray(hess, dtype=float))
                 + params.nu * np.sqrt(s2))


def diffusion_tensor(p, params) -> np.ndarray:
    """The degenerate diffusion tensor at gradient p; eigenvalues lie in (0, 1]."""
    p = np.asarray(p, dtype=float)
    s2 = params.epsilon ** 2 + float(p @ p)
    return np.eye(len(p)) - np.outer(p, p) / s2


def boundary_trace_residual(v, bvals) -> float:
    """Max mismatch between the theta-interpolated trace and the boundary data
    of a compact array."""
    n = bvals.level_ends[0]
    res = 0.0
    if n:
        res = float(np.max(np.abs(v[bvals.nb_nodes[:n]] - bvals.c_const)))
    if len(bvals.nb_nodes) > n:
        th = bvals.c_theta[n:]
        trace = (1.0 + th) * v[bvals.nb_nodes[n:]] - th * v[bvals.c_inner[n:]]
        res = max(res, float(np.max(np.abs(trace - bvals.c_hb[n:]))))
    return res


def quadrature(field, grid) -> float:
    """Domain integral: weighted node sum with theta-fraction boundary cells."""
    vals = np.where(grid.inside & np.isfinite(field), field, 0.0)
    return float(np.sum(vals * grid.qweight) * grid.spacing ** grid.dim)


def step(values, grid, params, bvals, step_index=0):
    """One out-of-place forward-Euler update of a compact array; boundary
    trace re-imposed exactly."""
    ws = op.Workspace(grid, values.shape[1:])
    new = values.copy()
    op.regularized_rhs(new, grid, params, bvals, ws)
    op.euler_update(new, op.stable_dt(params, grid), bvals, ws, step_index)
    return new


def sandwich_row_loop(sandwich, u, drift):
    """Oracle of liouville._Sandwich.row: each difference and clamp taken
    node by node before its maximum."""
    deep = u[sandwich.in_deep] - sandwich.lam
    flat = float(np.abs(deep).max()) if len(deep) else 0.0
    lower = float(np.maximum(sandwich.glow - u, 0.0).max())
    upper = float(np.maximum(u - sandwich.lam - drift, 0.0).max())
    defects = u[sandwich.below] - u[sandwich.below + 1]
    mono = float(np.maximum(defects, 0.0).max()) if len(defects) else 0.0
    return flat, lower, upper, mono


def quadratic_min_on_ball_bruteforce(hess, samples=10000) -> float:
    """min over |eta| <= 1 of eta^T M eta by refined direction sampling.

    Independent oracle for the closed-form branch bound: coarse global
    sweep of the unit sphere, then six rounds of local refinement around
    the best direction; eta = 0 is always a candidate.
    """
    hess = np.asarray(hess, dtype=float)
    dim = hess.shape[0]

    def sphere(n):
        if dim == 2:
            t = np.linspace(0.0, np.pi, n)   # antipodal symmetry
            return np.stack([np.cos(t), np.sin(t)], axis=1)
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        phi = np.pi * (3.0 - np.sqrt(5.0)) * i
        st = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([z, st * np.cos(phi), st * np.sin(phi)], axis=1)

    dirs = sphere(samples)
    vals = np.einsum("ni,ij,nj->n", dirs, hess, dirs)
    best_dir = dirs[int(np.argmin(vals))]
    best = float(np.min(vals))
    spread = 0.5
    for _ in range(6):
        if dim == 2:
            base = np.arctan2(best_dir[1], best_dir[0])
            t = base + np.linspace(-spread, spread, 501)
            cand = np.stack([np.cos(t), np.sin(t)], axis=1)
        else:
            noise = sphere(501) * spread
            cand = best_dir[None, :] + noise
            cand /= np.linalg.norm(cand, axis=1)[:, None]
        vals = np.einsum("ni,ij,nj->n", cand, hess, cand)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = float(vals[k])
            best_dir = cand[k]
        spread *= 0.25
    return min(best, 0.0)


def ut_initial_slice_bound(problem, grid, params) -> float:
    """Sup of the discrete rate on the initial state, the flow's rate ceiling.

    Oracle for the report's step-0 sup|u_t|: the state is rebuilt exactly
    as the solver initializes it (data sampled inside, boundary ring
    closed) and the rate evaluated once.
    """
    bvals = op.boundary_values(grid, problem.boundary_data)
    rate = op.regularized_rhs(op.init_state(grid, problem.initial_data, bvals), grid,
                              params, bvals)
    return float(np.max(np.abs(rate[grid.interior[grid.inside]]))) if grid.interior.any() else 0.0


def sampled_lipschitz_bruteforce(w, grid, collar) -> float:
    """Max of |w(x) - w(y)| / |x - y| over collar node pairs within 3 spacings.

    Oracle for the barrier's sampled data Lipschitz bound (before its safety
    factor): every collar node against every other collar node, by index
    distance.
    """
    nodes = np.argwhere(collar)
    best = 0.0
    for node in nodes:
        d2 = np.sum((nodes - node) ** 2, axis=1)
        near = (d2 > 0) & (d2 <= 9)
        if near.any():
            diff = np.abs(w[tuple(nodes[near].T)] - w[tuple(node)])
            best = max(best, float(np.max(diff / (grid.spacing * np.sqrt(d2[near])))))
    return best


def box_cuts(grid, bvals):
    """The cut-gradient data of bvals per axis, in box flat indices: the
    layout the box-flat and the slice oracles read."""
    c = bvals.cuts
    n = grid.n_inside
    inside_flat = np.flatnonzero(grid.inside)
    out = []
    for ax in range(grid.dim):
        sel = c.row // n == ax
        out.append(SimpleNamespace(
            idx=inside_flat[c.node[sel]], ip=inside_flat[c.ip[sel]], im=inside_flat[c.im[sel]],
            **{k: getattr(c, k)[sel] for k in ("cut_p", "cut_m", "hb_p", "hb_m",
                                                "tp2", "tm2", "w0", "den")}))
    return out


class BoxFlatWorkspace:
    """Scratch arrays of the box-flat oracle: every array spans the grid box,
    dn, acc and tmp flat, (N, *stack)."""

    def __init__(self, grid, bvals, stack=()):
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
        self.cuts = box_cuts(grid, bvals)
        inside_flat = np.flatnonzero(grid.inside)
        self.nb_flat = inside_flat[bvals.nb_nodes]
        self.c_inner = np.where(bvals.c_inner < 0, -1, inside_flat[bvals.c_inner])


def apply_closure_box_flat(values, grid, bvals, ws):
    """Oracle of operator.apply_closure on the box-flat view."""
    flat = op_flat(values, grid.dim)
    ends = bvals.level_ends
    flat[ws.nb_flat[:ends[0]]] = bvals.c_const
    for a, b in zip(ends, ends[1:]):
        th = bvals.c_theta[a:b]
        flat[ws.nb_flat[a:b]] = (bvals.c_hb[a:b] + th * flat[ws.c_inner[a:b]]) / (1.0 + th)
    return values


def op_flat(a, dim):
    """View of a box field, or a stack of them, with its dim grid axes merged into one."""
    return a.reshape((-1,) + a.shape[dim:])


def node_gradient_box_flat(values, grid, bvals, ws):
    """Oracle of operator.node_gradient: contiguous shifts of the C-order flat
    view of the whole box along every axis, the cut formula per axis."""
    h = grid.spacing
    v = op_flat(values, grid.dim)
    grads = ws.grads.reshape((grid.dim,) + v.shape)
    with np.errstate(invalid="ignore"):
        for ax, s in enumerate(ws.strides):
            g = grads[ax]
            np.subtract(v[2 * s:], v[:-2 * s], out=g[s:-s])
            g[s:-s] /= 2 * h
            c = ws.cuts[ax]
            up, um = v[c.ip], v[c.im]
            np.copyto(up, c.hb_p, where=c.cut_p)
            np.copyto(um, c.hb_m, where=c.cut_m)
            g[c.idx] = (c.tm2 * up - c.tp2 * um + c.w0 * v[c.idx]) / c.den
    return ws.grads


def regularized_rhs_box_flat(values, grid, params, bvals, ws):
    """Oracle of operator.regularized_rhs on the box-flat view, with the face
    averages halved: rate at interior nodes, NaN elsewhere."""
    h = grid.spacing
    eps2 = params.epsilon ** 2
    node_gradient_box_flat(values, grid, bvals, ws)
    v = op_flat(values, grid.dim)
    grads = ws.grads.reshape((grid.dim,) + v.shape)
    grad_sq, s_node, rate = (op_flat(a, grid.dim) for a in (ws.grad_sq, ws.s_node, ws.rate))
    dn, acc, tmp = ws.dn, ws.acc, ws.tmp
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(grads[0], grads[0], out=grad_sq)
        for j in range(1, grid.dim):
            np.multiply(grads[j], grads[j], out=tmp)
            grad_sq += tmp
        np.add(grad_sq, eps2, out=s_node)
        np.sqrt(s_node, out=s_node)
        rate.fill(0.0)
        for ax, s in enumerate(ws.strides):
            d, a, t = dn[:-s], acc[:-s], tmp[:-s]
            np.subtract(v[s:], v[:-s], out=d)
            d /= h
            for k, j in enumerate(j for j in range(grid.dim) if j != ax):
                np.add(grads[j][:-s], grads[j][s:], out=t)
                t *= 0.5
                if k == 0:
                    np.multiply(t, t, out=a)
                else:
                    np.multiply(t, t, out=t)
                    a += t
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


def euler_update_box_flat(values, dt, grid, bvals, ws, step_index=0):
    """Oracle of operator.euler_update on a box field: interior nodes advance
    by dt * ws.rate, the ring closes; the first non-finite node in flat
    order, of the lowest field, raises BlowUpError before the field is
    touched."""
    flat = op_flat(values, grid.dim)
    idx = ws.interior_flat
    upd = op_flat(ws.rate, grid.dim)[idx]
    if not np.isfinite(upd).all():
        bad = ~np.isfinite(upd.reshape(len(idx), -1))
        field = int(np.argmax(bad.any(axis=0)))
        node = tuple(int(i) for i in np.unravel_index(idx[np.argmax(bad[:, field])],
                                                      grid.shape))
        if values.ndim == grid.dim:
            raise op.BlowUpError(f"non-finite value at node {node} on step {step_index}",
                                 node=node, step=step_index)
        raise op.BlowUpError(f"non-finite value at node {node} of field {field} "
                             f"on step {step_index}", node=node, step=step_index, field=field)
    upd *= dt
    flat[idx] += upd
    apply_closure_box_flat(values, grid, bvals, ws)


def march_box_flat(values, grid, params, bvals, n_steps):
    """Oracle of operator.march: the forward-Euler loop on box fields,
    yielding (k, t, u, ws) with ws a BoxFlatWorkspace."""
    ws = BoxFlatWorkspace(grid, bvals, values.shape[grid.dim:])
    dt = op.stable_dt(params, grid)
    u, t = values.copy(), 0.0
    regularized_rhs_box_flat(u, grid, params, bvals, ws)
    yield 0, t, u, ws
    for k in range(1, n_steps + 1):
        euler_update_box_flat(u, dt, grid, bvals, ws, k)
        t += dt
        regularized_rhs_box_flat(u, grid, params, bvals, ws)
        yield k, t, u, ws


class SliceWorkspace:
    """Scratch arrays of the per-axis slice oracle for the operator."""

    def __init__(self, grid, stack=()):
        shape = grid.shape + stack
        self.grads = np.full((grid.dim,) + shape, np.nan)
        self.s_node = np.full(shape, np.nan)
        self.dn = np.full(shape, np.nan)        # face difference, then face flux
        self.acc = np.full(shape, np.nan)
        self.rate = np.full(shape, np.nan)
        self.tmp = np.full(shape, np.nan)
        self.exterior = ~grid.interior
        self.slices = []
        for ax in range(grid.dim):
            def s(a, b):
                sl = [slice(None)] * grid.dim
                sl[ax] = slice(a, b)
                return tuple(sl)
            self.slices.append({"mid": s(1, -1), "plus": s(2, None), "minus": s(0, -2),
                                "lo": s(0, -1), "hi": s(1, None)})


def node_gradient_slices(values, grid, bvals, ws):
    """Oracle for operator.node_gradient: the same formulas on per-axis
    slices of the grid-shaped field, which never wrap."""
    h = grid.spacing
    flat = op_flat(values, grid.dim)
    with np.errstate(invalid="ignore"):
        for ax, c in enumerate(box_cuts(grid, bvals)):
            sl = ws.slices[ax]
            g = ws.grads[ax]
            np.subtract(values[sl["plus"]], values[sl["minus"]], out=g[sl["mid"]])
            g[sl["mid"]] /= 2 * h
            up, um = flat[c.ip], flat[c.im]
            np.copyto(up, c.hb_p, where=c.cut_p)
            np.copyto(um, c.hb_m, where=c.cut_m)
            op_flat(g, grid.dim)[c.idx] = (c.tm2 * up - c.tp2 * um + c.w0 * flat[c.idx]) / c.den
    return ws.grads


def regularized_rhs_slices(values, grid, params, bvals, ws):
    """Oracle for operator.regularized_rhs on per-axis slices; fills ws."""
    h = grid.spacing
    eps2 = params.epsilon ** 2
    grads = node_gradient_slices(values, grid, bvals, ws)
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(grads[0], grads[0], out=ws.s_node)
        for j in range(1, grid.dim):
            np.multiply(grads[j], grads[j], out=ws.tmp)
            ws.s_node += ws.tmp
        ws.s_node += eps2
        np.sqrt(ws.s_node, out=ws.s_node)
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
                np.add(gj[lo], gj[hi], out=tmp[lo])
                tmp[lo] *= 0.5
                np.multiply(tmp[lo], tmp[lo], out=tmp[lo])
                acc[lo] += tmp[lo]
            np.multiply(dn[lo], dn[lo], out=tmp[lo])
            acc[lo] += tmp[lo]
            acc[lo] += eps2
            np.sqrt(acc[lo], out=acc[lo])
            np.divide(dn[lo], acc[lo], out=dn[lo])
            np.subtract(dn[hi], dn[lo], out=tmp[hi])
            rate[hi] += tmp[hi]
        rate /= h
        rate += params.nu
        rate *= ws.s_node
        rate[ws.exterior] = np.nan
    return rate


class RecorderOracle:
    """Oracle for flow._Recorder: each row from whole-grid masked arrays."""

    def __init__(self, grid, params):
        self.nu = params.nu
        self.rows = {k: [] for k in ("t", "sup_u", "min_u", "max_u", "sup_grad",
                                     "sup_grad_interior", "sup_grad_ring", "sup_ut",
                                     "energy", "dissipation", "source", "ut_sq_integral")}
        self.wvol = grid.qweight * grid.spacing ** grid.dim
        self.inside = grid.inside
        self.interior = grid.interior
        self.ring = grid.near_boundary
        self.has_ring = bool(self.ring.any())

    def record(self, t, u, ws):
        # the march's compact array and workspace, as box fields
        grads = np.stack([ws.box(g) for g in ws.grads])
        rate, s_node = ws.box(ws.rate), ws.box(ws.s_node)
        with np.errstate(invalid="ignore"):
            gmag = np.sqrt(np.sum(grads ** 2, axis=0))
        r = np.where(self.interior, rate, 0.0)
        rows = self.rows
        rows["t"].append(t)
        uin = ws.box(u)[self.inside]
        rows["sup_u"].append(float(np.max(np.abs(uin))))
        rows["min_u"].append(float(np.min(uin)))
        rows["max_u"].append(float(np.max(uin)))
        rows["sup_grad"].append(float(np.max(gmag[self.inside])))
        has_interior = self.interior.any()
        rows["sup_grad_interior"].append(float(np.max(gmag[self.interior]))
                                         if has_interior else 0.0)
        rows["sup_grad_ring"].append(float(np.max(gmag[self.ring])) if self.has_ring else 0.0)
        rows["sup_ut"].append(float(np.max(np.abs(r[self.interior]))) if has_interior else 0.0)
        svals = np.where(self.inside, s_node, 0.0)
        rows["energy"].append(float(np.sum(svals * self.wvol)))
        with np.errstate(invalid="ignore", divide="ignore"):
            d = np.where(self.inside, r * r / s_node, 0.0)
        rows["dissipation"].append(float(np.sum(d * self.wvol)))
        rows["source"].append(self.nu * float(np.sum(r * self.wvol)))
        rows["ut_sq_integral"].append(float(np.sum(r * r * self.wvol)))


def built_domain(kind, dim, center, size, ratio):
    """A ball, ellipse or smoothed stadium of the given size, aspect ratio and centre."""
    center = tuple(center[:dim])
    if kind == "ball":
        return mc.ball(size, center, dim)
    if kind == "ellipse":
        return mc.ellipse(size, ratio * size, center, dim)
    return mc.smoothed_stadium(0.5 * size, 1.25 * size, 0.5 * size * max(ratio, 0.4),
                               center, dim)


def built_grid(kind, dim, center, size, ratio, fraction):
    """The grid of built_domain at spacing fraction times its smallest shape parameter."""
    if dim == 3:
        fraction = max(fraction, 1 / 12)     # keeps the 3D boxes small
    domain = built_domain(kind, dim, center, size, ratio)
    return mc.build_grid(domain, fraction * min(domain.shape_parameters))


# hypothesis strategies for the arguments of built_grid
BUILT_GRIDS = dict(kind=st.sampled_from(("ball", "ellipse", "smoothed-stadium")),
                   dim=st.sampled_from((2, 3)),
                   center=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
                   size=st.floats(0.8, 1.2), ratio=st.floats(0.15, 1.0),
                   fraction=st.floats(1 / 16, 1 / 2))


def cut_mask(grid, axis, side) -> np.ndarray:
    """The nodes of one (axis, side) cut family."""
    return np.isfinite(grid.theta[axis, side])


def cut_points(grid, axis, side) -> np.ndarray:
    """Oracle of Grid.cuts for one family: the boundary intersections of its
    nodes, in the order of its mask."""
    mask = cut_mask(grid, axis, side)
    pts = grid.points[mask].copy()
    sign = 1.0 if side == 1 else -1.0
    pts[:, axis] += sign * grid.theta[axis, side][mask] * grid.spacing
    return pts


def stadium_cuts_per_family(grid) -> np.ndarray:
    """Oracle of the stadium's batched cuts: theta by one 60-halving bisection
    of signed_distance per (axis, side) family, on the grid's own cut masks."""
    domain = grid.domain
    theta = np.full_like(grid.theta, np.nan)
    for axis, side in product(range(grid.dim), range(2)):
        mask = cut_mask(grid, axis, side)
        if not mask.any():
            continue
        e = np.zeros(grid.dim)
        e[axis] = (-1.0 if side == 0 else 1.0) * grid.spacing
        t = geo._bisect_crossing(lambda q: geo.signed_distance(domain, q) > 0.0,
                                 grid.points[mask], e)
        theta[axis, side][mask] = np.maximum(np.minimum(t, 1.0), 1e-12)
    return theta


def stadium_boundary_2d_loop(domain, count) -> np.ndarray:
    """Oracle of geometry._stadium_boundary_2d: one point at a time, piece by piece."""
    a, L, rc = domain.half_width, domain.straight_half_length, domain.corner_radius
    wx, wy = a - rc, L - rc
    total = sum([2 * wy, 2 * wy, 2 * wx, 2 * wx, 2 * np.pi * rc])
    s = (np.arange(count) + 0.5) / count * total
    pts = np.empty((count, 2))
    for k, sk in enumerate(s):
        if sk < 2 * wy:  # right side
            pts[k] = (a, -wy + sk)
        elif sk < 4 * wy:  # left side
            pts[k] = (-a, -wy + (sk - 2 * wy))
        elif sk < 4 * wy + 2 * wx:  # top
            pts[k] = (-wx + (sk - 4 * wy), L)
        elif sk < 4 * wy + 4 * wx:  # bottom
            pts[k] = (-wx + (sk - 4 * wy - 2 * wx), -L)
        else:  # four corner arcs, parametrized jointly
            u = (sk - 4 * wy - 4 * wx) / rc
            quadrant = int(u // (np.pi / 2)) % 4
            ang = u - quadrant * (np.pi / 2)
            cx = (wx, -wx, -wx, wx)[quadrant]
            cy = (wy, wy, -wy, -wy)[quadrant]
            base = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)[quadrant]
            pts[k] = (cx + rc * np.cos(base + ang), cy + rc * np.sin(base + ang))
    return pts


def build_grid_rolled(domain, spacing):
    """Oracle of geometry.build_grid: the cut masks from np.roll and a lattice-edge
    mask per (axis, side) family, the quadric's profile radius from a summed
    slice, and the closure argmin and cell fractions over the whole box."""
    coarse = geo.check_spacing(domain, spacing)
    ext = domain.half_extents
    counts = tuple(int(np.ceil(2 * e / spacing - 1e-12)) + 1 for e in ext)
    center = np.asarray(domain.center, dtype=float)
    origin = center - (np.asarray(counts) - 1) * spacing / 2.0
    axes = [origin[k] + spacing * np.arange(counts[k]) for k in range(domain.dim)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    flat_pts = points.reshape(-1, domain.dim)
    if domain.kind == "ellipse":
        p = flat_pts - center
        v = np.sqrt(np.sum(p[:, 1:] ** 2, axis=1))
        inside = ((p[:, 0] / domain.semi_major) ** 2 + (v / domain.semi_minor) ** 2
                  < 1.0).reshape(counts)
    else:
        inside = (geo.signed_distance(domain, flat_pts) > 0.0).reshape(counts)
    interior = inside.copy()
    dim = domain.dim
    cut = np.zeros((dim, 2) + counts, bool)
    for ax in range(dim):
        for side, shift in ((0, 1), (1, -1)):
            nbr_inside = np.roll(inside, shift, axis=ax)
            edge = np.zeros(counts, bool)
            idx = [slice(None)] * dim
            idx[ax] = 0 if side == 0 else -1
            edge[tuple(idx)] = True
            cut[ax, side] = inside & (~nbr_inside | edge)
            interior &= ~cut[ax, side]
    theta = np.full((dim, 2) + counts, np.nan)
    family, node = divmod(np.flatnonzero(cut), inside.size)
    theta[cut] = geo._cut_fractions(domain, flat_pts[node], family // 2,
                                    2.0 * (family % 2) - 1.0, spacing)
    near_boundary = inside & ~interior
    closure_axis = np.full(counts, -1, dtype=np.int8)
    closure_side = np.full(counts, -1, dtype=np.int8)
    if near_boundary.any():
        best = np.argmin(np.where(cut, theta, np.inf).reshape(dim * 2, *counts), axis=0)
        closure_axis[near_boundary] = (best[near_boundary] // 2).astype(np.int8)
        closure_side[near_boundary] = (best[near_boundary] % 2).astype(np.int8)
    qweight = np.where(inside, 1.0, 0.0)
    for ax in range(dim):
        qweight *= (np.where(cut[ax, 0], theta[ax, 0], 0.5)
                    + np.where(cut[ax, 1], theta[ax, 1], 0.5))
    return geo.Grid(domain=domain, spacing=spacing, origin=origin, shape=counts,
                    inside=inside, interior=interior, near_boundary=near_boundary,
                    theta=theta, closure_axis=closure_axis, closure_side=closure_side,
                    qweight=qweight, points=points, coarse_warning=coarse)


def boundary_values_per_family(grid, h_fn):
    """Oracle of operator.boundary_values: the data evaluated once per (axis,
    side) family at its cut_points into a box-sized array per family, the
    gradient data axis by axis and the closure plan in box flat indices,
    then every node index mapped to its compact position."""
    dim = grid.dim
    stack = () if callable(h_fn) else (len(h_fn),)
    hb = np.full((dim, 2) + grid.shape + stack, np.nan)
    for ax, side in product(range(dim), range(2)):
        mask = cut_mask(grid, ax, side)
        if mask.any():
            hb[ax, side][mask] = op._sample(h_fn, cut_points(grid, ax, side))
    unit = (-1,) + (1,) * len(stack)
    n = grid.n_inside
    compact = np.full(grid.inside.size, -1)
    compact[np.flatnonzero(grid.inside)] = np.arange(n)
    strides = np.array([int(np.prod(grid.shape[a + 1:], dtype=int)) for a in range(dim)])

    parts = {k: [] for k in ("row", "node", "ip", "im", "cut_p", "cut_m", "hb_p", "hb_m",
                             "tp", "tm")}
    for ax in range(dim):
        theta = grid.theta[ax].reshape(2, -1)
        idx = np.flatnonzero(np.isfinite(theta).any(axis=0))
        tm, tp = theta[:, idx]
        cut_m, cut_p = np.isfinite(tm), np.isfinite(tp)
        for k, v in (("row", ax * n + compact[idx]), ("node", compact[idx]),
                     ("im", compact[np.where(cut_m, idx, idx - strides[ax])]),
                     ("ip", compact[np.where(cut_p, idx, idx + strides[ax])]),
                     ("cut_m", cut_m), ("cut_p", cut_p),
                     ("hb_m", op_flat(hb[ax, 0], dim)[idx]), ("hb_p", op_flat(hb[ax, 1], dim)[idx]),
                     ("tm", np.where(cut_m, tm, 1.0)), ("tp", np.where(cut_p, tp, 1.0))):
            parts[k].append(v)
    parts = {k: np.concatenate(v) for k, v in parts.items()}
    cuts = op._AxisCuts()
    for k in ("row", "node", "ip", "im", "hb_p", "hb_m"):
        setattr(cuts, k, parts[k])
    cuts.cut_m, cuts.cut_p = parts["cut_m"].reshape(unit), parts["cut_p"].reshape(unit)
    tm, tp = parts["tm"].reshape(unit), parts["tp"].reshape(unit)
    cuts.tm2, cuts.tp2 = tm ** 2, tp ** 2
    cuts.w0 = cuts.tp2 - cuts.tm2
    cuts.den = tp * tm * (tp + tm) * grid.spacing

    nb = grid.near_boundary.ravel()
    nb_flat = np.flatnonzero(nb)
    ax = grid.closure_axis.ravel()[nb_flat].astype(int)
    side = grid.closure_side.ravel()[nb_flat].astype(int)
    theta = grid.theta.reshape(dim, 2, -1)
    hbf = hb.reshape((dim, 2, -1) + stack)
    sliver = np.isfinite(theta[ax, 1 - side, nb_flat])
    inner = np.where(sliver, nb_flat, nb_flat + np.where(side == 1, -1, 1) * strides[ax])
    pair = (~sliver & nb[inner] & (grid.closure_axis.ravel()[inner] == ax)
            & (grid.closure_side.ravel()[inner] == 1 - side))
    const = sliver | pair
    t_out = theta[ax, side, nb_flat]
    t_in = np.where(sliver, theta[ax, 1 - side, inner], 1.0 + theta[ax, 1 - side, inner])
    c_hb = hbf[ax, side, nb_flat]
    c_const = ((t_in.reshape(unit) * c_hb + t_out.reshape(unit) * hbf[ax, 1 - side, inner])
               / (t_in + t_out).reshape(unit))
    pos = np.full(nb.size, -1)
    pos[nb_flat] = np.arange(len(nb_flat))
    reads = np.where(const, -1, pos[inner])
    done = const.copy()
    order = [np.flatnonzero(const)]
    while not done.all():
        ready = ~done & ((reads < 0) | done[reads])
        assert ready.any(), "closure cycle"
        order.append(np.flatnonzero(ready))
        done |= ready
    level_ends = tuple(np.cumsum([len(o) for o in order]).tolist())
    order = np.concatenate(order)
    return op.BoundaryValues(cuts=cuts, nb_nodes=compact[nb_flat[order]],
                             c_theta=t_out[order].reshape(unit), c_hb=c_hb[order],
                             c_inner=np.where(const, -1, compact[inner])[order],
                             c_const=c_const[order[:level_ends[0]]], level_ends=level_ends)
