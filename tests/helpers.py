"""Shared data fields and small oracles for the test suite."""

from itertools import product

import numpy as np

from mcflow import verify as vf


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
                    index=ci, point=grid.points[ci].copy(), time=float(times[s]),
                    gradient=p, hessian=hess, time_slope=float(q), branch=branch,
                    margin=float(margin)))
    violations.sort(key=lambda v: (v.time,) + v.index)
    return violations
