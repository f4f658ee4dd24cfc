"""Numerical certification of the flow's a priori structure: the energy
identity, the dissipation budget and the gradient maximum principle, each
read from a run's FlowReport (whose step-0 sup|u_t| is the rate ceiling),
and pointwise viscosity-inequality spot checks on discrete fields.

The spot checker is sound but deliberately not complete: it fits the local
quadratic model of the field once at each sampled space-time point, and
tests the sub inequality where the model touches the field from above
over a small box and the super inequality where it touches from below,
each with a tolerance proportional to the grid spacing.  A box holding a
non-finite value (an exterior node) never touches.  The fit, the touch
test and the margins of the touched centres are whole-array operations
over blocks of 256 sampled centres.  A genuine violation planted in a
field is flagged; absence of flags is evidence, not proof.
"""

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from .geometry import Grid
from .flow import FlowReport
from .operator import FlowParams

TOUCH_SLACK = 1e-12


def energy_series(report: FlowReport) -> np.ndarray:
    """Residual J' + dissipation - source of the energy identity, per recorded step.

    J' is a centered time difference, one-sided at the endpoints, where the
    stencil carries O(dt) error by construction; max_settled_residual skips
    the endpoints.
    """
    t, j = report.t, report.energy
    n = len(t)
    jp = np.zeros(n)
    if n >= 2:
        jp[0] = (j[1] - j[0]) / (t[1] - t[0])
        jp[-1] = (j[-1] - j[-2]) / (t[-1] - t[-2])
    if n >= 3:
        jp[1:-1] = (j[2:] - j[:-2]) / (t[2:] - t[:-2])
    return jp + report.dissipation - report.source


def max_settled_residual(report: FlowReport, settle_time: float) -> float:
    """Max identity residual after the initial adjustment layer, endpoints excluded.

    The first steps carry the flow's instantaneous boundary-layer reaction
    to the initial data, a transient of O(sqrt(dt)) width that no centered
    time stencil resolves; comparing residual maxima across grids is
    meaningful on a fixed window that starts past it.  A settle_time of
    report.t[0] takes every interior step.
    """
    t = report.t
    mask = (t >= settle_time) & (t < t[-1]) & (t > t[0])
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(energy_series(report)[mask])))


@dataclass
class DissipationBudget:
    total: float                 # time-integrated integral of u_t^2
    bound: float
    within_bound: bool
    head: float = 0.0
    tail: float = 0.0


def dissipation_budget(report: FlowReport, params: FlowParams, grid: Grid,
                       split_time: float | None = None) -> DissipationBudget:
    """Total squared-rate dissipation and the a priori bound check.

    The bound mirrors the chain that controls the weighted dissipation by
    the initial energy and the driving term's displacement:
    total <= (sup|grad u| + eps) * (J(0) + |nu| * |D| * 2 * sup|u|).
    """
    dt = np.gradient(report.t) if len(report.t) > 1 else np.array([0.0])
    total = float(np.sum(report.ut_sq_integral * dt))
    sup_grad = float(np.max(report.sup_grad))
    sup_u = float(np.max(report.sup_u))
    measure = grid.domain_measure()
    bound = (sup_grad + params.epsilon) * (report.energy[0]
                                           + abs(params.nu) * measure * 2 * sup_u)
    head = tail = 0.0
    if split_time is not None:
        head_mask = report.t <= split_time
        head = float(np.sum((report.ut_sq_integral * dt)[head_mask]))
        tail = total - head
    return DissipationBudget(total=total, bound=bound + 1e-12,
                             within_bound=total <= bound + 1e-12, head=head, tail=tail)


@dataclass
class GradientMaxReport:
    interior_max: float           # over interior nodes and all recorded times
    parabolic_boundary_max: float # initial slice and near-boundary ring over time
    slack: float

    def passes(self, tol: float) -> bool:
        return self.interior_max <= self.parabolic_boundary_max + tol


def gradient_interior_max_check(report: FlowReport) -> GradientMaxReport:
    """Interior gradient maxima against the parabolic-boundary maxima."""
    interior_max = float(np.max(report.sup_grad_interior))
    pb_max = max(float(report.sup_grad[0]), float(np.max(report.sup_grad_ring)))
    return GradientMaxReport(interior_max=interior_max, parabolic_boundary_max=pb_max,
                             slack=interior_max - pb_max)


def degenerate_branch_bound(hess: np.ndarray, mode: str):
    """Extremal value of (delta_ij - eta_i eta_j) hess_ij over |eta| <= 1.

    sub mode returns the supremum tr(M) - min(lambda_min, 0); super mode the
    infimum tr(M) - max(lambda_max, 0).  The extremizing eta is the
    eigendirection of the extreme eigenvalue, or zero when that eigenvalue
    has the favorable sign.  hess is one matrix (a float returns) or a stack
    of them on the leading axes (an array returns, one stacked eigvalsh).
    """
    if mode not in ("sub", "super"):
        raise ValueError(f"mode must be 'sub' or 'super', got {mode!r}")
    hess = np.asarray(hess, dtype=float)
    eig = np.linalg.eigvalsh(hess)
    tr = np.trace(hess, axis1=-2, axis2=-1)
    # the clip keeps the eigenvalue unless 0.0 beats it, as Python's min and max do
    if mode == "sub":
        lam = eig[..., 0]
        out = tr - np.where(0.0 < lam, 0.0, lam)
    else:
        lam = eig[..., -1]
        out = tr - np.where(0.0 > lam, 0.0, lam)
    return float(out) if hess.ndim == 2 else out


def difference_jet(center: np.ndarray, at: Callable, h: float, dim: int):
    """Central-difference gradient and Hessian at spacing h.

    center holds the values at the N centres and at(offset) those at the
    integer offset vector (in spacings) from each.  Returns the (N, dim)
    gradient (u+ - u-) / 2h and the (N, dim, dim) Hessian: the diagonal
    (u+ - 2 u0 + u-) / h^2 and the cross terms by the four-point rule.
    """
    grad = np.empty((len(center), dim))
    hess = np.empty((len(center), dim, dim))
    unit = np.eye(dim, dtype=int)
    for k in range(dim):
        up, um = at(unit[k]), at(-unit[k])
        grad[:, k] = (up - um) / (2 * h)
        hess[:, k, k] = (up - 2 * center + um) / h ** 2
    for k, l in combinations(range(dim), 2):
        a, b = unit[k], unit[l]
        hess[:, k, l] = hess[:, l, k] = (at(a + b) - at(a - b) - at(-a + b)
                                         + at(-a - b)) / (4 * h ** 2)
    return grad, hess


@dataclass
class ViscosityProbe:
    """One fitted touch point and its inequality margin."""

    mode: str                    # the inequality tested: "sub" or "super"
    index: tuple
    point: np.ndarray
    time: float
    gradient: np.ndarray
    hessian: np.ndarray
    time_slope: float
    branch: str                  # "gradient" or "degenerate"
    margin: float                # negative = violation of the mode's inequality


# centres fitted and touch-tested together: bounds the (block, box) temporaries
_BLOCK = 256
# spatial half-width of the touch box, in nodes
_BOX_RADIUS = 2


def viscosity_spot_check(snapshots: Sequence[np.ndarray], times: Sequence[float],
                         grid: Grid, params: FlowParams, probe_budget: int = 2000,
                         tolerance: float | None = None) -> list:
    """Spot-check the discrete field against both viscosity inequalities.

    At sampled interior space-time points the local quadratic model
    (gradient, Hessian, time slope from central differences) is fitted
    once; where the model touches the field from above over the space-time
    box (radius 2 nodes in space, 1 in time, with a 1e-12 tie slack), the
    sub inequality is tested, and where it touches from below, the super
    inequality, each within a tolerance of 10 * spacing.  A box holding a
    non-finite value (an exterior node) never touches.  Small gradients
    route to the degenerate branch through the floor max(10 h^2, eps^2).
    The fit, the touch test and the margins of the touched centres run on
    whole arrays, 256 centres at a time, with one stacked eigvalsh per
    block and mode.  A time stencil whose three snapshots are one array
    (replicate_steady) is touch-tested once.  Returns the violations of both
    modes, each naming its mode, sorted by (mode, time, location): the sub
    ones first.

    Args:
        snapshots: at least 3 equally-spaced field snapshots.
        times: their times; spacing mismatches beyond 1% are an error.

    Returns:
        list of ViscosityProbe with margin < -tolerance.
    """
    if len(snapshots) < 3:
        raise ValueError("need at least 3 snapshots for the time stencil")
    dts = np.diff(np.asarray(times, dtype=float))
    if np.max(dts) - np.min(dts) > 0.01 * np.max(dts) + 1e-15:
        raise ValueError("snapshot spacing incompatible with the time-difference stencil")

    h, dim = grid.spacing, grid.dim
    tol = 10.0 * h if tolerance is None else tolerance
    grad_floor = max(10.0 * h ** 2, params.epsilon ** 2)

    # candidate centers: inside nodes off the lattice edge whose box arms along
    # the axes stay inside; a box corner may still reach an exterior node (no
    # touch then)
    r = _BOX_RADIUS
    core = tuple(slice(r, n - r) for n in grid.shape)
    ok = grid.inside[core].copy()
    for ax, n in enumerate(grid.shape):
        for shift in range(-r, r + 1):
            ok &= grid.inside[core[:ax] + (slice(r + shift, n - r + shift),) + core[ax + 1:]]
    centers = np.argwhere(ok) + r
    if len(centers) == 0:
        return []
    stride = max(1, int(np.ceil(len(centers) * (len(snapshots) - 2) / max(probe_budget, 1))))
    centers = centers[::stride]

    # flat node indices: a centre, plus unit[k] per step along axis k
    flat_centers = np.ravel_multi_index(centers.T, grid.shape)
    unit = np.array([int(np.prod(grid.shape[k + 1:])) for k in range(dim)])
    offsets = np.array(list(product(range(-_BOX_RADIUS, _BOX_RADIUS + 1), repeat=dim)))
    flat_offsets = offsets @ unit
    dx = offsets * h
    violations = []

    for s in range(1, len(snapshots) - 1):
        u_prev, u, u_next = slices = [np.ravel(snapshots[si]) for si in (s - 1, s, s + 1)]
        # one array at all three times (a steady field) has time slope 0 or NaN:
        # its three gaps differ only in the sign of a zero, so the middle one
        # decides the touch alone
        steady = snapshots[s - 1] is snapshots[s] is snapshots[s + 1]
        stencil = [(s, u)] if steady else list(zip((s - 1, s, s + 1), slices))
        dtv = (times[s + 1] - times[s - 1]) / 2.0
        for b0 in range(0, len(centers), _BLOCK):
            fc = flat_centers[b0:b0 + _BLOCK]
            uc = u[fc]
            q = (u_next[fc] - u_prev[fc]) / (2.0 * dtv)
            p, hess = difference_jet(uc, lambda off: u[fc + off @ unit], h, dim)

            # does the quadratic model touch from above (sub) or below (super)
            # over the box?  max(-gap) <= slack is min(gap) >= -slack, exactly
            box = fc[:, None] + flat_offsets
            model = (uc[:, None] + p @ dx.T) + 0.5 * np.einsum("ni,bij,nj->bn", dx, hess, dx)
            sub = np.ones(len(fc), bool)
            sup = np.ones(len(fc), bool)
            for si, us in stencil:
                vals = us.take(box)
                gap = vals - (model + q[:, None] * (times[si] - times[s]))
                # a box holding a non-finite value (an exterior node) never touches
                finite = np.isfinite(gap).all(axis=1)
                sub &= finite & (np.max(gap, axis=1) <= TOUCH_SLACK)
                sup &= finite & (np.min(gap, axis=1) >= -TOUCH_SLACK)

            for mode, sign, touched in (("sub", 1.0, sub), ("super", -1.0, sup)):
                t = np.flatnonzero(touched)
                pt, ht = p[t], hess[t]
                # |p| and p.H.p by matmul take BLAS's dot and gemv per probe: the
                # bits of np.linalg.norm(p) and p @ H @ p
                pn = np.sqrt((pt[:, None, :] @ pt[:, :, None])[:, 0, 0])
                grad = pn > grad_floor
                rhs = np.empty(len(t))
                g = np.flatnonzero(grad)
                if len(g):
                    php = ((pt[g, None, :] @ ht[g]) @ pt[g, :, None])[:, 0, 0]
                    # Python's float power, not numpy's square: the two differ in the last bit
                    sq = np.array([x ** 2 for x in pn[g].tolist()])
                    rhs[g] = np.trace(ht[g], axis1=1, axis2=2) - php / sq + params.nu * pn[g]
                if len(g) < len(t):
                    rhs[~grad] = degenerate_branch_bound(ht[~grad], mode)
                margin = sign * (rhs - q[t])
                for k in np.flatnonzero(margin < -tol):
                    ci = tuple(centers[b0 + t[k]].tolist())
                    violations.append(ViscosityProbe(
                        mode=mode, index=ci, point=grid.points[ci].copy(), time=float(times[s]),
                        gradient=pt[k].copy(), hessian=ht[k].copy(),
                        time_slope=float(q[t[k]]),
                        branch="gradient" if grad[k] else "degenerate",
                        margin=float(margin[k])))
    violations.sort(key=lambda v: (v.mode, v.time) + v.index)
    return violations


def replicate_steady(field: np.ndarray):
    """Three-snapshot trajectory of a steady field at times 0, 1, 2, for the spot checker."""
    return [field, field, field], [0.0, 1.0, 2.0]
