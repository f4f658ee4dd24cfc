"""Numerical certification of the flow's a priori structure: the energy
identity and dissipation budget, the rate and gradient maximum principles,
and pointwise viscosity-inequality spot checks on discrete fields.

The spot checker is sound but deliberately not complete: it fits the local
quadratic model of the field at sampled space-time points, only probes
points where the model actually touches the field over a small box, and
tests the differential inequality with a tolerance proportional to the
grid spacing.  A box holding a non-finite value (an exterior node) never
touches.  The fit and the touch test are whole-array operations over
blocks of 256 sampled centres; only the touched centres reach the scalar
margin code.  A genuine violation planted in a field is flagged; absence
of flags is evidence, not proof.
"""

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .geometry import Grid
from .flow import FlowReport, IBVP
from .operator import FlowParams, boundary_values, init_state, regularized_rhs

TOUCH_SLACK = 1e-12


@dataclass
class EnergyTrace:
    """Discrete energy-identity series: J' + dissipation - source = residual."""

    t: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    source: np.ndarray
    residual: np.ndarray          # endpoints use one-sided J', excluded from maxima
    max_interior_residual: float
    ut_sq_integral: np.ndarray
    dt: float


def energy_series(report: FlowReport, params: FlowParams) -> EnergyTrace:
    """Assemble the energy identity residual from a flow report.

    J' is a centered time difference (one-sided at the endpoints); the
    residual maximum skips the endpoints where the one-sided stencil
    carries O(dt) error by construction.
    """
    t, j = report.t, report.energy
    n = len(t)
    jp = np.zeros(n)
    if n >= 2:
        jp[0] = (j[1] - j[0]) / (t[1] - t[0])
        jp[-1] = (j[-1] - j[-2]) / (t[-1] - t[-2])
    if n >= 3:
        jp[1:-1] = (j[2:] - j[:-2]) / (t[2:] - t[:-2])
    residual = jp + report.dissipation - report.source
    interior_max = float(np.max(np.abs(residual[1:-1]))) if n >= 3 else 0.0
    return EnergyTrace(t=t, energy=j, dissipation=report.dissipation,
                       source=report.source, residual=residual,
                       max_interior_residual=interior_max,
                       ut_sq_integral=report.ut_sq_integral, dt=report.dt)


def max_settled_residual(trace: EnergyTrace, settle_time: float) -> float:
    """Max identity residual after the initial adjustment layer.

    The first steps carry the flow's instantaneous boundary-layer reaction
    to the initial data, a transient of O(sqrt(dt)) width that no centered
    time stencil resolves; comparing residual maxima across grids is
    meaningful on a fixed window that starts past it.
    """
    mask = (trace.t >= settle_time) & (trace.t < trace.t[-1]) & (trace.t > trace.t[0])
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(trace.residual[mask])))


@dataclass
class DissipationBudget:
    total: float                 # time-integrated integral of u_t^2
    bound: float
    within_bound: bool
    head: float = 0.0
    tail: float = 0.0


def dissipation_budget(trace: EnergyTrace, report: FlowReport, params: FlowParams,
                       grid: Grid, split_time: float | None = None) -> DissipationBudget:
    """Total squared-rate dissipation and the a priori bound check.

    The bound mirrors the chain that controls the weighted dissipation by
    the initial energy and the driving term's displacement:
    total <= (sup|grad u| + eps) * (J(0) + |nu| * |D| * 2 * sup|u|).
    """
    dt = np.gradient(trace.t) if len(trace.t) > 1 else np.array([0.0])
    total = float(np.sum(trace.ut_sq_integral * dt))
    sup_grad = float(np.max(report.sup_grad))
    sup_u = float(np.max(report.sup_u))
    measure = grid.domain_measure()
    bound = (sup_grad + params.epsilon) * (trace.energy[0]
                                           + abs(params.nu) * measure * 2 * sup_u)
    head = tail = 0.0
    if split_time is not None:
        head_mask = trace.t <= split_time
        head = float(np.sum((trace.ut_sq_integral * dt)[head_mask]))
        tail = total - head
    return DissipationBudget(total=total, bound=bound + 1e-12,
                             within_bound=total <= bound + 1e-12, head=head, tail=tail)


def ut_initial_slice_bound(problem: IBVP, grid: Grid, params: FlowParams) -> float:
    """Sup of the discrete rate on the initial state, the flow's rate ceiling.

    Evaluated on the state exactly as the solver initializes it (data
    sampled inside, boundary ring closed), so the bound is attained by the
    first recorded step and the later steps must stay under it.
    """
    bvals = boundary_values(grid, problem.boundary_data)
    state = init_state(grid, problem.initial_data, bvals)
    rate = regularized_rhs(state.values, grid, params, bvals)
    return float(np.max(np.abs(rate[grid.interior]))) if grid.interior.any() else 0.0


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


def degenerate_branch_bound(hess: np.ndarray, mode: str) -> float:
    """Extremal value of (delta_ij - eta_i eta_j) hess_ij over |eta| <= 1.

    sub mode returns the supremum tr(M) - min(lambda_min, 0); super mode the
    infimum tr(M) - max(lambda_max, 0).  The extremizing eta is the
    eigendirection of the extreme eigenvalue, or zero when that eigenvalue
    has the favorable sign.
    """
    hess = np.asarray(hess, dtype=float)
    eig = np.linalg.eigvalsh(hess)
    tr = float(np.trace(hess))
    if mode == "sub":
        return tr - min(float(eig[0]), 0.0)
    if mode == "super":
        return tr - max(float(eig[-1]), 0.0)
    raise ValueError(f"mode must be 'sub' or 'super', got {mode!r}")


def quadratic_min_on_ball_bruteforce(hess: np.ndarray, samples: int = 10000) -> float:
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


@dataclass
class ViscosityProbe:
    """One fitted touch point and its inequality margin."""

    index: tuple
    point: np.ndarray
    time: float
    gradient: np.ndarray
    hessian: np.ndarray
    time_slope: float
    branch: str                  # "gradient" or "degenerate"
    margin: float                # negative = violation in the tested mode


# centres fitted and touch-tested together: bounds the (block, box) temporaries
_BLOCK = 256
# spatial half-width of the touch box, in nodes
_BOX_RADIUS = 2


def viscosity_spot_check(snapshots: Sequence[np.ndarray], times: Sequence[float],
                         grid: Grid, params: FlowParams, mode: str,
                         probe_budget: int = 2000, tolerance: float | None = None) -> list:
    """Spot-check the discrete field against the viscosity inequalities.

    At sampled interior space-time points the local quadratic model
    (gradient, Hessian, time slope from central differences) is fitted;
    where the model touches the field from the correct side over the
    space-time box (radius 2 nodes in space, 1 in time, with a 1e-12
    tie slack), the mode's differential inequality is tested within a
    tolerance of 10 * spacing.  A box holding a non-finite value (an
    exterior node) never touches.  Small gradients route to the degenerate
    branch through the floor max(10 h^2, eps^2).  The fit and the touch
    test run on whole arrays, 256 centres at a time; only touched centres
    reach the scalar margin code.  Returns the violations sorted by location.

    Args:
        snapshots: at least 3 equally-spaced field snapshots.
        times: their times; spacing mismatches beyond 1% are an error.
        mode: "sub" or "super".

    Returns:
        list of ViscosityProbe with margin < -tolerance.
    """
    if mode not in ("sub", "super"):
        raise ValueError("mode must be 'sub' or 'super'")
    if len(snapshots) < 3:
        raise ValueError("need at least 3 snapshots for the time stencil")
    dts = np.diff(np.asarray(times, dtype=float))
    if np.max(dts) - np.min(dts) > 0.01 * np.max(dts) + 1e-15:
        raise ValueError("snapshot spacing incompatible with the time-difference stencil")

    h, dim = grid.spacing, grid.dim
    tol = 10.0 * h if tolerance is None else tolerance
    grad_floor = max(10.0 * h ** 2, params.epsilon ** 2)

    # candidate centers: inside nodes whose box arms along the axes stay
    # inside; a box corner may still reach an exterior node (no touch then)
    ok = grid.inside.copy()
    for ax in range(dim):
        for shift in range(1, _BOX_RADIUS + 1):
            ok &= np.roll(grid.inside, shift, axis=ax)
            ok &= np.roll(grid.inside, -shift, axis=ax)
    # guard the lattice edge
    edge = np.zeros(grid.shape, bool)
    edge[(slice(_BOX_RADIUS, -_BOX_RADIUS),) * dim] = True
    centers = np.argwhere(ok & edge)
    if len(centers) == 0:
        return []
    stride = max(1, int(np.ceil(len(centers) * (len(snapshots) - 2) / max(probe_budget, 1))))
    centers = centers[::stride]

    # flat node indices: a centre, plus unit[k] per step along axis k
    flat_centers = np.ravel_multi_index(centers.T, grid.shape)
    unit = [int(np.prod(grid.shape[k + 1:])) for k in range(dim)]
    offsets = np.array(list(product(range(-_BOX_RADIUS, _BOX_RADIUS + 1), repeat=dim)))
    flat_offsets = offsets @ np.array(unit)
    dx = offsets * h
    violations = []
    sign = 1.0 if mode == "sub" else -1.0

    for s in range(1, len(snapshots) - 1):
        u_prev, u, u_next = slices = [np.ravel(snapshots[si]) for si in (s - 1, s, s + 1)]
        dtv = (times[s + 1] - times[s - 1]) / 2.0
        for b0 in range(0, len(centers), _BLOCK):
            fc = flat_centers[b0:b0 + _BLOCK]
            uc = u[fc]
            q = (u_next[fc] - u_prev[fc]) / (2.0 * dtv)
            p = np.empty((len(fc), dim))
            hess = np.empty((len(fc), dim, dim))
            for k in range(dim):
                up, um = u[fc + unit[k]], u[fc - unit[k]]
                p[:, k] = (up - um) / (2 * h)
                hess[:, k, k] = (up - 2 * uc + um) / h ** 2
            for k, l in combinations(range(dim), 2):
                a, b = unit[k], unit[l]
                hess[:, k, l] = hess[:, l, k] = (u[fc + a + b] - u[fc + a - b] - u[fc - a + b]
                                                 + u[fc - a - b]) / (4 * h ** 2)

            # does the quadratic model touch from the mode's side over the box?
            box = fc[:, None] + flat_offsets
            model = (uc[:, None] + p @ dx.T) + 0.5 * np.einsum("ni,bij,nj->bn", dx, hess, dx)
            touched = np.ones(len(fc), bool)
            for si, us in zip((s - 1, s, s + 1), slices):
                vals = np.take(us, box)
                gap = sign * (vals - (model + q[:, None] * (times[si] - times[s])))
                # a box holding a non-finite value (an exterior node) never touches
                touched &= np.isfinite(gap).all(axis=1) & (np.max(gap, axis=1) <= TOUCH_SLACK)

            for i in np.flatnonzero(touched):
                ci = tuple(centers[b0 + i])
                pi, hi = p[i].copy(), hess[i].copy()
                pn = float(np.linalg.norm(pi))
                if pn > grad_floor:
                    rhs = (float(np.trace(hi)) - float(pi @ hi @ pi) / pn ** 2
                           + params.nu * pn)
                    branch = "gradient"
                else:
                    rhs = degenerate_branch_bound(hi, mode)
                    branch = "degenerate"
                margin = sign * (rhs - q[i])
                if margin < -tol:
                    violations.append(ViscosityProbe(
                        index=ci, point=grid.points[ci].copy(), time=float(times[s]),
                        gradient=pi, hessian=hi, time_slope=float(q[i]), branch=branch,
                        margin=float(margin)))
    violations.sort(key=lambda v: (v.time,) + v.index)
    return violations


def replicate_steady(field: np.ndarray):
    """Three-snapshot trajectory of a steady field at times 0, 1, 2, for the spot checker."""
    return [field, field, field], [0.0, 1.0, 2.0]
