"""Distance-function barriers near the boundary and comparison experiments.

The upper barrier is a multiple of the boundary distance, psi = slope * d(x),
supported on the collar {d < collar_width}; the slope is chosen so the
barrier dominates the shifted data on the collar's parabolic boundary and
is a discrete supersolution throughout the collar.  The lower barrier comes
from the operator's symmetry under (u, nu) -> (-u, -nu).
"""

from dataclasses import dataclass, field as dc_field, replace
from itertools import product
from typing import Sequence

import numpy as np

from .geometry import (DomainSpec, Grid, signed_distance, boundary_points,
                       boundary_mean_curvature_bound)
from .flow import IBVP, COMPATIBILITY_SAMPLES, data_range, relax_to_steady
from .operator import (FlowParams, BlowUpError, boundary_values, init_state, march,
                       regularized_rhs, stable_dt, whole_steps)
from .verify import difference_jet

H0_THRESHOLD = 1e-3
LIPSCHITZ_SAFETY = 1.5
MIN_SLOPE = 1.0
SUP_NORM_TOL = 1e-5      # steady residual of the comparison fields in sup_norm_bound


class BarrierError(ValueError):
    """Barrier construction is unsupported for these inputs."""


@dataclass
class Barrier:
    """psi = sign * slope * d(x) on the collar {d < collar_width}."""

    sign: int                   # +1 upper, -1 lower
    slope: float
    collar_width: float
    data_lipschitz: float
    psi: np.ndarray             # sampled on all inside nodes, NaN outside
    collar: np.ndarray          # bool mask of collar nodes
    margin: float | None = None        # barrier_supersolution_residual at the slope


def _sampled_lipschitz(w: np.ndarray, grid: Grid, collar: np.ndarray) -> float:
    """Max difference quotient of w over collar node pairs within 3 spacings.

    Each offset pairs the nodes of two overlapping slices of the lattice,
    so no pair wraps the lattice edge and both nodes of every pair lie in
    the collar.
    """
    h = grid.spacing
    best = 0.0
    offsets = [off for off in product(range(-3, 4), repeat=grid.dim)
               if 0 < sum(o * o for o in off) <= 9]
    for off in offsets:
        lo = tuple(slice(max(-o, 0), n - max(o, 0)) for o, n in zip(off, grid.shape))
        hi = tuple(slice(max(o, 0), n - max(-o, 0)) for o, n in zip(off, grid.shape))
        mask = collar[lo] & collar[hi]
        if mask.any():
            dist = h * float(np.sqrt(sum(o * o for o in off)))
            best = max(best, float(np.max(np.abs(w[hi][mask] - w[lo][mask]))) / dist)
    return LIPSCHITZ_SAFETY * best


def barrier_supersolution_residual(barrier: Barrier, problem: IBVP, grid: Grid,
                                   params: FlowParams) -> float:
    """Minimum over the collar of the barrier's supersolution margin.

    Evaluates the discrete parabolic operator (time derivative zero) on
    h + psi by grid-spacing stencils of the analytic field; nonnegative
    return certifies the barrier numerically.
    """
    sign = barrier.sign
    lam = barrier.slope

    def f(p):
        return problem.boundary_data(p) + sign * lam * signed_distance(problem.domain, p)

    pts, h = grid.points[barrier.collar], grid.spacing
    grad, hess = difference_jet(f(pts), lambda off: f(pts + off * h), h, grid.dim)
    s2 = params.epsilon ** 2 + np.sum(grad ** 2, axis=1)
    trace = np.trace(hess, axis1=1, axis2=2)
    pmp = np.einsum("ni,nij,nj->n", grad, hess, grad)
    vals = trace - pmp / s2 + params.nu * np.sqrt(s2)
    # upper barrier needs -rate >= 0, lower needs rate >= 0
    return float(np.min(-sign * vals))


def build_barriers(problem: IBVP, grid: Grid, params: FlowParams) -> tuple:
    """The upper and the lower boundary barrier of the problem, (upper, lower).

    Requires a positive curvature lower bound and |nu| < n*H0 (the bound
    the supersolution margin actually needs); a drift past the stricter
    admissible interval is left to the flow's warning.  The collar, the
    data Lipschitz bound and the flow bound are shared, and only the slope
    search runs per sign; at nu != 0 the flow bound costs the one steady
    solve of sup_norm_bound.  At sign -1 every residual and domination
    value is the negative of the mirrored problem's, (u, nu) -> (-u, -nu),
    so the lower barrier is that problem's upper one with psi negated.
    """
    domain = problem.domain
    n = domain.dim - 1
    h0 = boundary_mean_curvature_bound(domain)
    if h0 < H0_THRESHOLD:
        raise BarrierError(f"curvature lower bound {h0:.2e} below threshold {H0_THRESHOLD}; "
                           "barriers need a strictly convex boundary")
    if abs(params.nu) >= n * h0:
        raise BarrierError(f"|nu|={abs(params.nu)} >= n*H0={n * h0}; no barrier slope exists")

    d = np.where(grid.inside, signed_distance(domain, grid.points.reshape(-1, grid.dim))
                 .reshape(grid.shape), np.nan)
    rho = min(1.0 / (2 * h0), 0.5 * domain.reach_estimate, 0.9 * domain.inradius)
    collar = grid.inside & (d < rho)

    # data Lipschitz bound near the boundary, for the shifted field g - h
    inside_pts = grid.points[grid.inside]
    w = np.full(grid.shape, np.nan)
    w[grid.inside] = problem.initial_data(inside_pts) - problem.boundary_data(inside_pts)
    beta = _sampled_lipschitz(w, grid, collar) if collar.any() else 0.0

    # outer-edge domination: the barrier at depth rho must top the largest
    # shifted value the flow can reach there, which the mirror leaves alone
    if params.nu == 0.0:
        lo, hi = data_range(problem, grid)
        sup_u = max(abs(lo), abs(hi))
    else:
        sup_u = sup_norm_bound(problem, grid, params).value
    sup_h_collar = (float(np.max(np.abs(problem.boundary_data(grid.points[collar]))))
                    if collar.any() else 0.0)
    start = max(MIN_SLOPE, beta, (sup_u + sup_h_collar) / rho)
    gap = n * h0 - abs(params.nu)

    def search(sign: int) -> Barrier:
        def barrier(lam):
            return Barrier(sign=sign, slope=lam, collar_width=rho, data_lipschitz=beta,
                           psi=sign * lam * d, collar=collar)

        # sampled lower-order residual bound, then the slope the margin needs
        res = barrier_supersolution_residual(barrier(start), problem, grid, params)
        lam = max(start, (max(0.0, start * gap - res) + 1.0) / gap)
        for _ in range(20):
            bar = barrier(lam)
            bar.margin = barrier_supersolution_residual(bar, problem, grid, params)
            dom_gap = float(np.max((sign * w - lam * d)[collar])) if collar.any() else -1.0
            if bar.margin >= 0.0 and dom_gap <= 0.0:
                return bar
            lam *= 2.0
        raise BarrierError("no barrier slope certified within the doubling budget")

    return search(1), search(-1)


@dataclass
class SupNormBound:
    value: float
    available: bool
    steady_max: float
    data_shift: float


def sup_norm_bound(problem: IBVP, grid: Grid, params: FlowParams) -> SupNormBound:
    """Certified sup bound for the flow from a steady comparison field.

    Relaxes the steady problem with boundary value 1 at +|nu| to
    SUP_NORM_TOL.  The scheme is odd under (u, nu) -> (-u, -nu) and
    unchanged by adding a constant to u and its boundary data, so the image
    2 - v of that field v solves the -|nu| problem; one rate evaluation
    certifies it.  Returns C = max of both fields + the data sup, available
    when both are certified and nonnegative.  At nu = 0 v is the constant 1.
    """
    one = lambda pts: np.ones(len(pts))
    lo, hi = data_range(problem, grid)
    kappa = max(abs(lo), abs(hi))
    # the auxiliary problems step at their own stable dt, never the override
    aux = replace(params, nu=abs(params.nu), dt_override=None)
    res = relax_to_steady(IBVP(problem.domain, one, one), grid, aux, tol=SUP_NORM_TOL)
    steady = res.values[grid.inside]
    image = 2.0 - steady
    # the rate is 0 on the ring, so its maximum is the interior one
    rate = regularized_rhs(image, grid, replace(aux, nu=-aux.nu), boundary_values(grid, one))
    image_residual = float(np.max(np.abs(rate), initial=0.0))
    fields = (steady, image)
    vmax = max(float(np.max(v)) for v in fields)
    # the shifted field dominates the data only over nonnegative comparison fields
    ok = (res.converged and image_residual < SUP_NORM_TOL
          and all(float(np.min(v)) >= -1e-8 for v in fields))
    return SupNormBound(value=vmax + kappa, available=ok, steady_max=vmax, data_shift=kappa)


@dataclass
class ComparisonReport:
    max_violation: float
    steps: int
    # signed max of low - high: a negative value is the closest the pair came to crossing
    per_step: np.ndarray = dc_field(default_factory=lambda: np.array([]))  # worst over pairs
    per_pair: np.ndarray = dc_field(default_factory=lambda: np.array([]))  # worst over steps


def comparison_experiment(problem_low: IBVP | Sequence[IBVP],
                          problem_high: IBVP | Sequence[IBVP], grid: Grid,
                          params: FlowParams, horizon: float) -> ComparisonReport:
    """Co-evolve ordered problems and report the worst ordering violation.

    problem_low and problem_high are one problem each or equal-length
    sequences of them.  All pairs march as one stack of fields (pair p is
    fields 2p and 2p + 1), each field bit for bit as it would alone.
    Rejects the pairs before evolving when the data of any pair are not
    actually ordered at the sampled points; a blow-up names its pair.
    """
    lows = [problem_low] if isinstance(problem_low, IBVP) else list(problem_low)
    highs = [problem_high] if isinstance(problem_high, IBVP) else list(problem_high)
    if not lows or len(lows) != len(highs):
        raise ValueError(f"need as many low problems as high ones, at least one; "
                         f"got {len(lows)} and {len(highs)}")
    inside_pts = grid.points[grid.inside]
    bpts = boundary_points(grid.domain, COMPATIBILITY_SAMPLES)
    for low, high in zip(lows, highs):
        if np.min(high.initial_data(inside_pts) - low.initial_data(inside_pts)) < -1e-12:
            raise ValueError("initial data are not ordered: g_low > g_high somewhere")
        if np.min(high.boundary_data(bpts) - low.boundary_data(bpts)) < -1e-12:
            raise ValueError("boundary data are not ordered: h_low > h_high somewhere")

    fields = [prob for pair in zip(lows, highs) for prob in pair]
    bvals = boundary_values(grid, [prob.boundary_data for prob in fields])
    n_steps = whole_steps(horizon, stable_dt(params, grid))

    viol = []
    try:
        # march steps its own copy of the start; built inline, the original is freed
        for _, _, u, _ in march(init_state(grid, [prob.initial_data for prob in fields],
                                           bvals), grid, params, bvals, n_steps):
            viol.append(np.max(u[:, 0::2] - u[:, 1::2], axis=0))
    except BlowUpError as exc:
        pair, side = divmod(exc.field, 2)
        raise BlowUpError(f"non-finite value at node {exc.node} on step {exc.step} "
                          f"in pair {pair} ({('low', 'high')[side]} field)",
                          node=exc.node, step=exc.step, field=exc.field) from None
    viol = np.array(viol)
    per_step = viol.max(axis=1)
    return ComparisonReport(max_violation=max(0.0, float(per_step.max())), steps=n_steps,
                            per_step=per_step, per_pair=viol.max(axis=0))


def random_ordered_pair(domain: DomainSpec, seed: int):
    """Seeded smooth ordered data pair on a ball, with a strictly interior gap.

    The gap vanishes on the boundary (shared boundary data) and is positive
    inside, the regime the ordering principle speaks to.
    """
    if domain.kind != "ball":
        raise ValueError("randomized ordered pairs are generated on balls")
    rng = np.random.default_rng(seed)
    radius = domain.radius
    center = np.asarray(domain.center)
    n_bumps = 3
    amps = rng.uniform(-0.3, 0.3, n_bumps)
    widths = rng.uniform(0.25, 0.5, n_bumps) * radius
    centers = rng.uniform(-0.6, 0.6, (n_bumps, domain.dim)) * radius + center
    slope = rng.uniform(-0.5, 0.5, domain.dim)
    gap_amp = rng.uniform(0.05, 0.2)

    def g_low(pts):
        out = pts @ slope
        for a, wdt, c in zip(amps, widths, centers):
            out = out + a * np.exp(-np.sum((pts - c) ** 2, axis=1) / (2 * wdt ** 2))
        return out

    def gap(pts):
        return gap_amp * np.maximum(0.0, 1.0 - np.sum((pts - center) ** 2, axis=1) / radius ** 2)

    def g_high(pts):
        return g_low(pts) + gap(pts)

    low = IBVP(domain, g_low, g_low)
    high = IBVP(domain, g_high, g_high)
    return low, high
