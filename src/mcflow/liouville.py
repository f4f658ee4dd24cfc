"""Flatness propagation for monotone data on a domain with a cylindrical
section: plateau preservation, envelope construction and the sandwich
comparison.

The exact flatness statement belongs to the vanishing-smoothing limit; the
regularized flow drifts flat regions at rate epsilon*nu and leaks into the
plateau near the data corner, so the quantitative target used here is

    F(t) = sup over the margin-deep plateau of |u - plateau_value|
         <= epsilon * |nu| * t + 10 * spacing * Lip(data).
"""

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .geometry import DomainSpec, Grid, smoothed_stadium
from .operator import (FlowParams, _aligned_full, boundary_values, init_state, march,
                       stable_dt, whole_steps)

ENVELOPE_SAMPLES = 1000
PROFILE_BLOCK_POINTS = 16_384


class EnvelopeError(ValueError):
    """The problem admits no envelope: a plateau margin that is not positive
    or leaves the straight section, data not non-decreasing along the axis or
    off the plateau value past plateau_start, or no ramp under the data."""


@dataclass
class CylinderProblem:
    """Monotone axial data on a smoothed stadium.

    The initial data must be non-decreasing in the last coordinate and
    exactly equal to plateau_value from plateau_start on; the boundary data
    is its trace.  plateau_margin is the depth past plateau_start where
    flatness is measured (and where the envelopes level off).
    """

    domain: DomainSpec
    initial_data: Callable
    plateau_start: float          # axial coordinate where the data plateau begins
    plateau_value: float
    plateau_margin: float         # envelope shift, > 0
    data_lipschitz: float = dc_field(init=False)   # max axial slope of the data profile

    def __post_init__(self):
        if self.domain.kind != "smoothed-stadium":
            raise ValueError("cylinder problems live on smoothed stadiums")
        if self.plateau_margin <= 0:
            raise EnvelopeError("plateau margin must be positive")
        straight = self.domain.straight_half_length - self.domain.corner_radius
        if self.plateau_start + self.plateau_margin > straight:
            raise EnvelopeError(
                f"plateau_start + margin = {self.plateau_start + self.plateau_margin} "
                f"leaves the straight section (|axial| <= {straight})")
        axis = np.asarray(self.domain.center)[-1]
        taus = axis + np.linspace(-self.domain.straight_half_length,
                                  self.domain.straight_half_length, 200)
        prof = self.axial_profile(taus)
        if np.min(np.diff(prof)) < -1e-10:
            raise EnvelopeError("initial data is not non-decreasing along the axis")
        plateau = taus >= self.plateau_start
        if plateau.any() and np.max(np.abs(prof[plateau] - self.plateau_value)) > 1e-12:
            raise EnvelopeError(
                "initial data does not sit at the plateau value past plateau_start")
        self.data_lipschitz = float(np.max(np.abs(np.diff(prof) / np.diff(taus))))

    def axial_profile(self, taus: np.ndarray) -> np.ndarray:
        """Data along the axis at the transverse center."""
        center = np.asarray(self.domain.center, dtype=float)
        pts = np.tile(center, (len(taus), 1))
        pts[:, -1] = taus
        return self.initial_data(pts)


def ramp_problem() -> CylinderProblem:
    """The standard monotone ramp on the stadium (0.5, 1.5, 0.25): 0 below
    the axial coordinate -0.25, a linear rise, the plateau 1 from 0.25 on."""
    start, width = 0.25, 0.5

    def g(pts):
        return np.minimum(1.0, np.maximum(0.0, (pts[:, -1] - start + width) / width))

    return CylinderProblem(domain=smoothed_stadium(0.5, 1.5, 0.25), initial_data=g,
                           plateau_start=start, plateau_value=1.0, plateau_margin=0.125)


@dataclass
class EnvelopePair:
    """One-dimensional axial profiles bracketing the data, level past the margin."""

    lower_profile: Callable       # g-(tau), non-decreasing, C2, <= axial max of data
    upper_value: float            # g+ is the constant plateau value
    ramp_steepness: float


def _smoothed_ramp(lam: float, corner: float, steep: float, width: float):
    """Non-decreasing C2 profile: line of slope lam/steep into a level at lam.

    The corner at (corner, lam) is rounded over [corner - width, corner] by
    a quintic blend, which matches the line and the plateau to second
    order at both ends.
    """

    def profile(tau):
        tau = np.asarray(tau, dtype=float)
        line = lam * (tau - corner + steep) / steep
        s = np.clip((tau - (corner - width)) / width, 0.0, 1.0)
        blend = s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)
        out = line + (lam - line) * blend
        return np.where(tau >= corner, lam, out)

    return profile


def build_envelopes(problem: CylinderProblem) -> EnvelopePair:
    """Bracket the data's axial maximum profile per the level-set sandwich.

    The upper envelope is the constant plateau value; the lower one is a
    steep smoothed ramp reaching the plateau exactly at
    plateau_start + plateau_margin, with the steepness shrunk until it
    sits under the data profile at sampled resolution.
    """
    lam = problem.plateau_value
    m = problem.plateau_start
    delta = problem.plateau_margin
    dom = problem.domain
    axis_lo = np.asarray(dom.center)[-1] - dom.straight_half_length
    taus = np.linspace(axis_lo, m + delta, ENVELOPE_SAMPLES)
    data_profile = _axial_max_profile(problem, taus)

    if np.min(data_profile) >= lam - 1e-12:
        flat = lambda tau: np.full(np.shape(tau), lam)
        return EnvelopePair(lower_profile=flat, upper_value=lam, ramp_steepness=np.inf)

    corner = m + delta
    width = delta / 4.0
    steep = delta / 2.0
    for _ in range(60):
        prof = _smoothed_ramp(lam, corner, steep, width)
        if np.all(prof(taus) <= data_profile + 1e-12):
            return EnvelopePair(lower_profile=prof, upper_value=lam, ramp_steepness=steep)
        steep *= 0.5
    gap = prof(taus) - data_profile
    bad = taus[int(np.argmax(gap))]
    raise EnvelopeError(f"no ramp steepness dominates the data profile; "
                        f"worst overshoot at axial coordinate {bad:.4f}")


def _axial_max_profile(problem: CylinderProblem, taus: np.ndarray) -> np.ndarray:
    """max over the cross-section of the data, per axial slice (sampled in blocks)."""
    dom = problem.domain
    center = np.asarray(dom.center, dtype=float)
    n_cross = 41
    if dom.dim == 2:
        xs = center[0] + np.linspace(-dom.half_width, dom.half_width, n_cross)
        cross = xs[:, None]
    else:
        xs = center[0] + np.linspace(-dom.half_width, dom.half_width, n_cross)
        ys = center[1] + np.linspace(-dom.half_width, dom.half_width, n_cross)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        cross = np.stack([gx.ravel(), gy.ravel()], axis=1)
    out = np.empty(len(taus))
    rows = max(1, PROFILE_BLOCK_POINTS // len(cross))
    for i in range(0, len(taus), rows):
        tau = taus[i:i + rows]
        pts = np.concatenate([np.tile(cross, (len(tau), 1)),
                              np.repeat(tau, len(cross))[:, None]], axis=1)
        out[i:i + len(tau)] = problem.initial_data(pts).reshape(len(tau), -1).max(axis=1)
    return out


@dataclass
class LiouvilleReport:
    t: np.ndarray
    flatness: np.ndarray            # sup over the deep plateau of |u - plateau_value|
    lower_violation: np.ndarray     # max (g-(tau) - u)+ per step
    upper_violation: np.ndarray     # max (u - g+(tau + nu t) - eps*nu*t)+ per step
    monotone_violation: np.ndarray  # max axial ordering defect per step
    sup_flatness: float
    bound: float                    # eps * |nu| * T + 10 * spacing * Lip(data)
    steps: int
    envelopes: EnvelopePair


class _Sandwich:
    """The per-step maxima of flatness_and_sandwich, read from a compact array.

    fl(x - c) is monotone in x, so each maximum is taken of the field
    before the subtraction and the clamp at 0, with the bits of the
    maximum of the elementwise differences: the flatness is
    max(lam - min, max - lam) over the deep plateau, the upper violation
    max(0, (max u - lam) - drift) and the lower one max(0, max(g- - u)).
    The axial ordering defects come from one contiguous pass
    u[:-1] - u[1:], gathered at the paired nodes.  Python's max returns
    its first argument on a tie, so a row entry of 0 is +0.0, as the
    node-by-node maxima give it.
    """

    def __init__(self, problem: CylinderProblem, grid: Grid, env: EnvelopePair):
        tau = grid.points[..., -1]
        inside = grid.inside
        deep = tau >= problem.plateau_start + problem.plateau_margin
        self.lam = problem.plateau_value
        # compact positions, so each maximum reads the values masking the
        # box would, into preallocated buffers
        self.in_deep = np.flatnonzero(deep[inside])
        self.glow = env.lower_profile(tau[inside])
        # axially adjacent inside nodes: below[i] is followed by below[i] + 1
        # along the axis, which has stride 1 in the compact layout too
        lo = (slice(None),) * (grid.dim - 1) + (slice(0, -1),)
        hi = (slice(None),) * (grid.dim - 1) + (slice(1, None),)
        paired = np.zeros(grid.shape, bool)
        paired[lo] = inside[lo] & inside[hi]
        self.below = np.flatnonzero(paired[inside])
        self.buf = _aligned_full(len(self.glow), np.nan)
        # deep nodes are inside nodes, so they fit the one buffer
        self.u_deep = self.buf[:len(self.in_deep)]
        self.defects = _aligned_full(len(self.below), np.nan)

    def row(self, u: np.ndarray, drift: float) -> tuple:
        """(flatness, lower, upper, monotone violation) of the compact array u."""
        lam, buf = self.lam, self.buf
        flat = 0.0
        if len(self.in_deep):
            d = u.take(self.in_deep, out=self.u_deep, mode="clip")
            flat = max(lam - float(d.min()), float(d.max()) - lam)
        np.subtract(self.glow, u, out=buf)
        lower = max(0.0, float(buf.max()))
        upper = max(0.0, (float(u.max()) - lam) - drift)
        mono = 0.0
        if len(self.below):
            steps = np.subtract(u[:-1], u[1:], out=buf[:-1])
            mono = max(0.0, float(steps.take(self.below, out=self.defects,
                                             mode="clip").max()))
        return flat, lower, upper, mono


def flatness_and_sandwich(problem: CylinderProblem, grid: Grid, params: FlowParams,
                          horizon: float) -> LiouvilleReport:
    """Evolve the monotone problem and track flatness and the sandwich.

    The upper sandwich includes the explicit flat-region drift
    epsilon*nu*t of the regularized operator; the lower violation is
    reported raw (the smoothing leak shows up there, quantified by the
    flatness series).
    """
    if params.nu < 0:
        raise ValueError("flatness propagation needs nu >= 0")
    env = build_envelopes(problem)
    # the boundary data are the trace of the initial data
    bvals = boundary_values(grid, problem.initial_data)
    start = init_state(grid, problem.initial_data, bvals)
    n_steps = whole_steps(horizon, stable_dt(params, grid))

    sandwich = _Sandwich(problem, grid, env)
    t, rows = [], []
    for _, tk, u, _ in march(start, grid, params, bvals, n_steps):
        t.append(tk)
        rows.append(sandwich.row(u, params.epsilon * params.nu * tk))

    flat, lower, upper, mono = (np.array(col) for col in zip(*rows))
    bound = (params.epsilon * abs(params.nu) * float(t[-1])
             + 10.0 * grid.spacing * problem.data_lipschitz)
    return LiouvilleReport(t=np.array(t), flatness=flat, lower_violation=lower,
                           upper_violation=upper, monotone_violation=mono,
                           sup_flatness=float(flat.max()), bound=bound, steps=n_steps,
                           envelopes=env)
