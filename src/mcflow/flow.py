"""Initial-boundary value problem driver, steady-state solve (Jacobian-free
Newton-GMRES) and continuation in the smoothing parameter.

One run is sequential in time; independent runs share no mutable state.
Per-step diagnostics are reduced in a fixed order so reports are
reproducible bit for bit.
"""

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Sequence

import numpy as np

from .geometry import Grid, DomainSpec, boundary_points, admissible_nu_interval
from .operator import (FlowParams, Workspace, boundary_values, init_state,
                       regularized_rhs, apply_closure, march, stable_dt, whole_steps,
                       BlowUpError, _aligned_full)

COMPATIBILITY_TOL = 1e-10
COMPATIBILITY_SAMPLES = 512          # boundary points the data are compared at
DEFAULT_STEP_BUDGET = 20_000         # residual evaluations of a steady solve


class IncompatibleDataError(ValueError):
    """Boundary and initial data disagree on the boundary."""


@dataclass
class IBVP:
    """Problem data: domain, boundary values h and initial values g.

    Both data functions take (N, dim) point arrays and must be finite and
    agree on the boundary to within 1e-10; the flow's a priori bounds
    require it, so a mismatch is an error (naming the first non-finite
    sample) rather than a warning.  One function given as both is sampled
    once.
    """

    domain: DomainSpec
    boundary_data: Callable
    initial_data: Callable

    def __post_init__(self):
        pts = boundary_points(self.domain, COMPATIBILITY_SAMPLES)
        with np.errstate(all="ignore"):     # a non-finite value is reported below
            h = self.boundary_data(pts)
            g = h if self.boundary_data is self.initial_data else self.initial_data(pts)
            gap = np.max(np.abs(h - g))
        for name, vals in (("boundary", h), ("initial", g)):
            if (bad := np.flatnonzero(~np.isfinite(vals))).size:
                point = ", ".join(f"{c:.6g}" for c in pts[bad[0]])
                raise IncompatibleDataError(
                    f"{name} data evaluate non-finite at the boundary point ({point})")
        if gap > COMPATIBILITY_TOL:
            raise IncompatibleDataError(
                f"boundary and initial data differ by {gap:.3e} on the boundary "
                f"(tolerance {COMPATIBILITY_TOL})")


def data_range(problem: IBVP, grid: Grid) -> tuple:
    """(min, max) over the initial data at the inside nodes and the boundary
    data at COMPATIBILITY_SAMPLES boundary points: the range a bound starts from."""
    vals = [problem.boundary_data(boundary_points(problem.domain, COMPATIBILITY_SAMPLES))]
    if grid.inside.any():
        vals.append(problem.initial_data(grid.points[grid.inside]))
    return (min(float(np.min(v)) for v in vals), max(float(np.max(v)) for v in vals))


@dataclass
class FlowReport:
    """Per-step series and snapshots of one evolution run.

    u_t is recorded as the applied rate (what the scheme integrates), at
    interior nodes only.  Integrals use the theta-weighted node quadrature.
    """

    t: np.ndarray
    sup_u: np.ndarray
    min_u: np.ndarray
    max_u: np.ndarray
    sup_grad: np.ndarray
    sup_grad_interior: np.ndarray
    sup_grad_ring: np.ndarray
    sup_ut: np.ndarray
    energy: np.ndarray            # J(t) = integral of sqrt(|grad u|^2 + eps^2)
    dissipation: np.ndarray       # integral of u_t^2 / sqrt(|grad u|^2 + eps^2)
    source: np.ndarray            # nu * integral of u_t
    ut_sq_integral: np.ndarray    # integral of u_t^2
    snapshots: list = dc_field(default_factory=list)   # (step, time, values)
    steps: int = 0
    dt: float = 0.0
    aborted: str | None = None


def collect_warnings(domain: DomainSpec, grid: Grid, params: FlowParams) -> list:
    warns = []
    lo, hi = admissible_nu_interval(domain)
    if not lo < params.nu < hi:
        # + 0.0: a flat side's interval prints (0, 0), without a negative zero
        warns.append(f"nu={params.nu} outside the admissible interval ({lo + 0.0:.6g}, {hi:.6g})")
    bound = 0.5 * grid.spacing ** 2 / grid.dim
    if params.dt_override is not None and params.dt_override > bound + 1e-300:
        warns.append(f"dt_override={params.dt_override} exceeds the stability bound "
                     f"{bound:.6g}")
    if grid.coarse_warning:
        warns.append("grid spacing above an eighth of the smallest shape parameter")
    return warns


class _Recorder:
    """Accumulates per-step diagnostics from the live compact state and workspace.

    The gradient maxima read the squared gradient norm ws.grad_sq that the
    rate evaluation summed, taken at ws.interior and ws.ring into a
    preallocated buffer (mode "clip" does not buffer; every index is in
    range).  The rate is ws.rate, 0 on the ring, and its square is taken
    once.  The integrals stay full-box pairwise sums: each compact integrand
    is scattered into a box row that stays 0 off the inside nodes.  A call
    allocates no array, and every buffer starts on a cache line.
    """

    def __init__(self, grid: Grid, params: FlowParams):
        self.nu = params.nu
        # keyed by the FlowReport series they fill
        self.rows = {k: [] for k in ("t", "sup_u", "min_u", "max_u", "sup_grad",
                                     "sup_grad_interior", "sup_grad_ring", "sup_ut",
                                     "energy", "dissipation", "source", "ut_sq_integral")}
        self.wvol = (grid.qweight * grid.spacing ** grid.dim)[grid.inside]
        # the gathered squared gradients, then the squared rate; an
        # integrand; the box row it is summed in
        self.buf, self.w = (_aligned_full(len(self.wvol), 0.0) for _ in range(2))
        self.row = _aligned_full(grid.inside.size, 0.0)

    def _integral(self, ws: Workspace) -> float:
        self.row[ws.inside_flat] = self.w
        return float(self.row.sum())

    # a run about to blow up has rates and squared gradients that leave the
    # float range: they record as inf or nan, and the next update raises
    # BlowUpError
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def record(self, t: float, u: np.ndarray, ws: Workspace):
        # ws holds the rate, squared gradient and smoothed norm of exactly u
        rows, r, w = self.rows, ws.rate, self.w
        rows["t"].append(t)
        lo, hi = float(u.min()), float(u.max())
        rows["sup_u"].append(max(abs(lo), abs(hi)))
        rows["min_u"].append(lo)
        rows["max_u"].append(hi)
        # inside = interior + ring, and sqrt commutes with max; a square is
        # never below the 0.0 an empty node set records
        gi, gr = (float(ws.grad_sq.take(idx, out=self.buf[:len(idx)],
                                        mode="clip").max(initial=0.0))
                  for idx in (ws.interior, ws.ring))
        rows["sup_grad"].append(float(np.sqrt(np.maximum(gi, gr))))
        rows["sup_grad_interior"].append(float(np.sqrt(gi)))
        rows["sup_grad_ring"].append(float(np.sqrt(gr)))
        # nor is |r|, 0 on the ring
        rows["sup_ut"].append(float(np.abs(r, out=w).max(initial=0.0)))
        np.multiply(ws.s_node, self.wvol, out=w)
        rows["energy"].append(self._integral(ws))
        sq = np.multiply(r, r, out=self.buf)
        np.divide(sq, ws.s_node, out=w)
        w *= self.wvol
        rows["dissipation"].append(self._integral(ws))
        np.multiply(r, self.wvol, out=w)
        rows["source"].append(self.nu * self._integral(ws))
        np.multiply(sq, self.wvol, out=w)
        rows["ut_sq_integral"].append(self._integral(ws))


def solve_ibvp(problem: IBVP, grid: Grid, params: FlowParams, horizon: float,
               snapshot_times: Sequence[float] = ()) -> FlowReport:
    """Evolve the problem to the horizon, recording diagnostics each step.

    Snapshot times are rounded down to the nearest completed step; one
    outside [0, horizon] is a ValueError naming it.  A non-finite update
    aborts the run and returns the partial report with the abort reason set.
    """
    for ts in snapshot_times:
        if not 0 <= ts <= horizon:
            raise ValueError(f"snapshot time {ts} lies outside [0, horizon = {horizon}]")
    bvals = boundary_values(grid, problem.boundary_data)
    start = init_state(grid, problem.initial_data, bvals)
    dt = stable_dt(params, grid)
    n_steps = whole_steps(horizon, dt)
    snap_steps = {whole_steps(ts, dt) for ts in snapshot_times}

    rec = _Recorder(grid, params)
    snapshots = []
    aborted = None
    try:
        for k, t, u, ws in march(start, grid, params, bvals, n_steps):
            rec.record(t, u, ws)
            if k in snap_steps:
                snapshots.append((k, t, ws.box(u)))
    except BlowUpError as exc:
        aborted = str(exc)

    return FlowReport(**{name: np.array(row) for name, row in rec.rows.items()},
                      snapshots=snapshots, steps=k, dt=dt, aborted=aborted)


@dataclass
class SteadyResult:
    """Terminal field of a steady solve and its certificate.

    values is the box field (NaN off the inside nodes); steps counts
    residual evaluations after the initial one; residual is
    sup|regularized_rhs| over the interior nodes of the returned field;
    newton_iterations counts the Newton steps up to it.
    """

    values: np.ndarray
    steps: int
    converged: bool
    residual: float
    newton_iterations: int


GMRES_RESTART = 40           # Krylov basis size between restarts
GMRES_MAX_CYCLES = 20        # restart cycles per linear solve
EW_GAMMA, EW_ALPHA, EW_ETA_MAX = 0.9, 2.0, 0.9   # Eisenstat-Walker choice 2


def _gmres(matvec: Callable, b: np.ndarray, target: float, budget: int,
           basis: np.ndarray):
    """Restarted GMRES for J s = b from s = 0, stopping at |b - J s| <= target.

    basis is caller-owned (restart + 1, n) scratch.  The residual at each
    restart comes from the Arnoldi relation, so matvecs are the only
    residual evaluations.  Returns (s, matvecs used).
    """
    m = basis.shape[0] - 1
    s = np.zeros_like(b)
    r = b
    beta = float(np.linalg.norm(r))
    used = 0
    for _cycle in range(GMRES_MAX_CYCLES):
        if beta <= target or used >= budget:
            break
        basis[0] = r / beta
        hess = np.zeros((m + 1, m))       # Arnoldi Hessenberg matrix
        tri = np.zeros((m + 1, m))        # hess after the Givens rotations
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)               # rotated right-hand side beta * e1
        g[0] = beta
        for j in range(m):
            w = matvec(basis[j])
            used += 1
            k = j + 1
            # classical Gram-Schmidt, run twice to keep the basis orthogonal
            coef = basis[:k] @ w
            w -= coef @ basis[:k]
            more = basis[:k] @ w
            w -= more @ basis[:k]
            hess[:k, j] = coef + more
            hess[k, j] = np.linalg.norm(w)
            basis[k] = w / hess[k, j] if hess[k, j] > 0.0 else 0.0
            col = hess[:k + 1, j].copy()
            for i in range(j):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            rad = np.hypot(col[j], col[k])
            cs[j], sn[j] = (col[j] / rad, col[k] / rad) if rad > 0.0 else (1.0, 0.0)
            col[j], col[k] = rad, 0.0
            tri[:k + 1, j] = col
            g[j], g[k] = cs[j] * g[j], -sn[j] * g[j]
            if abs(g[k]) <= target or used >= budget or hess[k, j] == 0.0:
                break
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            if tri[i, i] == 0.0:
                return s, used
            y[i] = (g[i] - tri[i, i + 1:k] @ y[i + 1:]) / tri[i, i]
        s += y @ basis[:k]
        coeffs = -(hess[:k + 1, :k] @ y)
        coeffs[0] += beta
        r = coeffs @ basis[:k + 1]
        beta = float(np.linalg.norm(r))
    return s, used


class _BoxLaplacianInverse:
    """Inverse of M = sum_k a_k delta^2_k, the (2 dim + 1)-point Laplacian on
    the grid box with one positive coefficient a_k per axis, zero beyond the
    box, applied to a vector of interior node values.

    Whatever the coefficients, M's eigenvectors are products of sines, so its
    inverse is the orthonormal sine transform along each axis (a dense
    symmetric n x n matrix, its own inverse, shared by axes of equal length),
    a division by the eigenvalue sum_k a_k (2 - 2 cos(pi m / (n_k + 1))) / h^2
    and the same transform again.  The interior vector is embedded in a zero
    box and the result restricted to the interior.  The coefficients start at
    1, the plain Laplacian; set_coefficients rewrites the division in place.
    All buffers are allocated once: a call returns the same output array,
    which the next call overwrites.
    """

    def __init__(self, grid: Grid, interior_flat: np.ndarray):
        self.idx = interior_flat
        self.sines, self.views, self.eigs = [], [], []
        sines = {}
        for ax, n in enumerate(grid.shape):
            k = np.arange(1, n + 1)
            if n not in sines:
                sine = np.pi * np.outer(k, k)
                sine /= n + 1
                np.sin(sine, out=sine)
                sine *= np.sqrt(2.0 / (n + 1))
                sines[n] = sine
            self.sines.append(sines[n])
            axis = [1] * grid.dim
            axis[ax] = n
            self.eigs.append(((2.0 - 2.0 * np.cos(np.pi * k / (n + 1))) / grid.spacing ** 2)
                             .reshape(axis))
            post = int(np.prod(grid.shape[ax + 1:], dtype=int))
            self.views.append((-1, n, post) if post > 1 else (-1, n))
        self.shape = grid.shape
        self.scale = np.empty(int(np.prod(grid.shape, dtype=int)))
        self.set_coefficients(np.ones(grid.dim))
        self.box, self.tmp = np.zeros((2, self.scale.size))
        self.out = np.empty(len(interior_flat))

    def set_coefficients(self, coef: Sequence[float]):
        """Make M = sum_k coef[k] delta^2_k by rewriting scale, -1 / eigenvalue."""
        lam = self.scale.reshape(self.shape)
        lam.fill(0.0)
        for a, eig in zip(coef, self.eigs):
            lam += a * eig
        np.divide(-1.0, lam, out=lam)

    def _transform(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """The sine transform of src along every axis; ends in src or dst."""
        for sine, view in zip(self.sines, self.views):
            a, b = src.reshape(view), dst.reshape(view)
            if len(view) == 2:
                np.matmul(a, sine, out=b)     # the last axis; sine is symmetric
            else:
                np.matmul(sine, a, out=b)
            src, dst = dst, src
        return src

    def __call__(self, v: np.ndarray) -> np.ndarray:
        self.box.fill(0.0)
        self.box[self.idx] = v
        coef = self._transform(self.box, self.tmp)
        coef *= self.scale
        box = self._transform(coef, self.tmp if coef is self.box else self.box)
        # the indices are in range; mode "raise" would buffer the gather
        return box.take(self.idx, out=self.out, mode="clip")


def _frozen_coefficients(ws: Workspace) -> np.ndarray:
    """Per axis k, the mean over the interior nodes of 1 - g_k^2 / s^2, from
    the node gradient g and smoothed norm s that ws holds.

    These are the diagonal entries of the steady Jacobian's principal part
    (I - grad u grad u^T / s^2) : D^2, frozen at the field ws last evaluated.
    Each lies in (0, 1], and they sum to more than dim - 1, so the box
    operator they weight stays positive definite.
    """
    idx = ws.interior
    s2 = np.square(ws.s_node[idx])
    return np.array([np.mean(1.0 - np.square(g[idx]) / s2) for g in ws.grads])


def relax_to_steady(problem: IBVP, grid: Grid, params: FlowParams, tol: float,
                    max_steps: int = DEFAULT_STEP_BUDGET) -> SteadyResult:
    """Solve the steady equation until sup|rate| < tol at the interior nodes.

    Jacobian-free Newton-GMRES on the interior node values; the ring follows
    by closure, and every iterate stays a compact array until the returned
    one.  GMRES solves J M^-1 y = -F for the step M^-1 y, where M^-1
    is the inverse box Laplacian weighted per axis by the frozen coefficients
    of the current iterate; preconditioning from the right keeps its
    residual the true linear residual.  Jacobian products are forward
    differences costing one residual evaluation each, the forcing term
    follows Eisenstat-Walker, and every finite full step is taken.
    max_steps caps the residual evaluations after the initial one.  Returns
    the iterate of least sup-residual, with converged=False when the budget
    runs out or a step turns a value non-finite first.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    bvals = boundary_values(grid, problem.boundary_data)
    values = init_state(grid, problem.initial_data, bvals)
    ws = Workspace(grid)
    idx = ws.interior
    f = regularized_rhs(values, grid, params, bvals, ws)[idx]
    fnorm = float(np.linalg.norm(f))
    best_sup = float(np.max(np.abs(f))) if len(idx) else 0.0
    best, best_it = values, 0
    evals = it = 0
    basis = np.empty((GMRES_RESTART + 1, len(idx)))
    precondition = _BoxLaplacianInverse(grid, np.flatnonzero(grid.interior))

    def residual(x, out):
        """Rate of the field with interior x, closed in place in out."""
        out[idx] = x
        apply_closure(out, bvals)
        return regularized_rhs(out, grid, params, bvals, ws)

    eta = EW_ETA_MAX
    fnorm_prev = None
    while best_sup >= tol and max_steps - evals >= 2:
        it += 1
        # ws holds the evaluation of values: the initial one, or the last step's
        precondition.set_coefficients(_frozen_coefficients(ws))
        if fnorm_prev is not None:
            eta_ew = EW_GAMMA * (fnorm / fnorm_prev) ** EW_ALPHA
            if EW_GAMMA * eta ** EW_ALPHA > 0.1:
                eta_ew = max(eta_ew, EW_GAMMA * eta ** EW_ALPHA)
            eta = min(EW_ETA_MAX, max(eta_ew, 0.5 * tol / fnorm))
        x = values[idx]
        delta = np.sqrt((1.0 + float(np.linalg.norm(x))) * np.finfo(float).eps)
        scratch = values.copy()

        def matvec(v):
            z = precondition(v)
            z *= delta
            z += x
            w = residual(z, scratch)[idx]
            w -= f
            w /= delta
            return w

        y, used = _gmres(matvec, -f, eta * fnorm, max_steps - evals - 1, basis)
        values = values.copy()
        f = residual(x + precondition(y), values)[idx]
        evals += used + 1
        if not np.all(np.isfinite(f)):
            break
        fnorm_prev, fnorm = fnorm, float(np.linalg.norm(f))
        sup = float(np.max(np.abs(f)))
        if sup < best_sup:
            best_sup, best, best_it = sup, values, it
    return SteadyResult(values=ws.box(best), steps=evals, converged=best_sup < tol,
                        residual=best_sup, newton_iterations=best_it)


@dataclass
class ContinuationTable:
    epsilons: tuple
    sup_diffs: tuple            # sup-norm differences of consecutive terminal fields
    monotone_decreasing: bool


def check_eps_list(eps_list: Sequence[float]) -> tuple:
    """The smoothing ladder as floats.

    ValueError unless 3 or more values strictly decrease and each lies in
    (0, 1), the range FlowParams admits for epsilon.
    """
    eps_list = tuple(float(e) for e in eps_list)
    if len(eps_list) < 3:
        raise ValueError(f"continuation needs at least 3 smoothing values, got {len(eps_list)}")
    if not all(b < a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"smoothing values must be strictly decreasing, got {eps_list}")
    if not all(0.0 < e < 1.0 for e in eps_list):
        raise ValueError(f"smoothing values must lie in (0, 1), got {eps_list}")
    return eps_list


def epsilon_continuation(problem: IBVP, grid: Grid, params: FlowParams,
                         eps_list: Sequence[float], horizon: float) -> ContinuationTable:
    """Terminal-field Cauchy differences along a decreasing smoothing ladder.

    Each row marches straight to its terminal field.  Monotonicity of the
    differences is reported, not enforced; a row that blows up aborts the
    table with a BlowUpError naming the row, the node and the step.
    """
    eps_list = check_eps_list(eps_list)
    bvals = boundary_values(grid, problem.boundary_data)
    start = init_state(grid, problem.initial_data, bvals)
    fields = []         # compact terminal fields
    for eps in eps_list:
        row = replace(params, epsilon=eps)
        try:
            # march advances its own copy of the start; the last state is the row's
            for _, _, u, _ in march(start, grid, row, bvals,
                                    whole_steps(horizon, stable_dt(row, grid))):
                pass
        except BlowUpError as exc:
            raise BlowUpError(f"continuation row eps={eps} aborted: {exc}",
                              node=exc.node, step=exc.step) from None
        fields.append(u)
    diffs = tuple(float(np.max(np.abs(a - b))) for a, b in zip(fields, fields[1:]))
    mono = all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
    return ContinuationTable(epsilons=eps_list, sup_diffs=diffs, monotone_decreasing=mono)
