"""Initial-boundary value problem driver, steady-state solve and
continuation in the smoothing parameter.

One run is sequential in time; independent runs share no mutable state.
Per-step diagnostics are reduced in a fixed order so reports are
reproducible bit for bit.
"""

import time as _time
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Sequence

import numpy as np

from .geometry import Grid, DomainSpec, boundary_points, admissible_nu_interval
from .operator import (FlowParams, FieldState, Workspace, boundary_values,
                       init_state, regularized_rhs, apply_closure, march,
                       stable_dt, dt_exceeds_stability, BlowUpError)

COMPATIBILITY_TOL = 1e-10
COMPATIBILITY_SAMPLES = 512          # boundary points the data are compared at
DEFAULT_STEP_BUDGET = 10_000_000


class IncompatibleDataError(ValueError):
    """Boundary and initial data disagree on the boundary."""


@dataclass
class IBVP:
    """Problem data: domain, boundary values h and initial values g.

    Both data functions take (N, dim) point arrays and must agree on the
    boundary to within 1e-10; the flow's a priori bounds require it, so a
    mismatch is an error rather than a warning.
    """

    domain: DomainSpec
    boundary_data: Callable
    initial_data: Callable

    def __post_init__(self):
        pts = boundary_points(self.domain, COMPATIBILITY_SAMPLES)
        gap = np.max(np.abs(self.boundary_data(pts) - self.initial_data(pts)))
        if gap > COMPATIBILITY_TOL:
            raise IncompatibleDataError(
                f"boundary and initial data differ by {gap:.3e} on the boundary "
                f"(tolerance {COMPATIBILITY_TOL})")


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
    wall_clock: float = 0.0
    aborted: str | None = None
    warnings: list = dc_field(default_factory=list)


def _collect_warnings(problem: IBVP, grid: Grid, params: FlowParams) -> list:
    warns = []
    lo, hi = admissible_nu_interval(problem.domain)
    if not lo < params.nu < hi:
        warns.append(f"nu={params.nu} outside the admissible interval ({lo:.6g}, {hi:.6g})")
    if dt_exceeds_stability(params, grid):
        warns.append(f"dt_override={params.dt_override} exceeds the stability bound "
                     f"{0.5 * grid.spacing ** 2 / grid.dim:.6g}")
    if grid.coarse_warning:
        warns.append("grid spacing above an eighth of the smallest shape parameter")
    return warns


class _Recorder:
    """Accumulates per-step diagnostics from the live workspace.

    Node sets are taken by flat index into preallocated buffers (mode "clip"
    does not buffer; every index is in range).  The integrals are full-box
    sums of a buffer that stays 0 off the inside nodes.
    """

    def __init__(self, grid: Grid, params: FlowParams):
        self.nu = params.nu
        # keyed by the FlowReport series they fill
        self.rows = {k: [] for k in ("t", "sup_u", "min_u", "max_u", "sup_grad",
                                     "sup_grad_interior", "sup_grad_ring", "sup_ut",
                                     "energy", "dissipation", "source", "ut_sq_integral")}
        self.wvol = (grid.qweight * grid.spacing ** grid.dim).ravel()
        self.inside, self.interior = grid.inside.ravel(), grid.interior.ravel()
        self.idx = {name: np.flatnonzero(getattr(grid, name)) for name in
                    ("inside", "interior", "near_boundary")}
        self.buf, self.sq = np.empty((2, len(self.idx["inside"])))
        # u_t, 0 off the interior; an integrand, 0 off the inside
        self.r, self.w = np.zeros((2, self.inside.size))

    def _take(self, src: np.ndarray, name: str) -> np.ndarray:
        idx = self.idx[name]
        return np.take(src, idx, out=self.buf[:len(idx)], mode="clip")

    def _sup_grad_sq(self, grads: np.ndarray, name: str) -> float:
        """max of g0*g0 + g1*g1 (+ g2*g2) over a node set, 0.0 if it is empty."""
        sq = self.sq[:len(self.idx[name])]
        sq.fill(0.0)        # 0 + x is x: a square is never -0
        for g in grads:
            g = self._take(g, name)
            sq += np.multiply(g, g, out=g)
        return float(np.max(sq)) if len(sq) else 0.0

    def record(self, state: FieldState, ws: Workspace):
        # ws holds the rate, gradient and smoothed norm of exactly this state
        grads = ws.grads.reshape(len(ws.grads), -1)
        s_node, rate = ws.s_node.ravel(), ws.rate.ravel()
        rows, r, w = self.rows, self.r, self.w
        rows["t"].append(state.time)
        u = self._take(state.values.ravel(), "inside")
        lo, hi = float(np.min(u)), float(np.max(u))
        rows["sup_u"].append(max(abs(lo), abs(hi)))
        rows["min_u"].append(lo)
        rows["max_u"].append(hi)
        # inside = interior + ring, and sqrt commutes with max
        gi, gr = (self._sup_grad_sq(grads, name) for name in ("interior", "near_boundary"))
        rows["sup_grad"].append(float(np.sqrt(np.maximum(gi, gr))))
        rows["sup_grad_interior"].append(float(np.sqrt(gi)))
        rows["sup_grad_ring"].append(float(np.sqrt(gr)))
        ut = self._take(rate, "interior")
        rows["sup_ut"].append(float(np.max(np.abs(ut, out=ut))) if len(ut) else 0.0)
        np.copyto(r, rate, where=self.interior)
        np.multiply(s_node, self.wvol, out=w, where=self.inside)
        rows["energy"].append(float(np.sum(w)))
        np.multiply(r, r, out=w)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(w, s_node, out=w, where=self.inside)
        w *= self.wvol
        rows["dissipation"].append(float(np.sum(w)))
        np.multiply(r, self.wvol, out=w)
        rows["source"].append(self.nu * float(np.sum(w)))
        np.multiply(r, r, out=w)
        w *= self.wvol
        rows["ut_sq_integral"].append(float(np.sum(w)))


def solve_ibvp(problem: IBVP, grid: Grid, params: FlowParams, horizon: float,
               snapshot_times: Sequence[float] = ()) -> FlowReport:
    """Evolve the problem to the horizon, recording diagnostics each step.

    Snapshot times are rounded down to the nearest completed step.  A
    non-finite update aborts the run and returns the partial report with
    the abort reason set.
    """
    t0 = _time.perf_counter()
    bvals = boundary_values(grid, problem.boundary_data)
    state = init_state(grid, problem.initial_data, bvals)
    dt = stable_dt(params, grid)
    n_steps = max(int(np.floor(horizon / dt + 1e-12)), 0)
    snap_steps = {min(int(np.floor(ts / dt + 1e-12)), n_steps) for ts in snapshot_times}

    rec = _Recorder(grid, params)
    snapshots = []
    aborted = None
    try:
        for k, state, ws in march(state, grid, params, bvals, n_steps):
            rec.record(state, ws)
            if k in snap_steps:
                snapshots.append((k, state.time, state.values.copy()))
    except BlowUpError as exc:
        aborted = str(exc)

    return FlowReport(
        **{name: np.array(row) for name, row in rec.rows.items()},
        snapshots=snapshots, steps=k, dt=dt,
        wall_clock=_time.perf_counter() - t0, aborted=aborted,
        warnings=_collect_warnings(problem, grid, params),
    )


@dataclass
class SteadyResult:
    """Terminal field of a steady solve and its certificate.

    steps counts residual evaluations after the initial one (on the
    explicit path, one per Euler step; the fallback's restart evaluation is
    not counted); residual is sup|regularized_rhs|
    over the interior nodes of the returned field; method names the solver
    that produced the field.
    """

    state: FieldState
    steps: int
    converged: bool
    residual: float
    method: str
    newton_iterations: int
    warnings: list = dc_field(default_factory=list)


STEADY_METHODS = ("newton", "explicit")
GMRES_RESTART = 40           # Krylov basis size between restarts
GMRES_MAX_CYCLES = 20        # restart cycles per linear solve
NEWTON_MAX_ITERATIONS = 50   # more means the iteration stalled
LINE_SEARCH_HALVINGS = 10
EW_GAMMA, EW_ALPHA, EW_ETA_MAX = 0.9, 2.0, 0.9   # Eisenstat-Walker choice 2
ARMIJO = 1e-4


@dataclass
class _NewtonOutcome:
    """Least-residual iterate of a Newton solve and its full-grid rate."""

    state: FieldState
    rate: np.ndarray
    evals: int              # residual evaluations, the initial one excluded
    iterations: int         # Newton steps up to the returned iterate


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
    """Inverse of the (2 dim + 1)-point Laplacian on the grid box, zero
    beyond it, applied to a vector of interior node values.

    The Laplacian's eigenvectors are products of sines, so its inverse is the
    orthonormal sine transform along each axis (a dense symmetric n x n
    matrix, its own inverse, shared by axes of equal length), a division by
    the eigenvalue, and the same transform again.  The interior vector is
    embedded in a zero box and the result restricted to the interior.  All
    buffers are allocated once: a call returns the same output array,
    which the next call overwrites.
    """

    def __init__(self, grid: Grid, interior_flat: np.ndarray):
        self.idx = interior_flat
        self.sines, self.views = [], []
        sines = {}
        lam = np.zeros(grid.shape)
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
            lam += ((2.0 - 2.0 * np.cos(np.pi * k / (n + 1))) / grid.spacing ** 2).reshape(axis)
            post = int(np.prod(grid.shape[ax + 1:], dtype=int))
            self.views.append((-1, n, post) if post > 1 else (-1, n))
        self.scale = np.divide(-1.0, lam, out=lam).ravel()
        self.box, self.tmp = np.zeros((2, self.scale.size))
        self.out = np.empty(len(interior_flat))

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
        return np.take(box, self.idx, out=self.out)


def _newton_steady(state: FieldState, rate: np.ndarray, grid: Grid, params: FlowParams,
                   bvals, ws: Workspace, tol: float, budget: int) -> _NewtonOutcome:
    """Jacobian-free Newton-GMRES on the interior equation rate = 0.

    The unknowns are the interior node values; the ring follows by closure.
    GMRES solves J M^-1 y = -F for the step M^-1 y, where M^-1 is the
    inverse box Laplacian; preconditioning from the right keeps its residual
    the true linear residual.  Jacobian products are forward differences
    costing one residual evaluation each, the forcing term follows
    Eisenstat-Walker, and a backtracking line search on |F| globalises.
    Returns the iterate of least sup-residual once it is below tol, or when
    the budget runs out, a value turns non-finite, the line search fails or
    the iteration stalls.
    """
    idx = ws.interior_flat
    values = state.values
    f = rate.ravel()[idx]
    fnorm = float(np.linalg.norm(f))
    best_sup = float(np.max(np.abs(f)))
    best_state, best_rate, best_it = state, rate.copy(), 0
    evals = 0
    basis = np.empty((GMRES_RESTART + 1, len(idx)))
    precondition = _BoxLaplacianInverse(grid, idx)

    def residual(x, out):
        """Rate of the field with interior x, closed in place in out."""
        out.ravel()[idx] = x
        apply_closure(out, grid, bvals)
        return regularized_rhs(out, grid, params, bvals, ws)

    eta = EW_ETA_MAX
    fnorm_prev = None
    for it in range(1, NEWTON_MAX_ITERATIONS + 1):
        if best_sup < tol or budget - evals < 2:
            break
        if fnorm_prev is not None:
            eta_ew = EW_GAMMA * (fnorm / fnorm_prev) ** EW_ALPHA
            if EW_GAMMA * eta ** EW_ALPHA > 0.1:
                eta_ew = max(eta_ew, EW_GAMMA * eta ** EW_ALPHA)
            eta = min(EW_ETA_MAX, max(eta_ew, 0.5 * tol / fnorm))
        x = values.ravel()[idx]
        delta = np.sqrt((1.0 + float(np.linalg.norm(x))) * np.finfo(float).eps)
        scratch = values.copy()

        def matvec(v):
            z = precondition(v)
            z *= delta
            z += x
            w = residual(z, scratch).ravel()[idx]
            w -= f
            w /= delta
            return w

        y, used = _gmres(matvec, -f, eta * fnorm, budget - evals - 1, basis)
        step = precondition(y).copy()
        evals += used
        accepted = None
        lam = 1.0
        for _ in range(LINE_SEARCH_HALVINGS + 1):
            if evals >= budget:
                break
            trial = values.copy()
            trial_rate = residual(x + lam * step, trial)
            ftrial = trial_rate.ravel()[idx]
            evals += 1
            if not np.all(np.isfinite(ftrial)):
                break
            tnorm = float(np.linalg.norm(ftrial))
            if tnorm <= (1.0 - ARMIJO * lam * (1.0 - eta)) * fnorm:
                accepted = trial
                break
            lam *= 0.5
        if accepted is None:
            break
        values, f, fnorm_prev, fnorm = accepted, ftrial, fnorm, tnorm
        sup = float(np.max(np.abs(f)))
        if sup < best_sup:
            best_sup, best_it = sup, it
            best_state, best_rate = FieldState(values, state.time), trial_rate.copy()
    return _NewtonOutcome(best_state, best_rate, evals, best_it)


def relax_to_steady(problem: IBVP, grid: Grid, params: FlowParams, tol: float,
                    max_steps: int = DEFAULT_STEP_BUDGET,
                    method: str = "newton") -> SteadyResult:
    """Solve the steady equation until sup|rate| < tol at the interior nodes.

    method="newton" runs Jacobian-free Newton-GMRES and, if it fails,
    explicit relaxation from its best iterate with the remaining budget;
    method="explicit" relaxes by Euler steps of the flow from the start.
    max_steps caps the residual evaluations after the initial one on both
    paths; exhaustion returns the best field with converged=False.  The
    result names the method that produced the field: "explicit" once the
    fallback has taken a step.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if method not in STEADY_METHODS:
        raise ValueError(f"method must be one of {STEADY_METHODS}, got {method!r}")
    bvals = boundary_values(grid, problem.boundary_data)
    state = init_state(grid, problem.initial_data, bvals)
    used, iterations, steps, res = 0, 0, 0, np.inf
    if method == "newton" and grid.interior.any():
        ws = Workspace(grid)
        rate = regularized_rhs(state.values, grid, params, bvals, ws)
        nk = _newton_steady(state, rate, grid, params, bvals, ws, tol, max_steps)
        state, used, iterations = nk.state, nk.evals, nk.iterations
        res = float(np.max(np.abs(nk.rate.ravel()[ws.interior_flat])))
    if res >= tol:
        # Euler steps from the data or from Newton's best iterate
        for k, state, ws in march(state, grid, params, bvals, max_steps - used, used + 1):
            idx = ws.interior_flat
            res = float(np.max(np.abs(ws.rate.ravel()[idx]))) if len(idx) else 0.0
            if res < tol:
                break
        steps = k - used
    return SteadyResult(state=state, steps=used + steps, converged=res < tol, residual=res,
                        method="explicit" if steps else method,
                        newton_iterations=iterations,
                        warnings=_collect_warnings(problem, grid, params))


@dataclass
class ContinuationTable:
    epsilons: tuple
    sup_diffs: tuple            # sup-norm differences of consecutive terminal fields
    monotone_decreasing: bool
    warnings: list              # independent of the smoothing, so computed once


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

    Monotonicity of the differences is reported, not enforced; any failing
    run aborts the table at that row.
    """
    eps_list = check_eps_list(eps_list)
    fields = []
    for eps in eps_list:
        rep = solve_ibvp(problem, grid, replace(params, epsilon=eps), horizon,
                         snapshot_times=(horizon,))
        if rep.aborted:
            raise BlowUpError(f"continuation row eps={eps} aborted: {rep.aborted}")
        fields.append(rep.snapshots[-1][2])
    inside = grid.inside
    diffs = tuple(float(np.max(np.abs(a[inside] - b[inside])))
                  for a, b in zip(fields, fields[1:]))
    mono = all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
    return ContinuationTable(epsilons=eps_list, sup_diffs=diffs, monotone_decreasing=mono,
                             warnings=_collect_warnings(problem, grid, params))
