import numpy as np
import pytest

import mcflow as mc
from mcflow import barriers as ba
from mcflow import geometry as geo

from helpers import (zero, linear_x1, fd_gradient, sampled_lipschitz_bruteforce,
                     sup_norm_bound_two_solves)


def test_zero_data_barrier_slope_floor(unit_ball, grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    bar, _ = ba.build_barriers(mc.IBVP(unit_ball, zero, zero), grid32, params)
    assert bar.data_lipschitz == 0.0
    assert bar.slope >= 1.0
    assert bar.collar_width == pytest.approx(0.5)


def test_zero_data_residual_is_collar_curvature(unit_ball, grid32):
    # with unit slope the margin is the distance Laplacian, n/r on the ball,
    # minimized at the boundary side of the collar
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    bar = ba.Barrier(sign=1, slope=1.0, collar_width=0.5, data_lipschitz=0.0,
                     psi=None, collar=_collar(unit_ball, grid32, 0.5))
    res = ba.barrier_supersolution_residual(bar, mc.IBVP(unit_ball, zero, zero), grid32,
                                            params)
    assert 0.98 <= res <= 1.1


def _collar(domain, grid, rho):
    d = geo.signed_distance(domain, grid.points.reshape(-1, grid.dim)).reshape(grid.shape)
    return grid.inside & (d < rho)


def test_linear_data_barrier_certified(unit_ball, grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    bar, _ = ba.build_barriers(prob, grid32, params)
    assert bar.data_lipschitz <= 2.0
    assert np.isfinite(bar.slope)
    assert bar.collar_width == pytest.approx(0.5)
    res = ba.barrier_supersolution_residual(bar, prob, grid32, params)
    assert res >= 0.0


@pytest.mark.parametrize("domain, h, g_fn", [
    (mc.ellipse(1.0, 0.5), 1 / 32, lambda p: (1 - p[:, 0] ** 2 - 4 * p[:, 1] ** 2) * p[:, 0]),
    (mc.ellipse(1.0, 0.5), 1 / 16, lambda p: (1 - p[:, 0] ** 2 - 4 * p[:, 1] ** 2) * p[:, 1] ** 3),
    (mc.ball(1.0, dim=3), 1 / 8, lambda p: (1 - np.sum(p ** 2, axis=1)) * (p[:, 0] - p[:, 2])),
], ids=["ellipse-x1", "ellipse-x2-cubed", "ball-3d"])
def test_data_lipschitz_is_the_max_over_collar_pairs(domain, h, g_fn):
    # every pair of collar nodes within 3 spacings counts, none across the
    # lattice edge and none with an exterior node
    grid = mc.build_grid(domain, h)
    bar, _ = ba.build_barriers(mc.IBVP(domain, zero, g_fn), grid, mc.FlowParams(epsilon=0.05))
    w = np.full(grid.shape, np.nan)
    w[grid.inside] = g_fn(grid.points[grid.inside])
    oracle = sampled_lipschitz_bruteforce(w, grid, bar.collar)
    assert oracle > 0.0
    assert bar.data_lipschitz == ba.LIPSCHITZ_SAFETY * oracle


def test_weak_slope_fails_certification(unit_ball, grid32):
    # with a driving term, a tiny slope cannot beat the source: the
    # certification margin goes negative, so the slope threshold is active
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    weak = ba.Barrier(sign=1, slope=1e-6, collar_width=0.5, data_lipschitz=0.0,
                      psi=None, collar=_collar(unit_ball, grid32, 0.5))
    res = ba.barrier_supersolution_residual(weak, mc.IBVP(unit_ball, linear_x1, linear_x1),
                                            grid32, params)
    assert res < 0.0


def test_flat_boundary_domain_rejected(unit_ball):
    st = mc.smoothed_stadium(0.5, 1.5, 0.25)
    grid = mc.build_grid(st, 1 / 16)
    with pytest.raises(ba.BarrierError):
        ba.build_barriers(mc.IBVP(st, zero, zero), grid, mc.FlowParams(epsilon=0.05))


def test_speed_beyond_curvature_rejected(unit_ball, grid16):
    # n*H0 = 1 on the unit disk
    with pytest.raises(ba.BarrierError):
        ba.build_barriers(mc.IBVP(unit_ball, zero, zero), grid16,
                          mc.FlowParams(epsilon=0.05, nu=1.1))


def test_intro_bound_flagged_not_rejected(unit_ball, grid16):
    # n*H0/(n+1) = 0.5 on the unit disk: 0.6 is buildable (the flow's
    # admissible-interval warning flags it)
    params = mc.FlowParams(epsilon=0.05, nu=0.6)
    prob = mc.IBVP(unit_ball, zero, zero)
    bar, _ = ba.build_barriers(prob, grid16, params)
    res = ba.barrier_supersolution_residual(bar, prob, grid16, params)
    assert res >= 0.0


def test_barrier_vanishes_on_boundary(unit_ball, grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    bar, _ = ba.build_barriers(mc.IBVP(unit_ball, linear_x1, linear_x1), grid32, params)
    bpts = geo.boundary_points(unit_ball, 256)
    psi_b = bar.slope * geo.signed_distance(unit_ball, bpts)
    assert np.max(np.abs(psi_b)) < 1e-10


def test_barrier_dominates_shifted_data_on_collar(unit_ball, grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.0)
    g = lambda p: p[:, 0] + 0.3 * (1 - np.sum(p ** 2, axis=1))
    up, lo = ba.build_barriers(mc.IBVP(unit_ball, linear_x1, g), grid32, params)
    w = g(grid32.points[up.collar]) - linear_x1(grid32.points[up.collar])
    assert np.max(w - up.psi[up.collar]) <= 0.0
    assert np.min(w - lo.psi[lo.collar]) >= 0.0


def test_distance_hessian_radial_identity(unit_ball, grid32):
    # sum_i d_i d_ij vanishes for a true distance function
    h = grid32.spacing
    d_fn = lambda q: geo.signed_distance(unit_ball, q)
    collar = _collar(unit_ball, grid32, 0.5)
    pts = grid32.points[collar]
    grad = fd_gradient(d_fn, pts, step=h)
    worst = 0.0
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        dgrad = (fd_gradient(d_fn, pts + e, step=h) - fd_gradient(d_fn, pts - e, step=h)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(np.sum(grad * dgrad, axis=1)))))
    assert worst <= 10 * h ** 2


def test_lower_barrier_mirrors_upper(unit_ball, grid32):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    _, lo = ba.build_barriers(prob, grid32, params)
    assert lo.sign == -1
    assert np.nanmax(lo.psi) <= 0.0
    res = ba.barrier_supersolution_residual(lo, prob, grid32, params)
    assert res >= 0.0


@pytest.mark.parametrize("nu", [0.0, 0.3])
def test_barrier_carries_its_supersolution_margin(unit_ball, grid32, nu):
    # the CLI certifies both barriers by the margin they carry
    data = lambda p: p[:, 0] + 0.3 * p[:, 1] ** 2
    params = mc.FlowParams(epsilon=0.05, nu=nu)
    prob = mc.IBVP(unit_ball, data, data)
    for bar in ba.build_barriers(prob, grid32, params):
        assert bar.margin == ba.barrier_supersolution_residual(bar, prob, grid32, params)


def test_sup_norm_bound_nu_zero_is_data_plus_one(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    sb = ba.sup_norm_bound(prob, grid16, mc.FlowParams(epsilon=0.05, nu=0.0))
    assert sb.available
    assert sb.steady_max == pytest.approx(1.0, abs=1e-12)
    assert sb.value == pytest.approx(2.0, abs=1e-12)


def test_sup_norm_bound_kappa_tracks_data(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, lambda p: 2 * p[:, 0], lambda p: 2 * p[:, 0])
    sb = ba.sup_norm_bound(prob, grid16, mc.FlowParams(epsilon=0.05, nu=0.0))
    assert sb.data_shift == pytest.approx(2.0, abs=1e-12)
    assert sb.value == pytest.approx(3.0, abs=1e-12)


def test_sup_norm_bound_with_drift(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    sb = ba.sup_norm_bound(prob, grid16, mc.FlowParams(epsilon=0.05, nu=0.3))
    assert sb.available
    # steady comparison field stays near 1: value 1 + O(eps*nu)
    assert 1.0 <= sb.steady_max <= 1.05
    assert sb.value == pytest.approx(1.0 + sb.steady_max)


SUP_NORM_GRIDS = {"disk-16": (mc.ball(1.0), 1 / 16), "disk-32": (mc.ball(1.0), 1 / 32),
                  "ellipse": (mc.ellipse(1.0, 0.6), 1 / 16),
                  "spheroid": (mc.ellipse(1.0, 0.6, dim=3), 1 / 8),
                  "ball-3d": (mc.ball(1.0, dim=3), 1 / 8)}


@pytest.mark.parametrize("nu", [0.0, 0.3, -0.3, 0.45, -0.9])
@pytest.mark.parametrize("kind", list(SUP_NORM_GRIDS))
def test_sup_norm_bound_equals_the_two_solve_oracle(kind, nu):
    # the -|nu| field is the mirror 2 - v of the +|nu| one, not a second solve
    domain, h = SUP_NORM_GRIDS[kind]
    grid = mc.build_grid(domain, h)
    prob = mc.IBVP(domain, linear_x1, linear_x1)
    params = mc.FlowParams(epsilon=0.05, nu=nu)
    got = ba.sup_norm_bound(prob, grid, params)
    ref = sup_norm_bound_two_solves(prob, grid, params)
    assert got.available is ref.available is True
    for name in ("value", "steady_max", "data_shift"):
        assert getattr(got, name).hex() == getattr(ref, name).hex(), name


def test_sup_norm_bound_is_available_only_with_a_certified_mirror(unit_ball, grid16,
                                                                  monkeypatch):
    # one rate evaluation of the image at -|nu| must meet SUP_NORM_TOL
    real = ba.regularized_rhs
    nus = []

    def off(values, grid, params, bvals, ws=None):
        nus.append(params.nu)
        return real(values, grid, params, bvals, ws) + 2 * ba.SUP_NORM_TOL

    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    assert ba.sup_norm_bound(prob, grid16, params).available
    monkeypatch.setattr(ba, "regularized_rhs", off)
    assert not ba.sup_norm_bound(prob, grid16, params).available
    assert nus == [-0.3]


def test_comparison_identical_problems_zero_violation(unit_ball, grid16):
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    rep = ba.comparison_experiment(prob, prob, grid16,
                                   mc.FlowParams(epsilon=0.1), horizon=0.02)
    assert rep.max_violation == 0.0


def test_comparison_constant_shift_exact(unit_ball, grid16):
    lo = mc.IBVP(unit_ball, linear_x1, linear_x1)
    hi = mc.IBVP(unit_ball, lambda p: p[:, 0] + 1.0, lambda p: p[:, 0] + 1.0)
    rep = ba.comparison_experiment(lo, hi, grid16, mc.FlowParams(epsilon=0.1),
                                   horizon=0.05)
    assert rep.max_violation == 0.0


def test_comparison_interior_bump_ordering(unit_ball, grid16):
    lo = mc.IBVP(unit_ball, linear_x1, linear_x1)
    hi = mc.IBVP(unit_ball, linear_x1,
                 lambda p: p[:, 0] + 0.5 * (1 - np.sum(p ** 2, axis=1)))
    rep = ba.comparison_experiment(lo, hi, grid16, mc.FlowParams(epsilon=0.05),
                                   horizon=0.1)
    assert rep.max_violation <= 1e-10


def test_comparison_rejects_unordered_data(unit_ball, grid16):
    lo = mc.IBVP(unit_ball, linear_x1, linear_x1)
    hi = mc.IBVP(unit_ball, lambda p: p[:, 0] - 0.5, lambda p: p[:, 0] - 0.5)
    with pytest.raises(ValueError):
        ba.comparison_experiment(lo, hi, grid16, mc.FlowParams(epsilon=0.1), 0.01)


def test_comparison_stack_matches_pairs_run_alone(unit_ball, grid16):
    # an override step twice the stability bound lets ordering slip, so the
    # violations compared are not all zero
    params = mc.FlowParams(epsilon=0.1, nu=0.3, dt_override=0.002)
    lows, highs = zip(*(ba.random_ordered_pair(unit_ball, seed) for seed in range(6)))
    rep = ba.comparison_experiment(lows, highs, grid16, params, horizon=0.06)
    alone = [ba.comparison_experiment(lo, hi, grid16, params, horizon=0.06)
             for lo, hi in zip(lows, highs)]
    assert rep.steps == alone[0].steps == 30
    assert rep.per_pair.tolist() == [v for a in alone for v in a.per_pair.tolist()]
    assert rep.per_step.tolist() == np.max([a.per_step for a in alone], axis=0).tolist()
    assert rep.max_violation == max(a.max_violation for a in alone) > 0.0


def test_comparison_checks_every_pair_before_evolving(unit_ball, grid16, monkeypatch):
    lo = mc.IBVP(unit_ball, linear_x1, linear_x1)
    hi = mc.IBVP(unit_ball, lambda p: p[:, 0] + 1.0, lambda p: p[:, 0] + 1.0)
    monkeypatch.setattr(ba, "march", lambda *a: pytest.fail("marched unordered pairs"))
    with pytest.raises(ValueError, match="not ordered"):
        ba.comparison_experiment([lo, lo, hi], [hi, hi, lo], grid16,
                                 mc.FlowParams(epsilon=0.1), 0.01)
    for lows, highs in (([lo, lo], [hi]), ([], [])):
        with pytest.raises(ValueError, match="as many low problems as high ones"):
            ba.comparison_experiment(lows, highs, grid16, mc.FlowParams(epsilon=0.1), 0.01)


def test_random_ordered_pairs_are_ordered(unit_ball):
    rng_pts = np.random.default_rng(0).uniform(-0.7, 0.7, (200, 2))
    for seed in range(5):
        lo, hi = ba.random_ordered_pair(unit_ball, seed)
        assert np.all(hi.initial_data(rng_pts) >= lo.initial_data(rng_pts))


def test_flow_respects_upper_barrier_on_collar(unit_ball, grid16):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    bar, _ = ba.build_barriers(prob, grid16, params)
    rep = mc.solve_ibvp(prob, grid16, params, horizon=0.5,
                        snapshot_times=np.linspace(0, 0.5, 6))
    hvals = np.where(grid16.inside, grid16.points[..., 0], np.nan)
    worst = max(float(np.max((v - hvals - bar.psi)[bar.collar]))
                for _s, _t, v in rep.snapshots)
    assert worst <= 10 * grid16.spacing


def test_ring_gradient_under_barrier_slopes(unit_ball, grid16):
    params = mc.FlowParams(epsilon=0.05, nu=0.3)
    prob = mc.IBVP(unit_ball, linear_x1, linear_x1)
    up, lo = ba.build_barriers(prob, grid16, params)
    rep = mc.solve_ibvp(prob, grid16, params, horizon=0.25)
    bound = up.slope + lo.slope + 1.0 + 10 * grid16.spacing
    assert float(np.max(rep.sup_grad_ring)) <= bound


@pytest.mark.parametrize("nu", [0.0, 0.3, -0.2])
@pytest.mark.parametrize("domain, h", [
    (mc.ball(1.0), 1 / 16), (mc.ellipse(1.0, 0.5), 1 / 16),
    (mc.ball(1.0, dim=3), 1 / 8), (mc.ellipse(1.0, 0.6, dim=3), 1 / 8),
], ids=["ball-2d", "ellipse-2d", "ball-3d", "ellipse-3d"])
def test_lower_barrier_is_the_mirrored_upper_barrier(domain, h, nu):
    # (u, nu) -> (-u, -nu) maps the problem's lower barrier onto the upper
    # barrier of the mirrored problem, bit for bit up to the sign of psi
    grid = mc.build_grid(domain, h)
    axes = np.asarray(domain.half_extents)
    h_fn = lambda p: p[:, 0] + 0.3 * p[:, 1] ** 2
    # g - h >= 0 vanishes on the boundary: a bump for the data scan, plus a
    # rise within 0.01 of the boundary that only the upper slope must top
    g_fn = lambda p: h_fn(p) + 0.3 * np.maximum(0.0, 1 - np.sum((p / axes) ** 2, axis=1)) \
        + 0.2 * np.minimum(1.0, geo.signed_distance(domain, p) / 0.01)
    _, lo = ba.build_barriers(mc.IBVP(domain, h_fn, g_fn), grid,
                              mc.FlowParams(epsilon=0.05, nu=nu))
    mirrored, _ = ba.build_barriers(mc.IBVP(domain, lambda p: -h_fn(p), lambda p: -g_fn(p)),
                                    grid, mc.FlowParams(epsilon=0.05, nu=-nu))
    assert (lo.sign, mirrored.sign) == (-1, 1)
    for name in ("slope", "margin", "data_lipschitz", "collar_width"):
        assert getattr(lo, name).hex() == getattr(mirrored, name).hex(), name
    assert lo.data_lipschitz > 0.0
    assert np.array_equal(lo.collar, mirrored.collar)
    assert lo.psi[grid.inside].tobytes() == (-mirrored.psi[grid.inside]).tobytes()
    assert np.isnan(lo.psi[~grid.inside]).all()


@pytest.mark.parametrize("nu, solved", [(0.0, []), (0.3, [0.3])])
def test_build_barriers_solves_each_steady_problem_once(unit_ball, grid16, monkeypatch,
                                                        nu, solved):
    # one flow bound serves both signs: sup_norm_bound's one steady solve
    # at nu != 0, the data range alone at nu = 0
    real = ba.relax_to_steady
    nus = []

    def counted(problem, grid, params, *args, **kwargs):
        nus.append(params.nu)
        return real(problem, grid, params, *args, **kwargs)

    monkeypatch.setattr(ba, "relax_to_steady", counted)
    ba.build_barriers(mc.IBVP(unit_ball, linear_x1, linear_x1), grid16,
                      mc.FlowParams(epsilon=0.05, nu=nu))
    assert sorted(nus) == solved


def test_comparison_draws_the_boundary_sample_once_per_domain(unit_ball, grid16, monkeypatch):
    drawn = []
    real = ba.boundary_points
    monkeypatch.setattr(ba, "boundary_points", lambda d, n: drawn.append(d) or real(d, n))
    lows, highs = zip(*(ba.random_ordered_pair(unit_ball, seed) for seed in range(4)))
    ba.comparison_experiment(lows, highs, grid16, mc.FlowParams(epsilon=0.1), 0.01)
    assert drawn == [unit_ball]
