import warnings

import numpy as np
import pytest

import mcflow as mc
from mcflow import geometry as geo

from helpers import fd_gradient, fd_laplacian


def test_ball_distance_center_and_boundary():
    b = mc.ball(1.0)
    assert geo.signed_distance(b, (0.0, 0.0)) == pytest.approx(1.0)
    assert geo.signed_distance(b, (1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert geo.signed_distance(b, (2.0, 0.0)) == pytest.approx(-1.0)


def test_ellipse_distance_center():
    # nearest boundary point from the center is the minor vertex
    e = mc.ellipse(2.0, 1.0)
    assert geo.signed_distance(e, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-10)


def test_ellipse_distance_inside_evolute():
    # (1, 0) projects to cos(t) = 2/3 on the ellipse, not to the vertex
    e = mc.ellipse(2.0, 1.0)
    d = geo.signed_distance(e, (1.0, 0.0))
    assert d == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-10)


def test_ellipse_distance_against_dense_sampling_oracle():
    e = mc.ellipse(2.0, 1.0)
    bd = geo.boundary_points(e, 400000)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.5, 2.5, size=(50, 2))
    inside = (pts[:, 0] / 2) ** 2 + pts[:, 1] ** 2 < 1.0
    for p, s in zip(pts, inside):
        ref = np.min(np.linalg.norm(bd - p, axis=1)) * (1.0 if s else -1.0)
        assert geo.signed_distance(e, p) == pytest.approx(ref, abs=1e-8)


def test_stadium_distance_exact_formula():
    st = mc.smoothed_stadium(0.5, 1.5, 0.25)
    # deep inside: distance to the nearest flat side
    assert geo.signed_distance(st, (0.0, 0.0)) == pytest.approx(0.5)
    # outside past a corner arc
    p = np.array([0.5, 1.5])
    corner = np.array([0.25, 1.25])
    assert geo.signed_distance(st, p) == pytest.approx(0.25 - np.linalg.norm(p - corner))


def test_curvature_bounds_closed_forms():
    assert geo.boundary_mean_curvature_bound(mc.ball(1.0)) == pytest.approx(1.0)
    assert geo.boundary_mean_curvature_bound(mc.ball(2.0, dim=3)) == pytest.approx(0.5)
    assert geo.boundary_mean_curvature_bound(mc.ellipse(2.0, 1.0)) == pytest.approx(0.25)


def test_ellipse_curvature_bound_matches_dense_sampling():
    a, b = 2.0, 1.0
    t = np.linspace(0, 2 * np.pi, 100001)
    kappa = a * b / (a ** 2 * np.sin(t) ** 2 + b ** 2 * np.cos(t) ** 2) ** 1.5
    assert geo.boundary_mean_curvature_bound(mc.ellipse(a, b)) == pytest.approx(
        kappa.min(), abs=1e-9)


def test_stadium_flat_sides_force_zero_bound():
    st = mc.smoothed_stadium(0.5, 1.5, 0.25)
    assert geo.boundary_mean_curvature_bound(st) == 0.0


def test_admissible_interval_values():
    lo, hi = geo.admissible_nu_interval(mc.ball(1.0))
    assert (lo, hi) == pytest.approx((-0.5, 0.5))
    lo, hi = geo.admissible_nu_interval(mc.ball(2.0, dim=3))
    assert (lo, hi) == pytest.approx((-1 / 3, 1 / 3))
    # collapses with the curvature bound
    lo, hi = geo.admissible_nu_interval(mc.smoothed_stadium(0.5, 1.5, 0.25))
    assert (lo, hi) == (0.0, 0.0)


def test_admissible_interval_symmetric_and_monotone():
    widths = []
    for r in (0.5, 1.0, 2.0, 4.0):  # H0 = 1/r decreasing
        lo, hi = geo.admissible_nu_interval(mc.ball(r))
        assert lo == -hi
        widths.append(hi)
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_build_grid_unit_ball_coarse_counts():
    g = mc.build_grid(mc.ball(1.0), 0.5)
    assert g.shape == (5, 5)
    assert g.n_inside == 9          # nodes strictly inside the circle
    assert g.n_interior == 1        # only the center has all neighbors inside


def test_build_grid_rejects_too_coarse():
    with pytest.raises(mc.CoarseGridError):
        mc.build_grid(mc.ball(1.0), 2.0)
    with pytest.raises(mc.CoarseGridError):
        mc.build_grid(mc.ball(1.0), -0.1)


def test_grid_coarse_warning_flag():
    assert mc.build_grid(mc.ball(1.0), 0.25).coarse_warning
    assert not mc.build_grid(mc.ball(1.0), 1 / 16).coarse_warning


def test_theta_boundary_hit_at_neighbor():
    # node (0.5, 0) with neighbor (1, 0) exactly on the unit circle
    g = mc.build_grid(mc.ball(1.0), 0.5)
    idx = tuple(np.argwhere((np.abs(g.points[..., 0] - 0.5) < 1e-12)
                            & (np.abs(g.points[..., 1]) < 1e-12))[0])
    assert g.theta[0, 1][idx] == pytest.approx(1.0, abs=1e-9)


def test_ellipse_grid_builds_without_warnings():
    # the projection's Newton quotient is guarded, not evaluated as 0/0
    a, b = 1.0, 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g = mc.build_grid(mc.ellipse(a, b), 1 / 32)
    for axis in range(2):
        for side in range(2):
            pts = g.cut_points(axis, side)
            assert len(pts)
            assert np.abs((pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2 - 1.0).max() <= 1e-12


def test_classification_consistent_with_distance(grid32, unit_ball):
    d = geo.signed_distance(unit_ball, grid32.points.reshape(-1, 2)).reshape(grid32.shape)
    assert np.all(d[grid32.inside] > 0)
    assert np.all(d[~grid32.inside] <= 0)
    # interior nodes have all axis neighbors inside
    ok = grid32.inside.copy()
    for ax in (0, 1):
        ok &= np.roll(grid32.inside, 1, ax) & np.roll(grid32.inside, -1, ax)
    assert np.array_equal(grid32.interior, ok & grid32.interior | grid32.interior)
    assert np.all(grid32.interior <= ok)


def test_theta_fractions_in_unit_interval(grid32):
    th = grid32.theta[np.isfinite(grid32.theta)]
    assert np.all(th > 0) and np.all(th <= 1.0)


def test_distance_gradient_unit_norm_away_from_center(grid32, unit_ball):
    pts = grid32.points[grid32.interior]
    pts = pts[np.linalg.norm(pts, axis=1) > 0.2]
    g = fd_gradient(lambda q: geo.signed_distance(unit_ball, q), pts)
    norms = np.linalg.norm(g, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-6


def test_distance_laplacian_bound_on_collar(grid32, unit_ball):
    # collar nodes d < rho < R: discrete Laplacian of d at grid spacing
    h = grid32.spacing
    d = geo.signed_distance(unit_ball, grid32.points.reshape(-1, 2)).reshape(grid32.shape)
    collar = grid32.inside & (d < 0.5) & (d > 2 * h)
    pts = grid32.points[collar]
    lap = fd_laplacian(lambda q: geo.signed_distance(unit_ball, q), pts, h)
    n = unit_ball.dim - 1
    h0 = geo.boundary_mean_curvature_bound(unit_ball)
    assert np.all(lap <= -n * h0 + 10 * h ** 2)


def test_projection_error_carries_iterate():
    err = geo.ProjectionError("x", last_iterate=np.array([1.0]))
    assert err.last_iterate is not None


def test_domain_validation():
    with pytest.raises(geo.GeometryError):
        mc.ball(-1.0)
    with pytest.raises(geo.GeometryError):
        mc.ellipse(1.0, 2.0)          # needs a >= b
    with pytest.raises(geo.GeometryError):
        mc.smoothed_stadium(0.5, 1.5, 0.75)   # rounding exceeds half-width
    with pytest.raises(geo.GeometryError):
        mc.ball(1.0, dim=4)


def test_grid_3d_ball_classification():
    g = mc.build_grid(mc.ball(1.0, dim=3), 0.25)
    d = geo.signed_distance(mc.ball(1.0, dim=3), g.points.reshape(-1, 3)).reshape(g.shape)
    assert np.all(d[g.inside] > 0)
    assert g.n_interior > 0
    assert g.domain_measure() == pytest.approx(4 / 3 * np.pi, rel=0.05)
