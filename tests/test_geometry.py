import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mcflow as mc
from mcflow import geometry as geo

from helpers import (cut_mask, cut_points, fd_gradient, fd_laplacian, stadium_boundary_2d_loop,
                     stadium_cuts_per_family)


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


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.0, 0.6), (1.0, 0.25)])
def test_ellipse_distance_on_the_major_axis(a, b):
    c = a * a - b * b
    # inside the evolute |u| < c/a: the closest point is x = a^2 u/c off the axis
    u = np.array([0.0, 0.3, -0.6, 0.9]) * c / a
    x = a * a * np.abs(u) / c
    inner = np.hypot(np.abs(u) - x, b * np.sqrt(1 - (x / a) ** 2))
    # outside it, inside and outside the ellipse: the vertex (a, 0)
    w = np.array([1.05 * c / a, -0.5 * (c / a + a), 1.5 * a, -3.0 * a])
    for dim in (2, 3):
        domain = mc.ellipse(a, b, (0.25,) * dim, dim)
        pts = np.zeros((8, dim)) + 0.25
        pts[:, 0] += np.concatenate([u, w])
        ref = np.concatenate([inner, a - np.abs(w)])
        assert geo.signed_distance(domain, pts) == pytest.approx(ref, abs=1e-15)
        assert geo.signed_distance(domain, domain.center) == b


@pytest.mark.parametrize("dim", [2, 3])
def test_round_ellipse_distance_is_the_balls(dim):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, size=(2000, dim))
    pts[:4] = 0.0
    pts[1, 0] = 0.7                      # on the axis, inside
    pts[2, 0] = -1.2                     # on the axis, outside
    pts[3, 1] = 1e-9                     # next to the centre, off the axis
    d = geo.signed_distance(mc.ellipse(1.0, 1.0, dim=dim), pts)
    assert d == pytest.approx(geo.signed_distance(mc.ball(1.0, dim=dim), pts), abs=1e-12)
    assert d[0] == 1.0


def test_ellipse_distance_near_the_axis_inside_the_evolute():
    # the distance is 1-Lipschitz: off the axis by v it is within v of the axis
    # point's, which the halvings must resolve where s + b^2 is as small as b v
    a, b = 2.0, 1.0
    x = a * a * 1.0 / (a * a - b * b)
    axis = np.hypot(1.0 - x, b * np.sqrt(1 - (x / a) ** 2))
    v = 10.0 ** -np.arange(4.0, 15.0)
    d = geo.signed_distance(mc.ellipse(a, b), np.column_stack([np.ones_like(v), v]))
    assert np.all(np.abs(d - axis) <= v + 1e-15)


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


@pytest.mark.parametrize("count", [37, 100, 512])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["ball", "ellipse", "smoothed-stadium"])
def test_boundary_points_count_and_distance(kind, dim, count):
    center = (0.1, -0.2, 0.05)[:dim]
    domain = {"ball": lambda: mc.ball(0.8, center, dim),
              "ellipse": lambda: mc.ellipse(1.0, 0.5, center, dim),
              "smoothed-stadium": lambda: mc.smoothed_stadium(0.5, 1.5, 0.25, center,
                                                              dim)}[kind]()
    pts = geo.boundary_points(domain, count)
    assert pts.shape == (count, dim)
    assert np.max(np.abs(geo.signed_distance(domain, pts))) <= 1e-12
    if dim == 3 and kind == "smoothed-stadium":
        # every eighth of the azimuths about the axis holds a point
        rel = pts - np.asarray(center)
        octant = np.floor(np.arctan2(rel[:, 1], rel[:, 0]) / (np.pi / 4)) % 8
        assert set(octant) == set(range(8))


def test_curvature_bounds_closed_forms():
    assert geo.boundary_mean_curvature_bound(mc.ball(1.0)) == pytest.approx(1.0)
    assert geo.boundary_mean_curvature_bound(mc.ball(2.0, dim=3)) == pytest.approx(0.5)
    assert geo.boundary_mean_curvature_bound(mc.ellipse(2.0, 1.0)) == pytest.approx(0.25)
    assert geo.boundary_mean_curvature_bound(mc.ellipse(1.0, 1.0, dim=3)) == 1.0


def test_ellipse_curvature_bound_matches_dense_sampling():
    a, b = 2.0, 1.0
    t = np.linspace(0, 2 * np.pi, 100001)
    kappa = a * b / (a ** 2 * np.sin(t) ** 2 + b ** 2 * np.cos(t) ** 2) ** 1.5
    assert geo.boundary_mean_curvature_bound(mc.ellipse(a, b)) == pytest.approx(
        kappa.min(), abs=1e-9)


@pytest.mark.parametrize("a, b", [(1.0, 0.6), (2.0, 1.0), (1.0, 0.25), (1.3, 1.2)])
def test_spheroid_curvature_bound_is_the_equator_value(a, b):
    h0 = geo.boundary_mean_curvature_bound(mc.ellipse(a, b, dim=3))
    assert h0 == 0.5 * (b / a ** 2 + 1 / b)
    # the meridian (a cos t, b sin t), poles and equator included
    t = np.linspace(0, np.pi, 2_000_001)
    w = a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2
    h = 0.5 * (a * b / w ** 1.5 + a / (b * np.sqrt(w)))
    assert h0 <= h.min()


def test_stadium_flat_sides_force_zero_bound():
    st = mc.smoothed_stadium(0.5, 1.5, 0.25)
    assert geo.boundary_mean_curvature_bound(st) == 0.0
    # in 3D the end disks are flat, whatever the side
    assert geo.boundary_mean_curvature_bound(mc.smoothed_stadium(0.5, 1.5, 0.25, dim=3)) == 0.0
    assert geo.boundary_mean_curvature_bound(mc.smoothed_stadium(0.5, 0.5, 0.25, dim=3)) == 0.0
    # in 2D a full rounding still leaves two straight sides
    assert geo.boundary_mean_curvature_bound(mc.smoothed_stadium(0.5, 1.5, 0.5)) == 0.0


def test_capsule_curvature_bound_is_its_cylinder_side():
    # full rounding in 3D: a cylinder of radius 0.5 (H = 1) capped by hemispheres (H = 2)
    capsule = mc.smoothed_stadium(0.5, 1.5, 0.5, dim=3)
    assert geo.boundary_mean_curvature_bound(capsule) == 1.0
    lo, hi = geo.admissible_nu_interval(capsule)
    assert (lo, hi) == pytest.approx((-2 / 3, 2 / 3))
    # no straight side either: the disk and the ball
    assert geo.boundary_mean_curvature_bound(mc.smoothed_stadium(0.5, 0.5, 0.5)) == 2.0
    assert geo.boundary_mean_curvature_bound(mc.smoothed_stadium(0.5, 0.5, 0.5, dim=3)) == 2.0


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
    a, b = 1.0, 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g = mc.build_grid(mc.ellipse(a, b), 1 / 32)
    for axis in range(2):
        for side in range(2):
            pts = cut_points(g, axis, side)
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


def _quadric(domain, pts):
    """(x1/a)^2 + sum_i (x_i/b)^2 of points taken relative to the centre."""
    return np.sum(((pts - np.asarray(domain.center)) / domain.half_extents) ** 2, axis=1)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from((2, 3)),
       center=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
       semi_major=st.floats(0.8, 1.2), ratio=st.floats(0.15, 1.0),
       fraction=st.floats(1 / 16, 1 / 2))
# a lattice node one ulp inside the tip: its vertical line is tangent to the
# boundary within round-off, and its horizontal cut is clamped at 1e-12
@example(dim=2, center=[0.0, 0.0, 0.0], semi_major=0.875, ratio=1 / 3, fraction=0.5)
# lattice nodes on the boundary to round-off, at a signed distance of exactly 0
@example(dim=3, center=[0.0, 0.0, 0.0], semi_major=1.0, ratio=0.25, fraction=1 / 12)
def test_ellipse_cuts_are_the_roots_of_the_quadric(dim, center, semi_major, ratio, fraction):
    domain = mc.ellipse(semi_major, ratio * semi_major, center[:dim], dim)
    h = fraction * domain.semi_minor
    g = mc.build_grid(domain, h)
    c = np.asarray(domain.center)
    semi = domain.half_extents
    for axis in range(dim):
        for side in range(2):
            mask = cut_mask(g, axis, side)
            sign = 1.0 if side == 1 else -1.0
            step = np.zeros(dim)
            step[axis] = sign * h
            pts = g.points[mask]
            theta = g.theta[axis, side][mask]
            # oracle: the bisection the ball and the stadium use, on the quadric test
            ref = np.clip(geo._bisect_crossing(lambda q: geo._inside_ellipse(domain, q - c),
                                               pts, step), 1e-12, 1.0)
            # the quadric is known to a few ulp, so its root only to 8 eps over
            # its slope along the line: loose only where the line is tangent
            slope = 2 * h * np.abs(pts[:, axis] + sign * ref * h - c[axis]) / semi[axis] ** 2
            assert np.all(np.abs(theta - ref) <= 1e-13 + 8 * np.finfo(float).eps / slope)
            free = theta > 1e-12        # a clamped cut sits off the quadric by the clamp
            cut = cut_points(g, axis, side)[free]
            assert np.abs(_quadric(domain, cut) - 1.0).max(initial=0.0) <= 1e-13
    # signed_distance reads its sign off the same quadric test; only a node on
    # the boundary to round-off projects to a distance of exactly 0, which
    # carries no sign, and there the quadric decides
    d = geo.signed_distance(domain, g.points.reshape(-1, dim)).reshape(g.shape)
    signed = d != 0
    assert np.array_equal(g.inside[signed], d[signed] > 0)
    eps = np.finfo(float).eps
    assert np.all(np.abs(_quadric(domain, g.points[~signed]) - 1.0) <= 4 * eps)


BALLS = [(mc.ball(1.0), 1 / 32), (mc.ball(1.0, (0.013, -0.021)), 1 / 32),
         (mc.ball(1.0, dim=3), 1 / 16)]


@pytest.mark.parametrize("domain, h", [(mc.ellipse(1.0, 0.5, (0.013, -0.021)), 1 / 16),
                                       (mc.ellipse(1.0, 0.6, dim=3), 1 / 16)] + BALLS)
def test_ellipse_grid_builds_without_a_projection(monkeypatch, domain, h):
    def refuse(*args):
        raise AssertionError("the grid build projected onto the ellipse or bisected")
    monkeypatch.setattr(geo, "_project_ellipse", refuse)
    monkeypatch.setattr(geo, "_bisect_crossing", refuse)
    g = mc.build_grid(domain, h)
    assert g.near_boundary.any() and np.isfinite(g.theta).any()


@pytest.mark.parametrize("domain, h", BALLS)
def test_ball_cuts_are_the_roots_of_the_sphere(domain, h):
    g = mc.build_grid(domain, h)
    c = np.asarray(domain.center)
    for axis in range(domain.dim):
        for side in range(2):
            mask = cut_mask(g, axis, side)
            sign = 1.0 if side == 1 else -1.0
            step = np.zeros(domain.dim)
            step[axis] = sign * h
            pts = g.points[mask]
            # oracle: the bisection of the ball's exact signed distance
            ref = np.clip(geo._bisect_crossing(lambda q: geo.signed_distance(domain, q) > 0,
                                               pts, step), 1e-12, 1.0)
            # both know the crossing to a few ulp over the slope along the line, as
            # for the ellipse: loose only where the line is tangent, as at the node
            # (0.013, -1.021) of the off-centre disk, on the circle to round-off
            slope = 2 * h * np.abs(pts[:, axis] + sign * ref * h - c[axis]) / domain.radius ** 2
            theta = g.theta[axis, side][mask]
            assert np.all(np.abs(theta - ref) <= 1e-13 + 8 * np.finfo(float).eps / slope)
            cut = cut_points(g, axis, side)
            assert np.abs(np.linalg.norm(cut - c, axis=1) - domain.radius).max() <= 1e-13


@pytest.mark.parametrize("domain, digest", [
    (mc.smoothed_stadium(0.5, 1.5, 0.25),
     "e1f5319d90692f9b9086915c6a9a3c833766d0ae97bf4bb07d6a0810f38c6118"),
])
def test_bisected_cuts_stay_bit_identical(domain, digest):
    g = mc.build_grid(domain, 1 / 32)
    assert hashlib.sha256(g.theta.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("domain, h", [
    (mc.smoothed_stadium(0.5, 1.5, 0.25, dim=3), 1 / 16),
    (mc.smoothed_stadium(0.5, 1.5, 0.5, (0.013, -0.021, 0.007), dim=3), 1 / 8),
    (mc.smoothed_stadium(0.5, 1.5, 0.25, (0.013, -0.021)), 1 / 16),
    (mc.smoothed_stadium(0.5, 1.5, 0.25, (0.013, -0.021)), 1 / 32),
])
def test_stadium_cuts_bisect_once_and_equal_the_per_family_oracle(monkeypatch, domain, h):
    calls = []
    bisect = geo._bisect_crossing

    def counted(*args):
        calls.append(len(args[1]))
        return bisect(*args)

    monkeypatch.setattr(geo, "_bisect_crossing", counted)
    g = mc.build_grid(domain, h)
    assert calls == [np.isfinite(g.theta).sum()]
    assert stadium_cuts_per_family(g).tobytes() == g.theta.tobytes()


@pytest.mark.parametrize("count", [1, 7, 100, 512, 1000])
@pytest.mark.parametrize("dim", [2, 3])
def test_stadium_boundary_points_equal_the_loop_oracle(monkeypatch, dim, count):
    # the non-dyadic extents make the pieces' arithmetic round, so a
    # regrouped sum shows; the full rounding leaves no top or bottom
    for domain in (mc.smoothed_stadium(0.3, 0.7, 0.1, (0.1, -0.2, 0.05)[:dim], dim),
                   mc.smoothed_stadium(0.5, 1.5, 0.5, dim=dim)):
        pts = geo.boundary_points(domain, count)
        monkeypatch.setattr(geo, "_stadium_boundary_2d", stadium_boundary_2d_loop)
        assert geo.boundary_points(domain, count).tobytes() == pts.tobytes()
        monkeypatch.undo()
