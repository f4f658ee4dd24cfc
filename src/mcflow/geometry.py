"""Analytic convex domains, signed distances, curvature bounds and grid embedding.

Domains are described analytically (no mesh input): the ball and the
smoothed stadium have closed-form signed distances, the ellipse uses a
damped-Newton projection onto its boundary parametrization.  All functions
are pure and vectorized over point arrays of shape (N, dim).

The grid build never projects: the ellipse (and spheroid) classifies nodes
by its quadric test and cuts grid lines at the closed-form root of the
quadric; the ball and the stadium classify by the sign of their exact
signed distance and bisect it for the cuts.
"""

from dataclasses import dataclass

import numpy as np

SUPPORTED_DIMS = (2, 3)
PROJECTION_TOL = 1e-12
PROJECTION_MAX_ITER = 64


class GeometryError(ValueError):
    """Invalid domain description."""


class ProjectionError(RuntimeError):
    """Boundary projection failed to converge; carries the last iterate."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class CoarseGridError(ValueError):
    """Requested grid spacing too coarse for the domain."""


@dataclass(frozen=True)
class DomainSpec:
    """A smooth convex bounded domain: ball, ellipse or smoothed stadium.

    The stadium is the corner_radius-rounding of a box with half-extents
    half_width (transverse axes) and straight_half_length (last axis); its
    flat sides realize a cylindrical boundary section, so its curvature
    lower bound is 0.
    """

    kind: str
    center: tuple
    dim: int
    radius: float = 0.0
    semi_major: float = 0.0
    semi_minor: float = 0.0
    half_width: float = 0.0
    straight_half_length: float = 0.0
    corner_radius: float = 0.0

    def __post_init__(self):
        if self.dim not in SUPPORTED_DIMS:
            raise GeometryError(f"ambient dimension must be one of {SUPPORTED_DIMS}, got {self.dim}")
        if len(self.center) != self.dim:
            raise GeometryError("center has wrong dimension")
        if self.kind == "ball":
            if self.radius <= 0:
                raise GeometryError("ball radius must be positive")
        elif self.kind == "ellipse":
            if self.semi_minor <= 0 or self.semi_major < self.semi_minor:
                raise GeometryError("ellipse needs semi_major >= semi_minor > 0")
        elif self.kind == "smoothed-stadium":
            if self.half_width <= 0 or self.straight_half_length <= 0:
                raise GeometryError("stadium extents must be positive")
            if not 0 < self.corner_radius <= self.half_width:
                raise GeometryError("corner radius must lie in (0, half_width]")
            if self.corner_radius > self.straight_half_length:
                raise GeometryError("corner radius exceeds straight half-length")
        else:
            raise GeometryError(f"unknown domain kind {self.kind!r}")

    @property
    def shape_parameters(self) -> tuple:
        if self.kind == "ball":
            return (self.radius,)
        if self.kind == "ellipse":
            return (self.semi_major, self.semi_minor)
        return (self.half_width, self.straight_half_length, self.corner_radius)

    @property
    def half_extents(self) -> np.ndarray:
        """Half-extents of the tight axis-aligned bounding box."""
        if self.kind == "ball":
            return np.full(self.dim, self.radius)
        if self.kind == "ellipse":
            out = np.full(self.dim, self.semi_minor)
            out[0] = self.semi_major
            return out
        out = np.full(self.dim, self.half_width)
        out[-1] = self.straight_half_length
        return out


def ball(radius: float, center=None, dim: int = 2) -> DomainSpec:
    center = (0.0,) * dim if center is None else tuple(center)
    return DomainSpec("ball", center, dim, radius=radius)


def ellipse(semi_major: float, semi_minor: float, center=None, dim: int = 2) -> DomainSpec:
    """Planar ellipse; in 3D the spheroid with axes (a, b, b)."""
    center = (0.0,) * dim if center is None else tuple(center)
    return DomainSpec("ellipse", center, dim, semi_major=semi_major, semi_minor=semi_minor)


def smoothed_stadium(half_width: float, straight_half_length: float,
                     corner_radius: float, center=None, dim: int = 2) -> DomainSpec:
    center = (0.0,) * dim if center is None else tuple(center)
    return DomainSpec("smoothed-stadium", center, dim, half_width=half_width,
                      straight_half_length=straight_half_length, corner_radius=corner_radius)


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    return pts


def _ellipse_profile_point(pts: np.ndarray):
    """Reduce to the planar problem: (axial coord, transverse radius)."""
    u = pts[:, 0]
    v = np.sqrt(np.sum(pts[:, 1:] ** 2, axis=1))
    return u, v


def _inside_ellipse(domain: DomainSpec, pts: np.ndarray) -> np.ndarray:
    """Quadric test (u/a)^2 + (v/b)^2 < 1 on centred points: the ellipse's inside."""
    u, v = _ellipse_profile_point(pts)
    return (u / domain.semi_major) ** 2 + (v / domain.semi_minor) ** 2 < 1.0


def _project_ellipse(a: float, b: float, u: np.ndarray, v: np.ndarray):
    """Project planar points onto the ellipse (a cos t, b sin t), first quadrant.

    Bisection-safeguarded damped Newton on the stationarity condition
    f(t) = (a^2-b^2) cos t sin t - u a sin t + v b cos t of the squared
    distance.  f(0) >= 0 >= f(pi/2) for u, v >= 0, so the bracket always
    holds; the safeguard matters for points near the major axis inside the
    evolute, where plain Newton is trapped at the wrong critical point.
    """
    u = np.abs(u)
    v = np.abs(v)

    def f_of(t):
        ct, st = np.cos(t), np.sin(t)
        return (a * a - b * b) * ct * st - u * a * st + v * b * ct

    lo = np.zeros_like(u)
    hi = np.full_like(u, np.pi / 2)
    # start strictly inside the bracket: endpoint equalities f(0)=0 or
    # f(pi/2)=0 would otherwise collapse the bracket at a distance maximum
    t = np.clip(np.arctan2(a * v, b * u), 1e-9, np.pi / 2 - 1e-9)
    width = hi - lo
    for _ in range(PROJECTION_MAX_ITER):
        ct, st = np.cos(t), np.sin(t)
        f = (a * a - b * b) * ct * st - u * a * st + v * b * ct
        fp = (a * a - b * b) * (ct * ct - st * st) - u * a * ct - v * b * st
        lo = np.where(f > 0, t, lo)
        hi = np.where(f > 0, hi, t)
        newton = t - np.divide(f, fp, out=np.zeros_like(f), where=np.abs(fp) > 1e-300)
        inside = (newton > lo) & (newton < hi)
        t = np.where(inside, newton, 0.5 * (lo + hi))
        width = hi - lo
        if width.size and width.max() < PROJECTION_TOL and np.abs(f_of(t)).max() < PROJECTION_TOL * max(a, 1.0):
            break
    else:
        if width.size and width.max() >= 1e-9:
            bad = int(np.argmax(width))
            raise ProjectionError(
                f"ellipse projection did not converge at point index {bad}",
                last_iterate=t,
            )
    return a * np.cos(t), b * np.sin(t)


def _stadium_signed_distance(domain: DomainSpec, pts: np.ndarray) -> np.ndarray:
    # exact SDF of the rounded box: offset of the shrunken box by corner_radius
    rc = domain.corner_radius
    half = domain.half_extents - rc
    if domain.dim == 2:
        q = np.abs(pts) - half
    else:
        # rounded cylinder: reduce (x1, x2, x3) -> (|x'|, x3)
        rho = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        q = np.stack([rho - half[0], np.abs(pts[:, 2]) - half[2]], axis=1)
    outside = np.sqrt(np.sum(np.maximum(q, 0.0) ** 2, axis=1))
    inside = np.minimum(np.max(q, axis=1), 0.0)
    return rc - (outside + inside)


def signed_distance(domain: DomainSpec, x) -> np.ndarray:
    """Signed distance to the domain boundary, positive inside.

    Exact for ball and smoothed stadium; Newton projection for the ellipse
    (accurate to ~1e-12).  Accepts a single point or an (N, dim) array.
    """
    pts = _as_points(x) - np.asarray(domain.center)
    if domain.kind == "ball":
        d = domain.radius - np.sqrt(np.sum(pts ** 2, axis=1))
    elif domain.kind == "smoothed-stadium":
        d = _stadium_signed_distance(domain, pts)
    else:
        u, v = _ellipse_profile_point(pts)
        bu, bv = _project_ellipse(domain.semi_major, domain.semi_minor, u, v)
        dist = np.sqrt((np.abs(u) - bu) ** 2 + (np.abs(v) - bv) ** 2)
        d = np.where(_inside_ellipse(domain, pts), dist, -dist)
    return d if np.asarray(x).ndim > 1 else float(d[0])


def boundary_points(domain: DomainSpec, count: int) -> np.ndarray:
    """Deterministic quasi-uniform sample of the boundary, shape (count, dim)."""
    c = np.asarray(domain.center)
    if domain.dim == 2:
        t = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        if domain.kind == "ball":
            pts = domain.radius * np.stack([np.cos(t), np.sin(t)], axis=1)
        elif domain.kind == "ellipse":
            pts = np.stack([domain.semi_major * np.cos(t), domain.semi_minor * np.sin(t)], axis=1)
        else:
            pts = _stadium_boundary_2d(domain, count)
        return pts + c
    # 3D: Fibonacci-style sphere sampling mapped through the profile
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    st = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    dirs = np.stack([z, st * np.cos(phi), st * np.sin(phi)], axis=1)
    if domain.kind == "ball":
        return domain.radius * dirs + c
    if domain.kind == "ellipse":
        scale = np.array([domain.semi_major, domain.semi_minor, domain.semi_minor])
        # scaled sphere is not the exact spheroid normal map, but the image
        # lies on the surface, which is all sampling needs
        return dirs * scale + c
    # rounded cylinder: sweep the 2D profile around the axis
    prof = _stadium_boundary_2d(_profile_stadium(domain), max(count // 36, 8))
    ang = np.linspace(0.0, 2 * np.pi, 36, endpoint=False)
    rho, zax = prof[:, 0], prof[:, 1]
    pts = []
    for aa in ang:
        pts.append(np.stack([rho * np.cos(aa), rho * np.sin(aa), zax], axis=1))
    out = np.concatenate(pts, axis=0)
    return out[:count] + c if len(out) >= count else out + c


def _profile_stadium(domain: DomainSpec) -> DomainSpec:
    return smoothed_stadium(domain.half_width, domain.straight_half_length,
                            domain.corner_radius, dim=2)


def _stadium_boundary_2d(domain: DomainSpec, count: int) -> np.ndarray:
    """Arc-length-uniform boundary points of the rounded box, centered frame."""
    a, L, rc = domain.half_width, domain.straight_half_length, domain.corner_radius
    wx, wy = a - rc, L - rc  # straight half-lengths of the two side families
    seg = [2 * wy, 2 * wy, 2 * wx, 2 * wx, 2 * np.pi * rc]
    total = sum(seg)
    s = (np.arange(count) + 0.5) / count * total
    pts = np.empty((count, 2))
    for k, sk in enumerate(s):
        if sk < 2 * wy:  # right side
            pts[k] = (a, -wy + sk)
        elif sk < 4 * wy:  # left side
            pts[k] = (-a, -wy + (sk - 2 * wy))
        elif sk < 4 * wy + 2 * wx:  # top
            pts[k] = (-wx + (sk - 4 * wy), L)
        elif sk < 4 * wy + 4 * wx:  # bottom
            pts[k] = (-wx + (sk - 4 * wy - 2 * wx), -L)
        else:  # four corner arcs, parametrized jointly
            u = (sk - 4 * wy - 4 * wx) / rc
            quadrant = int(u // (np.pi / 2)) % 4
            ang = u - quadrant * (np.pi / 2)
            cx = (wx, -wx, -wx, wx)[quadrant]
            cy = (wy, wy, -wy, -wy)[quadrant]
            base = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)[quadrant]
            pts[k] = (cx + rc * np.cos(base + ang), cy + rc * np.sin(base + ang))
    return pts


def boundary_mean_curvature_bound(domain: DomainSpec, samples: int = 20000) -> float:
    """Infimum over the boundary of the mean of the principal curvatures.

    Closed form for ball (1/R) and planar ellipse (b/a^2); sampled minimum
    for the spheroid and the smoothed stadium (whose flat sides force 0).
    """
    n = domain.dim - 1
    if domain.kind == "ball":
        return 1.0 / domain.radius
    if domain.kind == "ellipse":
        a, b = domain.semi_major, domain.semi_minor
        if domain.dim == 2:
            return b / a ** 2
        # spheroid: sample the meridian, principal curvatures of the
        # surface of revolution (x, r) = (a cos t, b sin t) about x-axis
        t = np.linspace(1e-4, np.pi - 1e-4, samples)
        w = a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2
        k_meridian = a * b / w ** 1.5
        k_parallel = a / (b * np.sqrt(w))  # normal's radial component over radius
        h = 0.5 * (k_meridian + k_parallel)
        # poles: both curvatures equal a/b^2
        return float(min(h.min(), a / b ** 2))
    # stadium: any flat segment (straight side in 2D, end disk in 3D)
    # forces the infimum to 0; only the fully-degenerate disk case has
    # positive curvature everywhere
    flat = (domain.half_width > domain.corner_radius
            or domain.straight_half_length > domain.corner_radius
            or domain.dim == 3)
    return 0.0 if flat else 1.0 / domain.corner_radius


def admissible_nu_interval(domain: DomainSpec) -> tuple:
    """Open interval of drift speeds compatible with the curvature bound.

    Returns (-n*H0/(n+1), n*H0/(n+1)); callers may run outside it but
    should treat that as unsupported territory.
    """
    n = domain.dim - 1
    h0 = boundary_mean_curvature_bound(domain)
    half = n * h0 / (n + 1)
    return (-half, half)


@dataclass
class Grid:
    """Uniform node-centered Cartesian embedding of a domain.

    Nodes strictly inside the domain are split into interior (all axis
    neighbors inside) and near-boundary (some axis neighbor outside); each
    near-boundary node stores fractional cut distances theta in (0, 1] per
    axis and side, and a canonical closure direction (the smallest theta).
    """

    domain: DomainSpec
    spacing: float
    origin: np.ndarray
    shape: tuple
    inside: np.ndarray
    interior: np.ndarray
    near_boundary: np.ndarray
    theta: np.ndarray          # (dim, 2, *shape), NaN where uncut; side 0 = minus, 1 = plus
    closure_axis: np.ndarray   # int8, -1 off the near-boundary set
    closure_side: np.ndarray
    qweight: np.ndarray        # quadrature cell fractions, 0 outside
    points: np.ndarray         # (*shape, dim)
    coarse_warning: bool = False

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def n_inside(self) -> int:
        return int(self.inside.sum())

    @property
    def n_interior(self) -> int:
        return int(self.interior.sum())

    def cut_mask(self, axis: int, side: int) -> np.ndarray:
        return np.isfinite(self.theta[axis, side])

    def cut_points(self, axis: int, side: int) -> np.ndarray:
        """Coordinates of boundary intersections for the given cut family."""
        mask = self.cut_mask(axis, side)
        pts = self.points[mask].copy()
        sign = 1.0 if side == 1 else -1.0
        pts[:, axis] += sign * self.theta[axis, side][mask] * self.spacing
        return pts

    def domain_measure(self) -> float:
        return float(self.qweight.sum() * self.spacing ** self.dim)


def check_spacing(domain: DomainSpec, spacing: float) -> bool:
    """Admissibility of a grid spacing; returns whether it is coarse.

    Raises CoarseGridError unless 0 < spacing <= half the smallest shape
    parameter; above an eighth of it the spacing is coarse.
    """
    if not spacing > 0:
        raise CoarseGridError(f"spacing must be positive, got {spacing}")
    min_param = min(domain.shape_parameters)
    if spacing > 0.5 * min_param:
        raise CoarseGridError(
            f"spacing {spacing} too coarse: must be <= {0.5 * min_param} "
            f"(half the smallest shape parameter {min_param})")
    return spacing > min_param / 8.0


def build_grid(domain: DomainSpec, spacing: float) -> Grid:
    """Embed the domain in a uniform grid and classify its nodes.

    The spacing must pass check_spacing; a coarse one sets coarse_warning.
    Nodes are inside by the ellipse's quadric test or by a positive signed
    distance (ball, stadium); no boundary projection runs, so the build
    cannot raise ProjectionError.
    """
    coarse = check_spacing(domain, spacing)

    ext = domain.half_extents
    counts = tuple(int(np.ceil(2 * e / spacing - 1e-12)) + 1 for e in ext)
    center = np.asarray(domain.center, dtype=float)
    origin = center - (np.asarray(counts) - 1) * spacing / 2.0

    axes = [origin[k] + spacing * np.arange(counts[k]) for k in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack(mesh, axis=-1)
    flat_pts = points.reshape(-1, domain.dim)
    if domain.kind == "ellipse":
        inside = _inside_ellipse(domain, flat_pts - center).reshape(counts)
    else:
        inside = (signed_distance(domain, flat_pts) > 0.0).reshape(counts)
    interior = inside.copy()
    dim = domain.dim
    theta = np.full((dim, 2) + counts, np.nan)

    for ax in range(dim):
        for side, shift in ((0, 1), (1, -1)):  # side 0: minus neighbor, side 1: plus neighbor
            nbr_inside = np.roll(inside, shift, axis=ax)
            # roll wraps the lattice edge; edge nodes are outside the open
            # domain for the tight bounding box, so wrapped values are safe,
            # but mask the edge explicitly anyway
            edge = np.zeros(counts, bool)
            idx = [slice(None)] * dim
            idx[ax] = 0 if side == 0 else -1
            edge[tuple(idx)] = True
            cut = inside & (~nbr_inside | edge)
            interior &= ~cut
            if not cut.any():
                continue
            theta[ax, side][cut] = _cut_fractions(domain, points[cut], ax,
                                                  -1.0 if side == 0 else 1.0, spacing)

    near_boundary = inside & ~interior

    closure_axis = np.full(counts, -1, dtype=np.int8)
    closure_side = np.full(counts, -1, dtype=np.int8)
    if near_boundary.any():
        th = np.where(np.isnan(theta), np.inf, theta)  # (dim, 2, *shape)
        th_flat = th.reshape(dim * 2, *counts)
        best = np.argmin(th_flat, axis=0)
        closure_axis[near_boundary] = (best[near_boundary] // 2).astype(np.int8)
        closure_side[near_boundary] = (best[near_boundary] % 2).astype(np.int8)

    # cell fractions: an uncut side owns its half-cell, a cut side owns the
    # whole segment to the boundary crossing (theta of a spacing)
    qweight = np.where(inside, 1.0, 0.0)
    for ax in range(dim):
        side_minus = np.where(np.isfinite(theta[ax, 0]), theta[ax, 0], 0.5)
        side_plus = np.where(np.isfinite(theta[ax, 1]), theta[ax, 1], 0.5)
        qweight *= side_minus + side_plus

    return Grid(domain=domain, spacing=spacing, origin=origin, shape=counts,
                inside=inside, interior=interior, near_boundary=near_boundary,
                theta=theta, closure_axis=closure_axis, closure_side=closure_side,
                qweight=qweight, points=points, coarse_warning=coarse)


def _cut_fractions(domain: DomainSpec, pts: np.ndarray, axis: int,
                   direction: float, spacing: float) -> np.ndarray:
    """Boundary crossing along a grid ray, as a fraction of spacing, in [1e-12, 1].

    Each point is strictly inside with its neighbor at pts + direction*spacing*e_axis
    outside or on the boundary; convexity gives a single crossing in (0, 1].
    The ellipse's crossing is the closed-form root of its quadric along the
    axis; the ball's and the stadium's bisect their signed distance.
    """
    if domain.kind == "ellipse":
        p = pts - np.asarray(domain.center)
        semi = domain.half_extents
        rest = np.sum(np.delete(p / semi, axis, axis=1) ** 2, axis=1)
        t = (semi[axis] * np.sqrt(np.maximum(1.0 - rest, 0.0))
             - direction * p[:, axis]) / spacing
    else:
        e = np.zeros(domain.dim)
        e[axis] = direction * spacing
        t = _bisect_crossing(lambda q: signed_distance(domain, q) > 0.0, pts, e)
    return np.maximum(np.minimum(t, 1.0), 1e-12)


def _bisect_crossing(is_inside, pts: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Sixty halvings for the t in (0, 1] where is_inside flips along pts + t*step."""
    lo = np.zeros(len(pts))
    hi = np.ones(len(pts))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        go_right = is_inside(pts + mid[:, None] * step)
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)
