"""Analytic convex domains, signed distances, curvature bounds and grid embedding.

Domains are described analytically (no mesh input): the ball and the
smoothed stadium have closed-form signed distances, the ellipse projects
onto its boundary by Eberly's bracket, a bisection that cannot fail.  All
functions are pure and vectorized over point arrays of shape (N, dim).

The grid build never projects: the ellipse (and spheroid) classifies nodes
by its quadric test, the ball and the stadium by the sign of their exact
signed distance.  The ball and the ellipse cut grid lines at the
closed-form root of their quadric; only the stadium bisects its signed
distance for the cuts, those of every axis and side in one loop.  The
curvature bounds are closed forms.
"""

from dataclasses import dataclass

import numpy as np

SUPPORTED_DIMS = (2, 3)


class GeometryError(ValueError):
    """Invalid domain description."""


class CoarseGridError(ValueError):
    """Requested grid spacing too coarse for the domain."""


@dataclass(frozen=True)
class DomainSpec:
    """A smooth convex bounded domain: ball, ellipse or smoothed stadium.

    The stadium is the corner_radius-rounding of a box with half-extents
    half_width (transverse axes) and straight_half_length (last axis); where
    it keeps flat sides its curvature lower bound is 0.
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

    @property
    def reach_estimate(self) -> float:
        """Smallest radius of curvature of the boundary (distance stays smooth below it)."""
        if self.kind == "ball":
            return self.radius
        if self.kind == "ellipse":
            return self.semi_minor ** 2 / self.semi_major
        return self.corner_radius

    @property
    def inradius(self) -> float:
        """Radius of the largest inscribed ball."""
        if self.kind == "ball":
            return self.radius
        if self.kind == "ellipse":
            return self.semi_minor
        return self.half_width


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
    v = pts[:, 1] ** 2
    if pts.shape[1] == 3:
        v += pts[:, 2] ** 2
    return pts[:, 0], np.sqrt(v)


def _inside_ellipse(domain: DomainSpec, pts: np.ndarray) -> np.ndarray:
    """Quadric test (u/a)^2 + (v/b)^2 < 1 on centred points: the ellipse's inside."""
    u, v = _ellipse_profile_point(pts)
    return (u / domain.semi_major) ** 2 + (v / domain.semi_minor) ** 2 < 1.0


def _project_ellipse(a: float, b: float, u: np.ndarray, v: np.ndarray):
    """Closest point of the ellipse (x/a)^2 + (y/b)^2 = 1 to (|u|, |v|), a >= b.

    Eberly's bracket.  Off the major axis the closest point is
    (a^2 u/(s + a^2), b^2 v/(s + b^2)) for the single root s of the
    decreasing F(s) = (a u/(s + a^2))^2 + (b v/(s + b^2))^2 - 1 on
    [-b^2 + b v, -b^2 + hypot(a u, b v)].  The halvings run on log(s + b^2),
    so s + b^2 is found to a relative accuracy even where it is as small as
    b v, near the axis inside the evolute.  On the major axis the closest
    point is x = a^2 u/(a^2 - b^2) inside the evolute (a u < a^2 - b^2, the
    centre included) and the vertex (a, 0) elsewhere, so always when a = b.
    """
    u = np.abs(u)
    v = np.abs(v)
    c = a * a - b * b
    x = np.full_like(u, a)
    off = b * v > 0
    inner = ~off & (a * u < c)
    x[inner] = a * a * u[inner] / c
    y = b * np.sqrt(np.maximum(1.0 - (x / a) ** 2, 0.0))
    au, bv = a * u[off], b * v[off]
    lo = np.log(bv)
    span = np.log(np.hypot(au, bv)) - lo

    def f_positive(q):
        sb = np.exp(q[:, 0])                # s + b^2
        return (au / (sb + c)) ** 2 + (bv / sb) ** 2 > 1.0

    sb = np.exp(lo + _bisect_crossing(f_positive, lo[:, None], span[:, None]) * span)
    x[off] = a * au / (sb + c)
    y[off] = b * bv / sb
    return x, y


def _stadium_signed_distance(pts: np.ndarray, half: np.ndarray, rc: float) -> np.ndarray:
    """Exact SDF of the rounded box on centred points: the box of half-extents
    half (the stadium's, less rc) offset by rc."""
    if len(half) == 2:
        q0, q1 = np.abs(pts[:, 0]) - half[0], np.abs(pts[:, 1]) - half[1]
    else:
        # rounded cylinder: reduce (x1, x2, x3) -> (|x'|, x3)
        q0 = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2) - half[0]
        q1 = np.abs(pts[:, 2]) - half[2]
    outside = np.sqrt(np.maximum(q0, 0.0) ** 2 + np.maximum(q1, 0.0) ** 2)
    inside = np.minimum(np.maximum(q0, q1), 0.0)
    return rc - (outside + inside)


def signed_distance(domain: DomainSpec, x) -> np.ndarray:
    """Signed distance to the domain boundary, positive inside.

    Exact for ball and smoothed stadium; for the ellipse and spheroid the
    distance to the bracketed projection of the profile point, signed by the
    quadric test.  Accepts a single point or an (N, dim) array.
    """
    pts = _as_points(x) - np.asarray(domain.center)
    if domain.kind == "ball":
        d = domain.radius - np.sqrt(np.sum(pts ** 2, axis=1))
    elif domain.kind == "smoothed-stadium":
        rc = domain.corner_radius
        d = _stadium_signed_distance(pts, domain.half_extents - rc, rc)
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
    # rounded cylinder: the i-th arc-length-uniform point of the planar
    # profile, turned about the axis by i golden angles
    prof = _stadium_boundary_2d(_profile_stadium(domain), count)
    return np.stack([prof[:, 0] * np.cos(phi), prof[:, 0] * np.sin(phi), prof[:, 1]],
                    axis=1) + c


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
    # pieces in arc-length order: right side, left side, top, bottom, then
    # the four corner arcs, parametrized jointly; every piece is evaluated
    # at every s and each point keeps its own piece's value
    piece = np.searchsorted([2 * wy, 4 * wy, 4 * wy + 2 * wx, 4 * wy + 4 * wx], s,
                            side="right")
    u = (s - 4 * wy - 4 * wx) / rc
    quadrant = (u // (np.pi / 2)).astype(int) % 4
    ang = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])[quadrant] + (
        u - quadrant * (np.pi / 2))
    x = np.choose(piece, [a, -a, -wx + (s - 4 * wy), -wx + (s - 4 * wy - 2 * wx),
                          np.array([wx, -wx, -wx, wx])[quadrant] + rc * np.cos(ang)])
    y = np.choose(piece, [-wy + s, -wy + (s - 2 * wy), L, -L,
                          np.array([wy, wy, -wy, -wy])[quadrant] + rc * np.sin(ang)])
    return np.stack([x, y], axis=1)


def boundary_mean_curvature_bound(domain: DomainSpec) -> float:
    """Infimum over the boundary of the mean of the principal curvatures.

    Closed forms, reached on the boundary: the ball 1/R; the ellipse b/a^2
    at its major vertices; the spheroid 0.5*(b/a^2 + 1/b) at its equator,
    since both principal curvatures fall as a^2 sin^2 t + b^2 cos^2 t grows
    along the meridian (a cos t, b sin t) and a >= b.  The stadium is 0
    wherever it has a flat piece (a straight side in 2D, an end disk in 3D);
    else it is the disk or ball 1/corner_radius, or in 3D the capsule, whose
    cylinder side of radius corner_radius gives 0.5/corner_radius.
    """
    if domain.kind == "ball":
        return 1.0 / domain.radius
    if domain.kind == "ellipse":
        a, b = domain.semi_major, domain.semi_minor
        return b / a ** 2 if domain.dim == 2 else 0.5 * (b / a ** 2 + 1.0 / b)
    rc = domain.corner_radius
    if domain.half_width > rc or (domain.dim == 2 and domain.straight_half_length > rc):
        return 0.0
    return 0.5 / rc if domain.straight_half_length > rc else 1.0 / rc


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

    def cuts(self) -> tuple:
        """Flat indices into theta of every cut, family by family, and the
        coordinates of its boundary intersection."""
        index = np.flatnonzero(np.isfinite(self.theta))
        node, axis, direction = _cut_families(index, self.inside.size)
        pts = self.points.reshape(-1, self.dim)[node]
        pts[np.arange(len(index)), axis] += direction * self.theta.reshape(-1)[index] * self.spacing
        return index, pts

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
    distance (ball, stadium); no boundary projection runs, and only the
    stadium's cuts bisect, all (axis, side) families in one loop.  The cut
    masks compare overlapping slices of the inside mask, and the closure
    direction and cell fractions are formed at near-boundary nodes only.
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
    dim = domain.dim
    # per (axis, side) family, like theta: a node is cut on side 0 when it is
    # inside and its minus neighbor is not, or it sits on the first lattice
    # plane (a node on the boundary to round-off can); side 1 mirrors it.
    # The operator's flat-stride stencils depend on the edge cuts
    cut = np.ones((dim, 2) + counts, bool)
    for ax in range(dim):
        lo, hi = ((slice(None),) * ax + (s,) for s in (slice(None, -1), slice(1, None)))
        cut[ax, 0][hi] = ~inside[lo]
        cut[ax, 1][lo] = ~inside[hi]
    cut &= inside
    interior = inside & ~cut.any(axis=(0, 1))
    theta = np.full((dim, 2) + counts, np.nan)
    index = np.flatnonzero(cut)
    node, axis, direction = _cut_families(index, inside.size)
    theta.reshape(-1)[index] = _cut_fractions(domain, flat_pts[node], axis, direction, spacing)

    near_boundary = inside & ~interior
    nb = np.flatnonzero(near_boundary)
    cut_nb, theta_nb = (a.reshape(2 * dim, -1)[:, nb] for a in (cut, theta))
    # closure along the smallest theta, the first family on a tie
    best = np.argmin(np.where(cut_nb, theta_nb, np.inf), axis=0)
    closure_axis = np.full(counts, -1, dtype=np.int8)
    closure_side = closure_axis.copy()
    closure_axis.reshape(-1)[nb], closure_side.reshape(-1)[nb] = divmod(best, 2)

    # cell fractions: an uncut side owns its half-cell, a cut side owns the
    # whole segment to the boundary crossing (theta of a spacing); an
    # interior node's factor is 0.5 + 0.5 = 1 on every axis
    qweight = inside.astype(float)
    half = np.where(cut_nb, theta_nb, 0.5).reshape(dim, 2, -1)
    qweight.reshape(-1)[nb] = np.prod(half[:, 0] + half[:, 1], axis=0)

    return Grid(domain=domain, spacing=spacing, origin=origin, shape=counts,
                inside=inside, interior=interior, near_boundary=near_boundary,
                theta=theta, closure_axis=closure_axis, closure_side=closure_side,
                qweight=qweight, points=points, coarse_warning=coarse)


def _cut_families(index: np.ndarray, size: int) -> tuple:
    """Node, axis and direction (-1 minus, +1 plus) of flat indices into a
    (dim, 2, *shape) per-family array of a box of `size` nodes."""
    family, node = divmod(index, size)   # family = 2 * axis + side
    return node, family // 2, 2.0 * (family % 2) - 1.0


def _cut_fractions(domain: DomainSpec, pts: np.ndarray, axis: np.ndarray,
                   direction: np.ndarray, spacing: float) -> np.ndarray:
    """Boundary crossings along grid rays, as fractions of spacing, in [1e-12, 1].

    Point i is strictly inside with its neighbor at
    pts[i] + direction[i]*spacing*e_axis[i] outside or on the boundary;
    convexity gives a single crossing in (0, 1].  The ball's and the
    ellipse's crossing is the closed-form root of their quadric along the
    axis (half_extents reads (r, r[, r]) for the ball); the stadium bisects
    its signed distance, the cuts of all (axis, side) families in one loop.
    """
    rows = np.arange(len(pts))
    if domain.kind in ("ball", "ellipse"):
        p = pts - np.asarray(domain.center)
        semi = domain.half_extents
        sq = (p / semi) ** 2
        sq[rows, axis] = 0.0    # 0 + x is x: the sum runs over the other axes
        t = (semi[axis] * np.sqrt(np.maximum(1.0 - np.sum(sq, axis=1), 0.0))
             - direction * p[rows, axis]) / spacing
    else:
        step = np.zeros_like(pts)
        step[rows, axis] = direction * spacing
        c, rc = np.asarray(domain.center), domain.corner_radius
        half = domain.half_extents - rc
        # signed_distance(domain, q) > 0, its per-call set-up done once
        t = _bisect_crossing(lambda q: _stadium_signed_distance(q - c, half, rc) > 0.0,
                             pts, step)
    return np.maximum(np.minimum(t, 1.0), 1e-12)


def _bisect_crossing(is_inside, pts: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Sixty halvings for the t in (0, 1] where is_inside flips along pts + t*step.

    step is one vector for all points or one row per point.
    """
    lo = np.zeros(len(pts))
    hi = np.ones(len(pts))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        go_right = is_inside(pts + mid[:, None] * step)
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)
