"""Per-level spectral design for the cubic polynomial smoother.

For each smoothed multigrid level (every level but the coarsest, which dense
LU solves) we sample the Jacobi-normalized Fourier symbol of the level's
(shifted) operator over frozen coefficient pairs, bound the samples by a
near-minimal triangle in the complex plane, and pick three damped-Jacobi
weights whose cubic error polynomial ``p(z) = (1-w1 z)(1-w2 z)(1-w3 z)`` is
stable on the whole triangle (|p| <= 1) and as small as possible on the
high-frequency part of the spectrum.

In its coefficients the cubic's design is convex: a complex Chebyshev
problem solved as a cutting-plane linear program (Streit & Nuttall, 1982),
with |p| <= 1 - 1e-6 on triangle cuts and the high-frequency maximum within
0.1% of the optimum on the hull's boundary (see :func:`optimize_weights`).
Both maxima are exact per edge: along an edge ``|p|^2`` is a real sextic, so
its maxima are roots of a quintic, and by the maximum-modulus principle the
triangle's edges certify the whole triangle.  One cut loop designs every
level (:func:`design_levels`): each round is one LP over all levels that still
need cuts, block-diagonal in their unknowns, so each block's optimum is its
level's own.

The samples lie on one fixed grid of (0, pi]^2, :data:`THETA_COUNT` = 64
angles per axis, on every level.  Each frozen pair's samples share one
imaginary part, a horizontal row whose inner points are never hull vertices,
so the design hands :func:`convex_hull` each pair's two row ends, not its
64^2 samples, and gets the samples' hulls byte for byte.  The triangle search
intersects only the triples of support lines that bound a triangle.  The LP
rounds take about half of a design's time, most of it scipy's per-call work
around HiGHS, which the one LP per round pays once for all levels.  A level
whose row ends or triangle are too large for a finite cubic (``|z|^3``
overflows) is reported unstable before any arithmetic that could overflow.

Normalization: samples are the operator symbol divided by the diagonal of its
second-difference part, ``mu = [(2-2cos(tx)) + (2-2cos(ty))]/4 - s*k^2*hc^2/4``
with ``hc`` the complex (gamma-scaled, stretched) spacing.  A layer spacing
``h(1 + i*sigma)`` under the shift ``1 + i*beta`` gives ``Im(mu) <= 0`` while
``Im((1 + i*beta)(1 + i*sigma)^2) >= 0``, which is the ``sigma_max`` bound that
a ``ProblemConfig`` enforces for ``precond = "grid"``; coarse spacings are
sums of fine ones, so there every sample on every level lies in the closed
lower half-plane.  With ``"csl"`` past that bound, each level's triangle
encloses its samples where they lie.  Normalizing by the full diagonal
``4/hc^2 - s*k^2`` instead would rotate the set across the real axis.
The smoother damps with the same diagonal (``StencilOperator.grid_diagonal``),
so the designed weights are the damped-Jacobi weights, with no conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import linprog

from .stencil import StencilOperator

__all__ = [
    "SymbolSampleSet",
    "Triangle",
    "SmootherWeights",
    "SpectralDesign",
    "UnstableLevelError",
    "symbol_samples",
    "convex_hull",
    "min_enclosing_triangle",
    "optimize_weights",
    "poly_max_on_boundary",
    "design_levels",
    "design_for_operator",
    "jacobi_weights_for",
]

HIGH_FREQ_CUT = np.pi / 2
THETA_COUNT = 64  # symbol samples per axis
DEGENERATE_THICKEN = 1e-6
EDGE_CAP = 56  # hull edge directions are subsampled beyond this count
TRIANGLE_DIRECTIONS = 60  # uniform support directions beside the hull's edges
TRIANGLE_INFLATE = 0.05  # a design's triangle is the near-minimal one grown by 5%


class UnstableLevelError(RuntimeError):
    """No cubic with |p| <= 1 on the triangle was found for a level."""

    def __init__(self, level, weights, stability, smoothing):
        self.level = level
        self.weights = weights
        self.stability = stability
        self.smoothing = smoothing
        super().__init__(
            f"unstable level {level}: best stability {stability:.6g}, "
            f"smoothing {smoothing:.6g}; the GMRES(3) smoother (--smoother gmres3, "
            "the default) needs no design and solves the same problem"
        )


@dataclass(frozen=True, eq=False)
class SymbolSampleSet:
    """Symbol samples for one level.

    ``points`` holds mu over all (theta_x, theta_y) on the uniform
    ``THETA_COUNT x THETA_COUNT`` grid of (0, pi]^2 for every frozen
    (complex spacing, k) pair of the level; ``hf_mask`` flags samples with
    max(theta_x, theta_y) >= pi/2.
    """

    points: np.ndarray
    hf_mask: np.ndarray

    def __post_init__(self):
        if self.points.size == 0:
            raise ValueError("empty symbol sample set")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite symbol samples")


@dataclass(frozen=True)
class Triangle:
    """Bounding triangle; vertices are stored counterclockwise."""

    v1: complex
    v2: complex
    v3: complex

    @property
    def vertices(self) -> np.ndarray:
        return np.array([self.v1, self.v2, self.v3], dtype=complex)

    @property
    def centroid(self) -> complex:
        return (self.v1 + self.v2 + self.v3) / 3.0

    @property
    def diameter(self) -> float:
        v = self.vertices
        return float(max(abs(v[0] - v[1]), abs(v[1] - v[2]), abs(v[2] - v[0])))

    def contains(self, points: np.ndarray, slack: float = 1e-10) -> np.ndarray:
        """True where each point is inside, with ``slack*diameter`` margin."""
        points = np.asarray(points, dtype=complex)
        v = self.vertices
        tol = slack * max(self.diameter, 1e-300)
        inside = np.ones(points.shape, dtype=bool)
        for i in range(3):
            a, b = v[i], v[(i + 1) % 3]
            edge = b - a
            # signed distance of points to the edge line, positive inside (CCW)
            dist = np.real(np.conj(edge * 1j) * (points - a)) / abs(edge)
            inside &= dist >= -tol
        return inside


@dataclass(frozen=True)
class SmootherWeights:
    """Three damped-Jacobi weights and the certified maxima of their cubic."""

    w1: complex
    w2: complex
    w3: complex
    achieved_stability: float
    achieved_smoothing: float

    @property
    def w(self) -> np.ndarray:
        return np.array([self.w1, self.w2, self.w3], dtype=complex)


@dataclass(frozen=True, eq=False)
class SpectralDesign:
    """Everything the smoother needs for one level: ``triangle`` contains the
    level's symbol samples, and ``Level.jacobi_w`` equals ``weights``."""

    triangle: Triangle
    weights: SmootherWeights
    hf_hull: np.ndarray


# ---------------------------------------------------------------------------
# symbol sampling


def _frozen_offsets(op: StencilOperator) -> np.ndarray:
    """The offsets ``s*k^2*hc^2/4`` of every unique (complex spacing, k) pair
    on the operator's level; a pair's samples are ``c/4 - offset``."""
    spacings = np.unique(np.concatenate([op.grid.spacing_x, op.grid.spacing_y]))
    shifted_k2 = op.shift * np.unique(op.k_field.values).astype(complex) ** 2
    hc2 = spacings**2
    return (hc2[:, None] * shifted_k2[None, :] / 4.0).ravel()


_THETA = np.arange(1, THETA_COUNT + 1) * np.pi / THETA_COUNT
_C = 2.0 - 2.0 * np.cos(_THETA)
# c = (2 - 2cos(theta_x)) + (2 - 2cos(theta_y)) over the grid, and the
# high-frequency flags max(theta_x, theta_y) >= pi/2
_C_SUM = (_C[:, None] + _C[None, :]).ravel()
_HF = (np.maximum(_THETA[:, None], _THETA[None, :]) >= HIGH_FREQ_CUT).ravel()
# the least and the largest c of all samples and of the high-frequency ones,
# over 4: a pair's row of samples c/4 - offset ends at these minus its offset,
# since dividing by 4 is exact and subtracting one offset is monotone,
# rounding included
_ENDS = np.array([_C_SUM.min(), _C_SUM.max()]) / 4.0
_HF_ENDS = np.array([_C_SUM[_HF].min(), _C_SUM[_HF].max()]) / 4.0


def symbol_samples(op: StencilOperator) -> SymbolSampleSet:
    """Sample the Jacobi-normalized symbol on the ``THETA_COUNT x THETA_COUNT``
    grid of (0, pi]^2 for every frozen pair."""
    # mu = lambda / d_grid with d_grid = 4/hc^2 the second-difference diagonal
    offsets = _frozen_offsets(op)
    points = (_C_SUM[None, :] / 4.0 - offsets[:, None]).ravel()
    hf_mask = np.broadcast_to(_HF, (offsets.size, _HF.size)).ravel()
    return SymbolSampleSet(points=points, hf_mask=hf_mask)


def _row_ends(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two ends of every pair's row of samples, and of its row of
    high-frequency samples, for the pairs' ``offsets``."""
    offsets = offsets[:, None]
    return (_ENDS - offsets).ravel(), (_HF_ENDS - offsets).ravel()


# ---------------------------------------------------------------------------
# convex hull and minimal enclosing triangle


def convex_hull(points) -> np.ndarray:
    """Counterclockwise convex hull of complex points (monotone chain).

    Collinear interior points are removed (turns are decided exactly, so
    rounding never keeps or drops a near-collinear point); a fully collinear
    input yields the two extreme points (one point if all coincide).

    Before the chain runs, each row of points sharing one imaginary part is
    cut to its two ends (an exact form of the extreme-point pre-filter of
    Akl & Toussaint, 1978): a point strictly between the ends of a horizontal
    run is a convex combination of them, so it is never a hull vertex.  Every
    frozen (spacing, k) pair's symbol samples ``c/4 - s*k^2*hc^2/4``, ``c``
    real, form one such run: :func:`symbol_samples` output collapses to two
    points per pair here, and the design passes just those.
    """
    pts = np.unique(np.asarray(points, dtype=complex))
    if pts.size < 3:
        return pts
    by_row = np.lexsort((pts.real, pts.imag))
    im = pts.imag[by_row]
    new_row = im[1:] != im[:-1]
    ends = np.zeros(pts.size, dtype=bool)
    ends[by_row[np.concatenate(([True], new_row)) | np.concatenate((new_row, [True]))]] = True
    pts = pts[ends]
    order = np.lexsort((pts.imag, pts.real))
    pts = pts[order]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and not _turns_left(out[-2], out[-1], p):
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1], dtype=complex)
    if hull.size < 3:  # all points collinear
        return np.array([pts[0], pts[-1]]) if pts.size > 1 else pts[:1]
    return hull


def _cross(a, b):
    return a.real * b.imag - a.imag * b.real


def _turns_left(o: complex, a: complex, b: complex) -> bool:
    """Whether ``o -> a -> b`` turns counterclockwise: by the float cross
    product past its rounding bound (Shewchuk, 1997), else in exact rationals."""
    cross = _cross(a - o, b - o)
    if abs(cross) > 4e-16 * abs(a - o) * abs(b - o) + 1e-300:
        return cross > 0
    (ox, oy), (ax, ay), (bx, by) = ((Fraction(p.real), Fraction(p.imag)) for p in (o, a, b))
    return (ax - ox) * (by - oy) > (ay - oy) * (bx - ox)


def _support_lines(hull: np.ndarray, extra_directions: int):
    """Support lines of the hull: its own edge directions plus a uniform
    direction grid (normals n with offsets c = max <hull, n>).

    Triangles cut from any three of these half-planes contain the hull by
    construction; the uniform grid supplies well-shaped candidates even when
    the hull's own edges cluster in nearly parallel directions (spectrum
    clouds are close to parallelograms, whose flush-edge triangles are all
    degenerate slivers).
    """
    d = np.roll(hull, -1) - hull
    edge_normals = -1j * d / np.abs(d)
    step = max(1, len(hull) // EDGE_CAP)
    edge_normals = edge_normals[::step]
    phi = 2.0 * np.pi * np.arange(extra_directions) / extra_directions
    normals = np.concatenate([edge_normals, np.exp(1j * phi)])
    offsets = np.array([np.max(hull.real * n.real + hull.imag * n.imag) for n in normals])
    return normals, offsets, len(edge_normals)


def _triangle_candidates(normals: np.ndarray, offsets: np.ndarray, n_flush: int):
    """All bounded triangles from triples of the given support lines, in the
    lexicographic order of the triples (that of ``itertools.combinations``).

    Three lines bound a triangle iff their outward normals positively span the
    plane: the circular gaps between their normal angles are all below pi.
    That is decided from the angles alone, so only bounded triples are
    intersected (about a quarter of them on level hulls).  Returns (areas,
    vertex triples, flush flags); a candidate is flagged flush when all three
    of its lines carry hull edges (the first ``n_flush`` lines), which is the
    family the area contract is stated against.
    """
    m = len(normals)
    # triples i < j < k in lexicographic order: each pair (i, j), then k > j
    i, j = np.triu_indices(m, 1)
    count = m - 1 - j
    i, j = np.repeat(i, count), np.repeat(j, count)
    k = np.arange(i.size) - np.repeat(np.cumsum(count) - count, count) + j + 1

    # the three angles in ascending order, and the circular gaps between them
    ang = np.angle(normals)
    a1, a2, a3 = ang[i], ang[j], ang[k]
    lo, hi = np.minimum(a1, a2), np.maximum(a1, a2)
    mid = np.maximum(lo, np.minimum(hi, a3))
    lo, hi = np.minimum(lo, a3), np.maximum(hi, a3)
    gap = np.pi - 1e-12
    bounded = (mid - lo < gap) & (hi - mid < gap) & (2 * np.pi - (hi - lo) < gap)
    i, j, k = i[bounded], j[bounded], k[bounded]

    def intersect(a, b):
        na, nb, ca, cb = normals[a], normals[b], offsets[a], offsets[b]
        det = na.real * nb.imag - na.imag * nb.real
        safe = np.where(np.abs(det) > 1e-14, det, 1.0)
        x = (ca * nb.imag - cb * na.imag) / safe
        y = (cb * na.real - ca * nb.real) / safe
        return x + 1j * y, np.abs(det) > 1e-14

    (v12, ok12), (v23, ok23), (v31, ok31) = intersect(i, j), intersect(j, k), intersect(k, i)
    ok = ok12 & ok23 & ok31
    tri = np.stack([v12, v23, v31], axis=1)[ok]
    if tri.size == 0:
        return np.empty(0), np.empty((0, 3), dtype=complex), np.empty(0, dtype=bool)
    areas = 0.5 * np.abs(_cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]))
    return areas, tri, k[ok] < n_flush


def _ccw(vertices: np.ndarray) -> np.ndarray:
    if _cross(vertices[1] - vertices[0], vertices[2] - vertices[0]) < 0:
        return vertices[[0, 2, 1]]
    return vertices


def min_enclosing_triangle(hull) -> Triangle:
    """Near-minimal triangle containing the hull; the design
    grows it by :data:`TRIANGLE_INFLATE` about its centroid.

    Candidates are triples of hull support lines (the hull's own edge lines
    plus a uniform direction grid), so containment holds by construction and
    the exact flush-edge minimum is always in the family.  The returned area
    stays within 10% of the flush-edge minimum; within that allowance candidates
    that stay below the real axis and hug the sample cloud are preferred,
    which keeps lower half-plane spectra bounded by lower half-plane triangles
    the cubic can actually be small on.
    """
    hull = np.asarray(hull, dtype=complex)
    if hull.size == 0:
        raise ValueError("empty hull")
    diam = float(np.max(np.abs(hull[:, None] - hull[None, :]))) if hull.size > 1 else 0.0

    if hull.size == 1 or diam == 0.0:
        z0 = complex(hull[0])
        r = DEGENERATE_THICKEN * max(1.0, abs(z0))
        return Triangle(z0 - r, z0 - 1j * r, z0 + r)

    area2 = 0.0
    if hull.size >= 3:
        area2 = abs(sum(_cross(hull[i] - hull[0], hull[(i + 1) % len(hull)] - hull[0])
                        for i in range(1, len(hull) - 1)))
    if hull.size == 2 or area2 < 1e-14 * diam * diam:
        # degenerate (collinear) hull: thicken perpendicular to the segment,
        # toward the lower half-plane so real-axis spectra stay bounded below
        seg = hull[-1] - hull[0]
        perp = -1j * seg / abs(seg)
        if perp.imag > 0:
            perp = -perp
        hull = convex_hull(np.concatenate([hull, hull + DEGENERATE_THICKEN * diam * perp]))

    normals, offsets, n_flush = _support_lines(hull, TRIANGLE_DIRECTIONS)
    areas, tris, flush = _triangle_candidates(normals, offsets, n_flush)
    if areas.size == 0:
        raise RuntimeError("triangle search found no bounded candidate")

    # hard area cap from the flush-edge family (the contract allows 10%;
    # keep half in reserve), then prefer candidates that stay below the real
    # axis, then the smallest reach from the cloud's center (what keeps the
    # cubic well conditioned on the triangle), then small area
    flush_min = float(areas[flush].min()) if np.any(flush) else np.inf
    area_cap = 1.05 * flush_min if np.isfinite(flush_min) else np.inf
    eligible = np.nonzero(areas <= max(area_cap, float(areas.min())))[0]
    t_el = tris[eligible]
    pokes = (np.max(t_el.imag, axis=1) > 1e-9 * diam).astype(int)
    center = hull.mean()
    reach = np.max(np.abs(t_el - center), axis=1)
    pick = eligible[np.lexsort((areas[eligible], np.round(reach / diam, 6), pokes))][0]
    v = _ccw(tris[pick])
    return Triangle(complex(v[0]), complex(v[1]), complex(v[2]))


def _inflate(t: Triangle, inflate: float) -> Triangle:
    c = t.centroid
    return Triangle(*(complex(v) for v in c + (1.0 + inflate) * (t.vertices - c)))


# ---------------------------------------------------------------------------
# weight optimization


def poly_max_on_boundary(weights, samples) -> float:
    """max |(1 - w1 z)(1 - w2 z)(1 - w3 z)| over the samples, for weights (w1, w2, w3)."""
    w = np.asarray(weights, dtype=complex)
    z = np.asarray(samples, dtype=complex)
    p = (1.0 - w[0] * z) * (1.0 - w[1] * z) * (1.0 - w[2] * z)
    return float(np.max(np.abs(p)))


_LP_TOL = 1e-10  # LP feasibility tolerance; coarse levels reach smoothing ~5e-6
_LP_MARGIN = 1e-6  # triangle cuts hold |p| <= 1 - margin, well above _LP_TOL
_HF_GAP = 1e-3  # accepted relative gap on the high-frequency max, plus an
_HF_SLACK = 1e-9  # absolute slack above _LP_TOL so that the cut loop ends
_START_DIRECTIONS = 8
_MAX_ROUNDS = 60  # LP rounds of each level
_COST = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])  # minimize t of (a1, a2, a3, t)
_CUBE_MAX = np.finfo(float).max ** (1.0 / 3.0)  # the largest |z| whose |z|^3 is finite
_ROOT_IMAG_TOL = 1e-4  # rounding moves near-multiple real roots off the axis


def _edges(vertices: np.ndarray):
    """Start points and directions of a closed polygon's edges; a segment is
    one edge and a single point one edge of length zero."""
    v = np.asarray(vertices, dtype=complex)
    if v.size <= 2:
        return v[:1], v[-1:] - v[:1]
    return v, np.roll(v, -1) - v


def _boundary_critical_points(coeffs, vertices) -> np.ndarray:
    """The vertices plus every interior critical point of ``|p|`` on the edges
    of a closed polygon, a segment or a point, where ``coeffs = (c0, c1, c2,
    c3)`` and ``p(z) = c0 + c1 z + c2 z^2 + c3 z^3``.

    On an edge ``z = z0 + t d``, ``q(t) = p(z0 + t d)`` has the coefficients
    ``p^(k)(z0) d^k / k!``, so ``|q|^2`` is a real sextic in ``t`` whose
    maxima on (0, 1) are real roots of its derivative, a quintic.  The quintics
    are solved together as 5x5 companion eigenvalue problems; an edge whose
    leading coefficient vanishes (``c3 = 0`` or a zero-length edge) falls back
    to :func:`numpy.roots` on its trimmed polynomial.  The largest ``|p|`` over
    the returned points is the largest over the boundary, up to rounding.
    """
    c = np.asarray(coeffs, dtype=complex)
    z0, d = _edges(vertices)
    b = np.stack([
        c[0] + z0 * (c[1] + z0 * (c[2] + z0 * c[3])),
        c[1] + z0 * (2.0 * c[2] + 3.0 * c[3] * z0),
        c[2] + 3.0 * c[3] * z0,
        np.full(z0.shape, c[3]),
    ], axis=1) * d[:, None] ** np.arange(4)
    sextic = np.zeros((z0.size, 7))
    for j in range(4):
        for k in range(4):
            sextic[:, j + k] += (b[:, j] * np.conj(b[:, k])).real
    s = sextic[:, 1:] * np.arange(1, 7)  # the derivative, ascending powers
    # coefficients below 1e-14 of an edge's largest are rounding, not degree
    significant = np.abs(s) > 1e-14 * np.max(np.abs(s), axis=1, keepdims=True)
    full = significant[:, 5]
    companion = np.zeros((int(full.sum()), 5, 5))
    companion[:, 1:, :-1] = np.eye(4)
    companion[:, :, -1] = -s[full, :5] / s[full, 5:]
    edge = [np.repeat(np.flatnonzero(full), 5)]
    t = [np.linalg.eigvals(companion).ravel()]
    for e in np.flatnonzero(~full & significant.any(axis=1)):
        top = np.flatnonzero(significant[e])[-1]
        t.append(np.roots(s[e, top::-1]).astype(complex))
        edge.append(np.full(t[-1].size, e))
    edge, t = np.concatenate(edge), np.concatenate(t)
    keep = (np.abs(t.imag) <= _ROOT_IMAG_TOL) & (t.real > 0.0) & (t.real < 1.0)
    interior = z0[edge[keep]] + t.real[keep] * d[edge[keep]]
    return np.concatenate([np.asarray(vertices, dtype=complex).ravel(), interior])


def _cut_rows(z: np.ndarray, phi: np.ndarray, t_coef: float, limit: float):
    """Rows of ``Re(e^{-i phi} p(z)) + t_coef * t <= limit`` in the unknowns
    ``(Re a1, Im a1, Re a2, Im a2, Re a3, Im a3, t)``."""
    c = np.exp(-1j * phi)
    cz = c[:, None] * z[:, None] ** np.arange(1, 4)
    rows = np.empty((z.size, 7))
    rows[:, 0:6:2] = cz.real
    rows[:, 1:6:2] = -cz.imag
    rows[:, 6] = t_coef
    return rows, limit - c.real


def _start_cuts(t: Triangle, hf_hull: np.ndarray) -> list:
    """Cuts at the triangle's vertices and the hull's points, in
    :data:`_START_DIRECTIONS` directions each."""
    tri_v = t.vertices
    phi0 = 2.0 * np.pi * np.arange(_START_DIRECTIONS) / _START_DIRECTIONS
    return [
        _cut_rows(np.repeat(tri_v, phi0.size), np.tile(phi0, tri_v.size), 0.0, 1.0 - _LP_MARGIN),
        _cut_rows(np.repeat(hf_hull, phi0.size), np.tile(phi0, hf_hull.size), -1.0, 0.0),
    ]


def _new_cuts(a: np.ndarray, bound: float, t: Triangle, hf_hull: np.ndarray) -> list:
    """Cuts at the exact boundary maxima of ``p = 1 + a1 z + a2 z^2 + a3 z^3``
    where |p| > 1 on the triangle or ``|p| > bound (1 + 1e-3) + 1e-9`` on the
    hull, ``bound`` being the LP's ``t``; empty when the cubic needs none."""
    coeffs = np.concatenate(([1.0], a))
    z_tri = _boundary_critical_points(coeffs, t.vertices)
    z_hf = _boundary_critical_points(coeffs, hf_hull)
    p_tri = 1.0 + z_tri * (a[0] + z_tri * (a[1] + z_tri * a[2]))
    p_hf = 1.0 + z_hf * (a[0] + z_hf * (a[1] + z_hf * a[2]))
    bad_tri = np.abs(p_tri) > 1.0
    bad_hf = np.abs(p_hf) > bound * (1.0 + _HF_GAP) + _HF_SLACK
    if not (bad_tri.any() or bad_hf.any()):
        return []
    return [
        _cut_rows(z_tri[bad_tri], np.angle(p_tri[bad_tri]), 0.0, 1.0 - _LP_MARGIN),
        _cut_rows(z_hf[bad_hf], np.angle(p_hf[bad_hf]), -1.0, 0.0),
    ]


def _solve_blocks(blocks: list, levels: list) -> list:
    """One LP over every level's cuts, block-diagonal in the levels' 7
    unknowns, with objective the sum of their ``t``.  The LP is separable, so
    each block of its solution is that level's own optimum.  Returns each
    level's block, or the error of a level whose LP has none: when the joint
    LP fails, each block is solved alone to find the failing ones."""
    res = linprog(
        np.tile(_COST, len(blocks)),
        A_ub=block_diag(*(np.concatenate([rows for rows, _ in cuts]) for cuts in blocks)),
        b_ub=np.concatenate([rhs for cuts in blocks for _, rhs in cuts]),
        bounds=(None, None),
        method="highs",
        options={"primal_feasibility_tolerance": _LP_TOL},
    )
    if res.success:
        return np.split(res.x, len(blocks))
    if len(blocks) > 1:
        return [_solve_blocks([cuts], [ell])[0] for cuts, ell in zip(blocks, levels)]
    if res.status == 2:  # no cubic beats p = 1, the zero weights
        return [UnstableLevelError(levels[0], (0j, 0j, 0j), 1.0, 1.0)]
    return [RuntimeError(f"weight LP failed on level {levels[0]}: {res.message}")]


def _certify(a: np.ndarray, t: Triangle, hf_hull: np.ndarray, level: int):
    """The weights of the cubic ``1 + a1 z + a2 z^2 + a3 z^3``, with their
    cubic's exact maxima, or the level's error if it is not stable."""
    w = np.zeros(3, dtype=complex)
    roots = np.roots(a[::-1].tolist() + [1.0])  # the degree drops when a3 = 0
    w[: roots.size] = 1.0 / roots
    # np.poly(w) lists (1, -e1, e2, -e3), the ascending coefficients of the
    # weights' own cubic prod(1 - wi z)
    stability = poly_max_on_boundary(w, _boundary_critical_points(np.poly(w), t.vertices))
    smoothing = poly_max_on_boundary(w, _boundary_critical_points(np.poly(w), hf_hull))
    if stability > 1.0 + 1e-8:
        return UnstableLevelError(level, tuple(w), stability, smoothing)
    return SmootherWeights(*(complex(v) for v in w), stability, smoothing)


def _optimize_levels(regions: dict) -> dict:
    """:func:`optimize_weights` for every level of ``regions``, a dict of
    level -> (triangle, high-frequency hull), in one cut loop.

    Each round solves one LP over the levels that still need cuts
    (:func:`_solve_blocks`); a level leaves the loop when its cubic needs no
    cut, after :data:`_MAX_ROUNDS` rounds, or when its LP fails.  Every level
    runs to its end; then the lowest failing level's error is raised, so the
    joint design names the level a design of each level alone would.
    Returns level -> weights.
    """
    cuts = {ell: _start_cuts(*region) for ell, region in regions.items()}
    coeffs, out = {}, {}
    active = list(regions)
    for _ in range(_MAX_ROUNDS):
        if not active:
            break
        still = []
        for ell, x in zip(active, _solve_blocks([cuts[ell] for ell in active], active)):
            if isinstance(x, Exception):
                out[ell] = x
                continue
            coeffs[ell] = x[0:6:2] + 1j * x[1:6:2]
            new = _new_cuts(coeffs[ell], x[6], *regions[ell])
            if new:
                cuts[ell] += new
                still.append(ell)
        active = still
    for ell, a in coeffs.items():
        if ell not in out:
            out[ell] = _certify(a, *regions[ell], ell)
    failed = [ell for ell, outcome in out.items() if isinstance(outcome, Exception)]
    if failed:
        raise out[min(failed)]
    return out


def optimize_weights(t: Triangle, hf_hull: np.ndarray, level: int = 0) -> SmootherWeights:
    """Weights whose cubic has the least max |p| on the high-frequency hull
    boundary subject to |p| <= 1 on the triangle boundary, from an LP.

    With ``p(z) = 1 + a1 z + a2 z^2 + a3 z^3``, ``Re(e^{-i phi} p(z)) <= |p(z)|``
    is linear in ``(Re ak, Im ak)``, so each point and direction gives a cut:
    ``<= t`` on hull points (the objective is ``t``) and ``<= 1 - 1e-6`` on
    triangle points, a margin above the LP's feasibility tolerance.  From
    cuts at the vertices in 8 directions, each round solves the LP (HiGHS),
    finds the boundary maxima of ``|p|`` exactly, edge by edge
    (:func:`_boundary_critical_points`), and cuts with ``phi = arg p(z)``
    wherever |p| > 1 on the triangle or ``|p| > t (1 + 1e-3) + 1e-9`` on the
    hull (Kelley's cutting-plane method).  As ``t`` is a lower bound, the
    smoothing factor is within 0.1% of the optimum over the whole boundary.

    The weights are the cubic's reciprocal roots, and the certificate is
    their cubic's exact maximum on each edge.  Raises
    :class:`UnstableLevelError` when the LP is infeasible or the certified
    stability exceeds 1 + 1e-8.  This is the one-level case of the loop that
    :func:`design_levels` runs over every level.
    """
    hf_hull = np.asarray(hf_hull, dtype=complex)
    if hf_hull.size == 0:
        raise ValueError("high-frequency hull must be nonempty")
    return _optimize_levels({level: (t, hf_hull)})[level]


# ---------------------------------------------------------------------------
# per-level pipeline


def _check_cubic_finite(z: np.ndarray, level: int) -> None:
    """Raise the level's :class:`UnstableLevelError` unless ``|z|^3`` is
    finite at every point; the stability then refers to the zero weights."""
    if not np.all(np.abs(z) <= _CUBE_MAX):
        raise UnstableLevelError(level, (0j, 0j, 0j), 1.0, 1.0)


def _level_region(op: StencilOperator, level: int) -> tuple[Triangle, np.ndarray]:
    """symbol rows -> hull -> triangle: the grown triangle and the
    high-frequency hull of one level.

    The hulls are fed each frozen pair's row ends only, for all samples and
    for the high-frequency ones: every pair's samples form one horizontal row,
    whose inner points :func:`convex_hull` drops anyway, so both hulls equal
    those of :func:`symbol_samples`, byte for byte, without its
    ``THETA_COUNT**2`` samples per pair.  The near-minimal triangle is grown
    by :data:`TRIANGLE_INFLATE` about its centroid.  A level whose row ends
    or triangle are too large for a finite cubic raises its
    :class:`UnstableLevelError` before any arithmetic that could overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
        ends, hf_ends = _row_ends(_frozen_offsets(op))
        _check_cubic_finite(ends, level)
    tri = _inflate(min_enclosing_triangle(convex_hull(ends)), TRIANGLE_INFLATE)
    _check_cubic_finite(tri.vertices, level)
    return tri, convex_hull(hf_ends)


def _designs(ops: dict) -> dict:
    """level -> design for a dict of level -> operator, levels ascending;
    raises the lowest failing level's error."""
    regions = {}
    for ell, op in ops.items():
        try:
            regions[ell] = _level_region(op, ell)
        except UnstableLevelError:
            _optimize_levels(regions)  # raises first if a lower level fails
            raise
    weights = _optimize_levels(regions)
    return {ell: SpectralDesign(t, weights[ell], hf_hull) for ell, (t, hf_hull) in regions.items()}


def design_levels(ops: list) -> list:
    """One :class:`SpectralDesign` per operator, level ``i`` being ``ops[i]``,
    with every level's weights from one cut loop (:func:`_optimize_levels`):
    each round is one LP over all levels that still need cuts.  Raises the
    lowest unstable level's :class:`UnstableLevelError`."""
    return list(_designs(dict(enumerate(ops))).values())


def design_for_operator(op: StencilOperator, level: int = 0) -> SpectralDesign:
    """The one-level case of :func:`design_levels`: triangle, high-frequency
    hull and optimized weights of ``op``; ``level`` names the level in
    errors."""
    return _designs({level: op})[level]


def jacobi_weights_for(design: SpectralDesign, op: StencilOperator) -> tuple[complex, complex, complex]:
    """Damped-Jacobi weights realizing the designed cubic on ``op``: the
    design weights, as damped Jacobi divides by the diagonal the cubic is
    certified in.  ``op`` is not read; ``perfbench/tracing.py`` keys its span
    on its shape."""
    return (design.weights.w1, design.weights.w2, design.weights.w3)
