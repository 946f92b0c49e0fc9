"""Per-level spectral design for the cubic polynomial smoother.

For each multigrid level we sample the Jacobi-normalized Fourier symbol of the
level's (shifted) operator over frozen coefficient pairs, bound the samples by
a near-minimal triangle in the complex plane, and pick three damped-Jacobi
weights whose cubic error polynomial ``p(z) = (1-w1 z)(1-w2 z)(1-w3 z)`` is
stable on the whole triangle (|p| <= 1) and as small as possible on the
high-frequency part of the spectrum.

In its coefficients the cubic's design is convex: a complex Chebyshev
problem solved as a cutting-plane linear program (Streit & Nuttall, 1982),
with |p| <= 1 - 1e-6 on triangle cuts and the high-frequency maximum within
0.1% of the sampled optimum (see :func:`optimize_weights`).

Each frozen pair's samples share one imaginary part, so :func:`convex_hull`
keeps only the two ends of every such horizontal run before its monotone
chain; a level's hull costs two points per pair rather than ``theta_count^2``.
The LP rounds are the bulk of a design's time.

Normalization: samples are the operator symbol divided by the diagonal of its
second-difference part, ``mu = [(2-2cos(tx)) + (2-2cos(ty))]/4 - s*k^2*hc^2/4``
with ``hc`` the complex (gamma-scaled, stretched) spacing.  With a positive
shift this places every sample in the closed lower half-plane, which is what
makes a lower-half bounding triangle possible; normalizing by the full
diagonal ``4/hc^2 - s*k^2`` instead would rotate the set across the real axis.
The smoother damps with the same diagonal (``StencilOperator.grid_diagonal``),
so the designed weights are the damped-Jacobi weights, with no conversion.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .stencil import StencilOperator

__all__ = [
    "SymbolSampleSet",
    "Triangle",
    "SmootherWeights",
    "SpectralDesign",
    "ResonantDiagonalError",
    "UnstableLevelError",
    "HalfPlaneWarning",
    "symbol_samples",
    "convex_hull",
    "min_enclosing_triangle",
    "orient_lower_half",
    "optimize_weights",
    "poly_max_on_boundary",
    "design_for_operator",
    "jacobi_weights_for",
]

HIGH_FREQ_CUT = np.pi / 2
DEGENERATE_THICKEN = 1e-6
EDGE_CAP = 56  # hull edge directions are subsampled beyond this count
TRIANGLE_DIRECTIONS = 60  # uniform support directions beside the hull's edges


class ResonantDiagonalError(ValueError):
    """A frozen (spacing, k) pair makes the Jacobi diagonal vanish."""


class UnstableLevelError(RuntimeError):
    """No cubic with |p| <= 1 on the triangle was found for a level."""

    def __init__(self, level, weights, stability, smoothing):
        self.level = level
        self.weights = weights
        self.stability = stability
        self.smoothing = smoothing
        super().__init__(
            f"unstable level {level}: best stability {stability:.6g}, "
            f"smoothing {smoothing:.6g}"
        )


class HalfPlaneWarning(UserWarning):
    """Spectrum straddles the real axis by more than 5% of its diameter."""


@dataclass(frozen=True, eq=False)
class SymbolSampleSet:
    """Symbol samples for one level.

    ``points`` holds mu over all (theta_x, theta_y) on a uniform grid of
    (0, pi]^2 for every frozen (complex spacing, k) pair of the level;
    ``hf_mask`` flags samples with max(theta_x, theta_y) >= pi/2.
    """

    points: np.ndarray
    hf_mask: np.ndarray
    theta_count: int
    level: int = 0

    def __post_init__(self):
        if self.points.size == 0:
            raise ValueError("empty symbol sample set")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite symbol samples")

    @property
    def hf_points(self) -> np.ndarray:
        return self.points[self.hf_mask]


@dataclass(frozen=True)
class Triangle:
    """Bounding triangle; vertices are stored counterclockwise."""

    v1: complex
    v2: complex
    v3: complex
    flipped: bool = False

    @property
    def vertices(self) -> np.ndarray:
        return np.array([self.v1, self.v2, self.v3], dtype=complex)

    @property
    def area(self) -> float:
        v = self.vertices
        return 0.5 * _cross(v[1] - v[0], v[2] - v[0])

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

    def boundary_points(self, per_edge: int = 256) -> np.ndarray:
        v = self.vertices
        t = np.linspace(0.0, 1.0, per_edge, endpoint=False)
        return np.concatenate([v[i] + t * (v[(i + 1) % 3] - v[i]) for i in range(3)])


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

    def poly(self, z: np.ndarray) -> np.ndarray:
        """p(z) = (1 - w1 z)(1 - w2 z)(1 - w3 z); p(0) = 1 by construction."""
        z = np.asarray(z, dtype=complex)
        return (1.0 - self.w1 * z) * (1.0 - self.w2 * z) * (1.0 - self.w3 * z)


@dataclass(frozen=True, eq=False)
class SpectralDesign:
    """Everything the smoother needs for one level."""

    triangle: Triangle
    weights: SmootherWeights
    hf_hull: np.ndarray
    level: int = 0


# ---------------------------------------------------------------------------
# symbol sampling


def _frozen_pairs(op: StencilOperator):
    """Unique (complex spacing, k) pairs occurring on the operator's level."""
    spacings = np.unique(np.concatenate([op.grid.spacing_x, op.grid.spacing_y]))
    ks = np.unique(op.k_field.values)
    return spacings, ks


def symbol_samples(op: StencilOperator, theta_count: int = 64, level: int = 0) -> SymbolSampleSet:
    """Sample the Jacobi-normalized symbol over (0, pi]^2 for every frozen pair.

    Raises :class:`ResonantDiagonalError` if any pair's full diagonal
    ``4/hc^2 - s*k^2`` is within 1e-12 of zero.
    """
    if theta_count < 8:
        raise ValueError(f"theta_count must be >= 8, got {theta_count}")
    spacings, ks = _frozen_pairs(op)
    theta = np.arange(1, theta_count + 1) * np.pi / theta_count
    c = 2.0 - 2.0 * np.cos(theta)
    c_sum = (c[:, None] + c[None, :]).ravel()
    hf = (np.maximum(theta[:, None], theta[None, :]) >= HIGH_FREQ_CUT).ravel()

    shifted_k2 = op.shift * ks.astype(complex) ** 2
    hc2 = spacings**2
    d_full = 4.0 / hc2[:, None] - shifted_k2[None, :]
    if np.any(np.abs(d_full) < 1e-12):
        raise ResonantDiagonalError(
            f"resonant diagonal on level {level}: a frozen (spacing, k) pair "
            f"has |4/hc^2 - s*k^2| < 1e-12"
        )
    # mu = lambda / d_grid with d_grid = 4/hc^2 the second-difference diagonal
    offsets = (hc2[:, None] * shifted_k2[None, :] / 4.0).ravel()
    points = (c_sum[None, :] / 4.0 - offsets[:, None]).ravel()
    hf_mask = np.broadcast_to(hf, (offsets.size, hf.size)).ravel()
    return SymbolSampleSet(points=points, hf_mask=hf_mask, theta_count=theta_count, level=level)


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
    run is a convex combination of them, so it is never a hull vertex.  Symbol
    samples are built for this: every frozen (spacing, k) pair contributes
    ``c/4 - s*k^2*hc^2/4`` with ``c`` real, one horizontal run, so a level's
    tens of thousands of samples collapse to two points per pair.
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


def _cross(a: complex, b: complex) -> float:
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
    """All bounded triangles from triples of the given support lines.

    Returns (areas, vertex triples, flush flags); a candidate is flagged
    flush when all three of its lines carry hull edges (the first ``n_flush``
    lines), which is the family the area contract is stated against.
    """
    m = len(normals)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m), 3)),
        dtype=np.intp,
        count=3 * math.comb(m, 3),
    ).reshape(-1, 3)
    n1, n2, n3 = normals[combos[:, 0]], normals[combos[:, 1]], normals[combos[:, 2]]
    c1, c2, c3 = offsets[combos[:, 0]], offsets[combos[:, 1]], offsets[combos[:, 2]]
    flush = np.all(combos < n_flush, axis=1)

    def intersect(na, ca, nb, cb):
        det = na.real * nb.imag - na.imag * nb.real
        safe = np.where(np.abs(det) > 1e-14, det, 1.0)
        x = (ca * nb.imag - cb * na.imag) / safe
        y = (cb * na.real - ca * nb.real) / safe
        return x + 1j * y, det

    v12, det12 = intersect(n1, c1, n2, c2)
    v23, det23 = intersect(n2, c2, n3, c3)
    v31, det31 = intersect(n3, c3, n1, c1)

    # bounded intersection iff the three outward normals positively span the
    # plane: circular gaps between normal angles all < pi
    ang = np.sort(np.stack([np.angle(n1), np.angle(n2), np.angle(n3)], axis=1), axis=1)
    gaps = np.stack(
        [ang[:, 1] - ang[:, 0], ang[:, 2] - ang[:, 1], 2 * np.pi - (ang[:, 2] - ang[:, 0])],
        axis=1,
    )
    bounded = np.all(gaps < np.pi - 1e-12, axis=1)
    bounded &= (np.abs(det12) > 1e-14) & (np.abs(det23) > 1e-14) & (np.abs(det31) > 1e-14)

    tri = np.stack([v12, v23, v31], axis=1)[bounded]
    if tri.size == 0:
        return np.empty(0), np.empty((0, 3), dtype=complex), np.empty(0, dtype=bool)
    areas = 0.5 * np.abs(
        _cross_arr(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    )
    return areas, tri, flush[bounded]


def _cross_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.real * b.imag - a.imag * b.real


def _ccw(vertices: np.ndarray) -> np.ndarray:
    if _cross(vertices[1] - vertices[0], vertices[2] - vertices[0]) < 0:
        return vertices[[0, 2, 1]]
    return vertices


def min_enclosing_triangle(hull, inflate: float = 0.05) -> Triangle:
    """Near-minimal triangle containing the hull, inflated about its centroid.

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
        return _inflate(Triangle(z0 - r, z0 - 1j * r, z0 + r), inflate)

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
    return _inflate(Triangle(complex(v[0]), complex(v[1]), complex(v[2])), inflate)


def _inflate(t: Triangle, inflate: float) -> Triangle:
    c = t.centroid
    v = c + (1.0 + inflate) * (t.vertices - c)
    return Triangle(complex(v[0]), complex(v[1]), complex(v[2]), flipped=t.flipped)


def orient_lower_half(t: Triangle) -> Triangle:
    """Conjugate the triangle if it leans into the upper half-plane.

    Emits :class:`HalfPlaneWarning` (diagnostic, not fatal) when the triangle
    straddles the real axis by more than 5% of its diameter on both sides.
    """
    v = t.vertices
    top, bottom = float(v.imag.max()), float(v.imag.min())
    flipped = t.flipped
    if top > abs(bottom):
        v = np.conj(v)
        v = _ccw(v)
        top, bottom = float(v.imag.max()), float(v.imag.min())
        flipped = not flipped
    scale = 0.05 * max(t.diameter, 1e-300)
    if top > scale and -bottom > scale:
        warnings.warn(
            f"spectrum not half-plane-bounded: triangle spans Im in "
            f"[{bottom:.3g}, {top:.3g}]",
            HalfPlaneWarning,
        )
    return Triangle(complex(v[0]), complex(v[1]), complex(v[2]), flipped=flipped)


# ---------------------------------------------------------------------------
# weight optimization


def poly_max_on_boundary(weights, samples) -> float:
    """max |(1 - w1 z)(1 - w2 z)(1 - w3 z)| over the given samples."""
    w = weights.w if isinstance(weights, SmootherWeights) else np.asarray(weights, dtype=complex)
    z = np.asarray(samples, dtype=complex)
    p = (1.0 - w[0] * z) * (1.0 - w[1] * z) * (1.0 - w[2] * z)
    return float(np.max(np.abs(p)))


def polygon_boundary_points(vertices: np.ndarray, total: int = 768) -> np.ndarray:
    """Points along a polygon/segment boundary, roughly ``total`` of them."""
    v = np.asarray(vertices, dtype=complex)
    if v.size == 1:
        return v.copy()
    if v.size == 2:
        return v[0] + np.linspace(0.0, 1.0, total) * (v[1] - v[0])
    lengths = np.abs(np.roll(v, -1) - v)
    weights = lengths / lengths.sum()
    pieces = []
    for i in range(len(v)):
        m = max(8, int(round(total * weights[i])))
        t = np.linspace(0.0, 1.0, m, endpoint=False)
        pieces.append(v[i] + t * (v[(i + 1) % len(v)] - v[i]))
    return np.concatenate(pieces)


_DENSE_PER_EDGE = 65536  # certificate sampling per triangle edge
_DENSE_HF_TOTAL = 3 * 16384  # certificate sampling of the high-frequency hull
_LP_TOL = 1e-10  # LP feasibility tolerance; coarse levels reach smoothing ~5e-6
_LP_MARGIN = 1e-6  # triangle cuts hold |p| <= 1 - margin, well above _LP_TOL
_HF_GAP = 1e-3  # accepted relative gap on the high-frequency max, plus an
_HF_SLACK = 1e-9  # absolute slack above _LP_TOL so that the cut loop ends
_START_PER_EDGE = 32
_START_DIRECTIONS = 8
_CUTS_PER_ROUND = 64
_MAX_ROUNDS = 60


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


def _worst_peaks(excess: np.ndarray) -> np.ndarray:
    """Indices of up to ``_CUTS_PER_ROUND`` positive local maxima of a
    boundary sampling (cyclic order), largest first."""
    peak = (excess > 0) & (excess >= np.roll(excess, 1)) & (excess >= np.roll(excess, -1))
    idx = np.flatnonzero(peak)
    return idx[np.argsort(excess[idx])[::-1][:_CUTS_PER_ROUND]]


def optimize_weights(t: Triangle, hf_hull: np.ndarray, level: int = 0) -> SmootherWeights:
    """Weights whose cubic has the least max |p| on the high-frequency hull
    boundary subject to |p| <= 1 on the triangle boundary, from an LP.

    With ``p(z) = 1 + a1 z + a2 z^2 + a3 z^3``, ``Re(e^{-i phi} p(z)) <= |p(z)|``
    is linear in ``(Re ak, Im ak)``, so each point and direction gives a cut:
    ``<= t`` on hull points (the objective is ``t``) and ``<= 1 - 1e-6`` on
    triangle points, a margin above the LP's feasibility tolerance.  From 32
    points per edge in 8 directions, each round solves the LP (HiGHS),
    evaluates ``p`` on the dense certificate samplings and cuts at the worst
    peaks with ``phi = arg p(z)``, until |p| <= 1 on the triangle and
    ``|p| <= t (1 + 1e-3) + 1e-9`` on the hull.  As ``t`` is a lower bound,
    the smoothing factor is within 0.1% of the sampled problem's optimum.

    The weights are the cubic's reciprocal roots.  Raises
    :class:`UnstableLevelError` when the LP is infeasible or the dense
    recheck finds stability above 1 + 1e-8.
    """
    hf_hull = np.asarray(hf_hull, dtype=complex)
    if hf_hull.size == 0:
        raise ValueError("high-frequency hull must be nonempty")
    tri_dense = t.boundary_points(_DENSE_PER_EDGE)
    hf_dense = polygon_boundary_points(hf_hull, _DENSE_HF_TOTAL)
    limit = 1.0 - _LP_MARGIN

    phi0 = 2.0 * np.pi * np.arange(_START_DIRECTIONS) / _START_DIRECTIONS
    tri0 = tri_dense[:: _DENSE_PER_EDGE // _START_PER_EDGE]
    hf0 = hf_dense[:: _DENSE_HF_TOTAL // (3 * _START_PER_EDGE)]
    blocks = [
        _cut_rows(np.repeat(tri0, phi0.size), np.tile(phi0, tri0.size), 0.0, limit),
        _cut_rows(np.repeat(hf0, phi0.size), np.tile(phi0, hf0.size), -1.0, 0.0),
    ]
    cost = np.zeros(7)
    cost[6] = 1.0
    for _ in range(_MAX_ROUNDS):
        res = linprog(
            cost,
            A_ub=np.concatenate([b[0] for b in blocks]),
            b_ub=np.concatenate([b[1] for b in blocks]),
            bounds=[(None, None)] * 7,
            method="highs",
            options={"primal_feasibility_tolerance": _LP_TOL},
        )
        if res.status == 2:  # no cubic beats p = 1, the zero weights
            raise UnstableLevelError(level, (0j, 0j, 0j), 1.0, 1.0)
        if not res.success:
            raise RuntimeError(f"weight LP failed on level {level}: {res.message}")
        a = res.x[0:6:2] + 1j * res.x[1:6:2]
        p_tri = 1.0 + tri_dense * (a[0] + tri_dense * (a[1] + tri_dense * a[2]))
        p_hf = 1.0 + hf_dense * (a[0] + hf_dense * (a[1] + hf_dense * a[2]))
        bad_tri = _worst_peaks(np.abs(p_tri) - 1.0)
        bad_hf = _worst_peaks(np.abs(p_hf) - (res.x[6] * (1.0 + _HF_GAP) + _HF_SLACK))
        if bad_tri.size == 0 and bad_hf.size == 0:
            break
        blocks.append(_cut_rows(tri_dense[bad_tri], np.angle(p_tri[bad_tri]), 0.0, limit))
        blocks.append(_cut_rows(hf_dense[bad_hf], np.angle(p_hf[bad_hf]), -1.0, 0.0))

    w = np.zeros(3, dtype=complex)
    roots = np.roots(a[::-1].tolist() + [1.0])  # the degree drops when a3 = 0
    w[: roots.size] = 1.0 / roots
    stability = poly_max_on_boundary(w, tri_dense)
    smoothing = poly_max_on_boundary(w, hf_dense)
    if stability > 1.0 + 1e-8:
        raise UnstableLevelError(level, tuple(w), stability, smoothing)
    return SmootherWeights(*(complex(v) for v in w), stability, smoothing)


# ---------------------------------------------------------------------------
# per-level pipeline


def design_for_operator(
    op: StencilOperator,
    theta_count: int = 64,
    level: int = 0,
) -> SpectralDesign:
    """samples -> hull -> oriented triangle -> optimized weights for one level."""
    samples = symbol_samples(op, theta_count=theta_count, level=level)
    tri = min_enclosing_triangle(convex_hull(samples.points))
    tri = orient_lower_half(tri)
    hf = samples.hf_points
    if tri.flipped:
        hf = np.conj(hf)
    hf_hull = convex_hull(hf)
    weights = optimize_weights(tri, hf_hull, level=level)
    return SpectralDesign(triangle=tri, weights=weights, hf_hull=hf_hull, level=level)


def jacobi_weights_for(design: SpectralDesign, op: StencilOperator) -> tuple[complex, complex, complex]:
    """Damped-Jacobi weights realizing the designed cubic on ``op``.

    Damped Jacobi divides by the second-difference diagonal, the normalization
    the cubic is certified in, so these are the design weights themselves,
    conjugated when the triangle was flipped into the lower half-plane.
    ``op`` is not read; ``perfbench/tracing.py`` keys its span on its shape.
    """
    w = np.conj(design.weights.w) if design.triangle.flipped else design.weights.w
    return (complex(w[0]), complex(w[1]), complex(w[2]))
