import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from helmgrid import (
    ConstantK,
    ProblemConfig,
    StencilOperator,
    Triangle,
    WedgeK,
    build_stretched_grid,
    convex_hull,
    design_for_operator,
    min_enclosing_triangle,
    poly_max_on_boundary,
    symbol_samples,
)
from helmgrid.grid import WavenumberField, build_wavenumber_field
from helmgrid.multigrid import build_hierarchy
import helmgrid.spectrum
from helmgrid.spectrum import (
    TRIANGLE_DIRECTIONS,
    SmootherWeights,
    UnstableLevelError,
    _boundary_critical_points,
    _cut_rows,
    _edges,
    _frozen_offsets,
    _inflate,
    _level_region,
    _optimize_levels,
    _row_ends,
    _support_lines,
    _triangle_candidates,
)
from helmgrid.problems import setup_problem
from tests.conftest import make_operator, operator_for


def laplace_precond_operator(n=9, beta=0.5):
    g = build_stretched_grid(n)
    from helmgrid import rotate_grid

    return StencilOperator(rotate_grid(g, beta), WavenumberField(np.zeros((n, n))))


def oracle_min_flush_area(hull):
    """Exhaustive O(E^3) search over triangles flush with three hull edges."""
    m = len(hull)
    d = np.roll(hull, -1) - hull
    normals = -1j * d / np.abs(d)
    offs = hull.real * normals.real + hull.imag * normals.imag
    best = np.inf
    for i, j, k in itertools.combinations(range(m), 3):
        trip = [(normals[t], offs[t]) for t in (i, j, k)]
        ang = np.sort([np.angle(t[0]) for t in trip])
        gaps = [ang[1] - ang[0], ang[2] - ang[1], 2 * np.pi - (ang[2] - ang[0])]
        if max(gaps) >= np.pi - 1e-12:
            continue  # unbounded intersection
        vs, ok = [], True
        for (na, ca), (nb, cb) in itertools.combinations(trip, 2):
            det = na.real * nb.imag - na.imag * nb.real
            if abs(det) < 1e-14:
                ok = False
                break
            vs.append(
                complex((ca * nb.imag - cb * na.imag) / det, (cb * na.real - ca * nb.real) / det)
            )
        if not ok:
            continue
        v = np.array(vs)
        area = 0.5 * abs(
            (v[1] - v[0]).real * (v[2] - v[0]).imag - (v[1] - v[0]).imag * (v[2] - v[0]).real
        )
        best = min(best, area)
    return best


def _scaled(x):
    """The float ``x`` times 2**1100, an exact integer."""
    num, den = float(x).as_integer_ratio()
    return num * (2**1100 // den)


def reference_hull(points):
    """Monotone chain over every distinct point, with no row pre-filter and
    exact turns (integer arithmetic on the scaled coordinates)."""
    pts = np.unique(np.asarray(points, dtype=complex))
    if pts.size < 3:
        return pts
    pts = pts[np.lexsort((pts.imag, pts.real))]
    xy = [(_scaled(p.real), _scaled(p.imag)) for p in pts]

    def half(seq):
        out = []
        for i in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay), (bx, by) = xy[out[-2]], xy[out[-1]], xy[i]
                if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) > 0:
                    break
                out.pop()
            out.append(i)
        return out

    order = range(pts.size)
    hull = pts[half(order)[:-1] + half(order[::-1])[:-1]]
    if hull.size < 3:
        return np.array([pts[0], pts[-1]]) if pts.size > 1 else pts[:1]
    return hull


def reference_triangle_candidates(normals, offsets, n_flush):
    """The triangle search as first written: every triple of support lines
    from ``itertools.combinations`` is intersected, then unbounded ones are
    dropped by their normal angles.  The search that decides boundedness
    first must return the same candidates in the same order, bit for bit."""
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
    d1, d2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    areas = 0.5 * np.abs(d1.real * d2.imag - d1.imag * d2.real)
    return areas, tri, flush[bounded]


def assert_same_candidates(hull):
    lines = _support_lines(hull, TRIANGLE_DIRECTIONS)
    got, want = _triangle_candidates(*lines), reference_triangle_candidates(*lines)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def level_operators(op):
    """The operators of every level of a hierarchy on ``op``."""
    return [level.op for level in build_hierarchy(op).levels]


def triangle_boundary_points(t, per_edge=256):
    """``per_edge`` evenly spaced points on each of a triangle's edges, each
    edge's start included and its end left out."""
    v = t.vertices
    s = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    return np.concatenate([v[i] + s * (v[(i + 1) % 3] - v[i]) for i in range(3)])


def triangle_area(t):
    """Signed area, positive for counterclockwise vertices."""
    v = t.vertices
    d1, d2 = v[1] - v[0], v[2] - v[0]
    return 0.5 * (d1.real * d2.imag - d1.imag * d2.real)


def polygon_boundary_points(vertices, total=768):
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


def _worst_peaks(excess):
    """Indices of up to 64 positive local maxima of a boundary sampling
    (cyclic order), largest first."""
    peak = (excess > 0) & (excess >= np.roll(excess, 1)) & (excess >= np.roll(excess, -1))
    idx = np.flatnonzero(peak)
    return idx[np.argsort(excess[idx])[::-1][:64]]


def reference_optimize_weights(t, hf_hull):
    """The cutting-plane weight LP on dense samplings: 65,536 points per
    triangle edge and 49,152 along the high-frequency hull, started from 32
    points per edge in 8 directions and cut at up to 64 sampled peaks a round.
    Returns ``(w, stability, smoothing)`` with both maxima sampled."""
    tri_dense = triangle_boundary_points(t, 65536)
    hf_dense = polygon_boundary_points(np.asarray(hf_hull, dtype=complex), 49152)
    limit = 1.0 - 1e-6
    phi0 = 2.0 * np.pi * np.arange(8) / 8
    tri0 = tri_dense[:: 65536 // 32]
    hf0 = hf_dense[:: 49152 // 96]
    blocks = [
        _cut_rows(np.repeat(tri0, phi0.size), np.tile(phi0, tri0.size), 0.0, limit),
        _cut_rows(np.repeat(hf0, phi0.size), np.tile(phi0, hf0.size), -1.0, 0.0),
    ]
    cost = np.zeros(7)
    cost[6] = 1.0
    for _ in range(60):
        res = linprog(
            cost,
            A_ub=np.concatenate([b[0] for b in blocks]),
            b_ub=np.concatenate([b[1] for b in blocks]),
            bounds=[(None, None)] * 7,
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10},
        )
        assert res.success, res.message
        a = res.x[0:6:2] + 1j * res.x[1:6:2]
        p_tri = 1.0 + tri_dense * (a[0] + tri_dense * (a[1] + tri_dense * a[2]))
        p_hf = 1.0 + hf_dense * (a[0] + hf_dense * (a[1] + hf_dense * a[2]))
        bad_tri = _worst_peaks(np.abs(p_tri) - 1.0)
        bad_hf = _worst_peaks(np.abs(p_hf) - (res.x[6] * (1.0 + 1e-3) + 1e-9))
        if bad_tri.size == 0 and bad_hf.size == 0:
            break
        blocks.append(_cut_rows(tri_dense[bad_tri], np.angle(p_tri[bad_tri]), 0.0, limit))
        blocks.append(_cut_rows(hf_dense[bad_hf], np.angle(p_hf[bad_hf]), -1.0, 0.0))
    w = np.zeros(3, dtype=complex)
    roots = np.roots(a[::-1].tolist() + [1.0])
    w[: roots.size] = 1.0 / roots
    return w, poly_max_on_boundary(w, tri_dense), poly_max_on_boundary(w, hf_dense)


def dense_edge_points(vertices, per_edge=65536):
    """``per_edge`` evenly spaced points on every edge, both ends included."""
    z0, d = _edges(vertices)
    return (z0[:, None] + np.linspace(0.0, 1.0, per_edge) * d[:, None]).ravel()


# coordinates on a 1/8 grid give repeated rows and exactly collinear runs
_coord = st.integers(-64, 64).map(lambda i: i / 8)


@st.composite
def row_points(draw):
    """Points on few horizontal rows, with repeated real parts (duplicates)."""
    ims = draw(st.lists(_coord, min_size=1, max_size=4))
    res = draw(st.lists(_coord, min_size=1, max_size=8))
    count = draw(st.integers(1, 40))
    pick_re = draw(st.lists(st.integers(0, len(res) - 1), min_size=count, max_size=count))
    pick_im = draw(st.lists(st.integers(0, len(ims) - 1), min_size=count, max_size=count))
    return np.array(res)[pick_re] + 1j * np.array(ims)[pick_im]


@st.composite
def collinear_points(draw):
    """Integer multiples of one direction from one origin (exact arithmetic)."""
    step = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    origin = complex(draw(st.integers(-5, 5)), draw(st.integers(-5, 5)))
    ts = draw(st.lists(st.integers(-10, 10), min_size=1, max_size=20))
    return origin + step * np.array(ts, dtype=float)


@st.composite
def near_collinear_points(draw):
    """Float points ``a + t (b - a)``, rounded off the line, plus a few others."""
    coord = st.floats(-4, 4)
    a, b = (complex(draw(coord), draw(coord)) for _ in range(2))
    ts = draw(st.lists(st.floats(-2, 2), min_size=1, max_size=12))
    extra = draw(st.lists(st.builds(complex, coord, coord), max_size=3))
    return np.array([a + t * (b - a) for t in ts] + extra)


class TestSymbolSamples:
    def test_pure_laplacian_samples_real_in_0_2(self):
        op = laplace_precond_operator()
        ss = symbol_samples(op)
        assert np.max(np.abs(ss.points.imag)) <= 1e-14
        assert np.all(ss.points.real > 0)
        assert np.all(ss.points.real <= 2.0 + 1e-14)

    def test_theta_pi_pi_gives_two_exactly(self):
        op = laplace_precond_operator()
        ss = symbol_samples(op)
        assert np.max(ss.points.real) == pytest.approx(2.0, abs=1e-13)

    def test_high_frequency_flagging(self):
        op = make_operator(15, 10.0)
        ss = symbol_samples(op)
        # theta_i = i*pi/64 for i = 1..64; i >= 32 hits theta >= pi/2, so only
        # 31 of 64 per axis are low-frequency
        assert ss.hf_mask.mean() == pytest.approx(1 - (31 / 64) ** 2)

    def test_lower_half_for_positive_shift(self):
        op = make_operator(15, 10.0, sigma_max=1.0, layer_width=3)
        ss = symbol_samples(op)
        assert np.all(ss.points.imag < 0)

    def test_eigenvalues_near_sample_hull(self):
        # dense oracle: eigenvalues of the diagonal-normalized preconditioner
        # on a uniform-gamma constant-k level sit inside the sampled hull
        op = make_operator(16, 0.625 * 17, mode="precond_grid")
        a = op.assemble_dense()
        dg = op.grid_diagonal().ravel()
        eig = np.linalg.eigvals(a / dg[:, None])
        ss = symbol_samples(op)
        hull = convex_hull(ss.points)
        diam = np.max(np.abs(hull[:, None] - hull[None, :]))
        tri = min_enclosing_triangle(hull)
        # containment up to 5% of the diameter: check against a slightly
        # inflated hull-bounding triangle
        assert np.all(tri.contains(eig, slack=0.05 * diam / max(tri.diameter, 1e-300)))

    def test_vanishing_full_diagonal_sampled(self):
        # kh = 2 exactly (n = 31, k = 64): the physical operator's full
        # diagonal 4/h^2 - k^2 is zero off the layer, and nothing divides by it
        op = make_operator(31, 64.0, sigma_max=1.0, mode="physical")
        assert np.any(op.assemble_dense().diagonal() == 0)
        s = symbol_samples(op)
        assert np.all(np.isfinite(s.points))
        all_ends, hf_ends = _row_ends(_frozen_offsets(op))
        for ends, pts in ((all_ends, s.points), (hf_ends, s.points[s.hf_mask])):
            assert convex_hull(ends).tobytes() == convex_hull(pts).tobytes()

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 15).map(lambda i: 2 * i + 1),
        k=st.one_of(
            st.floats(0.5, 20.0).map(ConstantK),
            st.tuples(st.floats(0.5, 20.0), st.floats(0.5, 20.0), st.floats(0.5, 20.0))
            .map(lambda ks: WedgeK(*ks)),
        ),
        sigma_max=st.floats(0.0, 3.0),
        beta=st.floats(0.05, 1.0),
        mode=st.sampled_from(["precond_grid", "precond_csl"]),
    )
    def test_row_end_hulls_are_sample_hulls(self, n, k, sigma_max, beta, mode):
        # the design's hulls come from each pair's row ends alone; they must
        # equal the hulls of every sample, byte for byte, on every level
        g = build_stretched_grid(n, None, sigma_max)
        fine = operator_for(mode, g, build_wavenumber_field(k, g), beta)
        for op in level_operators(fine):
            s = symbol_samples(op)
            all_ends, hf_ends = _row_ends(_frozen_offsets(op))
            for ends, pts in ((all_ends, s.points), (hf_ends, s.points[s.hf_mask])):
                assert convex_hull(ends).tobytes() == convex_hull(pts).tobytes()


class TestConvexHull:
    def test_square_corners(self):
        pts = np.array([0, 1, 1 + 1j, 1j])
        hull = convex_hull(pts)
        assert set(np.round(hull, 12)) == set(np.round(pts, 12))

    def test_random_points_inside_hull(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        hull = convex_hull(pts)
        # every input point lies inside the hull polygon (cross-product test)
        d = np.roll(hull, -1) - hull
        for p in pts:
            signs = (d.real * (p - hull).imag - d.imag * (p - hull).real)
            assert np.all(signs >= -1e-9)

    def test_duplicates_removed(self):
        pts = np.array([0, 0, 1, 1, 1j, 1j, 0.1 + 0.1j])
        hull = convex_hull(pts)
        assert len(hull) == 3

    def test_collinear_returns_extremes(self):
        pts = np.linspace(0, 1, 17) * (1 + 1j)
        hull = convex_hull(pts)
        assert len(hull) == 2
        assert hull[0] == 0 and hull[1] == 1 + 1j

    def test_counterclockwise_orientation(self):
        rng = np.random.default_rng(2)
        hull = convex_hull(rng.standard_normal(50) + 1j * rng.standard_normal(50))
        area2 = sum(
            (hull[i].real * hull[(i + 1) % len(hull)].imag
             - hull[(i + 1) % len(hull)].real * hull[i].imag)
            for i in range(len(hull))
        )
        assert area2 > 0


    @settings(max_examples=300)
    @given(pts=st.one_of(row_points(), collinear_points(), near_collinear_points()))
    # a float cross product that rounds to 0 pops the true vertex -1j
    @example(pts=np.array([-1, 1.7e-65 - 1j, -1j, 1 - 1j]))
    # 3 * fl(1/3) rounds to 1, so the float chain calls the vertex collinear
    @example(pts=np.array([0, 1 + 1j / 3, 3 + 1j]))
    def test_row_prefilter_matches_reference_chain(self, pts):
        assert np.array_equal(convex_hull(pts), reference_hull(pts))

    @pytest.mark.parametrize(
        "precond, k",
        [("grid", ConstantK(40.0)), ("csl", ConstantK(40.0)), ("grid", WedgeK(10.0, 20.0, 40.0))],
    )
    def test_level_hulls_match_reference_chain(self, precond, k):
        problem = setup_problem(ProblemConfig(n=63, k=k, sigma_max=1.0, precond=precond))
        for level in problem.hierarchy.levels:
            s = symbol_samples(level.op)
            for pts in (s.points, s.points[s.hf_mask], np.conj(s.points[s.hf_mask])):
                assert np.array_equal(convex_hull(pts), reference_hull(pts))


class TestMinEnclosingTriangle:
    @settings(max_examples=60)
    @given(pts=st.lists(st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)), min_size=3,
                        max_size=80))
    def test_candidates_match_all_triples_search(self, pts):
        hull = convex_hull(np.array(pts))
        assume(hull.size >= 3)
        assert_same_candidates(hull)

    @pytest.mark.parametrize(
        "precond, k",
        [("grid", ConstantK(40.0)), ("csl", ConstantK(40.0)), ("grid", WedgeK(10.0, 20.0, 40.0))],
    )
    def test_candidates_match_all_triples_search_on_level_hulls(self, precond, k):
        problem = setup_problem(ProblemConfig(n=63, k=k, sigma_max=1.0, precond=precond))
        for level in problem.hierarchy.levels:
            s = symbol_samples(level.op)
            for pts in (s.points, s.points[s.hf_mask]):
                assert_same_candidates(convex_hull(pts))

    def test_single_point(self):
        t = min_enclosing_triangle(np.array([0.3 - 0.2j]))
        assert triangle_area(t) > 0
        assert np.all(t.contains(np.array([0.3 - 0.2j]), slack=1e-9))

    def test_equilateral_hull_returns_itself(self):
        v = np.exp(2j * np.pi * np.arange(3) / 3)
        t = min_enclosing_triangle(v)
        hull_area = oracle_min_flush_area(convex_hull(v))
        assert triangle_area(t) == pytest.approx(hull_area, rel=1e-9)
        assert set(np.round(t.vertices, 9)) == set(np.round(v, 9))

    def test_area_within_ten_percent_of_flush_minimum(self):
        rng = np.random.default_rng(42)
        pts = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        hull = convex_hull(pts)
        t = min_enclosing_triangle(hull)
        assert np.all(t.contains(pts, slack=1e-10))
        assert triangle_area(t) <= 1.1 * oracle_min_flush_area(hull)

    def test_degenerate_segment_thickened(self):
        seg = np.linspace(0.1, 2.0, 33).astype(complex)
        t = min_enclosing_triangle(seg)
        assert triangle_area(t) > 0
        assert np.all(t.contains(seg, slack=1e-9))


class TestOptimizeWeights:
    def test_real_segment_chebyshev_oracle(self):
        # the best degree-3 residual polynomial on [0.5, 2] is the scaled
        # Chebyshev polynomial with max 1/|T3(5/3)| = 27/365
        seg = np.linspace(0.5, 2.0, 64).astype(complex)
        thick = np.concatenate([seg + 1e-6j, seg - 1e-6j])
        tri = _inflate(min_enclosing_triangle(convex_hull(thick)), 1e-9)
        w = _optimize_levels({0: (tri, convex_hull(thick))})[0]
        cheb_opt = 27.0 / 365.0
        assert w.achieved_stability <= 1.0 + 1e-8
        assert w.achieved_smoothing <= 0.12
        assert w.achieved_smoothing >= 0.9 * cheb_opt  # cannot beat the oracle

    @settings(max_examples=10, deadline=None)
    @given(a=st.floats(0.01, 10.0), ratio=st.floats(1.05, 100.0))
    def test_thin_segment_reaches_chebyshev_optimum(self, a, ratio):
        # on a real segment [a, b] no cubic with p(0) = 1 beats the scaled
        # Chebyshev polynomial, whose max is 1/T3((b+a)/(b-a))
        b = a * ratio
        tri = Triangle(complex(a), (a + b) / 2 - 1e-6j * (b - a), complex(b))
        w = _optimize_levels({0: (tri, np.array([a, b], dtype=complex))})[0]
        x = (b + a) / (b - a)
        assert w.achieved_stability <= 1.0 + 1e-8
        assert w.achieved_smoothing <= 1.01 / (4 * x**3 - 3 * x)

    def test_zero_weights_are_feasible_but_not_optimal(self):
        w0 = SmootherWeights(0, 0, 0, 1.0, 1.0)
        z = np.linspace(0.5, 2, 32).astype(complex)
        assert poly_max_on_boundary(w0.w, z) == pytest.approx(1.0)

    def test_interior_never_exceeds_boundary_max(self, hier31_poly3):
        # maximum modulus: |p| at 10000 random interior points is below the
        # certified boundary maximum
        rng = np.random.default_rng(7)
        assert hier31_poly3.levels[-1].design is None
        for level in hier31_poly3.levels[:-1]:
            w = level.design.weights
            v = level.design.triangle.vertices
            r1, r2 = rng.random(10000), rng.random(10000)
            s1 = np.sqrt(r1)
            pts = (1 - s1) * v[0] + s1 * (1 - r2) * v[1] + s1 * r2 * v[2]
            interior_max = poly_max_on_boundary(w.w, pts)
            assert interior_max <= w.achieved_stability + 1e-9

    def test_unstable_level_error_carries_best_found(self):
        from helmgrid.spectrum import UnstableLevelError

        err = UnstableLevelError(2, (0.1, 0.2, 0.3), 1.5, 0.9)
        assert err.level == 2
        assert err.weights == (0.1, 0.2, 0.3)
        assert err.stability == 1.5 and err.smoothing == 0.9
        assert "unstable level 2" in str(err)


_part = st.floats(-4.0, 4.0)
_complex = st.builds(complex, _part, _part)


@st.composite
def cubic_and_boundary(draw):
    """A cubic's coefficients (c0..c3) and a point, a segment, a triangle or
    a polygon, possibly with c3 = 0 or a repeated vertex (a zero-length edge)."""
    coeffs = np.array(draw(st.lists(_complex, min_size=4, max_size=4)))
    coeffs *= 10.0 ** np.array(draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4)))
    if draw(st.booleans()):
        coeffs[3] = 0.0
    vertices = draw(st.lists(_complex, min_size=1, max_size=6))
    if len(vertices) > 2 and draw(st.booleans()):
        vertices.insert(1, vertices[0])
    return coeffs, np.array(vertices) * 10.0 ** draw(st.integers(-1, 1))


class TestBoundaryCriticalPoints:
    @settings(max_examples=150)
    @given(case=cubic_and_boundary())
    @example(case=(np.array([1.0, -2.0, 1.5, 0.0]), np.array([0.2 - 0.1j, 1.8 - 0.1j, 1.0 - 1j])))
    @example(case=(np.array([1.0, 0.3j, -0.7, 0.25]), np.array([0.5 - 0.5j, 0.5 - 0.5j, 2.0, 1j])))
    @example(case=(np.array([1.0, -1.0, 0.2, 0.05j]), np.array([0.1 - 0.2j, 1.9 - 0.3j])))
    @example(case=(np.array([1.0, -1.0, 0.2, 0.05j]), np.array([0.7 - 0.2j])))
    def test_exact_maximum_matches_dense_sampling(self, case):
        # |p| on the returned points peaks where 65,536 points per edge peak,
        # and never below them: the exact maxima are in the set
        coeffs, vertices = case
        exact = np.max(np.abs(np.polyval(coeffs[::-1], _boundary_critical_points(coeffs, vertices))))
        sampled = np.max(np.abs(np.polyval(coeffs[::-1], dense_edge_points(vertices))))
        assert exact >= sampled - 1e-12 * sampled
        assert abs(exact - sampled) <= 1e-9 * sampled

    def test_points_lie_on_the_boundary(self):
        v = np.array([0.0, 2.0 - 1j, 1.0 + 1j])
        z = _boundary_critical_points(np.array([1.0, -1.5 + 0.2j, 0.7, -0.1j]), v)
        np.testing.assert_array_equal(z[:3], v)
        z0, d = _edges(v)
        # each point is z0 + t d with 0 <= t <= 1 on some edge
        t = (z[:, None] - z0[None, :]) / d[None, :]
        on_edge = (np.abs(t.imag) <= 1e-12) & (t.real >= -1e-12) & (t.real <= 1 + 1e-12)
        assert np.all(on_edge.any(axis=1))


class TestDesignQuality:
    @pytest.mark.parametrize("precond", ["grid", "csl"])
    @pytest.mark.parametrize("sigma_max", [0.0, 1.0])
    @pytest.mark.parametrize("n, k", [(31, 20.0), (63, 40.0)])
    def test_not_worse_than_dense_reference(self, n, k, sigma_max, precond):
        # on every level's own triangle and hull, the exact-maxima LP is
        # within 0.1% of the dense-sampled one and certified stable, and its
        # certificate is never below a dense sampling of the same cubic
        config = ProblemConfig(n=n, k=ConstantK(k), sigma_max=sigma_max, precond=precond,
                               smoother="poly3")
        levels = setup_problem(config).hierarchy.levels
        assert levels[-1].design is None
        for level in levels[:-1]:
            d, w = level.design, level.design.weights
            _, ref_stability, ref_smoothing = reference_optimize_weights(d.triangle, d.hf_hull)
            assert ref_stability <= 1.0 + 1e-8
            assert w.achieved_stability <= 1.0
            assert w.achieved_smoothing <= 1.001 * ref_smoothing
            for certified, vertices in ((w.achieved_stability, d.triangle.vertices),
                                        (w.achieved_smoothing, d.hf_hull)):
                assert certified >= poly_max_on_boundary(w.w, dense_edge_points(vertices)) - 1e-12


class TestPolyMax:
    def test_zero_weights(self):
        assert poly_max_on_boundary((0, 0, 0), np.array([1.0, 2.0 + 1j])) == 1.0

    def test_single_root_cancellation(self):
        z = 1.5 - 0.2j
        assert poly_max_on_boundary((1.0 / z, 0, 0), np.array([z])) == pytest.approx(0.0, abs=1e-15)

    def test_refinement_agreement(self, hier31_poly3):
        # sampling the boundary 10x finer changes the max by < 1e-3 relative
        level = hier31_poly3.levels[0]
        tri, w = level.design.triangle, level.design.weights
        coarse = poly_max_on_boundary(w.w, triangle_boundary_points(tri, 256))
        fine = poly_max_on_boundary(w.w, triangle_boundary_points(tri, 2560))
        assert abs(fine - coarse) <= 1e-3 * fine


@pytest.fixture(scope="module")
def k80_levels_and_lp_calls():
    """The n = 127, k = 80 poly3 levels and the number of LPs their set-up solved."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helmgrid.spectrum, "linprog", counted)
        config = ProblemConfig(n=127, k=ConstantK(80.0), smoother="poly3")
        levels = setup_problem(config).hierarchy.levels
    return levels, len(calls)


# on the thin segment [0.5, 2] a stable cubic exists; on a triangle with a
# vertex at 0 none does, as every cubic with p(0) = 1 has |p(0)| = 1
STABLE = (Triangle(0.5 + 0j, 1.25 - 1.5e-6j, 2.0 + 0j), np.array([0.5, 2.0], dtype=complex))
AT_ZERO = (Triangle(0j, 1.0 - 1j, 2.0 + 0j), np.array([0.5, 1.5], dtype=complex))
# a layer whose samples are too large for a finite cubic gives, as level 1,
# that level's error in place of a region
TOO_LARGE_AT_1 = _level_region(make_operator(15, 10.0, sigma_max=1e60, mode="precond_csl"), 1)


class TestJointDesign:
    def test_one_lp_per_round_for_all_levels(self, k80_levels_and_lp_calls):
        # one LP per round over every level that still needs cuts: 11 rounds
        # at n = 127, where a loop of one design per level solves 27 LPs
        levels, lp_calls = k80_levels_and_lp_calls
        assert len(levels) == 4
        assert lp_calls <= 12

    def test_each_level_is_as_good_as_its_own_design(self, k80_levels_and_lp_calls):
        # the joint LP is separable, so each level's block is its own optimum:
        # certified stable, and within the cut loop's 0.1% of the one-level design
        levels, _ = k80_levels_and_lp_calls
        assert levels[-1].design is None and levels[-1].jacobi_w is None
        for ell, level in enumerate(levels[:-1]):
            d = level.design
            alone = _optimize_levels({ell: (d.triangle, d.hf_hull)})[ell]
            assert d.weights.achieved_stability <= 1.0 + 1e-8
            assert d.weights.achieved_smoothing <= (1.0 + 1e-3) * alone.achieved_smoothing + 1e-9

    @pytest.mark.parametrize("regions, failing", [
        ((STABLE, AT_ZERO, STABLE), 1),
        ((AT_ZERO, STABLE), 0),
        ((STABLE, AT_ZERO, AT_ZERO), 1),
        ((AT_ZERO, TOO_LARGE_AT_1), 0),
        ((STABLE, TOO_LARGE_AT_1), 1),
    ])
    def test_names_the_lowest_failing_level(self, regions, failing):
        # a failing level leaves the loop, the others run on, and the lowest
        # failing level's error is raised, whether its region or its LP
        # failed, with the text of a loop over that level alone
        with pytest.raises(UnstableLevelError, match=f"^unstable level {failing}:") as joint:
            _optimize_levels(dict(enumerate(regions)))
        with pytest.raises(UnstableLevelError) as alone:
            _optimize_levels({failing: regions[failing]})
        assert str(joint.value) == str(alone.value)

    def test_one_level_design_is_level_0_of_the_hierarchy(self):
        # design_for_operator is design_levels on one operator: on a
        # stretched level its design is byte for byte the hierarchy's
        op = make_operator(31, 20.0, sigma_max=2.0)
        want = build_hierarchy(op, smoother="poly3").levels[0].design
        got = design_for_operator(op)
        np.testing.assert_array_equal(got.triangle.vertices, want.triangle.vertices)
        np.testing.assert_array_equal(got.weights.w, want.weights.w)
        assert got.weights.achieved_stability == want.weights.achieved_stability
        assert got.weights.achieved_smoothing == want.weights.achieved_smoothing


class TestDesignPipeline:
    @pytest.mark.parametrize("sigma_max", [1e60, 1e100, 1e150])
    def test_layer_too_large_for_a_finite_cubic_names_its_level(self, sigma_max):
        # the layer's samples reach |z| past the cube root of the largest
        # float; the design reports level 0 unstable before its arithmetic
        # overflows (warnings are errors here)
        config = ProblemConfig(n=31, k=ConstantK(20.0), sigma_max=sigma_max, precond="csl",
                               smoother="poly3")
        with pytest.raises(UnstableLevelError, match="^unstable level 0:") as err:
            setup_problem(config)
        assert err.value.level == 0

    def test_certified_quantities(self, hier31_poly3):
        assert hier31_poly3.levels[-1].design is None
        for level in hier31_poly3.levels[:-1]:
            d = level.design
            assert d.weights.achieved_stability <= 1.0 + 1e-8
            ss = symbol_samples(level.op)
            assert np.all(d.triangle.contains(ss.points, slack=1e-10))
            assert np.max(d.triangle.vertices.imag) <= 1e-12

    def test_jacobi_weights_are_design_weights(self, hier31_poly3, hier31_stretched_poly3):
        # damped Jacobi divides by the diagonal the cubic is certified in, so
        # every level, stretched ones included, runs the design weights as is
        for hier in (hier31_poly3, hier31_stretched_poly3):
            assert hier.levels[-1].design is None and hier.levels[-1].jacobi_w is None
            for level in hier.levels[:-1]:
                want = level.design.weights.w
                got = np.array(level.jacobi_w)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_design_frame_is_sample_frame_past_grid_bound(self):
        # with csl past the grid preconditioner's sigma_max bound the outer
        # layer's samples cross the real axis; each level's triangle must still
        # contain that level's own samples and certify the weights that run
        config = ProblemConfig(n=63, k=ConstantK(20.0), sigma_max=6.0, precond="csl",
                               smoother="poly3")
        levels = setup_problem(config).hierarchy.levels
        assert levels[-1].design is None
        for level in levels[:-1]:
            d = level.design
            ss = symbol_samples(level.op)
            assert np.all(d.triangle.contains(ss.points, slack=1e-10))
            assert d.weights.achieved_stability <= 1.0 + 1e-8
            got, want = np.array(level.jacobi_w), d.weights.w
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_polygon_boundary_points_cover_segment(self):
        pts = polygon_boundary_points(np.array([0.0 + 0j, 1.0 + 0j]), total=100)
        assert len(pts) == 100
        assert pts[0] == 0 and pts[-1] == 1
