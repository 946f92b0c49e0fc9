import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helmgrid import (
    ComplexGrid,
    ConstantK,
    StencilOperator,
    WavenumberField,
    WedgeK,
    build_hierarchy,
    build_stretched_grid,
    build_wavenumber_field,
    coarse_solve,
)
from helmgrid.multigrid import lu_factor
from helmgrid.stencil import _second_difference_coeffs
from tests.conftest import MODES, make_operator, operator_for, random_field


def laplace_operator(n):
    """k = 0 oracle operator (pure second differences)."""
    return StencilOperator(build_stretched_grid(n), WavenumberField(np.zeros((n, n))))


def reference_apply(op, u):
    """The numpy apply the five-diagonal store replaced: the diagonal and the
    four 1-D neighbour coefficients, one pass over the field each."""
    dx, left_x, right_x = _second_difference_coeffs(op.grid.spacing_x)
    dy, left_y, right_y = _second_difference_coeffs(op.grid.spacing_y)
    diag = dx[:, None] + dy[None, :] - op.shift * op.k_field.values.astype(complex) ** 2
    u = np.asarray(u).astype(complex, copy=False)
    v = diag * u
    v[1:, :] += left_x[1:, None] * u[:-1, :]
    v[:-1, :] += right_x[:-1, None] * u[1:, :]
    v[:, 1:] += left_y[None, 1:] * u[:, :-1]
    v[:, :-1] += right_y[None, :-1] * u[:, 1:]
    return v


def reference_assemble_dense(op):
    """Column-probe dense assembly through :func:`reference_apply`, in the
    dense ordering (y fastest): column j is the image of the unit field j."""
    n = op.n_unknowns
    a = np.zeros((n, n), dtype=complex)
    e = np.zeros(op.shape, dtype=complex)
    for j in range(n):
        ix, iy = divmod(j, op.shape[1])
        e[ix, iy] = 1.0
        a[:, j] = reference_apply(op, e).ravel()
        e[ix, iy] = 0.0
    return a


def axis_spacing(n, sigma_max):
    """Spacings of an axis with n interior nodes: stretched layers from n = 3
    on, uniform below."""
    if n < 3:
        return np.full(n + 1, 1.0 / (n + 1))
    return build_stretched_grid(n, sigma_max=sigma_max).spacing_x


@st.composite
def rect_problems(draw, max_side=31):
    """``(g, kf, beta)`` as :func:`problems` draws them, on a non-square grid
    with sides in 1..max_side; kh in [0.05, 2.5] on the coarser axis."""
    n_x = draw(st.integers(1, max_side))
    n_y = draw(st.integers(1, max_side).filter(lambda m: m != n_x))
    beta = draw(st.floats(0.05, 3.0))
    gamma = np.sqrt(1 + 1j * beta)
    sigma_max = draw(st.floats(0.0, 1.0, exclude_max=True)) * gamma.real / gamma.imag
    g = ComplexGrid(axis_spacing(n_x, sigma_max), axis_spacing(n_y, sigma_max))
    k = st.floats(0.05, 2.5).map(lambda kh: kh * (min(n_x, n_y) + 1))
    spec = draw(st.one_of(st.builds(ConstantK, k), st.builds(WedgeK, k, k, k)))
    return g, build_wavenumber_field(spec, g), beta


def edge_windows(shape):
    """``(x0, x1, y0, y1)`` windows touching each domain edge and corner."""
    n_x, n_y = shape
    mx, my = n_x // 2, n_y // 2
    return [
        (0, mx, 1, n_y - 1), (n_x - mx, n_x, 1, n_y - 1),  # left, right edge
        (1, n_x - 1, 0, my), (1, n_x - 1, n_y - my, n_y),  # bottom, top edge
        (0, mx, 0, my), (n_x - mx, n_x, n_y - my, n_y),  # two corners
        (0, n_x, 0, n_y), (2, 3, 2, 3),  # the whole domain, one interior point
    ]


def window_apply(op, u, x0, x1, y0, y1):
    """:meth:`StencilOperator.apply_window` on ``u[x0:x1, y0:y1]`` with its
    ring of neighbours, zero outside the domain."""
    pad = np.zeros((op.shape[0] + 2, op.shape[1] + 2), dtype=complex)
    pad[1:-1, 1:-1] = u
    return op.apply_window(pad[x0 : x1 + 2, y0 : y1 + 2], x0, y0)


@st.composite
def problems(draw):
    """``(g, kf, beta)``: odd n in 3..31, beta in [0.05, 3], sigma_max in
    [0, Re gamma / Im gamma) so the rotated layer stays valid, and a constant
    or wedge k with kh in [0.05, 2.5]."""
    n = 2 * draw(st.integers(1, 15)) + 1
    beta = draw(st.floats(0.05, 3.0))
    gamma = np.sqrt(1 + 1j * beta)
    sigma_max = draw(st.floats(0.0, 1.0, exclude_max=True)) * gamma.real / gamma.imag
    g = build_stretched_grid(n, sigma_max=sigma_max)
    k = st.floats(0.05, 2.5).map(lambda kh: kh * (n + 1))
    spec = draw(st.one_of(st.builds(ConstantK, k), st.builds(WedgeK, k, k, k)))
    return g, build_wavenumber_field(spec, g), beta


def at_kh2(test):
    """``test`` with explicit examples at kh = 2 exactly (n = 31, k = 64) for
    every flavour at sigma_max 0 and 1: there the physical operator's full
    diagonal 4/h^2 - k^2 is zero off the layer."""
    for sigma_max in (0.0, 1.0):
        g = build_stretched_grid(31, sigma_max=sigma_max)
        problem = (g, build_wavenumber_field(ConstantK(64.0), g), 0.5)
        for mode in MODES:
            test = example(problem=problem, mode=mode, seed=0)(test)
    return test


class TestApply:
    def test_zero_field(self, op31):
        assert np.all(op31.apply(np.zeros((31, 31))) == 0)

    def test_interior_point_stencil_value(self):
        # u = (0, 1, 0) along x, constant along y: at a point away from the
        # y-boundaries the y-differences vanish and v = 2/h^2 - k^2
        op = make_operator(7, 5.0, mode="physical")
        u = np.zeros((7, 7))
        u[3, :] = 1.0
        h = 1.0 / 8.0
        assert op.apply(u)[3, 3] == pytest.approx(2.0 / h**2 - 25.0)

    def test_matches_dense_on_random_field(self):
        op = make_operator(8, 5.0, sigma_max=0.7, layer_width=2)
        u = random_field((8, 8), seed=1)
        a = op.assemble_dense()
        got = op.apply(u).ravel()
        want = a @ u.ravel()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=30)
    @given(problem=problems(), mode=st.sampled_from(MODES), seed=st.integers(0, 2**32 - 1))
    @at_kh2
    def test_matches_dense_all_modes(self, problem, mode, seed):
        op = operator_for(mode, *problem)
        u = random_field(op.shape, seed=seed)
        a = op.assemble_dense()
        np.testing.assert_allclose(op.apply(u).ravel(), a @ u.ravel(), rtol=1e-12)

    @settings(max_examples=30)
    @given(
        problem=problems(),
        mode=st.sampled_from(MODES),
        seed=st.integers(0, 2**32 - 1),
        a=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
        b=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
    )
    def test_linearity(self, problem, mode, seed, a, b):
        op = operator_for(mode, *problem)
        u = random_field(op.shape, seed=seed)
        v = random_field(op.shape, seed=seed + 1)
        lhs = op.apply(a * u + b * v)
        rhs = a * op.apply(u) + b * op.apply(v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))

    def test_shape_mismatch(self, op31):
        with pytest.raises(ValueError, match="shape"):
            op31.apply(np.zeros((30, 31)))

    def test_complex64_operator_is_the_rounded_double(self, op31):
        single = StencilOperator(op31.grid, op31.k_field, op31.shift, np.complex64)
        np.testing.assert_array_equal(single._store, op31._store.astype(np.complex64))
        u = random_field((31, 31), seed=3)
        got, want = single.apply(u), op31.apply(u)
        assert got.dtype == single.residual(u, u).dtype == single.jacobi_scale(0.5).dtype == np.complex64
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    def test_real_dtype_rejected(self, op31):
        with pytest.raises(ValueError, match="dtype"):
            StencilOperator(op31.grid, op31.k_field, dtype=np.float64)

    @settings(max_examples=100)
    @given(problem=rect_problems(), mode=st.sampled_from(MODES), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_apply_on_non_square_grids(self, problem, mode, seed):
        # a swapped n_x / n_y in the store's offsets shows only off the diagonal n_x = n_y
        op = operator_for(mode, *problem)
        u = random_field(op.shape, seed=seed)
        want = reference_apply(op, u)
        assert np.max(np.abs(op.apply(u) - want)) <= 1e-15 * np.max(np.abs(want))


class TestApplyWindow:
    @settings(max_examples=100)
    @given(problem=rect_problems(), mode=st.sampled_from(MODES), data=st.data())
    def test_bit_equal_to_apply_on_random_windows(self, problem, mode, data):
        op = operator_for(mode, *problem)
        n_x, n_y = op.shape
        x0 = data.draw(st.integers(0, n_x - 1))
        x1 = data.draw(st.integers(x0 + 1, n_x))
        y0 = data.draw(st.integers(0, n_y - 1))
        y1 = data.draw(st.integers(y0 + 1, n_y))
        u = random_field(op.shape, seed=data.draw(st.integers(0, 2**32 - 1)))
        got = window_apply(op, u, x0, x1, y0, y1)
        np.testing.assert_array_equal(got, op.apply(u)[x0:x1, y0:y1])

    @pytest.mark.parametrize("mode", MODES)
    def test_bit_equal_to_apply_on_windows_at_every_edge(self, mode):
        g = ComplexGrid(axis_spacing(13, 0.8), axis_spacing(22, 0.8))
        op = operator_for(mode, g, build_wavenumber_field(WedgeK(9.0, 6.0, 12.0), g))
        u = random_field(op.shape, seed=17)
        v = op.apply(u)
        for x0, x1, y0, y1 in edge_windows(op.shape):
            got = window_apply(op, u, x0, x1, y0, y1)
            np.testing.assert_array_equal(got, v[x0:x1, y0:y1], err_msg=f"{(x0, x1, y0, y1)}")


def full_diagonal(op):
    """The coefficient of u_ij in apply, from the dense matrix."""
    return op.assemble_dense().diagonal().reshape(op.shape)


class TestDiagonal:
    def test_uniform_interior_value(self):
        op = make_operator(9, 3.0, mode="physical")
        h = 1.0 / 10.0
        assert full_diagonal(op)[4, 4] == pytest.approx(4.0 / h**2 - 9.0)

    def test_csl_shift(self):
        op = make_operator(9, 3.0, mode="precond_csl", beta=0.5)
        h = 1.0 / 10.0
        assert full_diagonal(op)[4, 4] == pytest.approx(4.0 / h**2 - (1 + 0.5j) * 9.0)

    def test_matches_basis_probes_on_stretched_grid(self):
        op = make_operator(6, 4.0, sigma_max=0.8, layer_width=1)
        d = full_diagonal(op)
        for ix in range(6):
            for iy in range(6):
                e = np.zeros((6, 6), dtype=complex)
                e[ix, iy] = 1.0
                assert op.apply(e)[ix, iy] == pytest.approx(d[ix, iy])


class TestResidual:
    def test_zero_guess_returns_rhs(self, op31):
        b = random_field((31, 31), seed=5)
        np.testing.assert_array_equal(op31.residual(b, np.zeros_like(b)), b)

    def test_exact_solve_residual(self):
        op = make_operator(8, 5.0)
        b = random_field((8, 8), seed=6)
        a = op.assemble_dense()
        u = np.linalg.solve(a, b.ravel()).reshape(op.shape)
        r = op.residual(b, u)
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)

    def test_linear_in_rhs(self, op31):
        b1, b2 = random_field((31, 31), seed=7), random_field((31, 31), seed=8)
        u = random_field((31, 31), seed=9)
        lhs = op31.residual(b1 + b2, u) + op31.apply(u)
        # cancellation against A u bounds the achievable accuracy
        scale = np.max(np.abs(op31.apply(u)))
        assert np.max(np.abs(lhs - (b1 + b2))) <= 1e-13 * scale


class TestDense:
    def test_1x1_grid(self):
        # a single unknown: the dense matrix is the diagonal itself
        from helmgrid import ComplexGrid

        g = ComplexGrid(np.array([0.4, 0.6]), np.array([0.3, 0.7]))
        kf = build_wavenumber_field(ConstantK(2.0), g)
        op = StencilOperator(g, kf)
        a = op.assemble_dense()
        assert a.shape == (1, 1)
        want = 2.0 / (0.4 * 0.6) + 2.0 / (0.3 * 0.7) - 4.0
        assert a[0, 0] == pytest.approx(want)
        assert a[0, 0] == pytest.approx(full_diagonal(op)[0, 0])

    def test_small_grid_dense_shape(self):
        g = build_stretched_grid(3)
        kf = build_wavenumber_field(ConstantK(2.0), g)
        op = StencilOperator(g, kf)
        a = op.assemble_dense()
        assert a.shape == (9, 9)
        assert a[0, 0] == pytest.approx(full_diagonal(op)[0, 0])

    def test_symmetric_for_uniform_real_grid(self):
        op = make_operator(5, 3.0, mode="physical")
        a = op.assemble_dense()
        np.testing.assert_allclose(a, a.T, rtol=1e-14)

    def test_dirichlet_laplacian_spectrum(self):
        # eigenvalues of the 2D uniform Dirichlet Laplacian:
        # 4/h^2 (sin^2(p pi h / 2) + sin^2(q pi h / 2))
        n = 10
        op = laplace_operator(n)
        h = 1.0 / (n + 1)
        eig = np.sort(np.linalg.eigvalsh(op.assemble_dense().real))
        s = np.sin(np.arange(1, n + 1) * np.pi * h / 2.0) ** 2
        want = np.sort((4.0 / h**2) * (s[:, None] + s[None, :]).ravel())
        np.testing.assert_allclose(eig, want, rtol=1e-10)

    def test_size_cap(self):
        op = make_operator(65, 10.0)
        with pytest.raises(ValueError, match="capped"):
            op.assemble_dense()

    @settings(max_examples=30)
    @given(problem=rect_problems(max_side=12), mode=st.sampled_from(MODES))
    def test_equals_column_probe_assembly(self, problem, mode):
        op = operator_for(mode, *problem)
        np.testing.assert_array_equal(op.assemble_dense(), reference_assemble_dense(op))

    def test_vec_is_the_dense_ordering(self):
        g = ComplexGrid(axis_spacing(5, 0.0), axis_spacing(8, 0.0))
        op = StencilOperator(g, build_wavenumber_field(ConstantK(3.0), g))
        u = random_field(op.shape, seed=21)
        v = u.ravel()
        assert all(v[j] == u[divmod(j, 8)] for j in range(op.n_unknowns))  # y fastest
        want = reference_apply(op, u)
        got = (op.assemble_dense() @ v).reshape(op.shape)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("mode", MODES)
    def test_coarse_solve_on_non_square_coarsest_level(self, mode):
        # 31 x 63 coarsens to a 15 x 31 coarsest level, solved by band LU
        g = ComplexGrid(axis_spacing(31, 0.8), axis_spacing(63, 0.8))
        h = build_hierarchy(operator_for(mode, g, build_wavenumber_field(WedgeK(9.0, 6.0, 12.0), g)))
        op_c = h.levels[-1].op
        assert op_c.shape == (15, 31)
        b = random_field(op_c.shape, seed=23)
        u = coarse_solve(h.coarse_lu, b)
        assert np.linalg.norm(op_c.residual(b, u)) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", [(7, 7), (15, 15), (15, 31), (31, 15), (1, 7), (7, 1), (1, 1)])
    def test_band_layout_is_the_dense_matrix(self, shape, mode):
        # entry (i, j) at band row 2 n_y + i - j of column j; the first n_y
        # rows are gbtrf's fill-in room; the band LU solves the level
        g = ComplexGrid(axis_spacing(shape[0], 0.8), axis_spacing(shape[1], 0.8))
        op = operator_for(mode, g, build_wavenumber_field(WedgeK(9.0, 6.0, 12.0), g))
        n, n_y = op.n_unknowns, shape[1]
        band = op.assemble_band()
        assert band.shape == (3 * n_y + 1, n) and band.dtype == np.complex128
        assert not np.any(band[:n_y])
        i, j = np.indices((n, n))
        inside = np.abs(i - j) <= n_y
        a = np.zeros((n, n), dtype=complex)
        a[inside] = band[(2 * n_y + i - j)[inside], j[inside]]
        np.testing.assert_array_equal(a, op.assemble_dense())
        b = random_field(shape, seed=24)
        u = coarse_solve(lu_factor(op), b)
        assert np.linalg.norm(op.residual(b, u)) <= 1e-12 * np.linalg.norm(b)

    def test_singular_coarsest_level_raises(self):
        # one unknown with spacings 1/2: the diagonal 8 + 8 - k^2 is 0 at k = 4
        g = ComplexGrid(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        op = StencilOperator(g, build_wavenumber_field(ConstantK(4.0), g))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            lu_factor(op)


class TestInvariants:
    @settings(max_examples=50)
    @given(problem=problems(), seed=st.integers(0, 2**32 - 1))
    def test_scalar_equivalence_grid_vs_csl(self, problem, seed):
        # gamma^2 * (shifted-grid operator) == CSL operator with 1 + i beta
        g, kf, beta = problem
        m_grid = operator_for("precond_grid", g, kf, beta)
        m_csl = operator_for("precond_csl", g, kf, beta)
        u = random_field(g.shape, seed=seed)
        lhs = (1 + 1j * beta) * m_grid.apply(u)
        rhs = m_csl.apply(u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_second_order_consistency(self):
        # u = sin(pi x) sin(pi y), k = 0: apply(u) -> 2 pi^2 u at order >= 1.9
        errs = {}
        for n in (32, 64):
            op = laplace_operator(n)
            x = np.arange(1, n + 1) / (n + 1.0)
            u = np.sin(np.pi * x)[:, None] * np.sin(np.pi * x)[None, :]
            errs[n] = np.max(np.abs(op.apply(u) - 2 * np.pi**2 * u))
        order = np.log2(errs[32] / errs[64])
        assert order >= 1.9
