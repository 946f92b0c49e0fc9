import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmgrid import (
    StencilOperator,
    build_hierarchy,
    build_stretched_grid,
    build_wavenumber_field,
    ConstantK,
    damped_jacobi,
    design_for_operator,
    gmres_smooth,
    poly3_smooth,
)
from helmgrid.krylov import _arnoldi_cycle
from helmgrid.spectrum import jacobi_weights_for
from tests.conftest import make_operator, random_field


def reference_gmres_smooth(op, u, b, m=3):
    """The earlier GMRES(m) smoother: its own modified Gram-Schmidt Arnoldi
    with one reorthogonalization pass and a dense ``lstsq`` solve (oracle for
    the smoother built on the shared FGMRES cycle)."""
    r0 = op.residual(b, u)
    beta = np.linalg.norm(r0)
    if beta == 0.0:
        return u.astype(complex, copy=True)
    vs = [r0 / beta]
    h = np.zeros((m + 1, m), dtype=complex)
    k_done = 0
    for k in range(m):
        w = op.apply(vs[k])
        norm_before = np.linalg.norm(w)
        for j in range(k + 1):
            h[j, k] = np.vdot(vs[j], w)
            w -= h[j, k] * vs[j]
        if np.linalg.norm(w) < 1e-8 * norm_before:
            for j in range(k + 1):
                corr = np.vdot(vs[j], w)
                h[j, k] += corr
                w -= corr * vs[j]
        h[k + 1, k] = np.linalg.norm(w)
        k_done = k + 1
        if h[k + 1, k] < 1e-14 * max(beta, 1.0):
            break
        vs.append(w / h[k + 1, k])
    e1 = np.zeros(k_done + 1, dtype=complex)
    e1[0] = beta
    y, *_ = np.linalg.lstsq(h[: k_done + 1, :k_done], e1, rcond=None)
    c = np.zeros_like(r0)
    for j in range(k_done):
        c += y[j] * vs[j]
    return u + c


def dense_parts(op):
    a = op.assemble_dense()
    d = op.grid_diagonal().ravel()
    return a, d


class TestDampedJacobi:
    def test_zero_weight_is_identity(self, op31):
        u = random_field((31, 31), seed=0)
        b = random_field((31, 31), seed=1)
        np.testing.assert_array_equal(damped_jacobi(op31, u, b, 0.0), u)

    def test_unit_weight_divides_by_grid_diagonal(self):
        g = build_stretched_grid(3)
        kf = build_wavenumber_field(ConstantK(2.0), g)
        op = StencilOperator(g, kf)
        # probe one unknown from zero: u' = b/d with d the k=0 diagonal
        b = np.zeros((3, 3), dtype=complex)
        b[1, 1] = 1.0 + 2.0j
        u1 = damped_jacobi(op, np.zeros_like(b), b, 1.0)
        assert u1[1, 1] == pytest.approx(b[1, 1] / op.grid_diagonal()[1, 1])
        full_diagonal = op.assemble_dense().diagonal().reshape(op.shape)
        assert u1[1, 1] != pytest.approx(b[1, 1] / full_diagonal[1, 1])

    def test_matches_dense_oracle(self):
        op = make_operator(8, 5.0, sigma_max=0.6, layer_width=2)
        a, d = dense_parts(op)
        u = random_field((8, 8), seed=2)
        b = random_field((8, 8), seed=3)
        w = 0.7 - 0.3j
        got = damped_jacobi(op, u, b, w).ravel()
        want = u.ravel() + w * (b.ravel() - a @ u.ravel()) / d
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestPoly3:
    def test_zero_weights_identity(self, op31):
        u = random_field((31, 31), seed=4)
        b = random_field((31, 31), seed=5)
        np.testing.assert_array_equal(poly3_smooth(op31, u, b, (0, 0, 0)), u)

    def test_exact_solution_is_fixed_point(self, op31):
        u_exact = random_field((31, 31), seed=6)
        b = op31.apply(u_exact)
        u1 = poly3_smooth(op31, u_exact, b, ( 0.5, 0.6 - 0.1j, 0.7))
        assert np.max(np.abs(u1 - u_exact)) <= 1e-12 * np.max(np.abs(u_exact))

    def test_error_propagation_matches_matrix_polynomial(self):
        # || u' - u_exact || equals || p(Dinv A) e || from the dense oracle
        op = make_operator(10, 6.0)
        a, d = dense_parts(op)
        n = a.shape[0]
        dinv_a = a / d[:, None]
        w = (0.45 + 0.1j, -0.9 + 0.4j, 1.1 + 0.05j)
        p = np.eye(n, dtype=complex)
        for wi in w:
            p = (np.eye(n) - wi * dinv_a) @ p
        u_exact = random_field((10, 10), seed=7)
        u0 = random_field((10, 10), seed=8)
        b = op.apply(u_exact)
        u1 = poly3_smooth(op, u0, b, w)
        want = p @ (u0 - u_exact).ravel()
        got = (u1 - u_exact).ravel()
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


class TestGmresSmooth:
    def test_exact_start_unchanged(self, op31):
        u_exact = random_field((31, 31), seed=11)
        b = op31.apply(u_exact)
        u1 = gmres_smooth(op31, u_exact, b)
        np.testing.assert_allclose(u1, u_exact, rtol=1e-12)

    def test_full_space_is_exact_solve(self):
        op = make_operator(3, 4.0)
        u_exact = random_field((3, 3), seed=12)
        b = op.apply(u_exact)
        u1 = _arnoldi_cycle(op.apply, None, np.zeros_like(b), b, 9)[0]
        assert np.linalg.norm(op.residual(b, u1)) <= 1e-10 * np.linalg.norm(b)

    def test_residual_bounded_by_cubic(self):
        # on a constant-coefficient level the poly3 correction lies in the
        # same Krylov space GMRES(3) minimizes over
        op = make_operator(12, 7.0)
        design = design_for_operator(op)
        w = jacobi_weights_for(design, op)
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            b = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            r0 = np.linalg.norm(op.residual(b, u))
            rp = np.linalg.norm(op.residual(b, poly3_smooth(op, u, b, w)))
            rg = np.linalg.norm(op.residual(b, gmres_smooth(op, u, b)))
            assert rg <= rp + 1e-12 * r0

    def test_not_a_fixed_linear_operator(self, op31):
        # the implied correction map depends on the defect, so superposition
        # fails: this is why the outer Krylov method must be flexible
        b1 = random_field((31, 31), seed=14)
        b2 = random_field((31, 31), seed=15)
        z = np.zeros_like(b1)
        c1 = gmres_smooth(op31, z, b1)
        c2 = gmres_smooth(op31, z, b2)
        c12 = gmres_smooth(op31, z, b1 + b2)
        assert np.max(np.abs(c12 - (c1 + c2))) > 1e-6 * np.max(np.abs(c12))

    @settings(max_examples=40)
    @given(
        n=st.integers(3, 12),
        k=st.floats(1.0, 20.0),
        sigma_max=st.sampled_from([0.0, 0.5, 1.0]),
        mode=st.sampled_from(["precond_grid", "precond_csl", "physical"]),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_smoother(self, n, k, sigma_max, mode, m, seed):
        op = make_operator(n, k, sigma_max=sigma_max, mode=mode)
        u = random_field((n, n), seed=seed)
        b = random_field((n, n), seed=seed + 1)
        # the smoother is the m = 3 cycle; the cycle is checked at m = 1..3
        x = _arnoldi_cycle(op.apply, None, u, op.residual(b, u), m)[0]
        if m == 3:
            np.testing.assert_array_equal(gmres_smooth(op, u, b), x)
        got = np.linalg.norm(op.residual(b, x))
        want = np.linalg.norm(op.residual(b, reference_gmres_smooth(op, u, b, m)))
        assert abs(got - want) <= 1e-10 * want

    def test_zero_defect_returns_input(self, op31):
        z = np.zeros((31, 31), dtype=complex)
        assert np.all(gmres_smooth(op31, z, z) == 0)

    def test_deterministic(self, op31):
        u = random_field((31, 31), seed=17)
        b = random_field((31, 31), seed=18)
        np.testing.assert_array_equal(
            gmres_smooth(op31, u, b), gmres_smooth(op31, u, b)
        )
        w = (0.5 + 0.1j, 0.6, 0.7 - 0.2j)
        np.testing.assert_array_equal(
            poly3_smooth(op31, u, b, w), poly3_smooth(op31, u, b, w)
        )


def test_build_hierarchy_smoother_validation(op31, hier31_poly3, hier31_gmres):
    assert hier31_poly3.smoother == "poly3"
    assert hier31_gmres.smoother == "gmres3"
    for name in ("sor", "gmres", "poly3 "):
        with pytest.raises(ValueError, match=repr(name)):
            build_hierarchy(op31, smoother=name)
