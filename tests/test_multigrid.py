from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, eigs

from helmgrid import (
    CycleDiagnostics,
    StencilOperator,
    build_hierarchy,
    coarse_solve,
    prolong,
    restrict,
    v_cycle,
)
from helmgrid.multigrid import (COARSEST_MAX, SINGLE_MIN_UNKNOWNS, coarsen_field, coarsen_grid,
                                level_shapes)
from helmgrid.grid import ConstantK, WedgeK, build_stretched_grid, build_wavenumber_field
from helmgrid.problems import ProblemConfig, build_operators, max_grid_size, setup_problem, solve
from helmgrid.stencil import DENSE_SIZE_CAP
from tests.conftest import make_operator, random_field


class TestCoarsening:
    def test_level_counts_for_power_family(self):
        # interior sizes 63 -> 31 -> 15 -> 7
        h = build_hierarchy(make_operator(63, 20.0))
        assert h.depth == 4
        assert [lv.shape[0] for lv in h.levels] == [63, 31, 15, 7]

    def test_coarse_spacings_are_pairwise_sums(self):
        g = build_stretched_grid(9, layer_width=2, sigma_max=0.8)
        gc = coarsen_grid(g)
        want = g.spacing_x[0::2] + g.spacing_x[1::2]
        np.testing.assert_allclose(gc.spacing_x, want, rtol=1e-15)
        assert gc.n_x == 4

    def test_coarsening_preserves_rotation_factor(self):
        from helmgrid import rotate_grid

        g = rotate_grid(build_stretched_grid(9, 2, 0.5), 0.5)
        gc = coarsen_grid(g)
        assert gc.gamma == g.gamma

    @pytest.mark.parametrize("precond", ["grid", "csl"])
    def test_levels_keep_shift_and_rotation(self, precond):
        beta = 0.5
        config = ProblemConfig(n=63, k=ConstantK(20.0), beta=beta, precond=precond)
        physical, shifted = build_operators(config)
        gamma = np.sqrt(1 + 1j * beta)
        want = (1.0, gamma) if precond == "grid" else (1 + 1j * beta, 1.0)
        assert (physical.shift, physical.grid.gamma, physical.mode) == (1.0, 1.0, "physical")
        assert (shifted.shift, shifted.grid.gamma, shifted.mode) == (*want, "shifted")
        h = build_hierarchy(shifted)
        assert h.depth == 4
        for level in h.levels:
            assert (level.op.shift, level.op.grid.gamma) == want

    def test_k_injection_at_coincident_nodes(self):
        g = build_stretched_grid(9)
        f = build_wavenumber_field(WedgeK(1.0, 2.0, 3.0), g)
        fc = coarsen_field(f)
        np.testing.assert_array_equal(fc.values, f.values[1::2, 1::2])

    def test_triangles_lower_half_across_hierarchy(self, hier31_poly3):
        assert hier31_poly3.levels[-1].design is None
        for level in hier31_poly3.levels[:-1]:
            assert np.max(level.design.triangle.vertices.imag) <= 1e-12

    def test_coarsest_level_gets_no_design(self, hier31_poly3):
        # dense LU solves the coarsest level and never smooths it
        coarsest = hier31_poly3.levels[-1]
        assert coarsest.design is None and coarsest.jacobi_w is None
        for level in hier31_poly3.levels[:-1]:
            assert level.design is not None and len(level.jacobi_w) == 3

    def test_wedge_designs_only_the_smoothed_levels(self):
        # WedgeK(40, 60, 80) leaves no stable cubic on the coarsest of the 5
        # levels, which is not smoothed; the four smoothed ones are certified
        # and the poly3 solve converges
        config = ProblemConfig(n=127, k=WedgeK(40.0, 60.0, 80.0), sigma_max=1.0,
                               smoother="poly3", rhs="point", seed=0)
        levels = setup_problem(config).hierarchy.levels
        assert len(levels) == 5 and levels[-1].design is None
        for level in levels[:-1]:
            assert level.design.weights.achieved_stability <= 1.0 + 1e-8
        _, report, _ = solve(config)
        assert report.converged

    def test_level_cap_bounded_by_dense_cap_alone(self):
        # 131 -> 65 -> 32 stops at an even side within the dense LU cap;
        # 133 -> 66 stops at once, above it
        h = build_hierarchy(make_operator(131, 20.0))
        assert h.depth == 3
        assert h.levels[-1].shape == (32, 32)
        with pytest.raises(ValueError, match="dense assembly capped"):
            build_hierarchy(make_operator(133, 20.0))

    @pytest.mark.parametrize("n", [5, 9, 11, 21, 30, 63])
    def test_level_shapes_are_the_built_shapes(self, n):
        # odd sides above COARSEST_MAX halve; an even side or the cap stops
        h = build_hierarchy(make_operator(n, 5.0))
        assert [lv.shape for lv in h.levels] == level_shapes((n, n))

    @settings(max_examples=300)
    @given(n=st.integers(1, (min(4097, max_grid_size()) - 1) // 2).map(lambda i: 2 * i + 1))
    @example(n=3)
    @example(n=131)
    @example(n=133)
    def test_validate_accepts_exactly_a_coarsest_level_within_dense_cap(self, n):
        shapes = level_shapes((n, n))
        assert all(s % 2 and s > COARSEST_MAX for shape in shapes[:-1] for s in shape)
        cx, cy = shapes[-1]
        if cx * cy <= DENSE_SIZE_CAP:
            ProblemConfig(n=n)
            return
        with pytest.raises(ValueError) as exc:
            ProblemConfig(n=n)
        assert f"n={n} " in str(exc.value) and f" {cx}x{cy} " in str(exc.value)

    @pytest.mark.parametrize("counts", [{"nu_pre": -1}, {"nu_post": -1}])
    def test_negative_smoothing_count_rejected(self, counts):
        with pytest.raises(ValueError, match="smoothing counts"):
            build_hierarchy(make_operator(15, 10.0), **counts)


class TestTransfers:
    def test_restrict_preserves_constants(self):
        c = restrict(np.full((9, 9), 3.0 + 1.0j))
        np.testing.assert_allclose(c, 3.0 + 1.0j)

    def test_restrict_delta_at_coincident_node(self):
        f = np.zeros((9, 9))
        f[3, 5] = 1.0  # fine node (3,5) is coarse node (1,2)
        c = restrict(f)
        assert c[1, 2] == pytest.approx(0.25)
        assert np.sum(np.abs(c)) == pytest.approx(0.25)

    def test_prolong_constant(self):
        f = prolong(np.full((4, 4), 2.0 - 1.0j))
        # interior away from the boundary stays constant
        assert f[4, 4] == pytest.approx(2.0 - 1.0j)
        assert f.shape == (9, 9)

    def test_prolong_reproduces_linear_index_fields(self):
        nc = 5
        ix = np.arange(1, nc + 1)
        c = (ix[:, None] + 0.5 * ix[None, :]).astype(complex)
        f = prolong(c)
        # fine value at coincident and midpoints follows the same linear law
        jx = np.arange(1, 2 * nc + 2) / 2.0
        want = jx[:, None] + 0.5 * jx[None, :]
        np.testing.assert_allclose(f[1:-1, 1:-1], want[1:-1, 1:-1], rtol=1e-14)

    def test_adjoint_identity(self):
        # <restrict(u), v> = (1/4) <u, prolong(v)>
        u = random_field((17, 17), seed=1)
        v = random_field((8, 8), seed=2)
        lhs = np.vdot(v, restrict(u))
        rhs = 0.25 * np.vdot(prolong(v), u)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @settings(max_examples=20)
    @given(nx=st.integers(1, 15).map(lambda c: 2 * c + 1),
           ny=st.integers(1, 15).map(lambda c: 2 * c + 1))
    def test_restrict_is_quarter_prolong_transpose(self, nx, ny):
        def dense(transfer, shape):
            cols = []
            for j in range(shape[0] * shape[1]):
                e = np.zeros(shape)
                e.flat[j] = 1.0
                cols.append(transfer(e).ravel())
            return np.array(cols).T

        coarse = ((nx - 1) // 2, (ny - 1) // 2)
        assert np.array_equal(dense(restrict, (nx, ny)), dense(prolong, coarse).T / 4)

    def test_restrict_requires_odd(self):
        with pytest.raises(ValueError, match="odd"):
            restrict(np.zeros((8, 8)))


class TestVCycle:
    def test_zero_rhs_zero_guess(self, hier31_gmres):
        u = v_cycle(hier31_gmres, np.zeros((31, 31), dtype=complex))
        assert np.all(u == 0)

    def test_single_level_hierarchy_is_direct_solve(self):
        op = make_operator(7, 4.0)
        h = build_hierarchy(op)  # 7 <= coarsest cap: one level
        assert h.depth == 1
        b = random_field((7, 7), seed=3)
        u = v_cycle(h, b)
        assert np.linalg.norm(op.residual(b, u)) <= 1e-12 * np.linalg.norm(b)

    def test_poly3_cycle_is_linear(self, hier31_poly3):
        b1 = random_field((31, 31), seed=4)
        b2 = random_field((31, 31), seed=5)
        u1 = v_cycle(hier31_poly3, b1)
        u2 = v_cycle(hier31_poly3, b2)
        u12 = v_cycle(hier31_poly3, b1 + b2)
        assert np.max(np.abs(u12 - (u1 + u2))) <= 1e-11 * np.max(np.abs(u12))

    def test_gmres_cycle_is_not_linear(self, hier31_gmres):
        b1 = random_field((31, 31), seed=6)
        b2 = random_field((31, 31), seed=7)
        u1 = v_cycle(hier31_gmres, b1)
        u2 = v_cycle(hier31_gmres, b2)
        u12 = v_cycle(hier31_gmres, b1 + b2)
        assert np.max(np.abs(u12 - (u1 + u2))) > 1e-6 * np.max(np.abs(u12))

    def test_contraction_on_constant_coefficient_problem(self):
        # regression threshold 0.5 validated by the dense two-grid oracle
        # below (spectral radius ~0.34 on n=15)
        op = make_operator(63, 20.0)
        h = build_hierarchy(op, smoother="poly3")
        rng = np.random.default_rng(8)
        u_star = rng.standard_normal((63, 63)) + 1j * rng.standard_normal((63, 63))
        b = op.apply(u_star)
        u = rng.standard_normal((63, 63)) + 1j * rng.standard_normal((63, 63))
        e = np.linalg.norm(u - u_star)
        ratios = []
        for _ in range(10):
            u = v_cycle(h, b, u)
            e_new = np.linalg.norm(u - u_star)
            ratios.append(e_new / e)
            e = e_new
        assert np.mean(ratios) <= 0.5

    def test_two_grid_oracle_spectral_radius(self):
        # dense two-grid iteration matrix E = S (I - P Ac^-1 R A) S
        op = make_operator(15, 10.0)
        h = build_hierarchy(op, smoother="poly3")
        assert h.depth == 2
        n = 15
        a = op.assemble_dense()
        dinv = 1.0 / op.grid_diagonal().ravel()
        s = np.eye(n * n, dtype=complex)
        for wi in h.levels[0].jacobi_w:
            s = (np.eye(n * n) - wi * dinv[:, None] * a) @ s
        nc = 7
        p = np.zeros((n * n, nc * nc), dtype=complex)
        for j in range(nc * nc):
            e = np.zeros((nc, nc), dtype=complex)
            e[divmod(j, nc)] = 1.0
            p[:, j] = prolong(e).ravel()
        r = np.zeros((nc * nc, n * n), dtype=complex)
        for j in range(n * n):
            e = np.zeros((n, n), dtype=complex)
            e[divmod(j, n)] = 1.0
            r[:, j] = restrict(e).ravel()
        ac = h.levels[1].op.assemble_dense()
        cgc = np.eye(n * n) - p @ np.linalg.solve(ac, r @ a)
        rho = np.max(np.abs(np.linalg.eigvals(s @ cgc @ s)))
        assert rho <= 0.5

    def test_divergence_detected(self, hier31_poly3):
        with pytest.raises(Exception, match="divergence|finite"):
            b = np.full((31, 31), np.nan, dtype=complex)
            v_cycle(hier31_poly3, b)


class TestAppliedCubic:
    """The smoother that runs is the cubic that is certified."""

    def test_applied_cubic_spectral_radius_on_stretched_levels(self, hier31_stretched_poly3):
        # dense error propagation of one smoothing step, column by column:
        # with b = 0 the step maps an error e to p(Dinv A) e
        h = hier31_stretched_poly3
        for ell, level in enumerate(h.levels[:-1]):
            n = level.op.n_unknowns
            zero = np.zeros(level.shape, dtype=complex)
            s = np.empty((n, n), dtype=complex)
            for j in range(n):
                e = np.zeros(n, dtype=complex)
                e[j] = 1.0
                s[:, j] = h.smooth(ell, e.reshape(level.op.shape), zero).ravel()
            rho = np.max(np.abs(np.linalg.eigvals(s)))
            assert rho <= 1.0, f"level {ell}: spectral radius {rho:.4f}"

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: on helm-k80-poly3 the applied cubic's level-0 "
        "radius is 1.081, outside the triangle certificate",
    )
    def test_applied_cubic_radius_on_every_level_at_k80(self):
        # ARPACK's largest-modulus eigenvalue of one smoothing step with b = 0,
        # which maps an error e to p(Dinv A) e, on the benchmark's poly3 problem
        h = setup_problem(ProblemConfig(n=127, k=ConstantK(80.0), smoother="poly3")).hierarchy
        radii = []
        for ell, level in enumerate(h.levels[:-1]):
            n = level.op.n_unknowns
            zero = np.zeros(level.shape, dtype=complex)
            step = LinearOperator(
                (n, n), matvec=lambda e: h.smooth(ell, e.reshape(level.op.shape), zero).ravel(),
                dtype=complex,
            )
            radii.append(abs(eigs(step, k=1, which="LM", v0=np.ones(n, dtype=complex))[0][0]))
        assert max(radii) <= 1.0 + 1e-6, f"applied radii per level: {np.round(radii, 4)}"

    def test_two_smoothing_steps_converge_faster(self):
        # the same designs, smoothed once or twice on each side of the cycle
        config = ProblemConfig(n=127, k=ConstantK(80.0), smoother="poly3")
        _, once, problem = solve(config)
        problem = replace(problem, hierarchy=replace(problem.hierarchy, nu_pre=2, nu_post=2))
        _, twice, _ = solve(config, problem=problem)
        assert once.converged and twice.converged
        assert twice.iterations < once.iterations


class TestDiagnostics:
    def test_one_cgc_ratio_per_noncoarsest_level_per_cycle(self, hier31_gmres):
        diag = CycleDiagnostics()
        b = random_field((31, 31), seed=9)
        u = None
        for _ in range(3):
            u = v_cycle(hier31_gmres, b, u, diagnostics=diag)
        # 3 cycles x (depth - 1) non-coarsest levels
        assert len(diag.rows) == 3 * (hier31_gmres.depth - 1)
        for cycle in range(3):
            levels = sorted(r["level"] for r in diag.rows if r["cycle"] == cycle)
            assert levels == list(range(hier31_gmres.depth - 1))

    @pytest.mark.parametrize("hierarchy", ["hier31_gmres", "hier31_poly3"])
    def test_recording_costs_one_apply_per_level_visit(self, hierarchy, request, monkeypatch):
        # the cgc residual is handed on to the first post-smoothing step, so a
        # recorded level visit adds only the post-smoothing norm's apply, and
        # the cycle's result is unchanged to the bit
        h = request.getfixturevalue(hierarchy)
        calls = []
        apply = StencilOperator.apply
        monkeypatch.setattr(StencilOperator, "apply", lambda op, u: calls.append(1) or apply(op, u))
        b = random_field((31, 31), seed=13)
        plain = v_cycle(h, b)
        plain_calls = len(calls)
        diag = CycleDiagnostics()
        recorded = v_cycle(h, b, diagnostics=diag)
        assert len(calls) - 2 * plain_calls == h.depth - 1 == len(diag.rows)
        np.testing.assert_array_equal(recorded, plain)

    def test_wedge_records_divergent_ratios_without_masking(self):
        g = build_stretched_grid(63, None, 1.0)
        kf = build_wavenumber_field(WedgeK(10.0, 20.0, 40.0), g)
        from helmgrid import StencilOperator, rotate_grid

        op = StencilOperator(rotate_grid(g, 0.5), kf)
        h = build_hierarchy(op)
        diag = CycleDiagnostics()
        b = random_field((63, 63), seed=10)
        u = None
        for _ in range(4):
            u = v_cycle(h, b, u, diagnostics=diag)
        ratios = diag.cgc_ratios()
        assert ratios.size == 4 * (h.depth - 1)
        assert np.all(np.isfinite(ratios))


class TestCoarseSolve:
    def test_residual_small_on_random_system(self, hier31_gmres):
        lu = hier31_gmres.coarse_lu
        op_c = hier31_gmres.levels[-1].op
        b = random_field(op_c.shape, seed=11)
        u = coarse_solve(lu, b)
        assert np.linalg.norm(op_c.residual(b, u)) <= 1e-12 * np.linalg.norm(b)

    def test_repeated_solves_identical(self, hier31_gmres):
        b = random_field(hier31_gmres.levels[-1].op.shape, seed=12)
        u1 = coarse_solve(hier31_gmres.coarse_lu, b)
        u2 = coarse_solve(hier31_gmres.coarse_lu, b)
        np.testing.assert_array_equal(u1, u2)


class TestPrecision:
    """Levels of at least SINGLE_MIN_UNKNOWNS unknowns, the coarsest
    excepted, run in complex64 under double-precision FGMRES."""

    @pytest.mark.parametrize("n, singles", [(255, 2), (127, 1), (63, 0), (7, 0)])
    def test_large_levels_single_the_rest_double(self, n, singles):
        h = build_hierarchy(make_operator(n, 0.625 * (n + 1), sigma_max=1.0))
        dtypes = [level.op.dtype for level in h.levels]
        assert dtypes == [np.complex64] * singles + [np.complex128] * (h.depth - singles)
        assert all(level.op.n_unknowns >= SINGLE_MIN_UNKNOWNS for level in h.levels[:singles])
        assert h.coarse_lu[0].dtype == np.complex128

    def test_cycle_returns_level_zero_dtype(self):
        h = build_hierarchy(make_operator(127, 80.0, sigma_max=1.0))
        u = v_cycle(h, random_field((127, 127), seed=20))
        assert u.dtype == np.complex64 and np.all(np.isfinite(u))

    def test_grid_and_csl_agree_in_single_precision(self):
        # criterion 5 pins 1e-8 where every level is double (n <= 63); at
        # n = 127 level 0 runs in complex64, where the two cycles, equal up to
        # the scalar gamma^2, round apart
        runs = {}
        for precond in ("grid", "csl"):
            config = ProblemConfig(n=127, k=ConstantK(80.0), precond=precond)
            x, report, problem = solve(config)
            assert problem.hierarchy.levels[0].op.dtype == np.complex64
            assert x.dtype == np.complex128
            assert report.converged and report.final_residual <= config.tol
            runs[precond] = report
        grid, csl = runs["grid"], runs["csl"]
        assert (grid.iterations, grid.restarts) == (csl.iterations, csl.restarts)
        hg, hc = np.asarray(grid.residual_history), np.asarray(csl.residual_history)
        assert np.max(np.abs(hg - hc) / hg) <= 1e-3

    def test_poly3_cycle_is_linear_in_single_precision(self):
        h = setup_problem(ProblemConfig(n=127, k=ConstantK(80.0), smoother="poly3")).hierarchy
        assert h.levels[0].op.dtype == np.complex64
        b1 = random_field((127, 127), seed=21)
        b2 = random_field((127, 127), seed=22)
        u1 = v_cycle(h, b1)
        u2 = v_cycle(h, b2)
        u12 = v_cycle(h, b1 + b2)
        assert np.max(np.abs(u12 - (u1 + u2))) <= 1e-5 * np.max(np.abs(u12))
