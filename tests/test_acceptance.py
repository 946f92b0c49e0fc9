"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from helmgrid import (
    ConstantK,
    TilePlan,
    WedgeK,
    bench,
    blocked_poly3,
    build_hierarchy,
    gmres_smooth,
    poly3_smooth,
    poly_max_on_boundary,
    prolong,
    restrict,
    symbol_samples,
    v_cycle,
)
from helmgrid.problems import ProblemConfig, pick_grid_size, solve, solve_baseline, sweep
from helmgrid.spectrum import _inflate
from tests.conftest import make_operator, random_field

K_SET = (10.0, 20.0, 40.0, 80.0)
SIGMAS = (0.0, 1.0)


def announce(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def designed_hierarchies():
    """poly3 hierarchies for every (k, sigma) of criteria 1 and 2."""
    out = {}
    for k in K_SET:
        n = pick_grid_size(k)
        for sigma in SIGMAS:
            op = make_operator(n, k, sigma_max=sigma)
            out[(k, sigma)] = build_hierarchy(op, smoother="poly3")
    return out


def test_criterion_1_triangle_containment_lower_half(designed_hierarchies):
    worst_im = -np.inf
    total_escapes = 0
    total_samples = 0
    for (k, sigma), hier in designed_hierarchies.items():
        assert hier.levels[-1].design is None  # the coarsest level is solved by LU
        for level in hier.levels[:-1]:
            tri = level.design.triangle
            worst_im = max(worst_im, float(np.max(tri.vertices.imag)))
            samples = symbol_samples(level.op)
            inside = tri.contains(samples.points, slack=1e-10)
            total_escapes += int(np.sum(~inside))
            total_samples += samples.points.size
    ok = worst_im <= 1e-12 and total_escapes == 0
    announce(
        1, ok,
        f"max Im(vertex) = {worst_im:.3e} (<= 1e-12), "
        f"{total_escapes}/{total_samples} samples escaped",
    )


def test_criterion_2_cubic_stability_all_levels(designed_hierarchies):
    rng = np.random.default_rng(2024)
    worst_stability = 0.0
    worst_excess = -np.inf
    for hier in designed_hierarchies.values():
        assert hier.levels[-1].design is None  # the coarsest level is solved by LU
        for level in hier.levels[:-1]:
            w = level.design.weights
            worst_stability = max(worst_stability, w.achieved_stability)
            v = level.design.triangle.vertices
            r1, r2 = rng.random(10000), rng.random(10000)
            s1 = np.sqrt(r1)
            interior = (1 - s1) * v[0] + s1 * (1 - r2) * v[1] + s1 * r2 * v[2]
            interior_max = poly_max_on_boundary(w.w, interior)
            worst_excess = max(worst_excess, interior_max - w.achieved_stability)
    ok = worst_stability <= 1.0 + 1e-8 and worst_excess <= 1e-9
    announce(
        2, ok,
        f"max achieved_stability = {worst_stability:.10f} (<= 1 + 1e-8), "
        f"max interior excess = {worst_excess:.2e} (<= 1e-9)",
    )


def test_criterion_3_dense_eigenvalue_containment():
    escapes = []
    for n in (15, 23):
        k = 0.625 * (n + 1)
        op = make_operator(n, k, sigma_max=0.0)
        from helmgrid import design_for_operator

        design = design_for_operator(op)
        # eigenvalues of the assembled preconditioner under the same Jacobi
        # normalization the samples use (independent dense eigensolver)
        a = op.assemble_dense()
        dg = op.grid_diagonal().ravel()
        eig = np.linalg.eigvals(a / dg[:, None])
        tri10 = _inflate(design.triangle, 1.10 / 1.05 - 1.0)  # 10% total inflation
        escapes.append(int(np.sum(~tri10.contains(eig, slack=0.0))))
    ok = all(e == 0 for e in escapes)
    announce(3, ok, f"escapes per grid (n=15, 23): {escapes} (zero required)")


def test_criterion_4_gmres3_bounded_by_cubic(hier31_poly3):
    rng = np.random.default_rng(4)
    worst = -np.inf
    instances = 0
    assert hier31_poly3.levels[-1].jacobi_w is None  # the coarsest level is solved by LU
    for level in hier31_poly3.levels[:-1]:
        op = level.op
        for _ in range(100):
            u = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
            b = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
            r0 = np.linalg.norm(op.residual(b, u))
            rp = np.linalg.norm(op.residual(b, poly3_smooth(op, u, b, level.jacobi_w)))
            rg = np.linalg.norm(op.residual(b, gmres_smooth(op, u, b)))
            worst = max(worst, (rg - rp) / r0)
            instances += 1
    ok = worst <= 1e-12
    announce(
        4, ok,
        f"max (||r_gmres3|| - ||r_poly3||)/||r0|| = {worst:.3e} over {instances} "
        f"instances (<= 1e-12)",
    )


def test_criterion_5_grid_csl_equivalence():
    hist = {}
    for precond in ("grid", "csl"):
        config = ProblemConfig(n=63, k=ConstantK(20.0), precond=precond)
        _, report, _ = solve(config)
        assert report.converged
        hist[precond] = np.asarray(report.residual_history)
    m = min(len(hist["grid"]), len(hist["csl"]))
    rel = np.max(
        np.abs(hist["grid"][:m] - hist["csl"][:m]) / np.maximum(hist["grid"][:m], 1e-300)
    )
    ok = len(hist["grid"]) == len(hist["csl"]) and rel <= 1e-8
    announce(
        5, ok,
        f"residual histories agree to {rel:.3e} relative over {m} iterations (<= 1e-8)",
    )


def test_criterion_6_linear_iteration_growth():
    rows, fit = sweep(K_SET, ppw=10.0)
    iters = [r["iterations"] for r in rows]
    increasing = all(b > a for a, b in zip(iters, iters[1:]))
    ratio = iters[-1] / iters[0]
    ok = (
        all(r["converged"] for r in rows)
        and increasing
        and fit["r_squared"] >= 0.9
        and ratio <= 12.0
    )
    announce(
        6, ok,
        f"iterations {iters} strictly increasing={increasing}, "
        f"R^2 = {fit['r_squared']:.4f} (>= 0.9), iter(80)/iter(10) = {ratio:.2f} (<= 12)",
    )


def test_criterion_7_wedge_robustness():
    config = ProblemConfig(n=63, k=WedgeK(10.0, 20.0, 40.0), max_iter=500)
    _, report, problem = solve(config, collect_diagnostics=True)
    depth = problem.hierarchy.depth
    rows = report.diagnostics.rows
    complete = len(rows) == report.iterations * (depth - 1)
    divergent = int(np.sum(report.diagnostics.cgc_ratios() > 1.0))
    ok = report.converged and report.iterations <= 500 and complete
    announce(
        7, ok,
        f"converged in {report.iterations} iterations (<= 500); cgc table complete "
        f"({len(rows)} rows, {divergent} divergent ratios recorded)",
    )


def test_criterion_8_preconditioning_benefit():
    config = ProblemConfig(n=63, k=ConstantK(40.0))
    _, report, problem = solve(config)
    _, base = solve_baseline(config, problem=problem)
    baseline_iters = base.iterations if base.converged else 2000
    ok = report.converged and report.iterations < baseline_iters / 3.0
    announce(
        8, ok,
        f"fgmres {report.iterations} vs baseline {baseline_iters} iterations "
        f"(needed < 1/3)",
    )


def test_criterion_9_blocked_kernel_equivalence():
    op = make_operator(129, 40.0, sigma_max=1.0)
    u = random_field((129, 129), seed=9)
    b = random_field((129, 129), seed=10)
    weights = (0.55 + 0.05j, -0.9 + 0.45j, 1.05 + 0.15j)
    reference = poly3_smooth(op, u, b, weights)
    scale = np.abs(reference)
    scale[scale == 0] = 1.0
    ladder = [TilePlan(t, t) for t in (8, 16, 32, 64, 129)]
    worst = max(
        float(np.max(np.abs(blocked_poly3(op, u, b, weights, plan) - reference) / scale))
        for plan in ladder
    )
    rows = bench(op, weights, ladder, repetitions=3)
    flops = [r.flops_per_point for r in rows]
    traffic = [r.est_bytes_per_point for r in rows]
    intensity = [r.intensity for r in rows]
    monotone = (
        all(a > b2 for a, b2 in zip(flops, flops[1:]))
        and all(a > b2 for a, b2 in zip(traffic, traffic[1:]))
        and all(a < b2 for a, b2 in zip(intensity, intensity[1:]))
    )
    ok = worst <= 1e-15 and monotone
    announce(
        9, ok,
        f"max relative difference over tile ladder = {worst:.2e} (<= 1e-15); "
        f"bench model monotone = {monotone}",
    )


def test_criterion_10_oracle_micro_suite():
    t0 = time.perf_counter()
    # apply vs dense assembly
    op = make_operator(8, 5.0, sigma_max=0.7, layer_width=2)
    u = random_field((8, 8), seed=11)
    a = op.assemble_dense()
    apply_err = float(
        np.max(np.abs(a @ u.ravel() - op.apply(u).ravel())) / np.max(np.abs(a @ u.ravel()))
    )
    # restrict/prolong adjoint identity
    uf = random_field((15, 15), seed=12)
    vc = random_field((7, 7), seed=13)
    lhs = np.vdot(vc, restrict(uf))
    rhs = 0.25 * np.vdot(prolong(vc), uf)
    adjoint_err = abs(lhs - rhs) / abs(rhs)
    # V-cycle superposition under poly3
    op16 = make_operator(15, 10.0)
    hier = build_hierarchy(op16, smoother="poly3")
    b1 = random_field((15, 15), seed=14)
    b2 = random_field((15, 15), seed=15)
    u1 = v_cycle(hier, b1)
    u2 = v_cycle(hier, b2)
    u12 = v_cycle(hier, b1 + b2)
    superpose_err = float(np.max(np.abs(u12 - (u1 + u2))) / np.max(np.abs(u12)))
    # coarse solve residual
    from helmgrid import coarse_solve

    op_c = hier.levels[-1].op
    bc = random_field(op_c.shape, seed=16)
    uc = coarse_solve(hier.coarse_lu, bc)
    coarse_err = float(np.linalg.norm(op_c.residual(bc, uc)) / np.linalg.norm(bc))
    elapsed = time.perf_counter() - t0
    ok = (
        apply_err <= 1e-12
        and adjoint_err <= 1e-12
        and superpose_err <= 1e-11
        and coarse_err <= 1e-12
        and elapsed < 10.0
    )
    announce(
        10, ok,
        f"apply/dense {apply_err:.1e} (<=1e-12), adjoint {adjoint_err:.1e} (<=1e-12), "
        f"superposition {superpose_err:.1e} (<=1e-11), coarse solve {coarse_err:.1e} "
        f"(<=1e-12), in {elapsed:.1f}s (<10s)",
    )
