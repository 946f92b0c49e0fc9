import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import zaxpy
from scipy.linalg.lapack import zgeqrf, ztrtrs

from helmgrid import (
    ConstantK,
    ProblemConfig,
    build_hierarchy,
    fgmres,
    make_preconditioner,
    setup_problem,
    sweep,
    v_cycle,
)
from helmgrid.krylov import DEFLATE, _arnoldi_cycle, _Basis, kept_pairs
from tests.conftest import arnoldi_cycle, make_operator, random_field


def reference_axpy(a, v, w):
    """``w + a v`` by BLAS ``zaxpy`` on a flat copy of ``w``.  Given 2-D
    fields, ``zaxpy`` works on Fortran-ordered copies, which round some
    entries differently."""
    return zaxpy(v.ravel(), w.ravel().copy(), a=a).reshape(w.shape)


def reference_arnoldi_cycle(apply_A, precondition, x, r, m, target=0.0):
    """The out-of-place restart cycle, a temporary per vector operation, each
    update ``w - h v`` and ``x + y_j z_j`` a :func:`reference_axpy`, and
    after each step the least-squares problem ``min ||g - h y||`` factored
    anew, ``[h | g] = Q R`` by LAPACK ``geqrf`` on a fresh copy: the estimate
    is ``|R[k + 1, k + 1]|`` and ``y`` a ``trtrs`` solve on the last ``R``.
    The in-place cycle must return the same bits."""
    beta = np.linalg.norm(r)
    if beta == 0.0:
        return x.astype(complex), [], False
    vs = [r / beta]
    zs = []
    h = np.zeros((m + 1, m), dtype=complex)
    g = np.zeros(m + 1, dtype=complex)
    g[0] = beta
    estimates = []
    breakdown = False
    for k in range(m):
        z = vs[k] if precondition is None else precondition(vs[k])
        zs.append(z)
        w = apply_A(z)
        norm_before = np.linalg.norm(w)
        for j in range(k + 1):
            h[j, k] = np.vdot(vs[j], w)
            w = reference_axpy(-h[j, k], vs[j], w)
        w_norm = np.linalg.norm(w)
        if w_norm < 1e-8 * norm_before:
            for j in range(k + 1):
                corr = np.vdot(vs[j], w)
                h[j, k] += corr
                w = reference_axpy(-corr, vs[j], w)
            w_norm = np.linalg.norm(w)
        h[k + 1, k] = w_norm
        breakdown = w_norm <= 1e-14 * norm_before

        R = zgeqrf(np.column_stack((h[: k + 2, : k + 1], g[: k + 2])))[0]
        if R[k, k] == 0.0:
            break
        estimates.append(abs(R[k + 1, k + 1]))
        if estimates[-1] <= target or breakdown:
            break
        vs.append(w / w_norm)

    n = len(estimates)
    y = ztrtrs(R[:n, :n], R[:n, -1])[0] if n else np.zeros(0, dtype=complex)
    out = x.astype(complex)
    for j in range(n):
        out = reference_axpy(y[j], zs[j], out)
    return out, estimates, breakdown


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def reference_gmres_dr(a, m, b, tol, restart, max_iter):
    """Textbook dense GMRES with deflated restarting (Morgan 2002) on the
    right-preconditioned matrix ``a m``, oracle for the flexible solver when
    the preconditioner is fixed.

    The basis is explicit and orthonormalized by classical Gram-Schmidt run
    twice; each step solves the dense least-squares problem
    ``min ||r - a m W y||`` over the cycle's basis ``W`` for its residual.  A
    restart takes the harmonic Ritz pairs of ``a m`` over ``W`` from the dense
    projected matrices, ``(a m W)^H (a m W) g = theta (a m W)^H W g``, keeps
    those of smallest modulus (DEFLATE, at most half the restart, none at
    restart <= 2), and orthonormalizes them together with the residual's
    coordinates in the cycle's basis by one explicit QR, ``P``; the next
    cycle's basis is the cycle's times ``P`` and continues from its last
    column.  Returns ``(x, history)``: one entry per step, each cycle's last
    one the true residual ``||b - a x|| / ||b||``."""
    am = a @ m
    b_norm = np.linalg.norm(b)
    keep_max = max(0, min(DEFLATE, restart // 2, restart - 2))
    x = np.zeros(len(b), dtype=complex)
    history = [1.0]
    iterations = 0
    r = b.astype(complex)
    basis = r[:, None] / np.linalg.norm(r)
    while True:
        for j in range(basis.shape[1] - 1, restart):
            w = am @ basis[:, j]
            w_before = np.linalg.norm(w)
            for _ in range(2):
                w = w - basis @ (basis.conj().T @ w)
            if np.linalg.norm(w) > 1e-14 * w_before:  # else the space is invariant
                basis = np.column_stack([basis, w / np.linalg.norm(w)])
            iterations += 1
            aw = am @ basis[:, : j + 1]
            y = np.linalg.lstsq(aw, r, rcond=None)[0]
            history.append(np.linalg.norm(r - aw @ y) / b_norm)
            if history[-1] <= tol or iterations >= max_iter:
                break
        cols = j + 1
        x = x + m @ (basis[:, :cols] @ y)
        r = b - a @ x
        history[-1] = np.linalg.norm(r) / b_norm
        if history[-1] <= tol or iterations >= max_iter:
            return x, history
        keep = min(keep_max, cols - 1)
        if keep == 0:
            basis = r[:, None] / np.linalg.norm(r)
            continue
        theta, g = scipy.linalg.eig(aw.conj().T @ aw, aw.conj().T @ basis[:, :cols])
        g = g[:, np.argsort(np.abs(theta))[:keep]]
        s = basis[:, : cols + 1].conj().T @ r
        p = np.linalg.qr(np.block([[g, s[:cols, None]], [np.zeros((1, keep)), s[cols:, None]]]))[0]
        basis = basis[:, : cols + 1] @ p


def cycle_ends(iterations, restart):
    """History indices of the true residuals: the first cycle takes
    ``restart`` steps, each later one ``restart - kept_pairs(restart)``, the
    last one what is left."""
    ends = list(range(min(restart, iterations), iterations, restart - kept_pairs(restart)))
    return ends + [iterations] if iterations else ends


class TestFgmres:
    def test_zero_rhs(self):
        x, report = fgmres(lambda v: v, None, np.zeros((5, 5), dtype=complex))
        assert np.all(x == 0)
        assert report.converged and report.iterations == 0
        assert report.residual_history[0] == 1.0

    def test_identity_system_one_iteration(self):
        b = random_field((6, 6), seed=0)
        x, report = fgmres(lambda v: v, None, b, tol=1e-10)
        assert report.iterations == 1
        np.testing.assert_allclose(x, b, rtol=1e-12)

    def test_matches_dense_lu_with_vcycle_preconditioner(self):
        # kh = 0.625 constant-coefficient problem, small enough to assemble
        op_a = make_operator(15, 10.0, mode="physical")
        op_m = make_operator(15, 10.0)
        hier = build_hierarchy(op_m)
        b = random_field((15, 15), seed=1)
        x, report = fgmres(op_a.apply, make_preconditioner(hier), b, tol=1e-10, max_iter=200)
        assert report.converged
        dense = op_a.assemble_dense()
        want = np.linalg.solve(dense, b.ravel()).reshape(op_a.shape)
        assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)

    def test_monotone_residuals_within_restart(self):
        op_a = make_operator(31, 20.0, mode="physical")
        op_m = make_operator(31, 20.0)
        hier = build_hierarchy(op_m)
        b = random_field((31, 31), seed=2)
        _, report = fgmres(op_a.apply, make_preconditioner(hier), b, restart=6, max_iter=60)
        h = np.asarray(report.residual_history)
        starts = [1] + [end + 1 for end in cycle_ends(report.iterations, 6)]
        assert report.restarts > 2
        for i in range(1, len(h)):
            if i not in starts:  # within one restart cycle
                assert h[i] <= h[i - 1] * (1 + 1e-12)

    def test_fixed_linear_preconditioner_matches_reference_gmres(self, hier31_poly3):
        # with poly3 smoothing the V-cycle is a fixed linear operator; FGMRES
        # must then reproduce right-preconditioned GMRES with deflated restarting
        op_a = make_operator(31, 20.0, mode="physical")
        n = 31 * 31
        op_m = hier31_poly3.levels[0].op
        m_dense = np.zeros((n, n), dtype=complex)
        e = np.zeros((31, 31), dtype=complex)
        for j in range(n):
            e[divmod(j, 31)] = 1.0
            m_dense[:, j] = v_cycle(hier31_poly3, e).ravel()
            e[divmod(j, 31)] = 0.0
        a_dense = op_a.assemble_dense()
        b = random_field((31, 31), seed=3)
        x, report = fgmres(
            op_a.apply, make_preconditioner(hier31_poly3), b, tol=1e-8, restart=10, max_iter=80
        )
        x_ref, hist_ref = reference_gmres_dr(
            a_dense, m_dense, b.ravel(), tol=1e-8, restart=10, max_iter=80
        )
        m = min(len(report.residual_history), len(hist_ref))
        np.testing.assert_allclose(report.residual_history[:m], hist_ref[:m], rtol=1e-8, atol=1e-10)
        assert np.linalg.norm(x.ravel() - x_ref) <= 1e-10 * max(np.linalg.norm(x_ref), 1)

    @settings(max_examples=60)
    @given(
        n=st.integers(2, 12),
        restart=st.integers(1, 12),
        shift=st.floats(1.5, 3.0),
        preconditioned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_small_systems_match_reference_gmres(
        self, n, restart, shift, preconditioned, seed
    ):
        # a positive definite Hermitian part of A M makes every GMRES step
        # reduce the residual, so neither solver stagnates before max_iter
        rng = np.random.default_rng(seed)

        def gaussian():
            return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)

        a = shift * np.eye(n) + gaussian()
        m = np.linalg.inv(a + 0.5 * gaussian()) if preconditioned else np.eye(n)
        am = a @ m
        assume(np.linalg.eigvalsh((am + am.conj().T) / 2).min() > 1e-3)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        restart = min(restart, n)
        x, report = fgmres(
            lambda v: a @ v, (lambda v: m @ v) if preconditioned else None, b,
            tol=1e-9, restart=restart, max_iter=40,
        )
        x_ref, hist_ref = reference_gmres_dr(a, m, b, tol=1e-9, restart=restart, max_iter=40)
        assert report.iterations == len(hist_ref) - 1
        np.testing.assert_allclose(report.residual_history, hist_ref, rtol=0, atol=1e-8)
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)

    def test_maxiter_status(self):
        op_a = make_operator(31, 20.0, mode="physical")
        b = random_field((31, 31), seed=4)
        _, report = fgmres(op_a.apply, None, b, tol=1e-12, max_iter=5)
        assert not report.converged
        assert report.status == "maxiter"
        assert report.iterations == 5

    def test_stagnation_status(self):
        # an operator with a huge null-ish direction not reachable from b's
        # Krylov space: projector onto the first coordinate
        def apply_a(v):
            out = np.zeros_like(v)
            out[0] = v[0]
            return out

        b = np.zeros(4, dtype=complex)
        b[0] = 1.0
        b[1] = 1.0  # unreachable component
        _, report = fgmres(apply_a, None, b, tol=1e-12, restart=2, max_iter=50)
        assert report.status == "stagnation"

    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_zero_first_column_stagnates(self, preconditioned, capfd):
        # A M r = 0: the first step's projection is singular and dropped, so
        # the cycle returns x unchanged with no coefficients to solve for
        def zero(v):
            return 0.0 * v

        apply_a, precondition = (lambda v: v, zero) if preconditioned else (zero, None)
        b = np.ones(5, dtype=complex)
        x, report = fgmres(apply_a, precondition, b, restart=4, max_iter=10)
        assert report.status == "stagnation"
        assert report.iterations == 0 and report.restarts == 1
        assert np.all(x == 0)
        assert capfd.readouterr() == ("", "")  # no LAPACK argument error

    def test_plain_gmres_is_the_identity_preconditioned_cycle(self):
        # no preconditioner runs the flexible cycle with the identity; the
        # point source at n = 31 takes 88 iterations in 8 cycles, so deflated
        # restarts are compared too
        problem = setup_problem(ProblemConfig(n=31, k=ConstantK(20.0)))
        a, b = problem.physical_op.apply, problem.b
        x, report = fgmres(a, None, b)
        x_id, report_id = fgmres(a, lambda v: v, b)
        assert (report.iterations, report.restarts) == (88, 8)
        assert (report_id.iterations, report_id.restarts) == (88, 8)
        assert np.array_equal(bits(x), bits(x_id))
        assert np.array_equal(bits(report.residual_history), bits(report_id.residual_history))

    def test_validation(self):
        with pytest.raises(ValueError, match="tol"):
            fgmres(lambda v: v, None, np.ones(3), tol=0.0)
        with pytest.raises(ValueError, match="restart"):
            fgmres(lambda v: v, None, np.ones(3), restart=0)
        with pytest.raises(ValueError, match="max_iter"):
            fgmres(lambda v: v, None, np.ones(3, dtype=complex), max_iter=0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_non_finite_tol(self, tol):
        # NaN fails every comparison, so a solve with it could never converge
        with pytest.raises(ValueError, match="^tol must be finite"):
            fgmres(lambda v: v, None, np.ones(3), tol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rhs(self, bad):
        # a NaN ||b|| fails the loop's b_norm > 0 test, as a zero b does
        b = np.ones(4, dtype=complex)
        b[2] = bad
        with pytest.raises(ValueError, match="^b must be finite"):
            fgmres(lambda v: v, None, b)


class TestArnoldiCycle:
    @settings(max_examples=120)
    @given(
        n=st.integers(1, 12),
        m=st.integers(1, 8),
        operator=st.sampled_from(["dense", "returns_argument"]),
        preconditioner=st.sampled_from([None, "dense", "returns_argument"]),
        target=st.sampled_from([0.0, 1e-3, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    # A and M returning their argument alias w with z or a basis vector
    @example(n=6, m=4, operator="returns_argument", preconditioner="dense", target=0.0, seed=1)
    @example(n=6, m=4, operator="returns_argument", preconditioner=None, target=0.0, seed=2)
    @example(n=6, m=4, operator="dense", preconditioner="returns_argument", target=0.0, seed=3)
    def test_matches_reference_bit_for_bit(self, n, m, operator, preconditioner, target, seed):
        rng = np.random.default_rng(seed)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        a = 2.0 * np.eye(n) + gaussian(n, n) / np.sqrt(2 * n)
        mat = np.linalg.inv(a + 0.3 * gaussian(n, n) / np.sqrt(2 * n))
        kinds = {"dense": lambda d: lambda v: d @ v, "returns_argument": lambda d: lambda v: v}
        apply_a = kinds[operator](a)
        precondition = None if preconditioner is None else kinds[preconditioner](mat)
        x, r = gaussian(n), gaussian(n)
        x_in, r_in = x.copy(), r.copy()
        got = arnoldi_cycle(apply_a, precondition, x, r, m, target * np.linalg.norm(r))
        want = reference_arnoldi_cycle(apply_a, precondition, x, r, m, target * np.linalg.norm(r))
        assert np.array_equal(bits(got[0]), bits(want[0]))
        assert np.array_equal(bits(got[1]), bits(want[1]))
        assert got[2] == want[2]
        assert np.array_equal(bits(x), bits(x_in)) and np.array_equal(bits(r), bits(r_in))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reorthogonalization_on_near_identity(self, seed):
        # A = I + eps N: each step's w cancels to ~eps ||A z||, below the 1e-8
        # threshold, so the second pass runs.  Two steps leave the residual
        # eps^2 dist(N^2 r, span{r, N r}) to first order in eps; without the
        # pass the lost orthogonality leaves it hundreds of times larger.
        eps = 1e-10
        rng = np.random.default_rng(seed)
        n = 12
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _, estimates, breakdown = arnoldi_cycle(
            lambda v: v + eps * (noise @ v), None, np.zeros(n, dtype=complex), r, 2
        )
        krylov = np.column_stack([r, noise @ r])
        target = noise @ (noise @ r)
        coef, *_ = np.linalg.lstsq(krylov, target, rcond=None)
        want = eps**2 * np.linalg.norm(target - krylov @ coef)
        assert not breakdown
        assert abs(estimates[1] - want) <= 1e-4 * want

    def test_matches_reference_on_stencil_fields(self):
        # a cycle on 2-D fields, as FGMRES runs, past numpy's 256 KiB threshold
        # for reusing temporaries, where operand order has bitten before
        op = make_operator(129, 80.0)
        b = random_field(op.shape, seed=9)
        u = random_field(op.shape, seed=10)
        r = op.residual(b, u)
        got = arnoldi_cycle(op.apply, None, u, r, 3)
        want = reference_arnoldi_cycle(op.apply, None, u, r, 3)
        assert np.array_equal(bits(got[0]), bits(want[0]))
        assert np.array_equal(bits(got[1]), bits(want[1]))


class TestDeflatedRestart:
    @pytest.mark.parametrize("smoother", ["poly3", "gmres3"])
    def test_restart_keeps_the_flexible_arnoldi_relation(self, smoother, hier31_poly3, hier31_gmres):
        # the poly3 V-cycle is a fixed preconditioner, the GMRES(3) one is not;
        # either way V stays orthonormal and A Z = V Hbar holds after the
        # restart's recombination and after the cycle that extends it
        op_a = make_operator(31, 20.0, mode="physical")
        hier = hier31_poly3 if smoother == "poly3" else hier31_gmres
        precondition = make_preconditioner(hier)
        b = random_field((31, 31), seed=21)
        m = 10
        basis = _Basis(b, m)

        def check_relation(columns):
            v = basis.V[: columns + 1].reshape(columns + 1, -1).T
            az = np.column_stack([op_a.apply(z).ravel() for z in basis.Z[:columns]])
            assert np.linalg.norm(v.conj().T @ v - np.eye(columns + 1)) <= 1e-12
            relation = az - v @ basis.hbar[: columns + 1, :columns]
            assert np.linalg.norm(relation) <= 1e-12 * np.linalg.norm(az)
            return v

        x, estimates, _ = arnoldi_cycle(op_a.apply, precondition, np.zeros_like(b), b, m, 0.0, basis)
        assert len(estimates) == m
        basis.deflate(kept_pairs(m))
        assert basis.kept == 5
        v = check_relation(basis.kept)
        # the kept space starts from the residual of the cycle before
        r = (b - op_a.apply(x)).ravel()
        assert np.linalg.norm(r - v @ basis.c[: basis.kept + 1]) <= 1e-10 * np.linalg.norm(r)
        x, estimates, _ = _arnoldi_cycle(op_a.apply, precondition, x, m, 0.0, basis)
        assert len(estimates) == m - basis.kept
        check_relation(m)
        # each estimate is the least-squares residual on the kept block and
        # the new columns, and the last one the true residual
        for k, estimate in enumerate(estimates, start=basis.kept):
            hbar, c = basis.hbar[: k + 2, : k + 1], basis.c[: k + 2]
            y = np.linalg.lstsq(hbar, c, rcond=None)[0]
            want = np.linalg.norm(c - hbar @ y)
            assert abs(estimate - want) <= 1e-10 * want
        true = np.linalg.norm(b - op_a.apply(x))
        assert abs(estimates[-1] - true) <= 1e-8 * true

    def test_restarts_count_the_true_residual_entries(self):
        # every step applies A once, and every cycle once more for the true
        # residual that ends it in the history
        problem = setup_problem(ProblemConfig(n=31, k=ConstantK(20.0), rhs="random", seed=3))
        applies = []

        def apply_a(v):
            applies.append(1)
            return problem.physical_op.apply(v)

        precondition = make_preconditioner(problem.hierarchy)
        _, report = fgmres(apply_a, precondition, problem.b, restart=6, max_iter=60)
        assert report.converged
        assert report.restarts == len(applies) - report.iterations
        assert report.restarts == len(cycle_ends(report.iterations, 6)) > 2
        assert json.loads(json.dumps(report.to_dict()))["restarts"] == report.restarts

    def test_sweep_iterations_not_above_plain_restarts(self):
        # restarted FGMRES(20) took 9, 18, 31 and 42 iterations on this sweep
        rows, _ = sweep([10.0, 20.0, 40.0, 80.0])
        assert all(row["converged"] for row in rows)
        for row, plain in zip(rows, (9, 18, 31, 42)):
            assert row["iterations"] <= plain, row


class TestBaseline:
    def test_scaled_identity_one_iteration(self):
        b = random_field((5, 5), seed=5)
        x, report = fgmres(lambda v: 2.0 * v, None, b, tol=1e-10)
        assert report.iterations == 1
        np.testing.assert_allclose(x, b / 2.0, rtol=1e-12)

    def test_zero_rhs(self):
        x, report = fgmres(lambda v: v, None, np.zeros(7, dtype=complex))
        assert report.converged and report.iterations == 0

    def test_full_restart_matches_optimal_krylov_residual(self):
        # dense Arnoldi oracle: with restart >= n the residual after k steps
        # equals the optimal Krylov residual min ||b - A q(A) b||
        op = make_operator(6, 4.0, mode="physical")
        n = 36
        a = op.assemble_dense()
        b = random_field((6, 6), seed=6)
        bv = b.ravel()
        _, report = fgmres(op.apply, None, b, tol=1e-30, restart=n, max_iter=12)
        h = np.asarray(report.residual_history)
        assert np.all(np.diff(h) <= 1e-10)
        krylov = [bv]
        for _ in range(11):
            krylov.append(a @ krylov[-1])
        for k in range(1, 12):
            basis = np.column_stack([a @ v for v in krylov[:k]])
            coef, *_ = np.linalg.lstsq(basis, bv, rcond=None)
            optimal = np.linalg.norm(bv - basis @ coef) / np.linalg.norm(bv)
            assert h[k] <= optimal + 1e-10


class TestReport:
    def test_json_roundtrip(self):
        b = random_field((5, 5), seed=7)
        _, report = fgmres(lambda v: 2.0 * v, None, b)
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["converged"] is True
        assert parsed["iterations"] == report.iterations
        assert parsed["residual_history"][0] == 1.0

    def test_converged_implies_below_tol(self):
        op_a = make_operator(15, 10.0, mode="physical")
        hier = build_hierarchy(make_operator(15, 10.0))
        b = random_field((15, 15), seed=8)
        _, report = fgmres(op_a.apply, make_preconditioner(hier), b, tol=1e-6)
        assert report.converged
        assert report.residual_history[-1] <= 1e-6
        assert report.final_residual <= 1e-6
