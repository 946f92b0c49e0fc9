"""Flexible GMRES with deflated restarting: the library's one Arnoldi process.

A restart cycle extends the flexible Arnoldi relation ``A Z = V Hbar`` by up
to m steps: modified Gram-Schmidt with one reorthogonalization pass, Givens
rotations for the least-squares problem, and the preconditioned vectors ``Z``
stored so the preconditioner may change from step to step -- required when
the multigrid smoother is itself GMRES.  The first cycle starts from the
residual; each restart after it keeps the :data:`DEFLATE` harmonic Ritz pairs
of smallest modulus of the cycle's unrotated ``Hbar`` (FGMRES-DR: Morgan,
SISC 24, 2002; Giraud, Gratton, Pinel & Vasseur, SISC 32, 2010), so the slow
modes the preconditioner leaves near 0 are not dropped and found again.  With
no preconditioner it is plain GMRES-DR (``solve_baseline``).  The GMRES(3)
smoother minimizes over the same kind of Krylov space but does not run this
process: it solves a 3-column least-squares problem in the monomial basis
(``smoother``).  Residual norms come from the Givens recurrence, and each
cycle ends on a verified true residual.  ``V`` and ``Z`` are preallocated, a
restart recombines them in place in column chunks, and step vector work runs
in place (aliasing rule: ``_arnoldi_cycle``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zaxpy

__all__ = ["SolveReport", "fgmres"]

# Harmonic Ritz pairs a restart keeps.  Not a setting: at restart 20, 6, 8 and
# 10 kept pairs solve the benchmark's three workloads in times within the
# noise of each other, and 10 take the fewest iterations (k = 160: 67, 65,
# 64; k = 320: 124, 116, 110).  A restart of r steps keeps at most r // 2 of
# them and none at r <= 2 (:func:`kept_pairs`).
DEFLATE = 10
# Columns of V and Z recombined at a time by a restart: the temporary is
# (DEFLATE + 1) x RECOMBINE_CHUNK values, not a second basis.
RECOMBINE_CHUNK = 4096


@dataclass(eq=False)
class SolveReport:
    iterations: int
    residual_history: list
    wall_time: float
    status: str = "converged"
    final_residual: float = 0.0
    restarts: int = 0
    diagnostics: object = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "status": self.status,
            "final_residual": self.final_residual,
            "wall_time": self.wall_time,
            "residual_history": list(map(float, self.residual_history)),
        }


def kept_pairs(restart: int) -> int:
    """Harmonic Ritz pairs a restart of ``restart``-step cycles keeps:
    :data:`DEFLATE`, at most half the cycle, and none at ``restart <= 2``,
    which stays plain restarted GMRES."""
    return max(0, min(DEFLATE, restart // 2, restart - 2))


def _givens(a: complex, b: complex):
    if a == 0:
        return 0.0, 1.0 + 0.0j
    absa = abs(a)
    r = np.hypot(absa, abs(b))
    c = absa / r
    s = (a / absa) * np.conj(b) / r
    return c, s


class _Basis:
    """The flexible Arnoldi relation ``A Z[:n] = V[:n + 1] hbar[:n + 1, :n]``
    that cycles extend, with ``r = V c`` the residual a cycle starts from.

    ``V`` holds ``m + 1`` fields and ``Z`` ``m``, allocated once; without a
    preconditioner ``Z`` is ``None`` and ``V[:n]`` stands in for it.  ``kept``
    columns carry into the next cycle (0: it starts from its residual
    argument); ``steps`` and ``y`` are the last cycle's columns and
    least-squares coefficients.
    """

    def __init__(self, like: np.ndarray, m: int, flexible: bool):
        self.V = np.empty((m + 1, *like.shape), dtype=complex)
        self.Z = np.empty((m, *like.shape), dtype=complex) if flexible else None
        self.hbar = np.zeros((m + 1, m), dtype=complex)
        self.c = np.zeros(m + 1, dtype=complex)
        self.kept = self.steps = 0
        self.y = np.zeros(0, dtype=complex)

    def deflate(self, keep: int) -> None:
        """Restart on the ``keep`` harmonic Ritz pairs of smallest modulus of
        the last cycle's ``hbar``, at most ``steps - 1``; ``keep = 0`` makes
        the next cycle start from its residual argument.

        The pairs ``(theta, g)`` solve ``hbar^H hbar g = theta H^H g``, ``H``
        the square top of ``hbar``, so ``hbar g - theta [g; 0]`` is parallel
        to the least-squares residual ``s = c - hbar y``.  With ``hbar = Q R``
        they are ``theta = 1 / mu`` and ``g = R^-1 u`` for the eigenpairs
        ``(mu, u)`` of ``Q[:n]^H R^-1``: no inverse of ``H``, which may be
        singular (``theta`` infinite, ``mu = 0``), and no squared condition
        number, as ``hbar^H hbar`` would have.  With ``P_k`` an
        orthonormal basis of the kept ``g`` and ``P = [[P_k; 0], s']``,
        ``s'`` the normalized part of ``s`` orthogonal to them,
        ``range(hbar P_k)`` lies in ``range(P)``: ``V <- V P``,
        ``Z <- Z P_k``, ``hbar <- P^H hbar P_k`` and ``c <- P^H s`` keep the
        relation and the residual exactly.
        """
        n = self.steps
        self.kept = keep = max(0, min(keep, n - 1))
        if not keep:
            return
        hbar = self.hbar[: n + 1, :n]
        s = self.c[: n + 1] - hbar @ self.y
        q, R = np.linalg.qr(hbar)
        mu, u = np.linalg.eig(np.linalg.solve(R.T, q[:n].conj()).T)
        g = np.linalg.solve(R, u[:, np.argsort(-np.abs(mu))[:keep]])
        P = np.zeros((n + 1, keep + 1), dtype=complex)
        P[:n, :keep] = np.linalg.qr(g)[0]
        p = s
        for _ in range(2):  # twice is enough
            p = p - P[:, :keep] @ (P[:, :keep].conj().T @ p)
        P[:, keep] = p / np.linalg.norm(p)
        _recombine(self.V, P)
        if self.Z is not None:
            _recombine(self.Z, P[:n, :keep])
        h_kept = P.conj().T @ hbar @ P[:n, :keep]
        self.hbar.fill(0.0)
        self.hbar[: keep + 1, :keep] = h_kept
        self.c.fill(0.0)
        self.c[: keep + 1] = P.conj().T @ s


def _recombine(fields: np.ndarray, P: np.ndarray) -> None:
    """``fields[i] <- sum_l P[l, i] fields[l]`` for the columns of ``P``, in
    place, :data:`RECOMBINE_CHUNK` values of every field at a time."""
    rows, cols = P.shape
    flat = fields.reshape(len(fields), -1)
    pt = P.T
    for a in range(0, flat.shape[1], RECOMBINE_CHUNK):
        flat[:cols, a : a + RECOMBINE_CHUNK] = pt @ flat[:rows, a : a + RECOMBINE_CHUNK]


def _arnoldi_cycle(apply_A, precondition, x, r, m, target=0.0, basis=None):
    """One restart cycle of flexible GMRES from the iterate ``x``.

    Extends ``basis`` in place (a fresh one of ``m`` steps when ``None``) to
    up to ``m`` columns of Arnoldi on ``A M`` (``M = precondition``, identity
    when ``None``) and returns ``(x + c, estimates, breakdown)``:
    ``c = Z y`` minimizes ``||r - A c||`` over the preconditioned vectors
    ``Z``; ``estimates`` holds the residual-norm estimate after each new step;
    ``breakdown`` says whether the Krylov space became invariant.  With no
    kept columns the cycle starts from the residual ``r = b - A x``, and a
    zero ``r`` gives a copy of ``x``; with ``basis.kept`` columns it starts
    from the deflated relation and its residual ``V c``, and ``r`` is not
    read.  Stops early once an estimate is at most ``target``, on breakdown,
    or on a singular projection (that step is dropped).

    Vector work runs in place.  A cycle from the residual keeps the operand
    order of ``w - h * v`` through one scratch vector and scales by
    ``1 / norm`` as numpy's division does, so it is bit for bit the
    out-of-place form; a cycle from kept columns subtracts with BLAS
    ``zaxpy``, one pass over ``w`` a vector against numpy's two, which took
    about 40% off its Gram-Schmidt time at n = 127 and 255.
    ``apply_A`` and ``precondition`` may return their argument, so each step's
    first update writes into the next basis row, never an argument.
    ``||A z||`` feeds only the thresholds; it is ``hypot(||h_k||, ||w||)``.
    """
    if basis is None:
        basis = _Basis(r, m, precondition is not None)
    V, hbar, kept = basis.V, basis.hbar, basis.kept
    Z = V if basis.Z is None else basis.Z
    h = np.zeros((m + 1, m), dtype=complex)  # hbar, rotated to triangular
    cs = np.zeros(m)
    sn = np.zeros(m, dtype=complex)
    g = np.zeros(m + 1, dtype=complex)
    if kept:
        q, h[: kept + 1, :kept] = np.linalg.qr(hbar[: kept + 1, :kept], mode="complete")
        q = q.conj().T
        g[: kept + 1] = q @ basis.c[: kept + 1]
    else:
        beta = np.linalg.norm(r)
        if beta == 0.0:
            return x.astype(complex), [], False
        np.multiply(r, 1.0 / beta, out=V[0])
        hbar.fill(0.0)
        basis.c.fill(0.0)
        basis.c[0] = g[0] = beta
    tmp = np.empty_like(V[0])
    flat = V.reshape(len(V), -1)
    estimates = []
    breakdown = False
    for k in range(kept, m):
        if precondition is None:
            z = V[k]
        else:
            Z[k] = precondition(V[k])
            z = Z[k]
        w = apply_A(z)
        if kept:  # one BLAS pass a vector, in place in the next basis row
            np.copyto(V[k + 1], w)
            w = V[k + 1]
        for j in range(k + 1):
            h[j, k] = np.vdot(V[j], w)
            if kept:
                zaxpy(flat[j], flat[k + 1], a=-h[j, k])
            else:  # the first cycle keeps numpy's rounding of w - h * v
                w = np.subtract(w, np.multiply(h[j, k], V[j], out=tmp), out=w if j else V[k + 1])
        w_norm = np.linalg.norm(w)
        norm_before = np.hypot(np.linalg.norm(h[: k + 1, k]), w_norm)
        if w_norm < 1e-8 * norm_before:  # cancellation: orthogonalize once more
            for j in range(k + 1):
                corr = np.vdot(V[j], w)
                h[j, k] += corr
                np.subtract(w, np.multiply(corr, V[j], out=tmp), out=w)
            w_norm = np.linalg.norm(w)
        h[k + 1, k] = w_norm
        breakdown = w_norm <= 1e-14 * norm_before
        hbar[: k + 2, k] = h[: k + 2, k]

        if kept:
            h[: kept + 1, k] = q @ h[: kept + 1, k]
        for j in range(kept, k):
            t = cs[j] * h[j, k] + sn[j] * h[j + 1, k]
            h[j + 1, k] = -np.conj(sn[j]) * h[j, k] + cs[j] * h[j + 1, k]
            h[j, k] = t
        cs[k], sn[k] = _givens(h[k, k], h[k + 1, k])
        h[k, k] = cs[k] * h[k, k] + sn[k] * h[k + 1, k]
        h[k + 1, k] = 0.0
        g[k + 1] = -np.conj(sn[k]) * g[k]
        g[k] = cs[k] * g[k]
        if abs(h[k, k]) == 0.0:
            break  # singular projection
        estimates.append(abs(g[k + 1]))
        if breakdown:
            break
        np.multiply(w, 1.0 / w_norm, out=w)
        if estimates[-1] <= target:
            break

    n = kept + len(estimates)
    y = np.zeros(n, dtype=complex)
    for i in range(n - 1, -1, -1):
        y[i] = (g[i] - h[i, i + 1 : n] @ y[i + 1 : n]) / h[i, i]
    c = np.zeros_like(tmp)
    for j in range(n):
        c += np.multiply(y[j], Z[j], out=tmp)
    basis.steps, basis.y = n, y
    return np.add(x, c, out=c), estimates, breakdown


def check_fgmres(tol: float, restart: int, max_iter: int) -> None:
    """The checks :func:`fgmres` makes of its settings."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if restart < 1:
        raise ValueError(f"restart must be >= 1, got {restart}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def fgmres(
    apply_A,
    precondition,
    b: np.ndarray,
    tol: float = 1e-6,
    restart: int = 20,
    max_iter: int = 500,
):
    """Flexible right-preconditioned GMRES with deflated restarting, from a
    zero initial guess.

    Parameters
    ----------
    apply_A : callable
        The physical operator, field -> field.
    precondition : callable or None
        Approximate inverse of the shifted operator (one V-cycle from a zero
        guess); may vary between calls.  ``None`` means identity: plain
        GMRES with deflated restarting.
    b : ndarray
        Right-hand side field.
    tol : float
        Convergence threshold on ``||b - A x|| / ||b||``.
    restart, max_iter : int
        Restart length (the columns a cycle ends with, kept pairs included;
        :func:`kept_pairs` of them carry over) and total inner-iteration cap
        (new Arnoldi steps).

    Returns
    -------
    (x, SolveReport)
        Each restart cycle's last history entry, and ``final_residual``, are
        the true residual ``||b - A x|| / ||b||``; ``restarts`` counts the
        cycles, so it is the number of those entries.  Stagnation (no
        decrease of it over a restart cycle, or an invariant Krylov space
        that holds no solution) and the iteration cap are reported as
        distinct statuses.
    """
    check_fgmres(tol, restart, max_iter)
    t0 = time.perf_counter()
    b = np.asarray(b, dtype=complex)
    b_norm = np.linalg.norm(b)
    if not b_norm < np.inf:
        raise ValueError(f"b must be finite with a finite norm, got norm {b_norm}")
    history = [1.0]
    x = np.zeros_like(b)
    iterations = restarts = 0
    status = "converged"
    residual = 0.0
    r = b
    size = min(restart, max_iter)
    basis = _Basis(b, size, precondition is not None)
    while b_norm > 0.0:
        m = min(size, basis.kept + max_iter - iterations)
        x, estimates, breakdown = _arnoldi_cycle(
            apply_A, precondition, x, r, m, tol * b_norm, basis
        )
        iterations += len(estimates)
        restarts += 1
        cycle_start = history[-1]
        history.extend(e / b_norm for e in estimates)
        r = b - apply_A(x)
        residual = np.linalg.norm(r) / b_norm
        history[-1] = residual
        if residual <= tol:
            break
        if iterations >= max_iter:
            status = "maxiter"
            break
        if breakdown or residual >= cycle_start * (1.0 - 1e-12):
            status = "stagnation"
            break
        basis.deflate(kept_pairs(restart))
        if basis.kept:
            r = None  # the next cycle starts from V c; free the field

    return x, SolveReport(
        iterations=iterations,
        residual_history=history,
        wall_time=time.perf_counter() - t0,
        status=status,
        final_residual=float(residual),
        restarts=restarts,
    )
