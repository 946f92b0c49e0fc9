"""Flexible GMRES with deflated restarting: the library's one Arnoldi process.

A restart cycle extends the flexible Arnoldi relation ``A Z = V Hbar`` by up
to m steps: modified Gram-Schmidt with one reorthogonalization pass, and the
preconditioned vectors ``Z`` stored so the preconditioner may change from
step to step -- required when the multigrid smoother is itself GMRES.
``Hbar`` is the cycle's one Hessenberg matrix.  Each step's residual-norm
estimate and the cycle's coefficients come from a Householder QR of
``[Hbar | c]``, the least-squares problem ``min ||c - Hbar y||`` (Saad,
*Iterative Methods for Sparse Linear Systems*, 2003, ch. 6), and each cycle
ends on a verified true residual.  Each restart keeps the :data:`DEFLATE`
harmonic Ritz pairs of smallest modulus of the cycle's ``Hbar`` (FGMRES-DR:
Morgan, SISC 24, 2002; Giraud, Gratton, Pinel & Vasseur, SISC 32, 2010), so
the slow modes the preconditioner leaves near 0 are not dropped and found
again; the first cycle, and any restart that keeps none, is the case of no
kept columns, a relation started from the residual.  A preconditioner of
``None`` is the identity: the same cycle, ``Z`` stored as copies of ``V``,
is plain GMRES-DR (``solve_baseline``).  The GMRES(3) smoother minimizes
over the same kind of Krylov space but does not run this process: it solves
a 3-column least-squares problem in the monomial basis (``smoother``).
``V`` and ``Z`` are preallocated, a restart recombines them in place in
column chunks, and every Gram-Schmidt update is one BLAS ``zaxpy`` in place
on the next basis row (aliasing rule: ``_arnoldi_cycle``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zaxpy
from scipy.linalg.lapack import zgeqrf, ztrtrs

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


class _Basis:
    """The flexible Arnoldi relation ``A Z[:n] = V[:n + 1] hbar[:n + 1, :n]``
    that cycles extend, with ``r = V c`` the residual a cycle starts from.

    ``V`` holds ``m + 1`` fields and ``Z`` ``m``, allocated once; ``Z`` is
    stored with no preconditioner too, as copies of ``V``.  ``kept`` columns
    carry into the next cycle (:meth:`start` or :meth:`deflate` sets
    them); ``steps`` and ``y`` are the last cycle's columns and least-squares
    coefficients.
    """

    def __init__(self, like: np.ndarray, m: int):
        self.V = np.empty((m + 1, *like.shape), dtype=complex)
        self.Z = np.empty((m, *like.shape), dtype=complex)
        self.hbar = np.zeros((m + 1, m), dtype=complex)
        self.c = np.zeros(m + 1, dtype=complex)
        self.kept = self.steps = 0
        self.y = np.zeros(0, dtype=complex)

    def start(self, r: np.ndarray) -> None:
        """Restart from the nonzero residual ``r`` with no kept columns:
        ``V[0] = r / ||r||`` and ``c = ||r|| e_1``."""
        beta = np.linalg.norm(r)
        np.multiply(r, 1.0 / beta, out=self.V[0])
        self.hbar.fill(0.0)
        self.c.fill(0.0)
        self.c[0] = beta
        self.kept = 0

    def deflate(self, keep: int) -> None:
        """Restart on the ``keep`` harmonic Ritz pairs of smallest modulus of
        the last cycle's ``hbar``, at most ``steps - 1``; with none kept the
        next cycle needs :meth:`start`.

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


def _arnoldi_cycle(apply_A, precondition, x, m, target, basis):
    """One restart cycle of flexible GMRES from the iterate ``x``.

    Extends the relation ``basis`` holds, from its ``kept`` columns and its
    residual ``V c``, in place to up to ``m`` columns of Arnoldi on ``A M``
    (``M = precondition``, the identity when ``None``; ``Z`` is stored either
    way) and returns
    ``(x + Z y, estimates, breakdown)``: ``Z y`` minimizes ``||V c - A Z y||``
    over the preconditioned vectors ``Z``, so ``y`` minimizes
    ``||c - hbar y||``; ``estimates`` holds the residual-norm estimate after
    each new step; ``breakdown`` says whether the Krylov space became
    invariant.  ``hbar`` is the cycle's only Hessenberg matrix: after step
    ``k`` one Householder QR (LAPACK ``geqrf``) of
    ``[hbar[:k + 2, :k + 1] | c[:k + 2]] = Q R`` gives the estimate
    ``|R[k + 1, k + 1]|``, the part of ``c`` outside the range of ``hbar``,
    with the kept block factored as any other columns, and ``y`` is one
    triangular solve (``trtrs``) on the last step's ``R``.  Stops early once
    an estimate is at most ``target``, on breakdown, or on a singular
    projection, ``R[k, k] == 0`` (that step is dropped).

    Each step copies ``A z`` into the next basis row and orthogonalizes it
    there in place, one BLAS ``zaxpy`` a basis vector: one pass over the
    vector against numpy's two for ``w - h * v``, which took about 40% off the
    Gram-Schmidt time at n = 127 and 255.  ``x + Z y`` is accumulated the same
    way into a copy of ``x``.  No update writes into an argument, so
    ``apply_A`` and ``precondition`` may return theirs.
    ``||A z||`` feeds only the thresholds; it is ``hypot(||h_k||, ||w||)``.
    """
    if precondition is None:  # plain GMRES: the same cycle with the identity
        precondition = lambda v: v
    V, Z, hbar, c, kept = basis.V, basis.Z, basis.hbar, basis.c, basis.kept
    flat = V.reshape(len(V), -1)
    estimates = []
    breakdown = False
    for k in range(kept, m):
        Z[k] = precondition(V[k])
        np.copyto(V[k + 1], apply_A(Z[k]))
        w = V[k + 1]
        h = hbar[:, k]
        for j in range(k + 1):
            h[j] = np.vdot(V[j], w)
            zaxpy(flat[j], flat[k + 1], a=-h[j])
        w_norm = np.linalg.norm(w)
        norm_before = np.hypot(np.linalg.norm(h[: k + 1]), w_norm)
        if w_norm < 1e-8 * norm_before:  # cancellation: orthogonalize once more
            for j in range(k + 1):
                corr = np.vdot(V[j], w)
                h[j] += corr
                zaxpy(flat[j], flat[k + 1], a=-corr)
            w_norm = np.linalg.norm(w)
        h[k + 1] = w_norm
        breakdown = w_norm <= 1e-14 * norm_before
        R = zgeqrf(np.column_stack((hbar[: k + 2, : k + 1], c[: k + 2])))[0]
        if R[k, k] == 0.0:
            break  # singular projection
        estimates.append(abs(R[k + 1, k + 1]))
        if breakdown:
            break
        np.multiply(w, 1.0 / w_norm, out=w)
        if estimates[-1] <= target:
            break

    n = kept + len(estimates)
    # LAPACK rejects an empty system: a first step with a singular projection
    y = ztrtrs(R[:n, :n], R[:n, -1])[0] if n else np.zeros(0, dtype=complex)
    out = x.astype(complex).ravel()
    for j in range(n):
        out = zaxpy(Z[j].ravel(), out, a=y[j])
    basis.steps, basis.y = n, y
    return out.reshape(x.shape), estimates, breakdown


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
        guess); may vary between calls.  ``None`` means the identity: plain
        GMRES with deflated restarting, by the same cycle, which stores
        ``Z`` as copies of ``V``.
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
    basis = _Basis(b, size)
    while b_norm > 0.0:
        if not basis.kept:
            basis.start(r)
        m = min(size, basis.kept + max_iter - iterations)
        x, estimates, breakdown = _arnoldi_cycle(apply_A, precondition, x, m, tol * b_norm, basis)
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

    return x, SolveReport(
        iterations=iterations,
        residual_history=history,
        wall_time=time.perf_counter() - t0,
        status=status,
        final_residual=float(residual),
        restarts=restarts,
    )
