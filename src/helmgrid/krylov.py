"""Flexible GMRES: the library's one Arnoldi process.

A restart cycle builds up to m flexible Arnoldi steps from a residual:
modified Gram-Schmidt with one reorthogonalization pass, Givens rotations for
the least-squares problem, and the preconditioned vectors stored so the
preconditioner may change from step to step -- required when the multigrid
smoother is itself GMRES.  FGMRES loops restarts over it; with no
preconditioner it is plain restarted GMRES (``solve_baseline``).  The GMRES(3)
smoother minimizes over the same kind of Krylov space but does not run this
process: it solves a 3-column least-squares problem in the monomial basis
(``smoother``).  Residual norms come from the Givens recurrence, and each
cycle ends on a verified true residual.  Vector work runs in place through
one scratch vector (aliasing rule: ``_arnoldi_cycle``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = ["SolveReport", "fgmres"]


@dataclass(eq=False)
class SolveReport:
    iterations: int
    residual_history: list
    wall_time: float
    status: str = "converged"
    final_residual: float = 0.0
    diagnostics: object = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "status": self.status,
            "final_residual": self.final_residual,
            "wall_time": self.wall_time,
            "residual_history": list(map(float, self.residual_history)),
        }


def _givens(a: complex, b: complex):
    if a == 0:
        return 0.0, 1.0 + 0.0j
    absa = abs(a)
    r = np.hypot(absa, abs(b))
    c = absa / r
    s = (a / absa) * np.conj(b) / r
    return c, s


def _arnoldi_cycle(apply_A, precondition, x, r, m, target=0.0):
    """One restart cycle of flexible GMRES from the iterate ``x``.

    Runs up to ``m`` Arnoldi steps on ``A M`` from the residual
    ``r = b - A x`` (``M = precondition``, identity when ``None``) and returns
    ``(x + c, estimates, breakdown)``: ``c = Z y`` minimizes ``||r - A c||``
    over the preconditioned vectors ``Z``; ``estimates`` holds the
    residual-norm estimate after each step; ``breakdown`` says whether the
    Krylov space became invariant.  Stops early once an estimate is at most
    ``target``, on breakdown, or on a singular projection (that step is
    dropped).  A zero ``r`` gives a copy of ``x``.

    Vector work runs in place through one scratch vector, keeping the operand
    order of ``w - h * v`` and scaling by ``1 / norm`` as numpy's division
    does, so results are bit for bit those of the out-of-place form.
    ``apply_A`` and ``precondition`` may return their argument, so each step's
    first update writes a fresh ``w``; the last such ``w`` then holds ``c``.
    ``||A z||`` feeds only the thresholds; it is ``hypot(||h_k||, ||w||)``.
    """
    beta = np.linalg.norm(r)
    if beta == 0.0:
        return x.astype(complex), [], False
    vs = [r * (1.0 / beta)]
    zs = []
    tmp = np.empty_like(r, dtype=complex)
    h = np.zeros((m + 1, m), dtype=complex)
    cs = np.zeros(m)
    sn = np.zeros(m, dtype=complex)
    g = np.zeros(m + 1, dtype=complex)
    g[0] = beta
    estimates = []
    breakdown = False
    for k in range(m):
        z = vs[k] if precondition is None else precondition(vs[k])
        zs.append(z)
        w = apply_A(z)
        for j in range(k + 1):
            h[j, k] = np.vdot(vs[j], w)
            # j = 0 writes a fresh vector: w may alias z or a basis vector
            w = np.subtract(w, np.multiply(h[j, k], vs[j], out=tmp), out=w if j else None)
        w_norm = np.linalg.norm(w)
        norm_before = np.hypot(np.linalg.norm(h[: k + 1, k]), w_norm)
        if w_norm < 1e-8 * norm_before:  # cancellation: orthogonalize once more
            for j in range(k + 1):
                corr = np.vdot(vs[j], w)
                h[j, k] += corr
                np.subtract(w, np.multiply(corr, vs[j], out=tmp), out=w)
            w_norm = np.linalg.norm(w)
        h[k + 1, k] = w_norm
        breakdown = w_norm <= 1e-14 * norm_before

        for j in range(k):
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
        if estimates[-1] <= target or breakdown:
            break
        vs.append(np.multiply(w, 1.0 / w_norm, out=w))

    n = len(estimates)
    y = np.zeros(n, dtype=complex)
    for i in range(n - 1, -1, -1):
        y[i] = (g[i] - h[i, i + 1 : n] @ y[i + 1 : n]) / h[i, i]
    c = w  # fresh, and no step's z
    c.fill(0.0)
    for j in range(n):
        c += np.multiply(y[j], zs[j], out=tmp)
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
    """Flexible right-preconditioned GMRES from a zero initial guess.

    Parameters
    ----------
    apply_A : callable
        The physical operator, field -> field.
    precondition : callable or None
        Approximate inverse of the shifted operator (one V-cycle from a zero
        guess); may vary between calls.  ``None`` means identity: plain
        restarted GMRES.
    b : ndarray
        Right-hand side field.
    tol : float
        Convergence threshold on ``||b - A x|| / ||b||``.
    restart, max_iter : int
        Restart length and total inner-iteration cap.

    Returns
    -------
    (x, SolveReport)
        Each restart cycle's last history entry, and ``final_residual``, are
        the true residual ``||b - A x|| / ||b||``.  Stagnation (no decrease
        of it over a restart cycle, or an invariant Krylov space that holds
        no solution) and the iteration cap are reported as distinct statuses.
    """
    check_fgmres(tol, restart, max_iter)
    t0 = time.perf_counter()
    b = np.asarray(b, dtype=complex)
    b_norm = np.linalg.norm(b)
    if not b_norm < np.inf:
        raise ValueError(f"b must be finite with a finite norm, got norm {b_norm}")
    history = [1.0]
    x = np.zeros_like(b)
    iterations = 0
    status = "converged"
    residual = 0.0
    r = b
    while b_norm > 0.0:
        m = min(restart, max_iter - iterations)
        x, estimates, breakdown = _arnoldi_cycle(apply_A, precondition, x, r, m, tol * b_norm)
        iterations += len(estimates)
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

    return x, SolveReport(
        iterations=iterations,
        residual_history=history,
        wall_time=time.perf_counter() - t0,
        status=status,
        final_residual=float(residual),
    )
