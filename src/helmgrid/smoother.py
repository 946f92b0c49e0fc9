"""Level smoothers: three damped Jacobi sweeps, or GMRES(3) on the defect.

The cubic smoother applies damped Jacobi with three different complex weights;
its error propagation is the cubic ``p(Dinv A)``, with ``D`` the
second-difference diagonal the cubic is certified in (``spectrum``).  The
GMRES(3) smoother solves the defect equation ``A c = r0`` with a zero initial
correction by one restart cycle of the outer solver's Arnoldi process
(``krylov``), three steps long; it picks its own coefficients anew at every
call, so it is not a fixed linear operator across calls.
"""

from __future__ import annotations

import numpy as np

from .krylov import _arnoldi_cycle
from .stencil import StencilOperator

__all__ = ["damped_jacobi", "poly3_smooth", "gmres_smooth"]


def damped_jacobi(
    op: StencilOperator, u: np.ndarray, b: np.ndarray, w: complex, r: np.ndarray | None = None
) -> np.ndarray:
    """One damped Jacobi sweep: ``u + w * Dinv * (b - A u)``, with ``D`` the
    second-difference diagonal the cubic's design is certified in.

    ``r``, when given, is the caller's ``b - A u``; it saves the apply and is
    not written to.  The weighted inverse diagonal is the operator's cached
    ``w / D`` (:meth:`StencilOperator.jacobi_scale`), which the cache-blocked
    kernel slices too, so it reproduces this sweep bit for bit.  The product
    is taken residual first, as the kernel does: complex products round
    differently with swapped operands.
    """
    scale = op.jacobi_scale(w)
    if r is None:
        r = op.residual(b, u)
        np.multiply(r, scale, out=r)
    else:
        r = np.multiply(r, scale)
    return np.add(u, r, out=r)


def poly3_smooth(
    op: StencilOperator, u: np.ndarray, b: np.ndarray, weights, r: np.ndarray | None = None
) -> np.ndarray:
    """Three damped Jacobi sweeps with weights (w1, w2, w3), in that order;
    ``r`` is an optional known residual ``b - A u`` for the first sweep."""
    w1, w2, w3 = weights
    u = damped_jacobi(op, u, b, w1, r)
    u = damped_jacobi(op, u, b, w2)
    return damped_jacobi(op, u, b, w3)


def gmres_smooth(
    op: StencilOperator, u: np.ndarray, b: np.ndarray, r: np.ndarray | None = None
) -> np.ndarray:
    """GMRES(3) on the defect equation from a zero correction.

    One restart cycle of the FGMRES Arnoldi process (no preconditioner, no
    stop target): returns ``u + c`` with ``c`` minimizing ``||r0 - A c||``
    over the 3-step Krylov space, fewer steps on breakdown, and ``u`` when
    ``r0 = 0``.  ``r``, when given, is the caller's ``r0 = b - A u`` and
    saves the apply.
    """
    r0 = op.residual(b, u) if r is None else r
    return _arnoldi_cycle(op.apply, None, u, r0, 3)[0]
