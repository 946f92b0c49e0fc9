"""Level smoothers: three damped Jacobi sweeps, or GMRES(3) on the defect.

The cubic smoother applies damped Jacobi with three different complex weights;
its error propagation is the cubic ``p(Dinv A)`` in the Jacobi-preconditioned
operator.  The GMRES smoother solves the defect equation ``A c = r0`` with a
zero initial correction by one restart cycle of the outer solver's Arnoldi
process (``krylov``), m steps long; it picks its own coefficients anew at
every call, so it is not a fixed linear operator across calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .krylov import _arnoldi_cycle
from .spectrum import SmootherWeights
from .stencil import StencilOperator

__all__ = ["SmootherKind", "damped_jacobi", "poly3_smooth", "gmres_smooth", "weight_triple"]


@dataclass(frozen=True)
class SmootherKind:
    """Smoother selector for a hierarchy: ``poly3`` or ``gmres`` with m steps."""

    name: str = "gmres"
    m: int = 3

    def __post_init__(self):
        if self.name not in ("poly3", "gmres"):
            raise ValueError(f"unknown smoother kind {self.name!r}")
        if self.name == "gmres" and self.m < 1:
            raise ValueError(f"gmres smoother needs m >= 1, got {self.m}")


def weight_triple(weights) -> tuple[complex, complex, complex]:
    """Extract (w1, w2, w3) from a SmootherWeights or a plain 3-sequence."""
    if isinstance(weights, SmootherWeights):
        return (weights.w1, weights.w2, weights.w3)
    w1, w2, w3 = weights
    return (complex(w1), complex(w2), complex(w3))


def damped_jacobi(
    op: StencilOperator, u: np.ndarray, b: np.ndarray, w: complex, r: np.ndarray | None = None
) -> np.ndarray:
    """One damped Jacobi sweep: ``u + w * Dinv * (b - A u)``.

    ``r``, when given, is the caller's ``b - A u`` and saves the apply.  The
    weighted inverse diagonal is formed once as a full-domain array so the
    cache-blocked kernel can slice the identical coefficients and reproduce
    this sweep bit for bit.  The product is taken residual first, as the
    kernel does: complex products round differently with swapped operands,
    and ``r * (w / d)`` may be swapped by numpy's temporary elision.
    """
    if r is None:
        r = b - op.apply(u)
    return u + np.multiply(r, w / op.diag)


def poly3_smooth(
    op: StencilOperator, u: np.ndarray, b: np.ndarray, weights, r: np.ndarray | None = None
) -> np.ndarray:
    """Three damped Jacobi sweeps with weights w1, w2, w3, in that order;
    ``r`` is an optional known residual ``b - A u`` for the first sweep."""
    w1, w2, w3 = weight_triple(weights)
    u = damped_jacobi(op, u, b, w1, r)
    u = damped_jacobi(op, u, b, w2)
    return damped_jacobi(op, u, b, w3)


def gmres_smooth(
    op: StencilOperator, u: np.ndarray, b: np.ndarray, m: int = 3, r: np.ndarray | None = None
) -> np.ndarray:
    """GMRES(m) on the defect equation from a zero correction.

    One restart cycle of the FGMRES Arnoldi process (no preconditioner, no
    stop target): returns ``u + c`` with ``c`` minimizing ``||r0 - A c||``
    over the m-step Krylov space, fewer steps on breakdown, and ``u`` when
    ``r0 = 0``.  ``r``, when given, is the caller's ``r0 = b - A u`` and
    saves the apply.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 Arnoldi steps, got {m}")
    r0 = op.residual(b, u) if r is None else r
    return _arnoldi_cycle(op.apply, None, u, r0, m)[0]
