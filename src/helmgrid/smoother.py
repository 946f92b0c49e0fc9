"""Level smoothers: three damped Jacobi sweeps, or GMRES(3) on the defect.

The cubic smoother applies damped Jacobi with three different complex weights;
its error propagation is the cubic ``p(Dinv A)``, with ``D`` the
second-difference diagonal the cubic is certified in (``spectrum``).  The
GMRES(3) smoother solves the defect equation ``A c = r0`` from a zero
correction: it minimizes ``||r0 - A c||`` over ``c`` in the Krylov space
``span(r0, A r0, A^2 r0)``, as three steps of GMRES do (Saad & Schultz 1986),
but as a 3-column least-squares problem on the monomial basis
``r0, A r0, A^2 r0, A^3 r0`` and its Gram matrix, in a few passes over
memory (the s-step form of Hoemmen 2010), not by an Arnoldi process.  It
picks its own coefficients anew at every call, so it is not a fixed linear
operator across calls.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs
from scipy.linalg.lapack import zpotrf, zpotrs, ztrcon

from .stencil import StencilOperator

__all__ = ["damped_jacobi", "poly3_smooth", "gmres_smooth"]

# Largest condition estimate of the column-scaled normal equations that the
# Cholesky solve is trusted with; a worse block is solved by Householder QR.
NORMAL_COND_MAX = 1e8
# A Krylov column whose part orthogonal to the columns before it is at most
# this fraction of its norm depends on them: the space is invariant there.
BREAKDOWN = 1e-14


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
    """Three damped Jacobi sweeps with weights (w1, w2, w3), in that order, in
    the operator's dtype; ``r`` is an optional known residual ``b - A u`` for
    the first sweep."""
    w1, w2, w3 = weights
    u, b = np.asarray(u, dtype=op.dtype), np.asarray(b, dtype=op.dtype)
    u = damped_jacobi(op, u, b, w1, r)
    u = damped_jacobi(op, u, b, w2)
    return damped_jacobi(op, u, b, w3)


def gmres_smooth(
    op: StencilOperator, u: np.ndarray, b: np.ndarray, r: np.ndarray | None = None
) -> np.ndarray:
    """GMRES(3) on the defect equation from a zero correction.

    Returns ``u + c`` with ``c`` minimizing ``||r0 - A c||`` over
    ``span(r0, A r0, A^2 r0)``, fewer columns when that space is invariant
    sooner, and ``u`` when ``A r0 = 0`` (``r0 = 0`` included), where no
    correction helps.  ``r``, when given, is the caller's ``r0 = b - A u``
    and saves the apply.

    The Krylov vectors ``K = [r0, A r0, A^2 r0, A^3 r0]`` come from three
    applies and are kept as they come, not copied into one block: a 4 MB
    block per call at n = 255 raised peak memory by 6 MB and was no faster
    than the separate vectors.  Nine dot products give the part of their
    Gram matrix ``conj(K) K^T`` that the column-scaled 3 x 3 normal equations
    need; Cholesky solves those for the coefficients ``y``, unless they are
    singular or worse conditioned than :data:`NORMAL_COND_MAX`, when
    Householder QR of the block does.  Then ``c = y K[:3]``.

    The vectors, the dot products and the result are in the operator's dtype;
    the Gram matrix and the normal equations are solved in complex128.
    """
    r0 = op.residual(b, u) if r is None else r
    krylov = [r0]
    for _ in range(3):
        krylov.append(op.apply(krylov[-1]))
    gram = np.zeros((4, 4), dtype=complex)  # upper triangle, less the unused ||r0||^2
    for i in range(4):
        for j in range(max(i, 1), 4):
            gram[i, j] = np.vdot(krylov[i], krylov[j])
    if gram[1, 1] == 0.0:
        return u.astype(op.dtype)
    y = _normal_equations(gram)
    if y is None:
        y = _householder_lstsq(np.stack([v.ravel() for v in krylov]))
    out = u.astype(op.dtype).ravel()
    axpy = get_blas_funcs("axpy", (out,))
    for yj, v in zip(y, krylov):
        out = axpy(v.ravel(), out, a=yj)
    return out.reshape(r0.shape)


def _normal_equations(gram: np.ndarray) -> np.ndarray | None:
    """The minimizing coefficients from the upper triangle of the Krylov
    vectors' Gram matrix, by Cholesky of the column-scaled normal equations;
    ``None`` when those are singular or their condition estimate, the square
    of the factor's, exceeds :data:`NORMAL_COND_MAX`."""
    d = 1.0 / np.sqrt(gram.diagonal()[1:].real)
    factor, info = zpotrf(gram[1:, 1:] * np.multiply.outer(d, d))
    if info != 0 or not ztrcon(factor)[0] ** 2 >= 1.0 / NORMAL_COND_MAX:
        return None
    return d * zpotrs(factor, d * gram[0, 1:].conj())[0]


def _householder_lstsq(block: np.ndarray) -> np.ndarray:
    """The minimizing coefficients by Householder QR (LAPACK ``geqrf``) of the
    Krylov vectors as the rows of one block, ``K^T = Q R``: ``y`` minimizes
    ``||R[:, 0] - R[:, 1:] y||``, GMRES's Hessenberg problem in the monomial
    basis.  At the first ``j`` whose ``R[j, j]`` is negligible against its
    column, ``A^j r0`` depends on the vectors before it and the space is
    invariant: ``y`` keeps ``j`` coefficients, as Arnoldi's breakdown takes
    fewer steps.  The small problem, columns scaled to unit norm and the
    target appended last, is factored once more, so ``y`` is one triangular
    solve on its first ``j`` columns."""
    geqrf, trtrs = get_lapack_funcs(("geqrf", "trtrs"), (block,))
    R = np.triu(geqrf(block.T, overwrite_a=True)[0][:4])
    m = next((j for j in (1, 2) if abs(R[j, j]) <= BREAKDOWN * np.linalg.norm(R[: j + 1, j])), 3)
    W = R[: m + 1, 1 : m + 1]
    scale = np.linalg.norm(W, axis=0)
    T = geqrf(np.column_stack([W / scale, R[: m + 1, 0]]), overwrite_a=True)[0]
    return trtrs(T[:m, :m], T[:m, m])[0] / scale
