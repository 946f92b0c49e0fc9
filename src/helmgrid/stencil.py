"""5-point Helmholtz operator on a complex grid, kept as five diagonals.

The operator is ``A u = -D2_x u - D2_y u - s * k^2 * u`` with the standard
3-point second difference on (possibly complex) non-uniform spacings and
homogeneous Dirichlet values eliminated.  An operator is a grid, a wavenumber
field and the complex shift ``s``; the three flavours are

- physical: the stretched grid with ``s = 1``;
- shifted grid: the grid rotated by ``gamma = sqrt(1 + i*beta)``, ``s = 1``;
- complex shifted Laplacian (CSL): the stretched grid with ``s = 1 + i*beta``.

The last two agree up to the scalar ``gamma^2 = 1 + i*beta``.

Unknowns are ordered y fastest (C order).  The coefficients are one C-ordered
``(5, n_x, n_y)`` store, built on first use, whose rows are scipy's DIA
diagonals for offsets ``(0, -n_y, +n_y, -1, +1)``, zero where a diagonal wraps
across an x-row; ``apply`` is one DIA matvec, the dense matrix its ``toarray()``,
and LAPACK's band layout, which factors the multigrid's coarsest level, the
same rows summed into a zeroed array.
The cache-blocked kernel's ``apply_window`` cuts windows from a zero-ringed copy.

An operator has a ``dtype``, ``complex128`` unless given or ``complex64``
(the multigrid's large levels): the store and damped Jacobi's ``w / D`` are
computed in double and rounded once to it, and ``apply`` and ``residual``
cast their inputs to it and return it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.sparse import dia_array

from .grid import ComplexGrid, WavenumberField

__all__ = ["StencilOperator", "DENSE_SIZE_CAP"]

DENSE_SIZE_CAP = 4096


def _second_difference_coeffs(spacing: np.ndarray):
    """Per-node coefficients of -(D2 u): (diag, left, right) along one axis."""
    hl, hr = spacing[:-1], spacing[1:]
    return 2.0 / (hl * hr), -2.0 / ((hl + hr) * hl), -2.0 / ((hl + hr) * hr)


def _dia(store: np.ndarray) -> dia_array:
    """DIA matrix sharing a ``(5, m_x, m_y)`` store's memory; at ``m_y = 1`` the y rows,
    all zero, are left out, since their offsets would repeat the x rows' ``-1, +1``."""
    m, m_y = store[0].size, store.shape[2]
    d = 5 if m_y > 1 else 3
    return dia_array((store.reshape(5, m)[:d], (0, -m_y, m_y, -1, 1)[:d]), shape=(m, m))


class StencilOperator:
    """Helmholtz stencil bound to a grid, a wavenumber field and a complex shift."""

    def __init__(self, grid: ComplexGrid, k_field: WavenumberField, shift: complex = 1.0,
                 dtype=np.complex128):
        if k_field.values.shape != grid.shape:
            raise ValueError(
                f"wavenumber field shape {k_field.values.shape} != grid shape {grid.shape}"
            )
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.complex64, np.complex128):
            raise ValueError(f"dtype must be complex64 or complex128, got {self.dtype}")
        self.grid, self.k_field, self.shift = grid, k_field, complex(shift)
        self.shape: tuple[int, int] = grid.shape  # the grid is frozen: read once
        self._x = _second_difference_coeffs(grid.spacing_x)
        self._y = _second_difference_coeffs(grid.spacing_y)
        self._jacobi_scales: dict[complex, np.ndarray] = {}

    @property
    def mode(self) -> str:
        """``"physical"`` or ``"shifted"``; kept for span keys in ``perfbench/tracing.py``."""
        return "physical" if self.shift == 1 and self.grid.gamma == 1 else "shifted"

    @property
    def n_unknowns(self) -> int:
        return self.shape[0] * self.shape[1]

    @cached_property
    def _store(self) -> np.ndarray:
        (dx, lx, rx), (dy, ly, ry) = self._x, self._y
        store = np.zeros((5, *self.shape), dtype=self.dtype)
        k2 = self.k_field.values.astype(complex) ** 2
        np.subtract(dx[:, None] + dy[None, :], self.shift * k2, out=store[0])
        store[1, :-1], store[2, 1:] = lx[1:, None], rx[:-1, None]
        store[3, :, :-1], store[4, :, 1:] = ly[None, 1:], ry[None, :-1]
        return store

    @cached_property
    def _matrix(self) -> dia_array:
        return _dia(self._store)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Apply the operator to a field of shape (n_x, n_y); the field is cast
        to the operator's dtype, and so is the result."""
        u = np.asarray(u)
        if u.shape != self.shape:
            raise ValueError(f"field shape {u.shape} != operator shape {self.shape}")
        return (self._matrix @ u.astype(self.dtype, copy=False).ravel()).reshape(self.shape)

    @cached_property
    def _ringed_store(self) -> np.ndarray:
        return np.pad(self._store, ((0, 0), (1, 1), (1, 1)))

    def apply_window(self, u_pad: np.ndarray, x0: int, y0: int) -> np.ndarray:
        """The stencil on the window ``u_pad[1:-1, 1:-1]``, whose first point has
        domain index ``(x0, y0)``; ``u_pad``'s ring holds the neighbour values,
        zero outside the domain.  The cache-blocked kernel's apply: the DIA
        matvec of :meth:`apply` on the window's cut of the store, ringed with
        zeros once, so each point equals :meth:`apply` bit for bit."""
        mx, my = u_pad.shape
        v = _dia(self._ringed_store[:, x0 : x0 + mx, y0 : y0 + my]) @ u_pad.ravel()
        return v.reshape(mx, my)[1:-1, 1:-1]

    def grid_diagonal(self) -> np.ndarray:
        """Diagonal of the second-difference part alone (the k=0 diagonal);
        damped Jacobi divides by it, and the cubic is certified in it."""
        return self._x[0][:, None] + self._y[0][None, :]

    def jacobi_scale(self, w: complex) -> np.ndarray:
        """Damped Jacobi's weighted inverse diagonal ``w / D``, D the
        second-difference diagonal, read only.  A level's cubic sweeps with the
        same three weights on every call, so the last three weights' arrays
        are kept, formed at first use: operators damped Jacobi never runs on
        (GMRES(3) levels, the physical one) keep none.  The arrays are in the
        operator's dtype; the cache-blocked kernel slices the same arrays."""
        w = complex(w)
        if w not in self._jacobi_scales:
            if len(self._jacobi_scales) == 3:
                self._jacobi_scales.clear()
            scale = (w / self.grid_diagonal()).astype(self.dtype, copy=False)
            scale.flags.writeable = False
            self._jacobi_scales[w] = scale
        return self._jacobi_scales[w]

    def residual(self, b: np.ndarray, u: np.ndarray) -> np.ndarray:
        """b - A u, in the operator's dtype."""
        b = np.asarray(b, dtype=self.dtype)
        if b.shape != self.shape:
            raise ValueError(f"rhs shape {b.shape} != operator shape {self.shape}")
        v = self.apply(u)
        return np.subtract(b, v, out=v)

    def assemble_band(self) -> np.ndarray:
        """The matrix in LAPACK's band layout with ``kl = ku = n_y``, in
        ``complex128``: entry ``(i, j)`` at row ``2 n_y + i - j`` of column
        ``j`` of a ``(3 n_y + 1, N)`` array whose first ``n_y`` rows are left
        zero for ``gbtrf``'s fill-in, so DIA offset ``o`` is row ``2 n_y - o``.
        The diagonals are summed in: at ``n_y = 1`` the y rows, all zero, share
        the x rows' offsets ``-1, +1``."""
        n_y = self.shape[1]
        band = np.zeros((3 * n_y + 1, self.n_unknowns), dtype=np.complex128)
        for row, offset in zip(self._store.reshape(5, -1), (0, -n_y, n_y, -1, 1)):
            band[2 * n_y - offset] += row
        return band

    def assemble_dense(self) -> np.ndarray:
        """Dense matrix in the C ordering, y fastest (oracle use)."""
        n = self.n_unknowns
        if n > DENSE_SIZE_CAP:
            raise ValueError(f"dense assembly capped at {DENSE_SIZE_CAP} unknowns, got {n}")
        return self._matrix.toarray()
