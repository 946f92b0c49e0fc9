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
``(5, n_x, n_y)`` complex store, built on first use, whose rows are scipy's DIA
diagonals for offsets ``(0, -n_y, +n_y, -1, +1)``, zero where a diagonal wraps
across an x-row; ``apply`` is one DIA matvec, the dense matrix its ``toarray()``.
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

    def __init__(self, grid: ComplexGrid, k_field: WavenumberField, shift: complex = 1.0):
        if k_field.values.shape != grid.shape:
            raise ValueError(
                f"wavenumber field shape {k_field.values.shape} != grid shape {grid.shape}"
            )
        self.grid, self.k_field, self.shift = grid, k_field, complex(shift)
        self._x = _second_difference_coeffs(grid.spacing_x)
        self._y = _second_difference_coeffs(grid.spacing_y)
        # blocks of <= 4096 nodes: grid-sized temporaries fault in fresh pages per set-up
        step = max(1, 4096 // grid.n_y)
        for x in range(0, grid.n_x, step):
            g = self._x[0][x : x + step, None] + self._y[0][None, :]
            d = g - self.shift * k_field.values[x : x + step] ** 2
            if np.any(np.abs(d) < 1e-14 * np.abs(g)):
                raise ValueError("operator diagonal has (near-)zero entries; resonant parameters")

    @property
    def mode(self) -> str:
        """``"physical"`` or ``"shifted"``; kept for span keys in ``perfbench/tracing.py``."""
        return "physical" if self.shift == 1 and self.grid.gamma == 1 else "shifted"

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    @property
    def n_unknowns(self) -> int:
        return self.shape[0] * self.shape[1]

    @cached_property
    def _store(self) -> np.ndarray:
        (dx, lx, rx), (dy, ly, ry) = self._x, self._y
        store = np.zeros((5, *self.shape), dtype=complex)
        k2 = self.k_field.values.astype(complex) ** 2
        np.subtract(dx[:, None] + dy[None, :], self.shift * k2, out=store[0])
        store[1, :-1], store[2, 1:] = lx[1:, None], rx[:-1, None]
        store[3, :, :-1], store[4, :, 1:] = ly[None, 1:], ry[None, :-1]
        return store

    @cached_property
    def _matrix(self) -> dia_array:
        return _dia(self._store)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Apply the operator to a field of shape (n_x, n_y)."""
        u = np.asarray(u)
        if u.shape != self.shape:
            raise ValueError(f"field shape {u.shape} != operator shape {self.shape}")
        return (self._matrix @ u.astype(complex, copy=False).ravel()).reshape(self.shape)

    def apply_window(self, u_pad: np.ndarray, out: np.ndarray, x0: int, y0: int) -> None:
        """Apply the stencil on a window, writing into ``out``.

        ``u_pad`` holds the window's values padded by one ring of neighbour
        values (zeros where the ring leaves the domain); ``(x0, y0)`` is the
        domain index of ``out[0, 0]``.  Used by the cache-blocked kernel: the
        window runs :meth:`apply`'s DIA matvec on the store sliced to it (zero
        outside the domain), so each point equals :meth:`apply` bit for bit.
        """
        mx, my = out.shape
        lo_x, hi_x = max(x0 - 1, 0), min(x0 + mx + 1, self.shape[0])
        lo_y, hi_y = max(y0 - 1, 0), min(y0 + my + 1, self.shape[1])
        pad = ((0, 0), (lo_x - x0 + 1, x0 + mx + 1 - hi_x), (lo_y - y0 + 1, y0 + my + 1 - hi_y))
        store = np.pad(self._store[:, lo_x:hi_x, lo_y:hi_y], pad)
        v = _dia(store) @ u_pad.astype(complex, copy=False).ravel()
        out[...] = v.reshape(mx + 2, my + 2)[1:-1, 1:-1]

    def diagonal(self) -> np.ndarray:
        """Coefficient of u_ij in apply; consistent with unit basis probes."""
        return self._store[0].copy()

    @cached_property
    def _grid_diag(self) -> np.ndarray:
        """The second-difference diagonal, formed on first use: operators damped
        Jacobi never runs on (GMRES(m) levels, the physical one) do not store it."""
        return self._x[0][:, None] + self._y[0][None, :]

    def grid_diagonal(self) -> np.ndarray:
        """Diagonal of the second-difference part alone (the k=0 diagonal);
        damped Jacobi divides by it, and the cubic is certified in it."""
        return self._grid_diag.copy()

    def residual(self, b: np.ndarray, u: np.ndarray) -> np.ndarray:
        """b - A u."""
        b = np.asarray(b)
        if b.shape != self.shape:
            raise ValueError(f"rhs shape {b.shape} != operator shape {self.shape}")
        v = self.apply(u)
        return np.subtract(b, v, out=v)

    def assemble_dense(self) -> np.ndarray:
        """Dense matrix in the C ordering, y fastest (oracle use)."""
        n = self.n_unknowns
        if n > DENSE_SIZE_CAP:
            raise ValueError(f"dense assembly capped at {DENSE_SIZE_CAP} unknowns, got {n}")
        return self._matrix.toarray()

    def vec(self, u: np.ndarray) -> np.ndarray:
        """Flatten a field to the dense ordering (y fastest)."""
        return np.asarray(u).ravel()

    def unvec(self, v: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`vec`."""
        return np.asarray(v).reshape(self.shape)
