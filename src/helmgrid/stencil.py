"""Matrix-free 5-point Helmholtz operator on a complex grid.

The operator is ``A u = -D2_x u - D2_y u - s * k^2 * u`` with the standard
3-point second difference on (possibly complex) non-uniform spacings and
homogeneous Dirichlet values eliminated.  An operator is a grid, a wavenumber
field and the complex shift ``s``; the three flavours are

- physical: the stretched grid with ``s = 1``;
- shifted grid: the grid rotated by ``gamma = sqrt(1 + i*beta)``, ``s = 1``;
- complex shifted Laplacian (CSL): the stretched grid with ``s = 1 + i*beta``.

The last two agree up to the scalar ``gamma^2 = 1 + i*beta``.

Unknown ordering for dense assembly is lexicographic with x fastest.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .grid import ComplexGrid, WavenumberField

__all__ = ["StencilOperator", "DENSE_SIZE_CAP"]

DENSE_SIZE_CAP = 4096


def _second_difference_coeffs(spacing: np.ndarray):
    """Per-node coefficients of -(D2 u): (diag, left, right) along one axis."""
    hl = spacing[:-1]
    hr = spacing[1:]
    diag = 2.0 / (hl * hr)
    left = -2.0 / ((hl + hr) * hl)
    right = -2.0 / ((hl + hr) * hr)
    return diag, left, right


class StencilOperator:
    """Helmholtz stencil bound to a grid, a wavenumber field and a complex shift."""

    def __init__(self, grid: ComplexGrid, k_field: WavenumberField, shift: complex = 1.0):
        if k_field.values.shape != grid.shape:
            raise ValueError(
                f"wavenumber field shape {k_field.values.shape} != grid shape {grid.shape}"
            )

        self.grid = grid
        self.k_field = k_field
        self.shift = complex(shift)

        dx, lx, rx = _second_difference_coeffs(grid.spacing_x)
        dy, ly, ry = _second_difference_coeffs(grid.spacing_y)
        self._dx, self._dy = dx, dy
        self._left_x, self._right_x = lx, rx
        self._left_y, self._right_y = ly, ry
        self._diag = (
            dx[:, None] + dy[None, :] - self.shift * k_field.values.astype(complex) ** 2
        )
        if np.any(np.abs(self._diag) < 1e-14 * np.abs(dx[:, None] + dy[None, :])):
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
        n_x, n_y = self.grid.shape
        return n_x * n_y

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Apply the operator to a field of shape (n_x, n_y)."""
        u = np.asarray(u)
        if u.shape != self.shape:
            raise ValueError(f"field shape {u.shape} != operator shape {self.shape}")
        u = u.astype(complex, copy=False)
        v = self._diag * u
        v[1:, :] += self._left_x[1:, None] * u[:-1, :]
        v[:-1, :] += self._right_x[:-1, None] * u[1:, :]
        v[:, 1:] += self._left_y[None, 1:] * u[:, :-1]
        v[:, :-1] += self._right_y[None, :-1] * u[:, 1:]
        return v

    def apply_window(self, u_pad: np.ndarray, out: np.ndarray, x0: int, y0: int) -> None:
        """Apply the stencil on a window, writing into ``out``.

        ``u_pad`` holds the window's values padded by one ring of neighbour
        values (zeros where the ring leaves the domain); ``(x0, y0)`` is the
        domain index of ``out[0, 0]``.  Used by the cache-blocked kernel; the
        arithmetic per point is identical to :meth:`apply`.
        """
        mx, my = out.shape
        sx = slice(x0, x0 + mx)
        sy = slice(y0, y0 + my)
        core = u_pad[1:-1, 1:-1]
        np.multiply(self._diag[sx, sy], core, out=out)
        out += self._left_x[sx, None] * u_pad[:-2, 1:-1]
        out += self._right_x[sx, None] * u_pad[2:, 1:-1]
        out += self._left_y[None, sy] * u_pad[1:-1, :-2]
        out += self._right_y[None, sy] * u_pad[1:-1, 2:]

    def diagonal(self) -> np.ndarray:
        """Coefficient of u_ij in apply; consistent with unit basis probes."""
        return self._diag.copy()

    @cached_property
    def _grid_diag(self) -> np.ndarray:
        """The second-difference diagonal, formed on first use, so operators
        damped Jacobi never runs on (GMRES(m) levels, the physical operator)
        do not store it."""
        return self._dx[:, None] + self._dy[None, :]

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
        """Dense matrix, lexicographic ordering with x fastest (oracle use)."""
        n = self.n_unknowns
        if n > DENSE_SIZE_CAP:
            raise ValueError(f"dense assembly capped at {DENSE_SIZE_CAP} unknowns, got {n}")
        a = np.zeros((n, n), dtype=complex)
        e = np.zeros(self.shape, dtype=complex)
        nx, ny = self.shape
        for j in range(n):
            ix, iy = j % nx, j // nx
            e[ix, iy] = 1.0
            a[:, j] = self.apply(e).ravel(order="F")
            e[ix, iy] = 0.0
        return a

    def vec(self, u: np.ndarray) -> np.ndarray:
        """Flatten a field to the dense ordering (x fastest)."""
        return np.asarray(u).ravel(order="F")

    def unvec(self, v: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`vec`."""
        return np.asarray(v).reshape(self.shape, order="F")
