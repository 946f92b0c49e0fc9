"""How much of the answer is reflection from the complex-scaled layer.

The physical operator is solved directly with a point source at the centre
and compared, on the physical interior (every node outside the layers), with
the same-h solution on a square padded by n + 1 plain cells per side, whose
layers, of the same spacing profile, are far away.  The difference is what
the layer reflects.  Padding by 2(n + 1) cells instead moves the reference by
0.27% at n = 31 and 0.007% at n = 63, far less than the reflections pinned.

How far the discrete answer is from the continuous wave is measured against
the 2D Green's function: the same direct solve, fitted by the best complex
multiple of H0(1)(k r).  At a fixed number of points per wavelength the
misfit grows with k (the pollution effect), far above the layer's reflection.
"""

import numpy as np
import pytest
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu
from scipy.special import hankel1

from helmgrid import (
    ComplexGrid,
    ConstantK,
    StencilOperator,
    build_stretched_grid,
    build_wavenumber_field,
)
from helmgrid.grid import default_layer_width


def point_source_solution(grid: ComplexGrid, k: float, at: int) -> np.ndarray:
    op = StencilOperator(grid, build_wavenumber_field(ConstantK(k), grid))
    b = np.zeros(op.shape, dtype=complex)
    b[at, at] = 1.0
    # a fill-reducing order of A + A^T, kept unless a pivot is 10x too small
    lu = splu(csc_array(op._matrix), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1)
    return lu.solve(b.ravel()).reshape(op.shape)


def padded_grid(n: int, sigma_max: float) -> ComplexGrid:
    """The square of side 3, n + 1 cells of h = 1/(n+1) wider on every side,
    with the stretched layer of the same ramp and sigma_max at its own edge:
    the unit-square grid of 3n + 2 points, scaled by 3."""
    spacing = 3.0 * build_stretched_grid(3 * n + 2, sigma_max=sigma_max).spacing_x
    return ComplexGrid(spacing, spacing.copy())


def reflection(n: int, k: float, sigma_max: float = 1.0) -> float:
    """Relative L2 difference on the physical interior between the solution
    inside the default layer and the padded reference."""
    u = point_source_solution(build_stretched_grid(n, sigma_max=sigma_max), k, n // 2)
    ref = point_source_solution(padded_grid(n, sigma_max), k, n // 2 + n + 1)
    ref = ref[n + 1 : 2 * n + 1, n + 1 : 2 * n + 1]
    width = default_layer_width(n)
    inner = slice(width, n - width)
    u, ref = u[inner, inner], ref[inner, inner]
    return float(np.linalg.norm(u - ref) / np.linalg.norm(ref))


# 10 points per wavelength at the default sigma_max = 1; each bound sits just
# above the measured reflection (8.70% and 2.62%), so a layer change that
# absorbs worse fails here
@pytest.mark.parametrize("n, k, bound", [(31, 20.0, 0.088), (63, 40.0, 0.027)])
def test_default_layer_reflection(n, k, bound):
    assert reflection(n, k) <= bound


def wave_misfit(n: int, k: float) -> tuple[float, complex]:
    """Relative L2 misfit, on the physical interior more than one wavelength
    from the centre source, between the solution inside the default layer and
    its best complex multiple ``c`` of H0(1)(k r); returns ``(misfit, c)``."""
    u = point_source_solution(build_stretched_grid(n, sigma_max=1.0), k, n // 2)
    offset = (np.arange(n) - n // 2) / (n + 1)
    r = np.hypot(offset[:, None], offset[None, :])
    width = default_layer_width(n)
    keep = np.zeros((n, n), dtype=bool)
    keep[width : n - width, width : n - width] = True
    keep &= r > 2 * np.pi / k
    green, u = hankel1(0, k * r[keep]), u[keep]
    c = np.vdot(green, u) / np.vdot(green, green)
    return float(np.linalg.norm(u - c * green) / np.linalg.norm(u)), complex(c)


# 10 and 20 points per wavelength at k = 40; each bound sits just above the
# measured misfit (5.39% and 3.83%), so a stencil or layer change that makes
# the answer less accurate fails here.  A unit source at one node is a delta
# of mass h^2, and the operator approximates -(Laplacian + k^2), whose Green's
# function is (i/4) H0(1)(k r): so |c| is near h^2 / 4 (measured 1.05 and
# 1.01 times it), with a phase that grows with k
@pytest.mark.parametrize("n, k, bound", [(63, 40.0, 0.055), (127, 40.0, 0.039)])
def test_discrete_solution_against_the_continuous_wave(n, k, bound):
    misfit, c = wave_misfit(n, k)
    assert misfit <= bound
    assert abs(abs(c) / (0.25 / (n + 1) ** 2) - 1) <= 0.1
