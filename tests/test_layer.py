"""How much of the answer is reflection from the complex-scaled layer.

The physical operator is solved directly with a point source at the centre
and compared, on the physical interior (every node outside the layers), with
the same-h solution on a square padded by n + 1 plain cells per side, whose
layers, of the same spacing profile, are far away.  The difference is what
the layer reflects.  Padding by 2(n + 1) cells instead moves the reference by
0.27% at n = 31 and 0.007% at n = 63, far less than the reflections pinned.
"""

import numpy as np
import pytest
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

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
