"""helmgrid: 2D Helmholtz solver on complex-scaled grids.

Finite differences with a complex-stretch absorbing layer, multigrid on a
complex-shifted grid (or complex-shifted Laplacian) with a triangle-certified
cubic polynomial smoother or a GMRES(3) smoother, and outer FGMRES.
"""

from .blocked import BenchRow, TilePlan, bench, blocked_poly3
from .grid import (
    ComplexGrid,
    ConstantK,
    WavenumberField,
    WedgeK,
    build_stretched_grid,
    build_wavenumber_field,
    rotate_grid,
)
from .krylov import SolveReport, fgmres
from .multigrid import (
    CycleDiagnostics,
    Hierarchy,
    build_hierarchy,
    coarse_solve,
    prolong,
    restrict,
    v_cycle,
)
from .problems import (
    Problem,
    ProblemConfig,
    make_preconditioner,
    pick_grid_size,
    setup_problem,
    solve,
    solve_baseline,
    sweep,
)
from .smoother import damped_jacobi, gmres_smooth, poly3_smooth
from .spectrum import (
    SmootherWeights,
    SpectralDesign,
    SymbolSampleSet,
    Triangle,
    UnstableLevelError,
    convex_hull,
    design_for_operator,
    design_levels,
    min_enclosing_triangle,
    poly_max_on_boundary,
    symbol_samples,
)
from .stencil import StencilOperator

__version__ = "0.1.0"
