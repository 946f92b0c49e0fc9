"""Complex-grid multigrid hierarchy and V-cycle with coarse-grid diagnostics.

Coarse levels are rediscretizations on the coarsened complex grid: every
other node is retained and spacings are summed pairwise, which preserves the
complex stretch and the global rotation factor exactly; the wavenumber field
is restricted by injection at coincident nodes, and every level keeps the fine
operator's complex shift.  Transfers are full weighting and bilinear
interpolation on the index lattice.  Coarsening stops at a side of at most
:data:`COARSEST_MAX` or at an even side, and that coarsest level is solved
exactly by LAPACK's band LU (``zgbtrf`` once, ``zgbtrs`` per cycle), whose
bandwidth is the level's ``n_y``: about ``N n_y^2`` work to factor, against
``N^3`` for a dense LU.

Precision: every level but the coarsest with at least
:data:`SINGLE_MIN_UNKNOWNS` unknowns gets a ``complex64`` operator and runs
its smoothing, residuals and transfers in single precision; the smaller
levels and the coarsest level's LU stay ``complex128``.  A cycle casts each
level's right-hand side and the prolonged correction to that level's dtype,
and returns the finest level's.  Outer FGMRES accepts a preconditioner that
changes from call to call, so the rounding costs iterations, never the
accuracy of the solve, whose residual stays in double.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .grid import ComplexGrid, WavenumberField
from .smoother import gmres_smooth, poly3_smooth
# design_for_operator is not called here; perfbench/tracing.py wraps it by this name
from .spectrum import SpectralDesign, design_for_operator, design_levels, jacobi_weights_for
from .stencil import DENSE_SIZE_CAP, StencilOperator

__all__ = [
    "Level",
    "Hierarchy",
    "CycleDiagnostics",
    "DivergenceError",
    "build_hierarchy",
    "level_shapes",
    "coarsen_grid",
    "coarsen_field",
    "restrict",
    "prolong",
    "coarse_solve",
    "lu_factor",
]

COARSEST_MAX = 15
SMOOTHERS = ("poly3", "gmres3")
# Smallest level, in unknowns, that runs in complex64.  The large levels hold
# the cycle's memory traffic, and single precision halves it; the coarse
# levels keep double because the GMRES(3) smoother's scaled Gram matrix
# passes single precision's reach there (condition estimates up to 5.3e8 on
# 31 x 31 and 8.2e5 on 63 x 63 at k <= 320, at most 1.1e4 on 127 x 127 and up),
# and so that every cycle at n <= 63 stays the double-precision cycle.
SINGLE_MIN_UNKNOWNS = 127 * 127


class DivergenceError(RuntimeError):
    """Non-finite values appeared during a cycle."""


def level_shapes(shape: tuple[int, int]) -> list[tuple[int, int]]:
    """Shapes of the levels a hierarchy on a ``shape`` grid gets: each level
    keeps every other node of the one above, and coarsening stops once a side
    is at most :data:`COARSEST_MAX`, or at an even side."""
    shapes = [tuple(shape)]
    while min(shapes[-1]) > COARSEST_MAX and all(s % 2 for s in shapes[-1]):
        shapes.append(tuple((s - 1) // 2 for s in shapes[-1]))
    return shapes


def coarsen_grid(g: ComplexGrid) -> ComplexGrid:
    """Drop every other node; coarse spacings are pairwise sums of fine ones."""
    if g.n_x % 2 == 0 or g.n_y % 2 == 0:
        raise ValueError(f"coarsening needs odd interior counts, got {g.shape}")
    sx, sy = g.spacing_x, g.spacing_y
    return ComplexGrid(
        spacing_x=sx[0::2] + sx[1::2],
        spacing_y=sy[0::2] + sy[1::2],
        gamma=g.gamma,
    )


def coarsen_field(f: WavenumberField) -> WavenumberField:
    """Injection at the nodes the coarse grid shares with the fine grid."""
    return WavenumberField(f.values[1::2, 1::2])


def restrict(fine: np.ndarray) -> np.ndarray:
    """Full-weighting restriction (1/4 center, 1/8 edges, 1/16 corners)."""
    f = np.asarray(fine)
    if (f.shape[0] % 2 == 0) or (f.shape[1] % 2 == 0):
        raise ValueError(f"restriction needs odd interior counts, got {f.shape}")
    return (
        0.25 * f[1::2, 1::2]
        + 0.125 * (f[0:-1:2, 1::2] + f[2::2, 1::2] + f[1::2, 0:-1:2] + f[1::2, 2::2])
        + 0.0625 * (f[0:-1:2, 0:-1:2] + f[0:-1:2, 2::2] + f[2::2, 0:-1:2] + f[2::2, 2::2])
    )


def prolong(coarse: np.ndarray) -> np.ndarray:
    """Bilinear interpolation on the index lattice (zero outside the domain)."""
    c = np.asarray(coarse)
    ncx, ncy = c.shape
    cp = np.zeros((ncx + 2, ncy + 2), dtype=c.dtype)
    cp[1:-1, 1:-1] = c
    nfx, nfy = 2 * ncx + 1, 2 * ncy + 1
    f = np.empty((nfx, nfy), dtype=c.dtype)
    f[1::2, 1::2] = c
    f[0::2, 1::2] = 0.5 * (cp[:-1, 1:-1] + cp[1:, 1:-1])
    f[1::2, 0::2] = 0.5 * (cp[1:-1, :-1] + cp[1:-1, 1:])
    f[0::2, 0::2] = 0.25 * (cp[:-1, :-1] + cp[:-1, 1:] + cp[1:, :-1] + cp[1:, 1:])
    return f


def lu_factor(op: StencilOperator) -> tuple:
    """Band LU of the coarsest level, ``(factors, pivots, shape)`` for
    :func:`coarse_solve`: ``zgbtrf`` on ``op.assemble_band()``, whose
    bandwidth is ``n_y``.  Set-up calls it through this module's name, which
    ``perfbench/tracing.py`` wraps to time the coarse factor."""
    n = op.n_unknowns
    if n > DENSE_SIZE_CAP:
        raise ValueError(f"coarsest-level LU capped at {DENSE_SIZE_CAP} unknowns, got {n}")
    n_y = op.shape[1]
    factors, pivots, info = zgbtrf(op.assemble_band(), n_y, n_y)
    if info > 0:
        raise np.linalg.LinAlgError(f"coarsest level {op.shape} is singular (zero pivot {info})")
    return factors, pivots, op.shape


def coarse_solve(lu_factors, rhs: np.ndarray) -> np.ndarray:
    """Band LU back-substitution (``zgbtrs``) on the coarsest level, rhs as a
    2D field; returns ``complex128``, and leaves ``rhs`` as it was."""
    lu, piv, shape = lu_factors
    x, _ = zgbtrs(lu, shape[1], shape[1], np.asarray(rhs).ravel(), piv)
    return x.reshape(shape)


@dataclass(frozen=True, eq=False)
class Level:
    op: StencilOperator
    design: SpectralDesign | None = None
    jacobi_w: tuple[complex, complex, complex] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.op.shape


@dataclass(eq=False)
class CycleDiagnostics:
    """Per-cycle, per-level records: residual norm after pre-smoothing, the
    coarse-grid-correction residual ratio, and the norm after post-smoothing.

    Cycles are numbered from 0 in the order they ran.  Each level records
    after the coarser levels it visits, so the level-0 row closes a cycle;
    ``cycles`` counts the closed ones.  A cgc ratio above 1 means the coarse
    correction amplified the residual on that level; such ratios are
    recorded, never masked.
    """

    rows: list = field(default_factory=list, init=False)
    cycles: int = field(default=0, init=False)

    def record(self, level: int, pre_norm: float, cgc_ratio: float, post_norm: float):
        self.rows.append(
            {
                "cycle": self.cycles,
                "level": level,
                "pre_residual": pre_norm,
                "cgc_ratio": cgc_ratio,
                "post_residual": post_norm,
            }
        )
        if level == 0:
            self.cycles += 1

    def cgc_ratios(self) -> np.ndarray:
        return np.array([r["cgc_ratio"] for r in self.rows])


@dataclass(frozen=True, eq=False)
class Hierarchy:
    """Immutable after build; run concurrent cycles only on separate copies."""

    levels: list
    coarse_lu: tuple
    smoother: str
    nu_pre: int
    nu_post: int

    @property
    def depth(self) -> int:
        return len(self.levels)

    def smooth(self, ell: int, u: np.ndarray, b: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
        """One smoothing step on level ``ell``; ``r`` is ``b - A u`` if known."""
        level = self.levels[ell]
        if self.smoother == "poly3":
            return poly3_smooth(level.op, u, b, level.jacobi_w, r)
        return gmres_smooth(level.op, u, b, r)


def check_hierarchy(smoother: str, nu_pre: int, nu_post: int) -> None:
    """The checks :func:`build_hierarchy` makes of its smoother settings."""
    if smoother not in SMOOTHERS:
        raise ValueError(f"smoother must be 'poly3' or 'gmres3', got {smoother!r}")
    if nu_pre < 0 or nu_post < 0:
        raise ValueError(f"smoothing counts nu_pre and nu_post must be >= 0, got {nu_pre}, {nu_post}")


def build_hierarchy(
    fine: StencilOperator,
    smoother: str = "gmres3",
    nu_pre: int = 1,
    nu_post: int = 1,
) -> Hierarchy:
    """Build operators, per-level smoother parameters and the coarsest level's LU.

    ``smoother`` is one of :data:`SMOOTHERS`.  With ``poly3`` every level
    but the coarsest gets a spectral design (triangle + optimized cubic
    weights) and the damped-Jacobi weights that realize it, all from one
    cut loop (:func:`design_levels`); the lowest unstable level raises.  The
    coarsest level is solved by LU and never smoothed, so its ``design`` and
    ``jacobi_w`` are None.  The levels have the shapes :func:`level_shapes`
    gives; the coarsest level, whatever its size, is factored by band LU
    (:func:`lu_factor`), which raises above ``DENSE_SIZE_CAP`` unknowns.  A
    ``fine`` operator with a side of at most :data:`COARSEST_MAX` is that
    one level, and each cycle on it is the exact solve.  ``nu_pre`` and
    ``nu_post`` are the smoothing counts of every cycle on the hierarchy.
    Every level but the coarsest with at least :data:`SINGLE_MIN_UNKNOWNS`
    unknowns runs in ``complex64``, every other level in ``complex128``;
    level 0 is ``fine`` itself, or a copy of it in that dtype.
    """
    check_hierarchy(smoother, nu_pre, nu_post)
    shapes = level_shapes(fine.shape)
    dtypes = [
        np.complex64 if ell < len(shapes) - 1 and nx * ny >= SINGLE_MIN_UNKNOWNS else np.complex128
        for ell, (nx, ny) in enumerate(shapes)
    ]
    if fine.dtype != dtypes[0]:
        fine = StencilOperator(fine.grid, fine.k_field, fine.shift, dtypes[0])
    ops = [fine]
    for dtype in dtypes[1:]:
        op = ops[-1]
        ops.append(StencilOperator(coarsen_grid(op.grid), coarsen_field(op.k_field), op.shift, dtype))

    designs = design_levels(ops[:-1]) if smoother == "poly3" else []
    levels = [Level(op, d, jacobi_weights_for(d, op)) for op, d in zip(ops, designs)]
    levels += [Level(op) for op in ops[len(designs):]]

    return Hierarchy(levels, lu_factor(ops[-1]), smoother, nu_pre, nu_post)


def v_cycle(
    h: Hierarchy,
    b: np.ndarray,
    u: np.ndarray | None = None,
    diagnostics: CycleDiagnostics | None = None,
) -> np.ndarray:
    """One V-cycle with the hierarchy's smoothing counts; returns ``u`` in the
    finest level's dtype.

    With poly3 smoothing the cycle is a fixed linear operator; with gmres
    smoothing it is not (the smoother re-selects its coefficients from the
    current defect each call).
    """
    return _cycle(h, 0, b, u, diagnostics)


def _cycle(h, ell, b, u, diag):
    """One visit of level ``ell``, in its operator's dtype; ``u is None`` is
    the zero iterate, whose residual is ``b`` itself, so its first smoothing
    step skips an apply."""
    if ell == h.depth - 1:
        return coarse_solve(h.coarse_lu, b)

    op = h.levels[ell].op
    b = np.asarray(b, dtype=op.dtype)
    r = None
    if u is None:
        u, r = np.zeros_like(b), b
    for _ in range(h.nu_pre):
        u = h.smooth(ell, u, b, r)
        r = None
    if r is None:
        r = op.residual(b, u)
    if not np.all(np.isfinite(r)):
        raise DivergenceError(f"divergence detected at level {ell}")
    pre_norm = float(np.linalg.norm(r)) if diag is not None else 0.0

    ec = _cycle(h, ell + 1, restrict(r), None, diag)
    u = u + prolong(ec).astype(u.dtype, copy=False)

    r = None
    if diag is not None:  # the cgc residual, handed on to the first post-smoothing step
        r = op.residual(b, u)
        ratio = float(np.linalg.norm(r)) / pre_norm if pre_norm > 0 else 0.0
    for _ in range(h.nu_post):
        u = h.smooth(ell, u, b, r)
        r = None
    if diag is not None:
        post_norm = float(np.linalg.norm(op.residual(b, u)))
        diag.record(ell, pre_norm, ratio, post_norm)
    if not np.all(np.isfinite(u)):
        raise DivergenceError(f"divergence detected at level {ell}")
    return u
