"""Complex-grid multigrid hierarchy and V-cycle with coarse-grid diagnostics.

Coarse levels are rediscretizations on the coarsened complex grid: every
other node is retained and spacings are summed pairwise, which preserves the
complex stretch and the global rotation factor exactly; the wavenumber field
is restricted by injection at coincident nodes, and every level keeps the fine
operator's complex shift.  Transfers are full weighting and bilinear
interpolation on the index lattice; the coarsest level is solved by dense LU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .grid import ComplexGrid, WavenumberField
from .smoother import gmres_smooth, poly3_smooth
# design_for_operator is not called here; perfbench/tracing.py wraps it by this name
from .spectrum import SpectralDesign, design_for_operator, design_levels, jacobi_weights_for
from .stencil import StencilOperator

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
]

COARSEST_MAX = 9
SMOOTHERS = ("poly3", "gmres3")


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


def coarse_solve(lu_factors, rhs: np.ndarray) -> np.ndarray:
    """Dense LU back-substitution on the coarsest level (rhs as a 2D field),
    in the dense ordering of ``StencilOperator.assemble_dense`` (y fastest)."""
    lu, piv, shape = lu_factors
    return lu_solve((lu, piv), np.asarray(rhs).ravel()).reshape(shape)


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
    """Build operators, per-level smoother parameters and the coarsest LU.

    ``smoother`` is one of :data:`SMOOTHERS`.  With ``poly3`` every level
    but the coarsest gets a spectral design (triangle + optimized cubic
    weights) and the damped-Jacobi weights that realize it, all from one
    cut loop (:func:`design_levels`); the lowest unstable level raises.  The
    coarsest level is solved by LU and never smoothed, so its ``design`` and
    ``jacobi_w`` are None.  The levels have the shapes :func:`level_shapes`
    gives; the coarsest level, whatever its size, is factored by dense LU,
    whose assembly raises above ``DENSE_SIZE_CAP`` unknowns.  ``nu_pre`` and
    ``nu_post`` are the smoothing counts of every cycle on the hierarchy.
    """
    check_hierarchy(smoother, nu_pre, nu_post)
    ops = [fine]
    for _ in level_shapes(fine.shape)[1:]:
        op = ops[-1]
        ops.append(StencilOperator(coarsen_grid(op.grid), coarsen_field(op.k_field), op.shift))

    if smoother == "poly3":
        designs = design_levels(ops[:-1])
        levels = [Level(op, d, jacobi_weights_for(d, op)) for op, d in zip(ops, designs)]
        levels.append(Level(op=ops[-1]))
    else:
        levels = []
        for op in ops:
            levels.append(Level(op=op))

    a = ops[-1].assemble_dense()
    lu, piv = lu_factor(a)
    return Hierarchy(levels, (lu, piv, ops[-1].shape), smoother, nu_pre, nu_post)


def v_cycle(
    h: Hierarchy,
    b: np.ndarray,
    u: np.ndarray | None = None,
    diagnostics: CycleDiagnostics | None = None,
) -> np.ndarray:
    """One V-cycle with the hierarchy's smoothing counts; returns ``u``.

    With poly3 smoothing the cycle is a fixed linear operator; with gmres
    smoothing it is not (the smoother re-selects its coefficients from the
    current defect each call).
    """
    return _cycle(h, 0, np.asarray(b, dtype=complex), u, diagnostics)


def _cycle(h, ell, b, u, diag):
    """One visit of level ``ell``; ``u is None`` is the zero iterate, whose
    residual is ``b`` itself, so its first smoothing step skips an apply."""
    if ell == h.depth - 1:
        return coarse_solve(h.coarse_lu, b)

    op = h.levels[ell].op
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
    u = u + prolong(ec)

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
