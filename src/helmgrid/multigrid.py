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
from .spectrum import SpectralDesign, design_for_operator, jacobi_weights_for
from .stencil import StencilOperator

__all__ = [
    "Level",
    "Hierarchy",
    "CycleDiagnostics",
    "DivergenceError",
    "build_hierarchy",
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
    """Dense LU back-substitution on the coarsest level (rhs as a 2D field)."""
    lu, piv, shape = lu_factors
    v = lu_solve((lu, piv), np.asarray(rhs).ravel(order="F"))
    return v.reshape(shape, order="F")


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

    A cgc ratio above 1 means the coarse correction amplified the residual on
    that level; such ratios are recorded, never masked.
    """

    rows: list = field(default_factory=list)

    def record(self, cycle: int, level: int, pre_norm: float, cgc_ratio: float, post_norm: float):
        self.rows.append(
            {
                "cycle": cycle,
                "level": level,
                "pre_residual": pre_norm,
                "cgc_ratio": cgc_ratio,
                "post_residual": post_norm,
            }
        )

    def cgc_ratios(self, level: int | None = None) -> np.ndarray:
        rows = self.rows if level is None else [r for r in self.rows if r["level"] == level]
        return np.array([r["cgc_ratio"] for r in rows])


@dataclass(eq=False)
class Hierarchy:
    """Immutable after build; run concurrent cycles only on separate copies."""

    levels: list
    coarse_lu: tuple
    smoother: str
    nu_pre: int = 1
    nu_post: int = 1

    @property
    def depth(self) -> int:
        return len(self.levels)

    def smooth(self, ell: int, u: np.ndarray, b: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
        """One smoothing step on level ``ell``; ``r`` is ``b - A u`` if known."""
        level = self.levels[ell]
        if self.smoother == "poly3":
            return poly3_smooth(level.op, u, b, level.jacobi_w, r)
        return gmres_smooth(level.op, u, b, 3, r)


def build_hierarchy(
    fine: StencilOperator,
    smoother: str = "gmres3",
    max_levels: int = 32,
    coarsest_max: int = COARSEST_MAX,
    theta_count: int = 64,
    inflate: float = 0.05,
    with_designs: bool | None = None,
) -> Hierarchy:
    """Build operators, per-level smoother parameters and the coarsest LU.

    ``smoother`` is one of :data:`SMOOTHERS`.  Spectral designs (triangle +
    optimized cubic weights) are computed for every level when it is ``poly3``
    (the damped-Jacobi weights that realize the design are stored alongside),
    or on request via ``with_designs``; an unstable level raises from the
    weight optimizer.
    Coarsening stops after ``max_levels`` levels, once a side is at most
    ``coarsest_max``, or at an even size; the coarsest level, whatever its
    size, is factored by dense LU, whose assembly raises above
    ``DENSE_SIZE_CAP`` unknowns.
    """
    if smoother not in SMOOTHERS:
        raise ValueError(f"smoother must be 'poly3' or 'gmres3', got {smoother!r}")
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    need_designs = smoother == "poly3" if with_designs is None else with_designs

    ops = [fine]
    op = fine
    while (
        len(ops) < max_levels
        and min(op.shape) > coarsest_max
        and op.shape[0] % 2 == 1
        and op.shape[1] % 2 == 1
    ):
        g = coarsen_grid(op.grid)
        kf = coarsen_field(op.k_field)
        op = StencilOperator(g, kf, op.shift)
        ops.append(op)

    levels = []
    for ell, op in enumerate(ops):
        design = None
        jac = None
        if need_designs:
            design = design_for_operator(
                op, theta_count=theta_count, inflate=inflate, level=ell
            )
            jac = jacobi_weights_for(design, op)
        levels.append(Level(op=op, design=design, jacobi_w=jac))

    a = ops[-1].assemble_dense()
    lu, piv = lu_factor(a)
    return Hierarchy(levels=levels, coarse_lu=(lu, piv, ops[-1].shape), smoother=smoother)


def v_cycle(
    h: Hierarchy,
    b: np.ndarray,
    u: np.ndarray | None = None,
    nu_pre: int | None = None,
    nu_post: int | None = None,
    diagnostics: CycleDiagnostics | None = None,
    cycle_index: int = 0,
):
    """One V-cycle; returns ``(u, diagnostics)``.

    With poly3 smoothing the cycle is a fixed linear operator; with gmres
    smoothing it is not (the smoother re-selects its coefficients from the
    current defect each call).
    """
    nu_pre = h.nu_pre if nu_pre is None else nu_pre
    nu_post = h.nu_post if nu_post is None else nu_post
    if nu_pre < 0 or nu_post < 0:
        raise ValueError("smoothing counts must be >= 0")
    b = np.asarray(b, dtype=complex)
    u = _cycle(h, 0, b, u, nu_pre, nu_post, diagnostics, cycle_index)
    return u, diagnostics


def _cycle(h, ell, b, u, nu_pre, nu_post, diag, cycle_index):
    """One visit of level ``ell``; ``u is None`` is the zero iterate, whose
    residual is ``b`` itself, so its first smoothing step skips an apply."""
    if ell == h.depth - 1:
        return coarse_solve(h.coarse_lu, b)

    op = h.levels[ell].op
    r = None
    if u is None:
        u, r = np.zeros_like(b), b
    for _ in range(nu_pre):
        u = h.smooth(ell, u, b, r)
        r = None
    if r is None:
        r = op.residual(b, u)
    if not np.all(np.isfinite(r)):
        raise DivergenceError(f"divergence detected at level {ell}")
    pre_norm = float(np.linalg.norm(r)) if diag is not None else 0.0

    ec = _cycle(h, ell + 1, restrict(r), None, nu_pre, nu_post, diag, cycle_index)
    u = u + prolong(ec)

    if diag is not None:
        post_cgc = float(np.linalg.norm(op.residual(b, u)))
        ratio = post_cgc / pre_norm if pre_norm > 0 else 0.0
    for _ in range(nu_post):
        u = h.smooth(ell, u, b)
    if diag is not None:
        post_norm = float(np.linalg.norm(op.residual(b, u)))
        diag.record(cycle_index, ell, pre_norm, ratio, post_norm)
    if not np.all(np.isfinite(u)):
        raise DivergenceError(f"divergence detected at level {ell}")
    return u
