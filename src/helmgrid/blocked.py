"""Cache-blocked fused application of the three damped-Jacobi sweeps.

Each tile loads its region of the input field plus three ghost layers once,
then computes the three sweeps on regions shrinking by one layer per sweep;
halo values needed by later sweeps are recomputed redundantly inside the tile
instead of being communicated.  The result is identical to the naive triple
sweep: tiles only write their own interior and read the frozen input field,
and the per-point arithmetic matches the naive path operation for operation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .smoother import poly3_smooth, weight_triple
from .stencil import StencilOperator

__all__ = ["TilePlan", "BenchRow", "blocked_poly3", "bench", "FUSED_SWEEPS"]

FUSED_SWEEPS = 3
# hand count per computed point per sweep (complex128 arithmetic):
#   5-point stencil: 5 complex mul (6 flops each) + 4 complex add (2 each) = 38
#   update u + (b - Au)*(w/d): sub 2 + mul 6 + add 2, plus the per-point
#   weighted reciprocal diagonal charged at 4                            = 14
FLOPS_PER_POINT_PER_SWEEP = 52
BYTES_PER_VALUE = 16


@dataclass(frozen=True)
class TilePlan:
    """Spatial tiling for one fused cubic application, traversed row-major.

    ``ghost`` is the number of fused stencil applications (3 for the cubic
    smoother).  Trailing tiles absorb the remainder of the axis so the tiles
    partition the interior exactly.
    """

    tile_x: int
    tile_y: int
    ghost: ClassVar[int] = FUSED_SWEEPS

    def __post_init__(self):
        min_tile = 2 * self.ghost
        if self.tile_x < min_tile or self.tile_y < min_tile:
            raise ValueError(
                f"tile too small: {self.tile_x}x{self.tile_y}; "
                f"minimum viable size is {min_tile} per axis"
            )

    def _segments(self, n: int, t: int) -> list[tuple[int, int]]:
        """Axis partition [start, stop); a short remainder joins the last tile."""
        t = min(t, n)
        segs = []
        start = 0
        while start < n:
            stop = min(start + t, n)
            if n - stop < 2 * self.ghost and stop < n:
                stop = n
            segs.append((start, stop))
            start = stop
        return segs

    def tiles(self, shape: tuple[int, int]):
        xsegs = self._segments(shape[0], self.tile_x)
        ysegs = self._segments(shape[1], self.tile_y)
        return [(xs, ys) for ys in ysegs for xs in xsegs]

    def describe(self) -> str:
        return f"{self.tile_x}x{self.tile_y}"


def blocked_poly3(op: StencilOperator, u: np.ndarray, b: np.ndarray, weights, plan: TilePlan) -> np.ndarray:
    """Tiled fused triple damped-Jacobi sweep, equal to the naive path."""
    w = weight_triple(weights)
    u = np.asarray(u, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if u.shape != op.shape or b.shape != op.shape:
        raise ValueError("field shapes do not match the operator")
    nx, ny = op.shape
    out = np.empty_like(u)
    # full-domain weighted inverse diagonals, formed exactly as the naive
    # sweep forms them, so sliced tiles reproduce its arithmetic bit for bit
    winv = [ws / op._grid_diag for ws in w]

    for (tx0, tx1), (ty0, ty1) in plan.tiles(op.shape):
        # region loaded once: tile plus `ghost` layers, clipped to the domain
        g = plan.ghost
        rx0, rx1 = max(tx0 - g, 0), min(tx1 + g, nx)
        ry0, ry1 = max(ty0 - g, 0), min(ty1 + g, ny)
        pad = np.zeros((rx1 - rx0 + 2, ry1 - ry0 + 2), dtype=complex)
        pad[1:-1, 1:-1] = u[rx0:rx1, ry0:ry1]

        for s in range(1, len(w) + 1):
            # output region of sweep s: tile expanded by the remaining layers
            shrink = g - s
            sx0, sx1 = max(tx0 - shrink, 0), min(tx1 + shrink, nx)
            sy0, sy1 = max(ty0 - shrink, 0), min(ty1 + shrink, ny)
            ox, oy = sx0 - rx0, sy0 - ry0
            window = pad[ox : ox + (sx1 - sx0) + 2, oy : oy + (sy1 - sy0) + 2]
            av = np.empty((sx1 - sx0, sy1 - sy0), dtype=complex)
            op.apply_window(window, av, sx0, sy0)
            un = window[1:-1, 1:-1] + (b[sx0:sx1, sy0:sy1] - av) * winv[s - 1][sx0:sx1, sy0:sy1]
            pad = np.zeros((un.shape[0] + 2, un.shape[1] + 2), dtype=complex)
            pad[1:-1, 1:-1] = un
            rx0, rx1, ry0, ry1 = sx0, sx1, sy0, sy1

        out[tx0:tx1, ty0:ty1] = un
    return out


@dataclass(frozen=True)
class BenchRow:
    plan: str
    time_ms: float
    mlups: float
    flops_per_point: float
    est_bytes_per_point: float
    intensity: float


def _model_counts(op: StencilOperator, plan: TilePlan) -> tuple[float, float]:
    """Redundant-compute and traffic model per interior point.

    Flops include halo recomputation (floor 3*52 for huge tiles); bytes assume
    the tile+ghost region is read once and the tile written once per fused
    application, versus one read+write per point per sweep for the naive path.
    """
    nx, ny = op.shape
    n = nx * ny
    flops = 0.0
    bytes_moved = 0.0
    g = plan.ghost
    for (tx0, tx1), (ty0, ty1) in plan.tiles(op.shape):
        rx0, rx1 = max(tx0 - g, 0), min(tx1 + g, nx)
        ry0, ry1 = max(ty0 - g, 0), min(ty1 + g, ny)
        bytes_moved += ((rx1 - rx0) * (ry1 - ry0) + (tx1 - tx0) * (ty1 - ty0)) * BYTES_PER_VALUE
        for s in range(1, g + 1):
            shrink = g - s
            sx = min(tx1 + shrink, nx) - max(tx0 - shrink, 0)
            sy = min(ty1 + shrink, ny) - max(ty0 - shrink, 0)
            flops += sx * sy * FLOPS_PER_POINT_PER_SWEEP
    return flops / n, bytes_moved / n


def bench(
    op: StencilOperator,
    weights,
    plans,
    repetitions: int = 5,
    rng_seed: int = 0,
) -> list[BenchRow]:
    """Time the fused kernel per plan; correctness is re-verified per plan."""
    plans = list(plans)
    if not plans:
        raise ValueError("need at least one tile plan")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rng = np.random.default_rng(rng_seed)
    u = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
    b = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
    reference = poly3_smooth(op, u, b, weights)
    ref_scale = np.abs(reference)
    ref_scale[ref_scale == 0] = 1.0

    rows = []
    n = op.shape[0] * op.shape[1]
    for plan in plans:
        got = blocked_poly3(op, u, b, weights, plan)
        err = float(np.max(np.abs(got - reference) / ref_scale))
        if err > 1e-14:
            raise RuntimeError(f"plan {plan.describe()} diverges from the naive path: {err:.3e}")
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            blocked_poly3(op, u, b, weights, plan)
            times.append(time.perf_counter() - t0)
        med = float(np.median(times))
        flops, traffic = _model_counts(op, plan)
        rows.append(
            BenchRow(
                plan=plan.describe(),
                time_ms=med * 1e3,
                mlups=FUSED_SWEEPS * n / med / 1e6,
                flops_per_point=flops,
                est_bytes_per_point=traffic,
                intensity=flops / traffic,
            )
        )
    return rows
