"""Cache-blocked fused application of the three damped-Jacobi sweeps.

Each tile copies its region of the input field plus three ghost layers once,
then runs the three sweeps in place on regions shrinking by one layer per sweep;
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

from .smoother import poly3_smooth
from .stencil import StencilOperator

__all__ = ["TilePlan", "BenchRow", "blocked_poly3", "bench", "FUSED_SWEEPS"]

FUSED_SWEEPS = 3
# hand count per computed point per sweep (complex arithmetic):
#   5-point stencil: 5 complex mul (6 flops each) + 4 complex add (2 each) = 38
#   update u + (b - Au)*(w/d): sub 2 + mul 6 + add 2, plus the per-point
#   weighted reciprocal diagonal charged at 4                            = 14
# the bytes per value are the operator's dtype's itemsize
FLOPS_PER_POINT_PER_SWEEP = 52


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

    def _ranges(self, shape: tuple[int, int]):
        """Per tile, ``ghost + 1`` ranges ``(x0, x1, y0, y1)``, clipped to the
        domain: the region one fused application copies (the tile plus
        ``ghost`` layers), then the window sweep s updates (``ghost - s``
        layers), the last of which is the tile itself."""
        nx, ny = shape
        for (tx0, tx1), (ty0, ty1) in self.tiles(shape):
            yield [(max(tx0 - d, 0), min(tx1 + d, nx), max(ty0 - d, 0), min(ty1 + d, ny))
                   for d in range(self.ghost, -1, -1)]


def blocked_poly3(op: StencilOperator, u: np.ndarray, b: np.ndarray, weights, plan: TilePlan) -> np.ndarray:
    """Tiled fused triple damped-Jacobi sweep with weights (w1, w2, w3), in the
    operator's dtype, equal to the naive path."""
    w1, w2, w3 = weights
    u = np.asarray(u, dtype=op.dtype)
    b = np.asarray(b, dtype=op.dtype)
    if u.shape != op.shape or b.shape != op.shape:
        raise ValueError("field shapes do not match the operator")
    out = np.empty_like(u)
    u_pad = np.pad(u, 1)
    # the naive sweep's own full-domain weighted inverse diagonals, sliced per
    # tile, so tiles reproduce its arithmetic bit for bit
    winv = [op.jacobi_scale(w) for w in (w1, w2, w3)]

    for (rx0, rx1, ry0, ry1), *windows in plan._ranges(op.shape):
        # one copy of the region and its ring; sweep s updates its window in
        # place and reads only the window of sweep s - 1 (the copy's) and the
        # zero ring
        buf = u_pad[rx0 : rx1 + 2, ry0 : ry1 + 2].copy()
        for (sx0, sx1, sy0, sy1), scale in zip(windows, winv):
            window = buf[sx0 - rx0 : sx1 - rx0 + 2, sy0 - ry0 : sy1 - ry0 + 2]
            inner = window[1:-1, 1:-1]
            r = op.apply_window(window, sx0, sy0)
            # the residual is scaled in place, as damped_jacobi scales it: on a
            # one-element array numpy rounds an in-place complex product apart
            np.subtract(b[sx0:sx1, sy0:sy1], r, out=r)
            np.multiply(r, scale[sx0:sx1, sy0:sy1], out=r)
            np.add(inner, r, out=inner)
        out[sx0:sx1, sy0:sy1] = inner  # the last window is the tile
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
    flops = 0.0
    bytes_moved = 0.0
    for region, *windows in plan._ranges(op.shape):
        points = [(x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in (region, *windows)]
        bytes_moved += (points[0] + points[-1]) * op.dtype.itemsize
        flops += sum(points[1:]) * FLOPS_PER_POINT_PER_SWEEP
    return flops / op.n_unknowns, bytes_moved / op.n_unknowns


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

    rows = []
    n = op.shape[0] * op.shape[1]
    for plan in plans:
        if not np.array_equal(blocked_poly3(op, u, b, weights, plan), reference):
            raise RuntimeError(f"plan {plan.describe()} differs from the naive path")
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
