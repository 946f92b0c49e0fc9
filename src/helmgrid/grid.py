"""Complex-stretched tensor grids and wavenumber fields on the unit square.

The domain is (0,1)^2 with homogeneous Dirichlet exterior values.  Absorbing
behaviour comes entirely from stretching the grid spacings into the complex
plane near the boundary.  The shifted-grid preconditioner runs on the physical
grid rotated by a single global complex factor gamma = sqrt(1 + i*beta); a
grid records that factor, and gamma = 1 marks the unrotated physical grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexGrid",
    "WavenumberField",
    "ConstantK",
    "WedgeK",
    "build_stretched_grid",
    "rotate_grid",
    "build_wavenumber_field",
    "default_layer_width",
]


@dataclass(frozen=True, eq=False)
class ComplexGrid:
    """Tensor-product grid with complex interval spacings.

    ``spacing_x`` has length ``n_x + 1``: the intervals between the n_x
    interior nodes and the two Dirichlet boundary nodes.  All spacings must
    have positive real part.  On a rotated grid every spacing is the
    corresponding physical spacing times one global factor ``gamma``.
    """

    spacing_x: np.ndarray
    spacing_y: np.ndarray
    gamma: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "spacing_x", np.asarray(self.spacing_x, dtype=complex))
        object.__setattr__(self, "spacing_y", np.asarray(self.spacing_y, dtype=complex))
        for name, s in (("spacing_x", self.spacing_x), ("spacing_y", self.spacing_y)):
            if s.ndim != 1 or s.size < 2:
                raise ValueError(f"{name} must be a 1D array with >= 2 intervals")
            if not np.all(s.real > 0):
                raise ValueError(f"{name} must have positive real part everywhere")

    @property
    def n_x(self) -> int:
        return self.spacing_x.size - 1

    @property
    def n_y(self) -> int:
        return self.spacing_y.size - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_x, self.n_y)


def default_layer_width(n: int) -> int:
    """Default absorbing-layer width in cells: n/8 rounded down, at least 4,
    capped at n/4 so opposite layers never overlap."""
    return min(max(4, n // 8), n // 4)


RAMPS = ("linear", "quadratic")


def _layer_sigma(n: int, layer_width: int, sigma_max: float, ramp: str) -> np.ndarray:
    """Imaginary stretch profile sigma_j over the n+1 intervals of one axis."""
    if ramp not in RAMPS:
        raise ValueError(f"ramp must be 'linear' or 'quadratic', got {ramp!r}")
    power = 1 if ramp == "linear" else 2
    sigma = np.zeros(n + 1)
    if layer_width == 0 or sigma_max == 0.0:
        return sigma
    # Interval i (0-based from the left boundary) sits j = layer_width - i
    # interval-steps from the layer's inner edge; sigma ramps 0 -> sigma_max
    # from inner edge to outer boundary.
    j = layer_width - np.arange(layer_width)
    profile = sigma_max * (j / layer_width) ** power
    sigma[:layer_width] = profile
    sigma[n + 1 - layer_width:] = profile[::-1]
    return sigma


def build_stretched_grid(
    n: int,
    layer_width: int | None = None,
    sigma_max: float = 0.0,
    ramp: str = "quadratic",
) -> ComplexGrid:
    """Build the physical grid on the unit square with complex-scaled layers.

    Parameters
    ----------
    n : int
        Interior points per axis (n >= 3).  The base spacing is h = 1/(n+1).
    layer_width : int, optional
        Absorbing-layer width in cells per side; 0 disables the layers.
        Defaults to ``default_layer_width(n)`` when ``sigma_max > 0`` else 0.
    sigma_max : float
        Peak imaginary stretch at the outer boundary (>= 0).  Interval j of a
        layer gets spacing ``h*(1 + 1j*sigma_j)`` with sigma_j ramping from 0
        at the layer's inner edge to sigma_max at the boundary.
    ramp : {"quadratic", "linear"}
        Ramp law for sigma_j.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 interior points, got {n}")
    if sigma_max < 0:
        raise ValueError(f"sigma_max must be >= 0, got {sigma_max}")
    if layer_width is None:
        layer_width = default_layer_width(n) if sigma_max > 0 else 0
    if layer_width < 0:
        raise ValueError(f"layer_width must be >= 0, got {layer_width}")
    if sigma_max > 0 and layer_width > n / 4:
        raise ValueError(
            f"layer_width {layer_width} outside [0, n/4] = [0, {n / 4:g}]: layers overlap"
        )
    layer_width = min(layer_width, (n + 1) // 2)
    h = 1.0 / (n + 1)
    sigma = _layer_sigma(n, layer_width, sigma_max, ramp)
    spacing = h * (1.0 + 1j * sigma)
    return ComplexGrid(spacing_x=spacing, spacing_y=spacing.copy())


def rotate_grid(g: ComplexGrid, beta: float) -> ComplexGrid:
    """Rotate a physical grid into the preconditioner grid.

    Every spacing is multiplied by the principal square root
    ``gamma = sqrt(1 + 1j*beta)``; the factor is recorded on the result.
    """
    if g.gamma != 1:
        raise ValueError(f"rotate_grid requires a physical grid, got gamma={g.gamma}")
    if beta <= 0:
        raise ValueError(f"shift beta must be > 0, got {beta}")
    gamma = np.sqrt(1.0 + 1j * beta)
    return ComplexGrid(
        spacing_x=g.spacing_x * gamma,
        spacing_y=g.spacing_y * gamma,
        gamma=complex(gamma),
    )


@dataclass(frozen=True)
class ConstantK:
    """Uniform wave number 0 < k0 < inf."""

    k0: float


@dataclass(frozen=True)
class WedgeK:
    """Three horizontal bands of wave number, top to bottom in y.

    ``interfaces`` are the two y-fractions separating the bands.  A row whose
    y-coordinate is at or below the first interface takes ``k_top``; at or
    above the second takes ``k_bot``; strictly between takes ``k_mid``.
    """

    k_top: float
    k_mid: float
    k_bot: float
    interfaces: tuple[float, float] = (1.0 / 3.0, 2.0 / 3.0)


@dataclass(frozen=True, eq=False)
class WavenumberField:
    """Real k(x, y) sampled at the interior nodes, shape (n_x, n_y).

    Model problems have k > 0 everywhere (enforced by the builder); k = 0 is
    admitted here so pure-Laplacian oracles can reuse the operator machinery.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise ValueError("wavenumber field must be 2D")
        if not np.all(self.values >= 0):
            raise ValueError("wave numbers must be nonnegative")


def build_wavenumber_field(spec: ConstantK | WedgeK, g: ComplexGrid) -> WavenumberField:
    """Fill k(x, y) on the grid's interior nodes from a field spec."""
    n_x, n_y = g.shape
    if isinstance(spec, ConstantK):
        if not 0 < spec.k0 < np.inf:
            raise ValueError(f"k0 must be positive and finite, got {spec.k0}")
        return WavenumberField(np.full((n_x, n_y), spec.k0))
    if isinstance(spec, WedgeK):
        for name, k in (("k_top", spec.k_top), ("k_mid", spec.k_mid), ("k_bot", spec.k_bot)):
            if not 0 < k < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {k}")
        a, b = spec.interfaces
        if not (0.0 < a < b < 1.0):
            raise ValueError(f"wedge interfaces must satisfy 0 < a < b < 1, got {spec.interfaces}")
        # Row index convention: y_i = (i+1)*h on the index lattice (stretch
        # does not move the band boundaries; bands are defined in index space).
        y = (np.arange(n_y) + 1.0) / (n_y + 1.0)
        values = np.full((n_x, n_y), spec.k_mid)
        values[:, y <= a] = spec.k_top
        values[:, y >= b] = spec.k_bot
        return WavenumberField(values)
    raise TypeError(f"unknown wavenumber spec {type(spec).__name__}")
