"""Model problems: configuration, setup, solve, sweep.

The physical problem is the Helmholtz equation on the unit square with a
complex-scaled absorbing layer; the preconditioner is one V-cycle of multigrid
on the same problem discretized on a complex-shifted grid (or, equivalently up
to a scalar, with a complex-shifted Laplacian), driven by outer FGMRES.
:func:`build_operators` builds both operators from one grid and k-field.
"""

from __future__ import annotations

import math
import numbers
import os
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import (ConstantK, WedgeK, build_stretched_grid, build_wavenumber_field, check_rotation,
                   check_stretched_grid, default_layer_width, rotate_grid)
from .krylov import check_fgmres, fgmres
from .multigrid import (COARSEST_MAX, CycleDiagnostics, Hierarchy, build_hierarchy, check_hierarchy,
                        level_shapes, v_cycle)
from .stencil import DENSE_SIZE_CAP, StencilOperator

__all__ = [
    "ProblemConfig",
    "Problem",
    "build_operators",
    "setup_problem",
    "make_preconditioner",
    "solve",
    "solve_baseline",
    "sweep",
    "sweep_configs",
    "pick_grid_size",
    "max_grid_size",
    "linear_fit",
]

DEFAULT_PPW = 10.0
PPW_TOL = 0.05  # pick_grid_size keeps k*h within this fraction of 2*pi/ppw
BASELINE_MAX_ITER = 2000
# complex fields a solve holds beside its 2 * restart + 1 FGMRES basis fields:
# five diagonals for the physical and for the fine shifted operator, at most a
# third of that again for the coarser levels, the cubic smoother's three
# cached weighted inverse diagonals and a third again for the coarser levels,
# and about eight working fields
FIELDS_PER_UNKNOWN = 5 + 5 + 2 + 3 + 1 + 8


@dataclass(frozen=True)
class ProblemConfig:
    """Knobs for one solve, checked when built; defaults give the canonical constant-k case.
    Each field is a CLI flag and a config-file key; ``metadata["help"]`` is its help."""

    n: int = field(default=63, metadata={"help": "interior grid points per axis (odd)"})
    k: ConstantK | WedgeK = field(
        default=ConstantK(20.0), metadata={"help": "wave number: a float or wedge:kt,km,kb[:a,b]"})
    layer_width: int | None = field(default=None, metadata={"help": "layer cells per side"})
    sigma_max: float = field(default=1.0, metadata={"help": "peak layer stretch"})
    ramp: str = field(
        default="quadratic", metadata={"help": "layer stretch profile: quadratic or linear"})
    beta: float = field(default=0.5, metadata={"help": "complex shift of the preconditioner"})
    precond: str = field(default="grid", metadata={"help": "preconditioner flavor: grid or csl"})
    smoother: str = field(default="gmres3", metadata={"help": "level smoother: gmres3 or poly3"})
    nu_pre: int = field(
        default=1, metadata={"help": "smoothing steps before the coarse-grid correction"})
    nu_post: int = field(
        default=1, metadata={"help": "smoothing steps after the coarse-grid correction"})
    tol: float = field(default=1e-6, metadata={"help": "relative residual tolerance"})
    restart: int = field(default=20, metadata={"help": "FGMRES restart length"})
    max_iter: int = field(default=500, metadata={"help": "iteration cap"})
    rhs: str = field(default="point", metadata={"help": "right-hand side kind: point or random"})
    seed: int = field(default=0, metadata={"help": "seed for random right-hand sides"})

    def __post_init__(self):
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if kind not in _NUMBERS or (value is None and getattr(ProblemConfig, name) is None):
                continue  # k and the str fields have their own checks; None where it is the default
            number, noun = _NUMBERS[kind]
            if isinstance(value, bool) or not isinstance(value, number):
                raise ValueError(f"{name} must be {noun}, got {value!r}")
            object.__setattr__(self, name, kind(value))  # a numpy scalar as its Python number
        check_stretched_grid(self.n, self.layer_width, self.sigma_max, self.ramp)
        if self.n % 2 == 0:
            raise ValueError(f"grid size n must be odd for coarsening, got {self.n}")
        check_fgmres(self.tol, self.restart, self.max_iter)
        cap = max_grid_size(self.restart)
        if self.n > cap:
            raise ValueError(
                f"grid size n={self.n} needs more than this machine's physical memory; "
                f"n <= {cap} fits with restart={self.restart}"
            )
        coarsest = level_shapes((self.n, self.n))[-1][0]
        if coarsest * coarsest > DENSE_SIZE_CAP:
            raise ValueError(
                f"grid size n={self.n} leaves a {coarsest}x{coarsest} coarsest level, "
                f"above the coarsest-level LU cap of {DENSE_SIZE_CAP} unknowns"
            )
        check_rotation(self.beta)
        layer = default_layer_width(self.n) if self.layer_width is None else self.layer_width
        if self.precond == "grid" and layer > 0:
            # the outermost layer spacing h(1 + i sigma_max), rotated by
            # gamma = sqrt(1 + i beta), has real part h(Re gamma - sigma_max Im gamma)
            gamma = np.sqrt(1.0 + 1j * self.beta)
            limit = gamma.real / gamma.imag
            if self.sigma_max >= limit:
                raise ValueError(
                    f"sigma_max={self.sigma_max} with beta={self.beta} gives the rotated "
                    f"layer spacing a non-positive real part; precond 'grid' needs "
                    f"sigma_max < {limit:.4g} at this beta (or use precond 'csl')"
                )
        check_hierarchy(self.smoother, self.nu_pre, self.nu_post)
        for name, choices in (("precond", ("grid", "csl")), ("rhs", ("point", "random"))):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be {choices[0]!r} or {choices[1]!r}, "
                                 f"got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.k, (ConstantK, WedgeK)):
            raise ValueError(f"wave number k must be a ConstantK or WedgeK, got {self.k!r}")


# each field's type, ``int | None`` read as int; the CLI's parsers and the type check read it
FIELD_TYPES = {
    name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for name, hint in typing.get_type_hints(ProblemConfig).items()
}
_NUMBERS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number")}


def max_grid_size(restart: int = ProblemConfig.restart) -> int:
    """Largest n whose solve's fields fit in the machine's physical memory:
    ``2 * restart + 1 + FIELDS_PER_UNKNOWN`` complex values per unknown."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: assume 64 GiB
        memory = 64 << 30
    return math.isqrt(memory // (16 * (2 * restart + 1 + FIELDS_PER_UNKNOWN)))


@dataclass(eq=False)
class Problem:
    config: ProblemConfig
    physical_op: StencilOperator
    hierarchy: Hierarchy
    b: np.ndarray


def build_operators(config: ProblemConfig) -> tuple[StencilOperator, StencilOperator]:
    """``(physical_op, shifted_op)`` on one stretched grid and k-field: the
    shifted operator is the rotated grid (``precond = "grid"``) or the
    complex shift ``1 + i*beta`` (``"csl"``)."""
    g = build_stretched_grid(config.n, config.layer_width, config.sigma_max, config.ramp)
    kf = build_wavenumber_field(config.k, g)
    physical_op = StencilOperator(g, kf)
    if config.precond == "grid":
        return physical_op, StencilOperator(rotate_grid(g, config.beta), kf)
    return physical_op, StencilOperator(g, kf, 1 + 1j * config.beta)


def setup_problem(config: ProblemConfig) -> Problem:
    """Grids, operators, hierarchy and right-hand side for one configuration."""
    a_op, m_op = build_operators(config)
    hierarchy = build_hierarchy(
        m_op,
        smoother=config.smoother,
        nu_pre=config.nu_pre,
        nu_post=config.nu_post,
    )
    return Problem(
        config=config,
        physical_op=a_op,
        hierarchy=hierarchy,
        b=make_rhs(config),
    )


def make_rhs(config: ProblemConfig) -> np.ndarray:
    n = config.n
    if config.rhs == "point":
        b = np.zeros((n, n), dtype=complex)
        b[n // 2, n // 2] = 1.0
        return b
    rng = np.random.default_rng(config.seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def make_preconditioner(hierarchy: Hierarchy, diagnostics: CycleDiagnostics | None = None):
    """One V-cycle from a zero guess, recorded in ``diagnostics`` if given."""
    def precondition(v):
        return v_cycle(hierarchy, v, diagnostics=diagnostics)
    return precondition


def solve(
    config: ProblemConfig,
    collect_diagnostics: bool = False,
    problem: Problem | None = None,
):
    """FGMRES on the physical operator, preconditioned by one V-cycle on the
    shifted operator.  Returns ``(x, report, problem)``."""
    if problem is None:
        problem = setup_problem(config)
    diagnostics = CycleDiagnostics() if collect_diagnostics else None
    x, report = fgmres(
        problem.physical_op.apply,
        make_preconditioner(problem.hierarchy, diagnostics),
        problem.b,
        tol=config.tol,
        restart=config.restart,
        max_iter=config.max_iter,
    )
    report.diagnostics = diagnostics
    return x, report, problem


def solve_baseline(config: ProblemConfig, problem: Problem | None = None):
    """Unpreconditioned restarted GMRES on the same physical system, capped at
    :data:`BASELINE_MAX_ITER` iterations."""
    if problem is None:
        a_op, _ = build_operators(config)
        b = make_rhs(config)
    else:
        a_op, b = problem.physical_op, problem.b
    return fgmres(a_op.apply, None, b, tol=config.tol, restart=config.restart,
                  max_iter=BASELINE_MAX_ITER)


# ---------------------------------------------------------------------------
# wave-number sweep


def pick_grid_size(k: float, ppw: float = DEFAULT_PPW) -> int:
    """Odd n with k*h within :data:`PPW_TOL` of the 2*pi/ppw target,
    preferring sizes whose repeated halving reaches the coarsest-level cap; a
    ``k`` whose sizes all exceed :func:`max_grid_size` is rejected before the
    search."""
    if not 0 < ppw < np.inf:
        raise ValueError(f"ppw must be finite and > 0, got {ppw}")
    target = 2.0 * np.pi / ppw
    cap = max_grid_size()
    lo = int(np.ceil(k / (target * (1 + PPW_TOL)) - 1))
    hi = min(int(np.floor(k / (target * (1 - PPW_TOL)) - 1)), cap)
    if lo > cap:
        raise ValueError(
            f"wave number k={k:g} needs a grid size n >= {lo} at {ppw:g} points per "
            f"wavelength, above the n <= {cap} that fits in physical memory"
        )
    best = None
    for n in range(max(lo, 3), hi + 1):
        if n % 2 == 0:
            continue
        shapes = level_shapes((n, n))
        kh_err = abs(k / (n + 1) / target - 1.0)
        score = (shapes[-1][0] <= COARSEST_MAX, len(shapes), -kh_err)
        if best is None or score > best[0]:
            best = (score, n)
    if best is None:
        raise ValueError(f"no odd grid size keeps k*h within {PPW_TOL:.0%} of target for k={k}")
    return best[1]


def linear_fit(x, y) -> dict:
    """Least-squares line y = a*x + c with the coefficient of determination."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.unique(x).size < 2:
        return {"slope": 0.0, "intercept": float(y[0]) if y.size else 0.0, "r_squared": 1.0}
    a, c = np.polyfit(x, y, 1)
    resid = y - (a * x + c)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(a), "intercept": float(c), "r_squared": r2}


def sweep_configs(k_list, ppw: float = DEFAULT_PPW, base: ProblemConfig | None = None):
    """``base`` at each wave number and the grid size :func:`pick_grid_size`
    gives it, ordered by k; an invalid one's error names its k (and its n,
    once picked), and a repeated one its k."""
    if base is None:
        base = ProblemConfig()
    k_list = sorted(k_list)
    for k, next_k in zip(k_list, k_list[1:]):
        if k == next_k:
            raise ValueError(f"k_list: k={k:g} is repeated")
    configs = []
    for k in k_list:
        spec = ConstantK(k)
        n = pick_grid_size(k, ppw)
        try:
            configs.append(replace(base, n=n, k=spec))
        except ValueError as exc:
            raise ValueError(f"k={k:g} (n={n}): {exc}") from None
    return configs


def sweep(k_list, ppw: float = DEFAULT_PPW, base: ProblemConfig | None = None):
    """Solve one problem per wave number; rows are ordered by k.  Every
    configuration is built (:func:`sweep_configs`) before the first solve.

    Returns ``(rows, fit)`` where each row holds (k, n, iterations, converged,
    wall_time) and ``fit`` is the least-squares line of iterations vs k.
    """
    rows = []
    for config in sweep_configs(k_list, ppw, base):
        _, report, _ = solve(config)
        rows.append(
            {
                "k": config.k.k0,
                "n": config.n,
                "iterations": report.iterations,
                "converged": report.converged,
                "wall_time": report.wall_time,
            }
        )
    fit = linear_fit([r["k"] for r in rows], [r["iterations"] for r in rows])
    return rows, fit
