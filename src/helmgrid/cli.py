"""Command-line entry points: solve, sweep, spectrum.

Configuration comes from an optional ``key = value`` text file plus flag
overrides (flags win); both name the fields of ``ProblemConfig``.  All
outputs are CSV (UTF-8, comma separator, ``.`` decimal point, one header row,
fixed column order) or JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy

from .grid import ConstantK, WedgeK
from .multigrid import DivergenceError
from .problems import DEFAULT_PPW, ProblemConfig, setup_problem, solve, sweep, sweep_configs
from .spectrum import UnstableLevelError, symbol_samples

RESIDUALS_COLUMNS = ["iteration", "relative_residual"]
DIAGNOSTICS_COLUMNS = ["cycle", "level", "cgc_ratio", "pre_residual", "post_residual"]
SOLUTION_COLUMNS = ["ix", "iy", "re", "im"]
SWEEP_COLUMNS = ["k", "n", "iterations", "converged", "wall_time"]
SAMPLES_COLUMNS = ["re", "im", "level", "hf"]
TRIANGLES_COLUMNS = [
    "level",
    "v1_re", "v1_im", "v2_re", "v2_im", "v3_re", "v3_im",
    "w1_re", "w1_im", "w2_re", "w2_im", "w3_re", "w3_im",
    "achieved_stability", "achieved_smoothing",
]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_csv(path: Path, columns, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)
    return path


def environment() -> dict:
    """``report.json``'s versions, BLAS and BLAS thread variables (None when
    unset): outputs are byte-identical only at equal BLAS thread counts."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def write_report(out_dir: Path, payload: dict) -> Path:
    path = out_dir / "report.json"
    payload = {**payload, "environment": environment()}
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def write_failure_report(out_dir: Path, config: ProblemConfig, exc: Exception) -> Path:
    """``report.json`` for a run that raised: the config echo, the status
    (``unstable_level`` or ``divergence``) and the error text."""
    status = "unstable_level" if isinstance(exc, UnstableLevelError) else "divergence"
    return write_report(out_dir, {"config": config_summary(config), "status": status,
                                  "error": str(exc)})


def parse_k_spec(text: str):
    """``"40"`` -> ConstantK(40); ``"wedge:10,20,40[:0.33,0.67]"`` -> WedgeK."""
    text = text.strip()
    if text.startswith("wedge:"):
        ks, *pairs = (part.split(",") for part in text.split(":")[1:])
        if len(pairs) > 1 or any(len(pair) != 2 for pair in pairs):
            raise ValueError(f"wave number k: a wedge takes one interface pair a,b, got {text!r}")
        if len(ks) != 3:
            raise ValueError(f"wedge spec needs three k values, got {','.join(ks)!r}")
        interfaces = [tuple(map(float, pair)) for pair in pairs]  # none or one
        return WedgeK(*map(float, ks), *interfaces)
    return ConstantK(float(text))


def parse_positive(key: str, text: str) -> list[float]:
    """Comma-separated finite, positive numbers; an error names ``key``."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{key}: cannot parse {text!r} ({exc})") from None
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ValueError(f"{key} must be finite and > 0, got {text!r}")
    return values


def read_config_file(path: str) -> dict:
    """Plain ``key = value`` lines; '#' starts a comment.  A key may be set
    once: ``sigma-max`` and ``sigma_max`` are the same key."""
    values, lines = {}, {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


# the config schema: a parser per ProblemConfig field, from its type
# (``int | None`` parses as int; ``k`` is a spec string, see parse_k_spec)
_PARSERS = {
    name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for name, hint in typing.get_type_hints(ProblemConfig).items()
}
_PARSERS["k"] = parse_k_spec
_HELP = {
    "n": "interior grid points per axis (odd)",
    "k": "wave number: a float or wedge:kt,km,kb[:a,b]",
    "layer_width": "layer cells per side",
    "sigma_max": "peak layer stretch",
    "ramp": "layer stretch profile: quadratic or linear",
    "beta": "complex shift of the preconditioner",
    "precond": "preconditioner flavor: grid or csl",
    "smoother": "level smoother: gmres3 or poly3",
    "nu_pre": "smoothing steps before the coarse-grid correction",
    "nu_post": "smoothing steps after the coarse-grid correction",
    "tol": "relative residual tolerance",
    "restart": "FGMRES restart length",
    "max_iter": "iteration cap",
    "rhs": "right-hand side kind: point or random",
    "seed": "seed for random right-hand sides",
}


def config_from_sources(file_values: dict, args: argparse.Namespace) -> ProblemConfig:
    values = dict(file_values)
    values.update({key: getattr(args, key) for key in _PARSERS if getattr(args, key) is not None})
    parsed = {}
    for key, text in values.items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            parsed[key] = _PARSERS[key](text)
        except ValueError as exc:
            raise ValueError(f"{key}: cannot parse {text!r} ({exc})") from None
    return ProblemConfig(**parsed)


def run_solve(config: ProblemConfig, out_dir: Path, diagnostics: bool = False,
              write_solution: bool = False) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        x, report, problem = solve(config, collect_diagnostics=diagnostics)
    except (UnstableLevelError, DivergenceError) as exc:
        write_failure_report(out_dir, config, exc)
        raise

    write_report(out_dir, {"config": config_summary(config), "report": report.to_dict()})
    write_csv(
        out_dir / "residuals.csv",
        RESIDUALS_COLUMNS,
        [(i, f"{r:.16e}") for i, r in enumerate(report.residual_history)],
    )
    if diagnostics and report.diagnostics is not None:
        write_csv(
            out_dir / "diagnostics.csv",
            DIAGNOSTICS_COLUMNS,
            [
                (r["cycle"], r["level"], f"{r['cgc_ratio']:.16e}",
                 f"{r['pre_residual']:.16e}", f"{r['post_residual']:.16e}")
                for r in report.diagnostics.rows
            ],
        )
    if write_solution:
        nx, ny = x.shape
        rows = [
            (ix, iy, f"{x[ix, iy].real:.16e}", f"{x[ix, iy].imag:.16e}")
            for iy in range(ny)
            for ix in range(nx)
        ]
        write_csv(out_dir / "solution.csv", SOLUTION_COLUMNS, rows)
    print(
        f"solve: {report.status} in "
        f"{report.iterations} iterations, final residual {report.final_residual:.3e}"
    )
    return 0 if report.converged else 3


def run_sweep(k_list, ppw: float, config: ProblemConfig, out_dir: Path) -> int:
    sweep_configs(k_list, ppw, config)  # an invalid k fails before the directory exists
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, fit = sweep(k_list, ppw=ppw, base=config)
    write_csv(
        out_dir / "sweep.csv",
        SWEEP_COLUMNS,
        [
            (f"{r['k']:g}", r["n"], r["iterations"], int(r["converged"]), f"{r['wall_time']:.6f}")
            for r in rows
        ],
    )
    (out_dir / "sweep_fit.json").write_text(json.dumps(fit, indent=2), encoding="utf-8")
    print(
        f"sweep: iterations vs k slope {fit['slope']:.3f}, "
        f"R^2 {fit['r_squared']:.4f} over k = {[r['k'] for r in rows]}"
    )
    return 0 if all(r["converged"] for r in rows) else 3


def run_spectrum(config: ProblemConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    config = replace(config, smoother="poly3")
    try:
        problem = setup_problem(config)
    except UnstableLevelError as exc:
        write_failure_report(out_dir, config, exc)
        raise
    sample_rows = []
    triangle_rows = []
    for ell, level in enumerate(problem.hierarchy.levels):
        samples = symbol_samples(level.op)
        sample_rows.extend(
            (f"{z.real:.16e}", f"{z.imag:.16e}", ell, int(hf))
            for z, hf in zip(samples.points, samples.hf_mask)
        )
        design = level.design
        v = design.triangle.vertices
        w = design.weights
        triangle_rows.append(
            (ell,
             f"{v[0].real:.16e}", f"{v[0].imag:.16e}",
             f"{v[1].real:.16e}", f"{v[1].imag:.16e}",
             f"{v[2].real:.16e}", f"{v[2].imag:.16e}",
             f"{w.w1.real:.16e}", f"{w.w1.imag:.16e}",
             f"{w.w2.real:.16e}", f"{w.w2.imag:.16e}",
             f"{w.w3.real:.16e}", f"{w.w3.imag:.16e}",
             f"{w.achieved_stability:.16e}", f"{w.achieved_smoothing:.16e}")
        )
    write_csv(out_dir / "spectrum_samples.csv", SAMPLES_COLUMNS, sample_rows)
    write_csv(out_dir / "spectrum_triangles.csv", TRIANGLES_COLUMNS, triangle_rows)
    print(f"spectrum: {len(triangle_rows)} levels, {len(sample_rows)} samples")
    return 0


def config_summary(config: ProblemConfig) -> dict:
    """Every config field, for ``report.json``; ``k`` as a description."""
    summary = {f.name: getattr(config, f.name) for f in fields(config)}
    k = config.k
    summary["k"] = (
        {"kind": "constant", "k0": k.k0}
        if isinstance(k, ConstantK)
        else {"kind": "wedge", "k_top": k.k_top, "k_mid": k.k_mid, "k_bot": k.k_bot,
              "interfaces": list(k.interfaces)}
    )
    return summary


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value configuration file")
    for key in _PARSERS:
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP[key])
    p.add_argument("--out-dir", dest="out_dir", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helmgrid",
        description="2D Helmholtz solver with complex-shifted-grid multigrid preconditioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one configuration")
    _add_common_flags(p_solve)
    p_solve.add_argument("--diagnostics", action="store_true",
                         help="record per-cycle coarse-grid-correction ratios")
    p_solve.add_argument("--write-solution", action="store_true",
                         help="also write the solution field (large)")

    p_sweep = sub.add_parser("sweep", help="iteration counts across wave numbers")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--k-list", dest="k_list", required=True,
                         help="comma-separated wave numbers, e.g. 10,20,40,80")
    p_sweep.add_argument("--ppw", default=str(DEFAULT_PPW),
                         help="points per wavelength fixing n per k")

    p_spec = sub.add_parser("spectrum", help="per-level symbol samples, triangles, weights")
    _add_common_flags(p_spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = read_config_file(args.config) if args.config else {}
        config = config_from_sources(file_values, args)
        out_dir = Path(args.out_dir)
        if args.command == "solve":
            return run_solve(config, out_dir, diagnostics=args.diagnostics,
                             write_solution=args.write_solution)
        if args.command == "sweep":
            k_list = parse_positive("k_list", args.k_list)
            ppw = parse_positive("ppw", args.ppw)
            if len(ppw) != 1:
                raise ValueError(f"ppw: cannot parse {args.ppw!r} (expected one number)")
            return run_sweep(k_list, ppw[0], config, out_dir)
        if args.command == "spectrum":
            return run_spectrum(config, out_dir)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, UnstableLevelError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
