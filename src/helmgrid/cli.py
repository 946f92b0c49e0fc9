"""Command-line entry points: solve, sweep, spectrum.

Configuration comes from an optional ``key = value`` text file plus flag
overrides (flags win); both name the fields of ``ProblemConfig``.  All
outputs are CSV (UTF-8, comma separator, ``.`` decimal point, one header row,
fixed column order; :func:`write_csv` formats the numbers) or JSON, and the
first file written makes the output directory.  Bad input exits 1 before it;
a failed set-up or solve exits 3 with ``report.json`` written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from .grid import ConstantK, WedgeK
from .multigrid import DivergenceError
from .problems import DEFAULT_PPW, FIELD_TYPES, ProblemConfig, setup_problem, solve, sweep
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


def _cells(value) -> tuple:
    if isinstance(value, complex):
        return f"{value.real:.16e}", f"{value.imag:.16e}"
    return (f"{value:.16e}",) if isinstance(value, float) else (value,)


def write_csv(path: Path, columns, rows) -> None:
    """A header row, then ``rows``: a float is one ``.16e`` cell and a
    complex value two (real, imaginary); other values are written as given."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cell for value in row for cell in _cells(value)])


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


def write_report(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {**payload, "environment": environment()}
    (out_dir / "report.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")


def parse(key: str, parser, text: str):
    """``parser(text)``; its ``ValueError`` becomes ``key: cannot parse 'text' (…)``."""
    try:
        return parser(text)
    except ValueError as exc:
        raise ValueError(f"{key}: cannot parse {text!r} ({exc})") from None


def _k_spec(text: str):
    """``"40"`` -> ``(ConstantK, (40.0,))``, ``"wedge:…"`` -> ``(WedgeK, (…))``."""
    text = text.strip()
    if not text.startswith("wedge:"):
        return ConstantK, (float(text),)
    ks, *pairs = (part.split(",") for part in text.split(":")[1:])
    if len(pairs) > 1 or any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"wave number k: a wedge takes one interface pair a,b, got {text!r}")
    if len(ks) != 3:
        raise ValueError(f"wedge spec needs three k values, got {','.join(ks)!r}")
    return WedgeK, (*map(float, ks), *(tuple(map(float, pair)) for pair in pairs))


def parse_k_spec(text: str):
    """``"40"`` -> ConstantK(40); ``"wedge:10,20,40[:0.33,0.67]"`` -> WedgeK;
    a value the spec rejects parsed, so its error is ``k: <the spec's rule>``."""
    spec, args = parse("k", _k_spec, text)
    try:
        return spec(*args)
    except ValueError as exc:
        raise ValueError(f"k: {exc}") from None


def parse_positive(key: str, text: str) -> list[float]:
    """Comma-separated finite, positive numbers; an error names ``key``."""
    values = parse(key, lambda t: [float(v) for v in t.split(",")], text)
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


# a parser per ProblemConfig field, by its type; ``k`` is a spec string (parse_k_spec)
_PARSERS = {name: partial(parse, name, kind) for name, kind in FIELD_TYPES.items()}
_PARSERS["k"] = parse_k_spec


def config_from_sources(file_values: dict, args: argparse.Namespace) -> ProblemConfig:
    values = dict(file_values)
    values.update({key: getattr(args, key) for key in _PARSERS if getattr(args, key) is not None})
    parsed = {}
    for key, text in values.items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        parsed[key] = _PARSERS[key](text)
    return ProblemConfig(**parsed)


def run_solve(config: ProblemConfig, out_dir: Path, diagnostics: bool = False,
              write_solution: bool = False) -> int:
    x, report, _ = solve(config, collect_diagnostics=diagnostics)
    write_report(out_dir, {"config": config_summary(config), "report": report.to_dict()})
    write_csv(out_dir / "residuals.csv", RESIDUALS_COLUMNS, enumerate(report.residual_history))
    if diagnostics and report.diagnostics is not None:
        write_csv(out_dir / "diagnostics.csv", DIAGNOSTICS_COLUMNS,
                  [[r[c] for c in DIAGNOSTICS_COLUMNS] for r in report.diagnostics.rows])
    if write_solution:
        nx, ny = x.shape
        rows = [(ix, iy, x[ix, iy]) for iy in range(ny) for ix in range(nx)]
        write_csv(out_dir / "solution.csv", SOLUTION_COLUMNS, rows)
    print(
        f"solve: {report.status} in "
        f"{report.iterations} iterations, final residual {report.final_residual:.3e}"
    )
    return 0 if report.converged else 3


def run_sweep(k_list, ppw: float, config: ProblemConfig, out_dir: Path) -> int:
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
    """Every level's symbol samples, and a triangle row per designed level."""
    if config.smoother != "poly3":
        raise ValueError(f"smoother: spectrum writes the poly3 designs, got {config.smoother!r}")
    problem = setup_problem(config)
    sample_rows = []
    triangle_rows = []
    for ell, level in enumerate(problem.hierarchy.levels):
        samples = symbol_samples(level.op)
        sample_rows.extend((z, ell, int(hf)) for z, hf in zip(samples.points, samples.hf_mask))
        if level.design is not None:  # the coarsest level is solved by LU, not smoothed
            w = level.design.weights
            triangle_rows.append((ell, *level.design.triangle.vertices, w.w1, w.w2, w.w3,
                                  w.achieved_stability, w.achieved_smoothing))
    write_csv(out_dir / "spectrum_samples.csv", SAMPLES_COLUMNS, sample_rows)
    write_csv(out_dir / "spectrum_triangles.csv", TRIANGLES_COLUMNS, triangle_rows)
    print(f"spectrum: {problem.hierarchy.depth} levels, {len(triangle_rows)} designed, "
          f"{len(sample_rows)} samples")
    return 0


def config_summary(config: ProblemConfig) -> dict:
    """Every config field, for ``report.json``; ``k`` as its kind and fields."""
    kind = "constant" if isinstance(config.k, ConstantK) else "wedge"
    return {**asdict(config), "k": {"kind": kind, **asdict(config.k)}}


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value configuration file")
    for f in fields(ProblemConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, help=f.metadata["help"])
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
    out_dir = Path(args.out_dir)
    try:
        file_values = read_config_file(args.config) if args.config else {}
        if args.command == "spectrum":  # the cubic's designs, unless a smoother is given
            file_values.setdefault("smoother", "poly3")
        config = config_from_sources(file_values, args)
        if args.command == "solve":
            return run_solve(config, out_dir, diagnostics=args.diagnostics,
                             write_solution=args.write_solution)
        if args.command == "sweep":
            return run_sweep(parse_positive("k_list", args.k_list), parse("ppw", float, args.ppw),
                             config, out_dir)
        return run_spectrum(config, out_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnstableLevelError, DivergenceError) as exc:  # a sweep echoes its base config
        status = "unstable_level" if isinstance(exc, UnstableLevelError) else "divergence"
        write_report(out_dir, {"config": config_summary(config), "status": status,
                               "error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
