"""Byte-identity fingerprints of helmgrid's designs, solves and CSV outputs.

    PYTHONPATH=src python tools/identity.py OUT.json

writes one sha256 digest per key to ``OUT.json``, and a few plain counts:

- ``design/...``: every level's triangle vertices, weights, achieved stability
  and smoothing, high-frequency hull and damped-Jacobi weights, or the fixed
  marker ``no design`` for a level that has none (the coarsest level, which
  the LU solves, in checkouts that skip its design), on 25 poly3
  set-ups (k = 10, 20, 40, 80 at 10 points per wavelength, sigma_max 0 and 1,
  ``grid`` and ``csl``; n = 31, k = 20 at sigma_max 2 and 3; four wedge
  set-ups), or the ``UnstableLevelError`` message where the set-up raises;
- ``solve/...``: the iterate ``x``, the residual history and the
  ``CycleDiagnostics`` rows of poly3 at n = 63, 127 and GMRES(3) at
  n = 63, 127, 255, with k = 0.625 (n + 1), seed 0 and a point source, and
  the iterate and residual history of ``solve_baseline`` (unpreconditioned
  GMRES, the FGMRES cycle with the identity) at n = 31 on the same kind of
  problem; each solve's ``iterations`` and ``restarts`` as plain integers, so
  a change that only rounds differently shows as digests that differ beside
  counts that do not;
- ``spectrum/...``: both CSVs of ``helmgrid spectrum`` at n = 31, k = 20 and
  at n = 63, k = 40;
- ``report/...``: the ``config`` block of the ``report.json`` that
  ``cli.run_solve`` writes for one n = 31 wedge config of Python numbers
  (``python``), and for the same config built from numpy scalars whose values
  float32 holds exactly (``numpy``), so both echo the same numbers;
- ``environment``: ``cli.environment()``.

It uses public names only (``ProblemConfig``, ``setup_problem``, ``solve``,
``solve_baseline``, the ``spectrum`` command, ``cli.run_solve``, the design
records and ``SolveReport``'s ``iterations`` and ``restarts``), so one copy
of the script fingerprints an older checkout too, one whose report counts
restarts, whether or not it designs the coarsest level: run it once with each
checkout's ``src`` on ``PYTHONPATH`` and compare the two files key by key.
Digests are equal only at equal BLAS thread counts: set
``OPENBLAS_NUM_THREADS=1``.  Takes about 5 seconds on one core of a 2-core VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import helmgrid
from helmgrid import (ConstantK, ProblemConfig, WedgeK, pick_grid_size, setup_problem, solve,
                      solve_baseline)
from helmgrid.cli import environment, main, run_solve
from helmgrid.spectrum import UnstableLevelError


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def design_configs() -> dict:
    def poly3(**kwargs):
        return ProblemConfig(smoother="poly3", **kwargs)

    configs = {}
    for k in (10.0, 20.0, 40.0, 80.0):
        for sigma_max in (0.0, 1.0):
            for precond in ("grid", "csl"):
                configs[f"k{k:g}-s{sigma_max:g}-{precond}"] = poly3(
                    n=pick_grid_size(k), k=ConstantK(k), sigma_max=sigma_max, precond=precond)
    for sigma_max in (2.0, 3.0):
        for precond in ("grid", "csl"):
            configs[f"n31-k20-s{sigma_max:g}-{precond}"] = poly3(
                n=31, k=ConstantK(20.0), sigma_max=sigma_max, precond=precond)
    for n, precond in ((63, "grid"), (63, "csl"), (31, "grid"), (127, "grid")):
        configs[f"n{n}-wedge20,30,40-{precond}"] = poly3(
            n=n, k=WedgeK(20.0, 30.0, 40.0), precond=precond)
    configs["n63-wedge10,20,40-grid"] = poly3(n=63, k=WedgeK(10.0, 20.0, 40.0))
    return configs


def design_digest(config: ProblemConfig) -> str:
    try:
        levels = setup_problem(config).hierarchy.levels
    except UnstableLevelError as exc:
        return digest(b"raises ", str(exc).encode())
    parts = []
    for level in levels:
        d = level.design
        if d is None:
            parts.append(b"no design")
            continue
        parts += [
            d.triangle.vertices.tobytes(),
            d.weights.w.tobytes(),
            np.array([d.weights.achieved_stability, d.weights.achieved_smoothing]).tobytes(),
            np.asarray(d.hf_hull).tobytes(),
            np.array(level.jacobi_w, dtype=complex).tobytes(),
        ]
    return digest(*parts)


def point_source(n: int, smoother: str = ProblemConfig.smoother) -> ProblemConfig:
    return ProblemConfig(n=n, k=ConstantK(0.625 * (n + 1)), smoother=smoother,
                         rhs="point", seed=0)


def report_digests(tag: str, x: np.ndarray, report) -> dict:
    return {
        f"{tag}/x": digest(x.tobytes()),
        f"{tag}/residual_history": digest(np.array(report.residual_history, dtype=float).tobytes()),
        f"{tag}/iterations": report.iterations,
        f"{tag}/restarts": report.restarts,
    }


def solve_digests(smoother: str, n: int) -> dict:
    x, report, _ = solve(point_source(n, smoother), collect_diagnostics=True)
    tag = f"solve/{smoother}-n{n}"
    out = report_digests(tag, x, report)
    out[f"{tag}/diagnostics_rows"] = digest(json.dumps(report.diagnostics.rows).encode())
    return out


def baseline_digests(n: int) -> dict:
    x, report = solve_baseline(point_source(n))
    return report_digests(f"solve/baseline-n{n}", x, report)


def spectrum_digests(n: int, k: float) -> dict:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        code = main(["spectrum", "--n", str(n), "--k", f"{k:g}", "--out-dir", tmp])
        if code != 0:
            raise RuntimeError(f"helmgrid spectrum --n {n} --k {k:g} exited {code}")
        return {
            f"spectrum/n{n}-k{k:g}/{name}": digest((Path(tmp) / name).read_bytes())
            for name in ("spectrum_samples.csv", "spectrum_triangles.csv")
        }


def report_configs() -> dict:
    def wedge(number, integer):
        return ProblemConfig(
            n=integer(31), k=WedgeK(number(10.0), number(15.0), number(20.0),
                                    (number(0.25), number(0.75))),
            sigma_max=number(1.0), beta=number(0.5), nu_pre=integer(2), seed=integer(3))

    return {"python": wedge(float, int), "numpy": wedge(np.float32, np.int64)}


def report_digest(config: ProblemConfig) -> str:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        run_solve(config, Path(tmp))
        echo = json.loads((Path(tmp) / "report.json").read_text())["config"]
    return digest(json.dumps(echo).encode())


def fingerprints() -> dict:
    out = {f"design/{key}": design_digest(config) for key, config in design_configs().items()}
    for smoother, sizes in (("poly3", (63, 127)), ("gmres3", (63, 127, 255))):
        for n in sizes:
            out.update(solve_digests(smoother, n))
    out.update(baseline_digests(31))
    for n, k in ((31, 20.0), (63, 40.0)):
        out.update(spectrum_digests(n, k))
    for case, config in report_configs().items():
        out[f"report/{case}/config"] = report_digest(config)
    out["environment"] = digest(json.dumps(environment(), sort_keys=True).encode())
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/identity.py OUT.json")
    print(f"helmgrid from {Path(helmgrid.__file__).parent}", file=sys.stderr)
    Path(sys.argv[1]).write_text(json.dumps(fingerprints(), indent=1, sort_keys=True) + "\n")
