"""One helmgrid benchmark workload, run in a process of its own.

``run.py`` starts this script with BLAS/OpenMP threads pinned to 1 and
``src`` on ``PYTHONPATH``; it prints ``# ``-prefixed notes, one line per
metric, and as its last line the result object
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/workload.py --workload helm-k160-gmres3 --seed 0 --seconds 30 --trace 0

Untraced runs (``--trace 0``) give the end-to-end metrics; traced runs
(``--trace 1``) give the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import helmgrid
from helmgrid import ConstantK, ProblemConfig, TilePlan, bench, blocked_poly3, fgmres, poly3_smooth, setup_problem
from helmgrid.grid import default_layer_width
from helmgrid.problems import make_preconditioner
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
# k*h = 0.625 is 10 points per wavelength (2*pi/10 = 0.628) and gives the
# ROADMAP baseline wave numbers: n = 63, 127, 255 -> k = 40, 80, 160
KH = 0.625
SOLVE = dict(beta=0.5, sigma_max=1.0, restart=20, tol=1e-6, precond="grid")
# set-up is timed in batches of at least SETUP_BATCH_S, at least
# SETUP_MIN_BATCHES of them and SETUP_MIN_S in all; a millisecond set-up is
# too short to time alone on a machine whose speed changes within seconds
SETUP_MIN_BATCHES, SETUP_BATCH_S, SETUP_MIN_S = 3, 0.1, 1.0
MIN_OPS = 3
LEVELS = range(5)  # L0..L4: every level that smooths on the largest workload
BLOCKED_REPS = 7
FIXED_JACOBI_W = (0.6, 0.6, 0.6)  # probe weights where no design exists; cost is weight-independent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    n: int
    smoother: str
    shots: int


WORKLOADS = {
    # solve-dominated: 1 MB fine-level arrays, working set past the 2 MiB L2;
    # stencil, GMRES(3) smoother, krylov and transfers work, spectrum is bypassed
    "helm-k160-gmres3": Workload(255, "gmres3", 1),
    # set-up-dominated: spectral designs on 5 levels; the solve runs damped
    # Jacobi, so GMRES-only changes must leave it unchanged
    "helm-k80-poly3": Workload(127, "poly3", 1),
    # many shots on one hierarchy, 64 KB arrays: per-call Python overhead
    # dominates, so trading per-call cost for bandwidth shows as a loss
    "shots-k40-gmres3": Workload(63, "gmres3", 40),
}


def note(key: str, value) -> None:
    print(f"# {key}: {value}", flush=True)


def config_for(w: Workload) -> ProblemConfig:
    return ProblemConfig(n=w.n, k=ConstantK(KH * (w.n + 1)), smoother=w.smoother, **SOLVE)


def sources(w: Workload, seed: int) -> list[tuple[int, int]]:
    """Point-source positions from the seed.

    A single-solve workload puts its source at the centre for seed 0 and, for
    other seeds, within n/32 cells of it, where the iteration count stays
    within a few percent of the centre's.  Shots are distinct positions drawn
    over the interior inside the absorbing layers.
    """
    n, c = w.n, w.n // 2
    rng = np.random.default_rng(seed)
    if w.shots == 1:
        if seed == 0:
            return [(c, c)]
        half = max(1, (n + 1) // 32)
        i, j = rng.integers(-half, half + 1, size=2)
        return [(c + int(i), c + int(j))]
    lw = default_layer_width(n)
    side = n - 2 * lw
    cells = rng.choice(side * side, size=w.shots, replace=False)
    return [(lw + int(q) % side, lw + int(q) // side) for q in cells]


def point_rhs(n: int, pos: tuple[int, int]) -> np.ndarray:
    b = np.zeros((n, n), dtype=complex)
    b[pos] = 1.0
    return b


def unstable_levels(problem) -> list[int]:
    """Levels whose certified cubic exceeds 1 on its triangle (poly3 only)."""
    return [
        ell
        for ell, level in enumerate(problem.hierarchy.levels)
        if level.design is not None and not level.design.weights.achieved_stability <= 1.0
    ]


class Runner:
    """Solves, timing and the correctness gate for one workload."""

    def __init__(self, name: str, w: Workload, seed: int):
        self.name = name
        self.w = w
        self.config = config_for(w)
        self.rhs = [point_rhs(w.n, p) for p in sources(w, seed)]
        self.attempted = 0
        self.failed = 0

    def setup(self):
        problem = setup_problem(self.config)
        bad = unstable_levels(problem)
        if bad:
            note("gate", f"achieved_stability > 1 on levels {bad}; every solve on this set-up fails")
        return problem

    def solve(self, problem, b, tracer: Tracer | None = None):
        """One FGMRES solve; returns ``(seconds, iterations)``, or None if it raised.

        The gate recomputes ||b - A x|| / ||b|| with the physical operator,
        outside any trace, and needs it <= tol, ``converged`` and, with poly3,
        a stable cubic on every level.  A failed solve is counted, not dropped.
        """
        self.attempted += 1
        cfg = self.config
        try:
            with tracer.installed() if tracer is not None else nullcontext():
                precondition, solver = make_preconditioner(problem.hierarchy), fgmres
                if tracer is not None:
                    precondition = tracer.wrap(precondition, "multigrid.vcycle")
                    solver = tracer.wrap(fgmres, "krylov.fgmres")
                t0 = time.perf_counter()
                x, report = solver(problem.physical_op.apply, precondition, b,
                                   tol=cfg.tol, restart=cfg.restart, max_iter=cfg.max_iter)
                dt = time.perf_counter() - t0
        except Exception:  # a failing solve is one failed operation; the run goes on
            self.failed += 1
            note("failed solve", traceback.format_exc().strip().splitlines()[-1])
            return None
        residual = float(np.linalg.norm(b - problem.physical_op.apply(x)) / np.linalg.norm(b))
        if not (report.converged and residual <= cfg.tol) or unstable_levels(problem):
            self.failed += 1
            note("failed solve", f"status={report.status} residual={residual:.3e}")
        return dt, report.iterations

    def op(self, problem, tracer: Tracer | None = None, tag: str = ""):
        """Every right-hand side once; returns ``(seconds per shot, total iterations)``
        with None as the time of a solve that raised."""
        times, iters = [], 0
        for i, b in enumerate(self.rhs):
            if tracer is not None:
                tracer.solve_id = f"{tag}.{i}"
            out = self.solve(problem, b, tracer)
            times.append(None if out is None else out[0])
            iters += 0 if out is None else out[1]
        return times, iters


def warm_up(w: Workload) -> None:
    """Finish lazy imports and LAPACK loading on a tiny problem before timing."""
    tiny = ProblemConfig(n=15, k=ConstantK(KH * 16), smoother="gmres3", **SOLVE)
    helmgrid.solve(tiny)
    if w.smoother == "poly3":  # first use of the weight search (DE + Nelder-Mead)
        setup_problem(replace(tiny, n=7, k=ConstantK(KH * 8), smoother="poly3"))


def timed_setups(runner: Runner):
    """Returns the last problem and the mean set-up time of each batch."""
    means, spent = [], 0.0
    while len(means) < SETUP_MIN_BATCHES or spent < SETUP_MIN_S:
        count, t0 = 0, time.perf_counter()
        while count == 0 or time.perf_counter() - t0 < SETUP_BATCH_S:
            problem = runner.setup()
            count += 1
        batch = time.perf_counter() - t0
        means.append(batch / count)
        spent += batch
    return problem, means


def first_solve(runner: Runner, problem) -> None:
    """The first solve after set-up, kept out of every timing statistic."""
    out = runner.solve(problem, runner.rhs[0])
    if out is not None:
        note("first_solve_s", f"{out[0]:.4f} ({out[1]} iterations; not in the statistics)")


def keep_going(count: int, start: float, last: float, seconds: float) -> bool:
    """At least MIN_OPS operations; another only if it should end within the budget."""
    return count < MIN_OPS or time.perf_counter() - start + last <= seconds


def total(times: list) -> float:
    """Seconds spent in the solves of one operation that returned."""
    return sum(t for t in times if t is not None)


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(runner: Runner, start: float, seconds: float) -> dict:
    problem, setup_times = timed_setups(runner)
    note("setup_batches", len(setup_times))
    first_solve(runner, problem)
    op_times, op_iters, shots = [], [], []
    while keep_going(len(op_times), start, op_times[-1] if op_times else 0.0, seconds):
        times, iters = runner.op(problem)
        op_times.append(total(times))
        op_iters.append(iters)
        shots.append(times)
    note("operations", f"{len(op_times)} of {len(runner.rhs)} solve(s) each")
    setup_s = statistics.median(setup_times)
    solve_s = statistics.median(op_times)
    iterations = statistics.median(op_iters)
    # one latency per right-hand side: its median over the operations
    per_shot = ([t for t in ts if t is not None] for ts in zip(*shots))
    p50, p75 = np.percentile([statistics.median(ts) * 1e3 for ts in per_shot if ts], [50, 75])
    return {
        "setup_s": metric(setup_s, "s"),
        "solve_s": metric(solve_s, "s"),
        "time_to_solution_s": metric(setup_s + solve_s, "s"),
        "iterations": metric(iterations, "count"),
        "ms_per_iter": metric(solve_s * 1e3 / iterations, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "shot_ms.p50": metric(p50, "ms"),
        "shot_ms.p75": metric(p75, "ms"),
    }


# ---------------------------------------------------------------------------
# traced run


def blocked_probe(problem, seed: int) -> dict:
    """Fused cubic kernel at tiles 16 and 64 against the naive ``poly3_smooth``
    on the fine shifted level, same inputs; results must be bit-for-bit equal.
    Flops and bytes per point are computed from the kernel's model, not measured."""
    level = problem.hierarchy.levels[0]
    op = level.op
    weights = level.jacobi_w or FIXED_JACOBI_W
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
    b = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
    reference = poly3_smooth(op, u, b, weights)
    plans = {"t16": TilePlan(16, 16), "t64": TilePlan(64, 64)}
    for tag, plan in plans.items():
        if not np.array_equal(blocked_poly3(op, u, b, weights, plan), reference):
            raise RuntimeError(f"blocked_poly3 at {tag} differs from poly3_smooth")
    samples = {"naive": [], "t16": [], "t64": []}
    for _ in range(BLOCKED_REPS):
        for tag in samples:
            t0 = time.perf_counter()
            if tag == "naive":
                poly3_smooth(op, u, b, weights)
            else:
                blocked_poly3(op, u, b, weights, plans[tag])
            samples[tag].append(time.perf_counter() - t0)
    ms = {tag: statistics.median(v) * 1e3 for tag, v in samples.items()}
    (model,) = bench(op, weights, [plans["t64"]], repetitions=1, rng_seed=seed)
    return {
        "blocked.fused_ms.t16": metric(ms["t16"], "ms"),
        "blocked.fused_ms.t64": metric(ms["t64"], "ms"),
        "blocked.naive_ms": metric(ms["naive"], "ms"),
        "blocked.fused_over_naive.t64": metric(ms["t64"] / ms["naive"], "ratio"),
        "blocked.flops_per_point.t64": metric(model.flops_per_point, "flop/pt"),
        "blocked.bytes_per_point.t64": metric(model.est_bytes_per_point, "B/pt"),
    }


SETUP_SPANS = {
    "grid.build": "grid.build_ms",
    "stencil.assemble": "stencil.assemble_ms",
    "multigrid.coarse_lu": "multigrid.coarse_lu_ms",
    "problems.setup": "problems.setup_ms",
}


def layer_metrics(tracer: Tracer, problem, ops: int, iterations: float) -> dict:
    """Set-up spans as totals; solve spans as per-operation means, by layer and level."""
    levels = {lvl.shape: ell for ell, lvl in enumerate(problem.hierarchy.levels)}
    coarsest = len(levels) - 1
    rows = tracer.self_times()
    setup: dict = {}
    solve: dict = {}
    vcycle_ms = []
    root_kids: dict = {}  # FGMRES span -> names of its children, in call order

    def add(acc, name, value):
        acc[name] = acc.get(name, 0.0) + value

    for i, (name, key, dur, self_t, parent) in enumerate(rows):
        parent_name = rows[parent][0] if parent >= 0 else None
        if tracer.spans[i][5] == "setup":
            if name in SETUP_SPANS and parent_name != name:
                add(setup, SETUP_SPANS[name], dur * 1e3)
            elif name in ("spectrum.design", "spectrum.weights"):
                ell = key if name == "spectrum.design" else levels[key]
                add(setup, f"spectrum.design_ms.L{ell}", dur * 1e3)
            continue
        ell = "physical" if key == "physical" else f"L{levels.get(key)}"
        if name == "stencil.apply":
            add(solve, f"stencil.apply_calls.{ell}", 1)
            add(solve, f"stencil.apply_ms.{ell}", dur * 1e3)
        elif name == "smoother.smooth":
            add(solve, f"smoother.calls.{ell}", 1)
            add(solve, f"smoother.self_ms.{ell}", self_t * 1e3)
        elif name == "multigrid.restrict":
            add(solve, f"multigrid.transfer_ms.{ell}", dur * 1e3)
        elif name == "multigrid.prolong":  # into the next finer level
            ell = f"L{levels[key] - 1}"
            add(solve, f"multigrid.transfer_ms.{ell}", dur * 1e3)
        elif name == "multigrid.coarse_solve":
            ell = f"L{coarsest}"
            add(solve, "multigrid.coarse_solve_calls", 1)
            add(solve, "multigrid.coarse_solve_ms", dur * 1e3)
        elif name == "multigrid.vcycle":
            vcycle_ms.append(dur * 1e3)
            add(solve, "multigrid.self_ms", self_t * 1e3)
        elif name == "krylov.fgmres":
            root_kids[i] = []
            add(solve, "krylov.self_ms", self_t * 1e3)
            add(solve, "trace.solve_ms", dur * 1e3)
        if parent_name == "multigrid.vcycle":
            add(solve, f"multigrid.level_ms.{ell}", dur * 1e3)
        if parent in root_kids:
            root_kids[parent].append(name)

    add(solve, "krylov.restarts", sum(_restarts(kids) for kids in root_kids.values()))
    out = {name: value / ops for name, value in solve.items()}
    out.update(setup)
    out["multigrid.vcycles"] = len(vcycle_ms) / ops
    out["multigrid.vcycle_ms.p50"], out["multigrid.vcycle_ms.p75"] = np.percentile(vcycle_ms, [50, 75])
    out["krylov.self_ms_per_iter"] = out["krylov.self_ms"] / iterations
    n0 = problem.hierarchy.levels[0].shape
    if out.get("stencil.apply_ms.L0"):
        out["stencil.apply_mlups.L0"] = out["stencil.apply_calls.L0"] * n0[0] * n0[1] / out["stencil.apply_ms.L0"] / 1e3
    for ell, lvl in enumerate(problem.hierarchy.levels):
        if lvl.design is not None:
            out[f"spectrum.smoothing.L{ell}"] = lvl.design.weights.achieved_smoothing
            out[f"spectrum.stability.L{ell}"] = lvl.design.weights.achieved_stability
    return out


def _restarts(kids: list) -> int:
    """Outer FGMRES cycles after the first.  A physical apply that follows no
    V-cycle computes b - A x; when a V-cycle follows it, a cycle starts."""
    starts = sum(
        1
        for i, name in enumerate(kids[:-1])
        if name == "stencil.apply" and kids[i + 1] == "multigrid.vcycle"
        and (i == 0 or kids[i - 1] != "multigrid.vcycle")
    )
    return max(starts - 1, 0)


UNITS = {
    "stencil.apply_calls": "count", "stencil.apply_ms": "ms", "stencil.apply_mlups": "MLUP/s",
    "stencil.assemble_ms": "ms", "grid.build_ms": "ms", "problems.setup_ms": "ms",
    "multigrid.coarse_lu_ms": "ms", "smoother.calls": "count", "smoother.self_ms": "ms",
    "spectrum.design_ms": "ms", "spectrum.smoothing": "ratio", "spectrum.stability": "ratio",
    "multigrid.vcycles": "count", "multigrid.vcycle_ms": "ms", "multigrid.transfer_ms": "ms",
    "multigrid.coarse_solve_calls": "count", "multigrid.coarse_solve_ms": "ms",
    "multigrid.level_ms": "ms", "multigrid.self_ms": "ms", "krylov.self_ms": "ms",
    "krylov.self_ms_per_iter": "ms", "krylov.restarts": "count", "trace.solve_ms": "ms",
    "trace.overhead_pct": "%",
}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run prints, in BENCHMARK.json order."""
    names = []
    for stem in ("stencil.apply_calls", "stencil.apply_ms"):
        names += [f"{stem}.L{i}" for i in LEVELS] + [f"{stem}.physical"]
    names += ["stencil.apply_mlups.L0", "stencil.assemble_ms", "grid.build_ms", "problems.setup_ms",
              "multigrid.coarse_lu_ms"]
    for stem in ("smoother.calls", "smoother.self_ms", "spectrum.design_ms", "spectrum.smoothing",
                 "spectrum.stability", "multigrid.transfer_ms"):
        names += [f"{stem}.L{i}" for i in LEVELS]
    names += [f"multigrid.level_ms.L{i}" for i in range(len(LEVELS) + 1)]
    names += ["multigrid.vcycles", "multigrid.vcycle_ms.p50", "multigrid.vcycle_ms.p75",
              "multigrid.coarse_solve_calls", "multigrid.coarse_solve_ms", "multigrid.self_ms",
              "krylov.self_ms", "krylov.self_ms_per_iter", "krylov.restarts",
              "blocked.fused_ms.t16", "blocked.fused_ms.t64", "blocked.naive_ms",
              "blocked.fused_over_naive.t64", "blocked.flops_per_point.t64", "blocked.bytes_per_point.t64",
              "trace.solve_ms", "trace.overhead_pct"]
    return names


def traced(runner: Runner, start: float, seconds: float, seed: int) -> dict:
    tracer = Tracer()
    with tracer.installed():
        problem = tracer.wrap(runner.setup, "problems.setup")()
    first_solve(runner, problem)
    plain, traced_times, traced_iters = [], [], []
    while keep_going(len(traced_times), start, plain[-1] + traced_times[-1] if plain else 0.0, seconds):
        plain.append(total(runner.op(problem)[0]))
        times, iters = runner.op(problem, tracer, tag=f"op{len(traced_times)}")
        traced_times.append(total(times))
        traced_iters.append(iters)
    ops = len(traced_times)
    iterations = statistics.median(traced_iters)
    raw = layer_metrics(tracer, problem, ops, iterations)
    untraced = statistics.median(plain)
    raw["trace.overhead_pct"] = (statistics.median(traced_times) - untraced) / untraced * 100
    note("operations", f"{ops} traced and {len(plain)} untraced, {len(runner.rhs)} solve(s) each")
    note("untraced solve_s (median)", f"{untraced:.4f}")

    out = {
        name: metric(raw.get(name, 0.0), UNITS.get(name) or UNITS[name.rsplit(".", 1)[0]])
        for name in per_layer_names()
        if not name.startswith("blocked.")
    }
    out.update(blocked_probe(problem, seed))
    trace_dir = ROOT / ".perfbench"
    trace_dir.mkdir(exist_ok=True)
    path = trace_dir / f"spans-{runner.name}-seed{seed}.csv"
    tracer.write(path)
    note("spans", f"{len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return {name: out[name] for name in per_layer_names()}


# ---------------------------------------------------------------------------
# machine record


def _cache_sizes() -> str:
    found = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            found.append(f"L{level}={size}")
    return " ".join(found) or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads": " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS),
        "commit": _commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None, help="shrink to n points per axis at the same k*h (smoke test)")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.n is not None:
        w = replace(w, n=args.n)
    runner = Runner(args.workload, w, args.seed)
    for key, value in machine().items():
        note(key, value)
    note("workload", f"{args.workload}: n={w.n} k={KH * (w.n + 1):g} {w.smoother} shots={w.shots} seed={args.seed}")
    warm_up(w)
    start = time.perf_counter()
    if args.trace:
        metrics = traced(runner, start, args.seconds, args.seed)
    else:
        metrics = end_to_end(runner, start, args.seconds)
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values()),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
