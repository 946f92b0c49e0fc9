"""helmgrid benchmark: time-to-solution of the shifted-grid-preconditioned
Helmholtz solve, end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each workload runs in a fresh process (``workload.py``) with BLAS and OpenMP
pinned to one thread and the library imported from ``src`` of this checkout.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--workload all`` every workload runs in turn and its metric names are
prefixed by the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("helm-k160-gmres3", "helm-k80-poly3", "shots-k40-gmres3")
CHILD_TIMEOUT_S = 170
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


def run_workload(name: str, args) -> dict:
    """Run one workload in its own process; relay its output and return its result."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.n is not None:
        cmd += ["--n", str(args.n)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload {name} did not finish within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"workload {name} exited with code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None, help="shrink every workload to n points per axis (smoke test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "helmgrid" / "__init__.py").is_file():
        sys.stderr.write(f"helmgrid sources not found under {ROOT / 'src'}\n")
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            one = run_workload(name, args)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
