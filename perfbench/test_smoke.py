"""Smoke test of the benchmark: every workload shrunk to n = 31, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q

It checks that each run passes its correctness gate, that it prints exactly
the metrics BENCHMARK.json names with their units and finite values, and that
the traced self times account for the traced solve time.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
N = 31

# self-time metrics that partition the traced FGMRES time; krylov.self_ms is the remainder
SELF_TIME_PREFIXES = ("stencil.apply_ms.", "smoother.self_ms.", "multigrid.transfer_ms.")
SELF_TIME_NAMES = ("multigrid.coarse_solve_ms", "multigrid.self_ms", "krylov.self_ms")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--n", str(N),
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(result: dict, specs: list) -> dict:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_shrunk(workload):
    e2e = check_result(run(workload, 0), SPEC["end_to_end"])
    assert all(v > 0 for v in e2e.values())
    assert e2e["time_to_solution_s"] == pytest.approx(e2e["setup_s"] + e2e["solve_s"])

    layers = check_result(run(workload, 1), SPEC["per_layer"])
    parts = sum(v for k, v in layers.items() if k.startswith(SELF_TIME_PREFIXES))
    parts += sum(layers[k] for k in SELF_TIME_NAMES)
    assert parts == pytest.approx(layers["trace.solve_ms"], rel=1e-9)
    designs = sum(v for k, v in layers.items() if k.startswith("spectrum.design_ms."))
    assert (designs > 0) == workload.endswith("poly3")
    assert layers["stencil.apply_calls.L0"] > 0 and layers["multigrid.vcycles"] > 0
    assert layers["blocked.fused_ms.t64"] > 0 and layers["blocked.naive_ms"] > 0
