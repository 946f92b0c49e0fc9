"""The benchmark in ``perfbench/`` traces the solve by replacing library names
from outside; a refactor that unbinds one of them must fail here, not only in
the benchmark's own smoke test."""

import importlib.util
import inspect
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import helmgrid
from helmgrid import ConstantK, ProblemConfig
from tests.conftest import make_operator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(script):
    spec = importlib.util.spec_from_file_location(f"perfbench_{script}", PERFBENCH / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    tracing = load("tracing")
    for owner, attr, _, _ in tracing.TARGETS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_span_keys_resolve():
    tracing = load("tracing")
    u = np.zeros((7, 7), dtype=complex)
    assert tracing._op_key((make_operator(7, 4.0), u), {}) == (7, 7)
    assert tracing._op_key((make_operator(7, 4.0, mode="physical"), u), {}) == "physical"
    # the smoother spans key on the second positional argument, ``u``
    for smoother in (helmgrid.gmres_smooth, helmgrid.poly3_smooth):
        assert list(inspect.signature(smoother).parameters)[1] == "u"


def test_benchmark_imports_resolve():
    for name in ("ConstantK", "ProblemConfig", "TilePlan", "bench", "blocked_poly3", "fgmres",
                 "poly3_smooth", "setup_problem"):
        assert hasattr(helmgrid, name), name
    assert hasattr(helmgrid.problems, "make_preconditioner")
    assert hasattr(helmgrid.grid, "default_layer_width")


def test_benchmark_reads_resolve(hier31_poly3, hier31_gmres):
    # perfbench/workload.py solves with helmgrid.solve, keys levels on
    # Level.shape, runs both cubic kernels and bench on Level.jacobi_w (a
    # 3-sequence, None where no design exists) and gates on the design's
    # certified maxima
    assert callable(helmgrid.solve)
    for level in hier31_poly3.levels:
        assert level.shape == level.op.shape
    assert hier31_poly3.levels[-1].design is None
    for level in hier31_poly3.levels[:-1]:
        assert isinstance(level.design.weights.achieved_stability, float)
        assert isinstance(level.design.weights.achieved_smoothing, float)
    level = hier31_poly3.levels[0]
    weights, plan = level.jacobi_w, helmgrid.TilePlan(16, 16)
    assert len(weights) == 3
    u = np.zeros(level.shape, dtype=complex)
    b = np.ones(level.shape, dtype=complex)
    want = helmgrid.poly3_smooth(level.op, u, b, weights)
    np.testing.assert_array_equal(helmgrid.blocked_poly3(level.op, u, b, weights, plan), want)
    (row,) = helmgrid.bench(level.op, weights, [plan], repetitions=1, rng_seed=0)
    assert row.flops_per_point > 0 and row.est_bytes_per_point > 0
    assert all(level.jacobi_w is None for level in hier31_gmres.levels)


def test_benchmark_configs_are_valid(monkeypatch):
    # a config is checked when built, so one the checks reject would surface
    # only as a failed benchmark run: build every workload's, and warm_up's two
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workload.py imports tracing by name
    workload = load("workload")
    for w in workload.WORKLOADS.values():
        assert workload.config_for(w).n == w.n
    tiny = ProblemConfig(n=15, k=ConstantK(workload.KH * 16), smoother="gmres3", **workload.SOLVE)
    replace(tiny, n=7, k=ConstantK(workload.KH * 8), smoother="poly3")
