"""The benchmark in ``perfbench/`` traces the solve by replacing library names
from outside; a refactor that unbinds one of them must fail here, not only in
the benchmark's own smoke test."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import helmgrid
from tests.conftest import make_operator

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    tracing = load_tracing()
    for owner, attr, _, _ in tracing.TARGETS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_span_keys_resolve():
    tracing = load_tracing()
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
