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
