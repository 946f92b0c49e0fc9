"""Spans recorded from outside the library, around calls into its public names.

While a :class:`Tracer` is installed, the library names that the solve and the
set-up call through are replaced by wrappers that time each call.  A span is
``(name, key, start, end, parent, solve_id)``: ``key`` says where the call ran
(an array shape, the string ``"physical"`` for the physical operator, or a
level number), ``parent`` is the index of the enclosing span or -1.  Spans are
kept in memory; :meth:`Tracer.write` saves them when the run ends.  Nothing in
the library changes: uninstalling restores every original attribute.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from time import perf_counter

import helmgrid.multigrid as multigrid
import helmgrid.problems as problems
from helmgrid.stencil import StencilOperator


def _op_key(args, kwargs):
    return "physical" if args[0].mode == "physical" else args[1].shape


def _first_shape(args, kwargs):
    return args[0].shape


def _second_shape(args, kwargs):
    return args[1].shape


def _level_key(args, kwargs):
    return kwargs.get("level", 0)


def _no_key(args, kwargs):
    return None


# (owner, attribute, span name, key function).  The solve path reaches
# StencilOperator through its class, the smoothers, transfers, coarse solve,
# spectral design and LU through names bound in helmgrid.multigrid, and the
# grid builders through names bound in helmgrid.problems.
TARGETS = (
    (StencilOperator, "apply", "stencil.apply", _op_key),
    (StencilOperator, "__init__", "stencil.assemble", _no_key),
    (StencilOperator, "assemble_dense", "stencil.assemble", _no_key),
    (multigrid, "gmres_smooth", "smoother.smooth", _second_shape),
    (multigrid, "poly3_smooth", "smoother.smooth", _second_shape),
    (multigrid, "restrict", "multigrid.restrict", _first_shape),
    (multigrid, "prolong", "multigrid.prolong", _first_shape),
    (multigrid, "coarse_solve", "multigrid.coarse_solve", _second_shape),
    (multigrid, "lu_factor", "multigrid.coarse_lu", _no_key),
    (multigrid, "design_for_operator", "spectrum.design", _level_key),
    (multigrid, "jacobi_weights_for", "spectrum.weights", _second_shape),
    (multigrid, "coarsen_grid", "grid.build", _no_key),
    (multigrid, "coarsen_field", "grid.build", _no_key),
    (problems, "build_stretched_grid", "grid.build", _no_key),
    (problems, "build_wavenumber_field", "grid.build", _no_key),
    (problems, "rotate_grid", "grid.build", _no_key),
)


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.solve_id = "setup"

    def wrap(self, fn, name, key=_no_key):
        """``fn`` with a span recorded around every call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, key(args, kwargs), t0, t1, parent, self.solve_id)

        return traced

    @contextmanager
    def installed(self):
        """Replace every traced library name for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, key in TARGETS:
                setattr(owner, attr, self.wrap(owner.__dict__[attr], name, key))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_times(self) -> list:
        """``(name, key, duration, self_time, parent)`` per span; self time
        is the duration minus the durations of the span's children."""
        child = [0.0] * len(self.spans)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [
            (name, key, t1 - t0, t1 - t0 - child[i], parent)
            for i, (name, key, t0, t1, parent, _) in enumerate(self.spans)
        ]

    def write(self, path) -> None:
        """Spans as CSV, times in seconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["index", "name", "key", "start_s", "end_s", "parent", "solve_id"])
            for i, (name, key, t0, t1, parent, solve_id) in enumerate(self.spans):
                key = "x".join(map(str, key)) if isinstance(key, tuple) else key
                w.writerow([i, name, key, f"{t0 - origin:.9f}", f"{t1 - origin:.9f}", parent, solve_id])
