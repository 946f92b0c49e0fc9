"""Shared builders; heavyweight spectral designs are session-scoped."""

import numpy as np
import pytest
from hypothesis import settings

from helmgrid import (
    ConstantK,
    SmootherKind,
    StencilOperator,
    build_hierarchy,
    build_stretched_grid,
    build_wavenumber_field,
    rotate_grid,
)

# property tests draw the same examples on every run (derandomize also turns
# off the example database), and no example is failed for its run time
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def make_operator(n, k, sigma_max=0.0, layer_width=None, mode="precond_grid", beta=0.5):
    g = build_stretched_grid(n, layer_width, sigma_max)
    kf = build_wavenumber_field(ConstantK(k), g)
    if mode == "physical":
        return StencilOperator(g, kf, mode="physical")
    if mode == "precond_csl":
        return StencilOperator(g.with_kind("precond_csl"), kf, mode="precond_csl", csl_beta=beta)
    return StencilOperator(rotate_grid(g, beta), kf, mode="precond_grid")


def random_field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="session")
def op31():
    """Shifted constant-coefficient operator, n=31, kh = 0.625."""
    return make_operator(31, 20.0)


@pytest.fixture(scope="session")
def hier31_poly3(op31):
    return build_hierarchy(op31, smoother=SmootherKind("poly3"))


@pytest.fixture(scope="session")
def hier31_gmres(op31):
    return build_hierarchy(op31)
