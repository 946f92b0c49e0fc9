"""Shared builders; heavyweight spectral designs are session-scoped."""

import numpy as np
import pytest
from hypothesis import settings

from helmgrid import (
    ConstantK,
    StencilOperator,
    build_hierarchy,
    build_stretched_grid,
    build_wavenumber_field,
    rotate_grid,
)
from helmgrid.problems import ProblemConfig, setup_problem

# property tests draw the same examples on every run (derandomize also turns
# off the example database), and no example is failed for its run time
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


MODES = ("physical", "precond_grid", "precond_csl")


def operator_for(mode, g, kf, beta=0.5):
    """The physical, shifted-grid or CSL operator on one grid and k-field."""
    if mode == "physical":
        return StencilOperator(g, kf)
    if mode == "precond_csl":
        return StencilOperator(g, kf, 1 + 1j * beta)
    return StencilOperator(rotate_grid(g, beta), kf)


def make_operator(n, k, sigma_max=0.0, layer_width=None, mode="precond_grid", beta=0.5):
    g = build_stretched_grid(n, layer_width, sigma_max)
    return operator_for(mode, g, build_wavenumber_field(ConstantK(k), g), beta)


def random_field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="session")
def op31():
    """Shifted constant-coefficient operator, n=31, kh = 0.625."""
    return make_operator(31, 20.0)


@pytest.fixture(scope="session")
def hier31_poly3(op31):
    return build_hierarchy(op31, smoother="poly3")


@pytest.fixture(scope="session")
def hier31_gmres(op31):
    return build_hierarchy(op31)


@pytest.fixture(scope="session", params=("grid", "csl"))
def hier31_stretched_poly3(request):
    """poly3 hierarchy at n=31, k=20 behind a strong layer (sigma_max=2)."""
    config = ProblemConfig(
        n=31, k=ConstantK(20.0), sigma_max=2.0, smoother="poly3", precond=request.param
    )
    return setup_problem(config).hierarchy
