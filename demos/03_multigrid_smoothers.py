"""V-cycle contraction with the cubic smoother versus the GMRES(3) smoother.

Both smoothers run inside the same hierarchy on the shifted operator.  The
cubic is a fixed linear operation certified by the triangle bound; GMRES(3)
re-selects its three coefficients from the current defect at every call,
which makes each cycle slightly different -- and usually stronger.
"""

import numpy as np

from helmgrid import (
    ConstantK,
    StencilOperator,
    build_hierarchy,
    build_stretched_grid,
    build_wavenumber_field,
    rotate_grid,
    v_cycle,
)

n, k = 63, 20.0
g = build_stretched_grid(n, layer_width=0, sigma_max=0.0)
kf = build_wavenumber_field(ConstantK(k), g)
op = StencilOperator(rotate_grid(g, 0.5), kf)

rng = np.random.default_rng(1)
u_star = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
b = op.apply(u_star)

for name, smoother in (("poly3 (three damped Jacobi sweeps)", "poly3"), ("gmres3", "gmres3")):
    hier = build_hierarchy(op, smoother=smoother)
    u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    err = np.linalg.norm(u - u_star)
    ratios = []
    for _ in range(8):
        u, _ = v_cycle(hier, b, u)
        err_new = np.linalg.norm(u - u_star)
        ratios.append(err_new / err)
        err = err_new
    print(f"{name}:")
    print("  per-cycle error ratios:", " ".join(f"{r:.3f}" for r in ratios))
    print(f"  geometric mean contraction: {np.prod(ratios) ** (1 / len(ratios)):.3f}\n")

print("the cubic smoother is the certified, fixed-polynomial bound;")
print("GMRES(3) picks its coefficients per defect and contracts faster")
