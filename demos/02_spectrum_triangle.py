"""The triangle bound and the cubic smoother weights, level by level.

For each level that is smoothed (every level but the coarsest, which band LU
solves exactly) we sample the Jacobi-normalized symbol of the shifted operator over all
frozen (spacing, k) pairs.  With a positive shift every sample lands
in the lower half of the complex plane; a near-minimal triangle encloses them,
and the three damped-Jacobi weights are chosen so the cubic
p(z) = (1 - w1 z)(1 - w2 z)(1 - w3 z) satisfies |p| <= 1 on the whole triangle
while being as small as possible on the high-frequency hull.  Both maxima
are exact: along each edge |p|^2 is a real sextic whose maxima are roots of a
quintic.  One cutting-plane loop designs every level's cubic: each round is
one LP over all levels that still need cuts.
"""

import numpy as np

from helmgrid import (
    ConstantK,
    StencilOperator,
    build_hierarchy,
    build_stretched_grid,
    build_wavenumber_field,
    rotate_grid,
    symbol_samples,
)

g = build_stretched_grid(63, sigma_max=1.0)
kf = build_wavenumber_field(ConstantK(40.0), g)
op = StencilOperator(rotate_grid(g, 0.5), kf)
hier = build_hierarchy(op, smoother="poly3")

print("level-by-level spectral design (n = 63, k = 40, beta = 0.5, sigma_max = 1):")
for ell, level in enumerate(hier.levels[:-1]):
    ss = symbol_samples(level.op)
    tri = level.design.triangle
    w = level.design.weights
    print(f"\nlevel {ell}: {level.shape[0]}x{level.shape[1]}")
    print(f"  samples: {ss.points.size}, Im range "
          f"[{ss.points.imag.min():+.4f}, {ss.points.imag.max():+.4f}] (all below the axis)")
    print(f"  triangle vertices: " + ", ".join(f"{v:.3f}" for v in tri.vertices))
    print(f"  max Im(vertex) = {tri.vertices.imag.max():+.2e}  (lower half-plane)")
    print(f"  contains all samples: {bool(np.all(tri.contains(ss.points, 1e-10)))}")
    print(f"  weights: " + ", ".join(f"{x:.3f}" for x in w.w))
    print(f"  certified (exact max on every edge): |p| on triangle = "
          f"{w.achieved_stability:.6f} (stable <= 1), "
          f"on high-frequency hull = {w.achieved_smoothing:.3f}")

coarsest = hier.levels[-1]
assert coarsest.design is None and coarsest.jacobi_w is None
print(f"\nlevel {hier.depth - 1}: {coarsest.shape[0]}x{coarsest.shape[1]}, solved by band LU "
      "and never smoothed, so it gets no design")
