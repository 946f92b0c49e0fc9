"""FGMRES on the physical Helmholtz problem, the wedge case, and the k-sweep.

The outer solver is flexible right-preconditioned GMRES; the preconditioner is
one V-cycle on the shifted operator.  The wedge problem has three bands of
wave number, so waves from the fast region become evanescent in the slow one;
its coarse-grid corrections can locally amplify the residual, which the
diagnostics record while the outer iteration converges regardless.
"""

import numpy as np

from helmgrid import ConstantK, WedgeK
from helmgrid.problems import ProblemConfig, solve, solve_baseline, sweep

# constant-k model problem
config = ProblemConfig(n=63, k=ConstantK(40.0))
x, report, problem = solve(config)
print(f"constant k = 40, n = 63: converged = {report.converged} "
      f"in {report.iterations} iterations ({report.wall_time:.2f}s)")

_, base = solve_baseline(config, problem=problem)
print(f"unpreconditioned restarted GMRES on the same system: "
      f"{base.iterations} iterations ({base.status})")

# wedge with evanescent waves
wedge = ProblemConfig(n=63, k=WedgeK(10.0, 20.0, 40.0))
x, report, problem = solve(wedge, collect_diagnostics=True)
ratios = report.diagnostics.cgc_ratios()
print(f"\nwedge 10/20/40, n = 63: converged = {report.converged} "
      f"in {report.iterations} iterations")
print(f"coarse-grid-correction ratios recorded: {ratios.size}, "
      f"of which {int(np.sum(ratios > 1))} exceeded 1 (max {ratios.max():.2f})")
print("divergent corrections are recorded, not masked; FGMRES absorbs them")

# iteration growth with the wave number
rows, fit = sweep([10, 20, 40, 80], ppw=10.0)
print("\nsweep at 10 points per wavelength:")
print("      k     n   iterations")
for r in rows:
    print(f"  {r['k']:5.0f} {r['n']:5d} {r['iterations']:8d}")
print(f"iterations grow linearly with k: slope {fit['slope']:.2f}, "
      f"R^2 = {fit['r_squared']:.3f}")
