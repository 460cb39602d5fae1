"""Lid-driven cavity at Re = 100 on a coarse grid.

A short adaptive run toward the steady state; the centerline profiles are
the quantities usually compared against published benchmark tables (the
`ghia` CLI subcommand does that against a user-supplied CSV).
"""

import numpy as np

from chebflow.bench import RunConfig, centerline_profiles, run_simulation

cfg = RunConfig(problem="cavity", re=100.0, nx=32, adaptive=True,
                atol=1e-3, rtol=1e-3, dt=1e-3, t_end=10.0,
                integrator="rock2", coupling="dae", pressure="p1")
rep = run_simulation(cfg)
print(f"reached t={rep.t_final:g} in {rep.steps_accepted} steps "
      f"({rep.steps_rejected} rejected, {rep.avg_stages:.1f} stages/step, "
      f"{rep.wall_time:.1f}s)")

(yk, u_prof), (xk, v_prof) = centerline_profiles(rep)
print(f"u on the vertical centerline: min {u_prof.min():+.4f}, "
      f"lid value {u_prof[-1]:+.4f}")
print(f"v on the horizontal centerline: min {v_prof.min():+.4f}, "
      f"max {v_prof.max():+.4f}")

# a crude ASCII picture of u(0.5, y)
print("\n   y     u(0.5, y)")
for k in range(0, len(yk), max(1, len(yk) // 17)):
    bar = int(30 + 25 * u_prof[k])
    print(f"{yk[k]:5.2f}  {u_prof[k]:+7.3f}  " + " " * bar + "*")
