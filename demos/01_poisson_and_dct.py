"""Fast cosine transforms and the direct Neumann Poisson solver.

The pressure-type Poisson problems of the flow solver live on cell centers
with homogeneous Neumann walls.  In the DCT basis the five-point Laplacian
is diagonal, so one forward transform, one scaling and one inverse
transform solve the problem exactly (up to rounding).
"""

import time

import numpy as np

from chebflow.dct import DctPlan, dct, idct
from chebflow.poisson import PoissonSolver

# -- the four interchangeable transform algorithms --------------------------

rng = np.random.RandomState(0)
N = 256
f = rng.randn(N)
reference = dct(DctPlan(N, "naive"), f)
print(f"DCT of length {N}, max |F_k| = {np.max(np.abs(reference)):.3f}")
for algorithm in ("iterative", "recursive", "hybrid"):
    plan = DctPlan(N, algorithm)
    t0 = time.perf_counter()
    for _ in range(50):
        F = dct(plan, f)
    elapsed = (time.perf_counter() - t0) / 50
    err = np.max(np.abs(F - reference)) / np.max(np.abs(reference))
    rt = np.max(np.abs(idct(plan, F) - f))
    print(f"  {algorithm:10s}: vs direct sums {err:.2e}, round trip {rt:.2e}, "
          f"{elapsed * 1e3:.2f} ms")

# -- solving lap u = f with Neumann walls ------------------------------------

N = 64
solver = PoissonSolver(N, "hybrid")
x = (np.arange(N) + 0.5) / N
# a smooth, zero-mean right-hand side
rhs = np.cos(2 * np.pi * x)[:, None] * np.cos(np.pi * x)[None, :]
rhs -= rhs.mean()
u = solver.solve(rhs)

# residual against the mirrored five-point Laplacian
p = np.pad(u, 1, mode="edge")
lap = (p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2]
       - 4 * u) * N**2
print(f"\nPoisson solve on {N}x{N}: residual {np.max(np.abs(lap - rhs)):.2e}, "
      f"solution mean {u.mean():.2e} (zero-mean gauge)")

# an incompatible constant component, the mean of the rhs, is projected out silently
rhs2 = rhs + 0.37
u2 = solver.solve(rhs2)
print(f"constant rhs component: discarded mean {rhs2.mean():.3f}, "
      f"solution unchanged: {np.max(np.abs(u2 - u)):.2e}")
