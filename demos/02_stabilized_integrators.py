"""RKC and ROCK2: stability intervals growing like s^2 and adaptivity.

Both methods buy stability along the negative real axis with extra cheap
stages: the usable interval grows like 0.653 s^2 (RKC) and 0.811 s^2
(ROCK2).  That turns a diffusion-limited step restriction dt ~ dx^2 into a
free parameter chosen by accuracy alone.
"""

import numpy as np

from chebflow.grid import weighted_rms_norm
from chebflow.integrators import (StepController, propose_dt, rkc_tableau,
                                  rkc_step, rock2_step, rock2_tableau,
                                  select_stages, stability_poly_eval)

# -- stability intervals ------------------------------------------------------

print("measured |R(z)| <= 1 interval vs the growth laws:")
for method, growth in (("rkc", 0.653), ("rock2", 0.811)):
    for s in (5, 10, 20):
        z = -np.linspace(1e-3, 1.3 * growth * s * s, 20000)
        R = stability_poly_eval(method, s, z)
        bad = np.where(np.abs(R) > 1.0)[0]
        l_measured = -z[bad[0] - 1] if len(bad) else -z[-1]
        print(f"  {method:6s} s={s:3d}: {l_measured:8.2f}  "
              f"({l_measured / (growth * s * s):5.3f} x {growth} s^2)")

# -- a mildly stiff linear problem -------------------------------------------

# y' = A y with eigenvalues spread to -2000: forward Euler would need
# dt < 1e-3; ROCK2 takes dt = 0.05 with a dozen stages.  The initial state
# is smooth (little energy on the stiff modes), the typical parabolic case.
rng = np.random.RandomState(1)
n = 40
Q, _ = np.linalg.qr(rng.randn(n, n))
lam = -np.linspace(1.0, 2000.0, n)
A = (Q * lam) @ Q.T
f = lambda t, y: A @ y
y0 = Q @ (rng.randn(n) / (1.0 + np.abs(lam)))
exact = Q @ (np.exp(lam * 1.0) * (Q.T @ y0))

rho = 2000.0
dt = 0.05
for method in ("rkc", "rock2"):
    s = select_stages(dt, rho, method)
    tab = rkc_tableau(s) if method == "rkc" else rock2_tableau(s)
    step = rkc_step if method == "rkc" else rock2_step
    y, t = y0.copy(), 0.0
    while t < 1.0 - 1e-12:
        y, _ = step(f, y, t, dt, tab)
        t += dt
    print(f"{method}: dt={dt}, {s} stages/step, error vs exp(A) "
          f"{np.max(np.abs(y - exact)):.2e}")

# -- embedded error estimate and the step controller --------------------------

ctrl = StepController(atol=1e-6, rtol=1e-6)
tab = rock2_tableau(13)
y, t, dt = y0.copy(), 0.0, 1e-4
steps = rejects = 0
while t < 1.0 - 1e-12:
    dt = min(dt, 1.0 - t)
    y_new, err = rock2_step(f, y, t, dt, tab, err_norm=ctrl.norm)
    dt_new, accept = propose_dt(ctrl, err, dt)
    if accept:
        y, t = y_new, t + dt
        steps += 1
    else:
        rejects += 1
    dt = dt_new
print(f"adaptive rock2 (s=13): {steps} steps, {rejects} rejected, "
      f"final error {np.max(np.abs(y - exact)):.2e}")
