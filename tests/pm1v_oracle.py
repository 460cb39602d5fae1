"""Frozen PM1V step on its own stage loop: the oracle for the closed-form p1.

This is ``coupling.pm1v_step`` as the solver computed it when PM1V ran a
stage loop of its own: the RHS carries the frozen -grad p_n, every stage is
projected without scaling (lap phi_i = div U*_i, U_i = U*_i - grad phi_i),
the recursion continues with the projected stages (the non-dual mode of
``step_oracle``'s recursions), and p_{n+1} = zero_mean(p_n + (2/dt) phi_{s+1}).
RK4 is frozen here in its expression form.
"""

from types import SimpleNamespace

import numpy as np

import step_oracle
from chebflow.coupling import CouplingState
from chebflow.grid import VelocityField, zero_mean
from chebflow.spatial import gradient_to_faces

_RK4_A = ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
_RK4_B = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)
_RK4_C = (0.0, 0.5, 0.5, 1.0)


def rk4_step(f, y, t, dt, hook):
    y = np.asarray(y, dtype=float)
    fs = []
    for i, row in enumerate(_RK4_A):
        y_star = y + dt * sum(a * fk for a, fk in zip(row, fs) if a)
        if i == 0:
            y_proc = y
        else:
            _, y_proc = step_oracle._stage(hook, i + 1, _RK4_C[i], t + _RK4_C[i] * dt, y_star)
        fs.append(f(t + _RK4_C[i] * dt, y_proc))
    y_star = y + dt * sum(b * fk for b, fk in zip(_RK4_B, fs))
    return step_oracle._stage(hook, 5, 1.0, t + dt, y_star)[1]


def _project_unscaled(system, w_star, t):
    work = system.work
    div = system.divergence_of(w_star, t, out=work.div)
    phi = system.poisson.solve(div)
    gradient_to_faces(phi, system.spec, out=VelocityField.views(work.grad, system.spec.N))
    return w_star - work.grad, phi


def pm1v_step(state, system, stepper, dt):
    """One fixed PM1V step from ``state``; returns the new CouplingState."""
    log = []

    def project(i, ci, ti, w_star):
        w, phi = _project_unscaled(system, w_star, ti)
        log.append((i, ci, phi))
        return w

    hook = SimpleNamespace(dual=False, callback=project)
    f = system.rhs_flat(system.rhs_config(), state.p)
    y = state.u.flatten()
    if stepper.method == "rkc":
        w_new, _ = step_oracle.rkc_step(f, y, state.t, dt, stepper.tableau, hook)
    elif stepper.method == "rock2":
        w_new, _ = step_oracle.rock2_step(f, y, state.t, dt, stepper.tableau, hook)
    else:
        w_new = rk4_step(f, y, state.t, dt, hook)
    p_new = zero_mean(state.p + (2.0 / dt) * log[-1][2])
    return CouplingState(VelocityField.views(w_new, system.spec.N), p_new, state.t + dt,
                         phi_log=log)
