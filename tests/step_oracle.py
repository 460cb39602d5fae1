"""Frozen expression-form stage recursions: the oracle for the in-place ones.

These are ``rkc_step`` and ``rock2_step`` written as whole-array
expressions, one temporary per operation, as the solver computed them
before its steps did their stage arithmetic in place.  The in-place steps
must reproduce them bit for bit.
"""

import numpy as np

from chebflow.integrators import IntegrationDiverged


def _stage(hook, i, ci, ti, g_star):
    if not np.isfinite(g_star).all():
        raise IntegrationDiverged(i)
    if hook is None:
        return g_star, g_star
    g_proc = hook.callback(i, ci, ti, g_star)
    return (g_star if hook.dual else g_proc), g_proc


def rkc_step(f, y, t, dt, tableau, hook=None, err_norm=None):
    if err_norm is not None and hook is not None:
        raise ValueError("RKC error estimate is invalid when stages are projected")
    tab = tableau
    s, c = tab.s, tab.c
    y = np.asarray(y, dtype=float)
    f0 = f(t, y)

    prev2_s = y
    prev_s, prev_p = _stage(hook, 2, c[1], t + c[1] * dt, y + tab.kappa1 * dt * f0)
    for j in range(2, s + 1):
        fj = f(t + c[j - 1] * dt, prev_p)
        g_star = (y + tab.mu[j] * (prev_s - y) + tab.nu[j] * (prev2_s - y)
                  + tab.kappa[j] * dt * (fj - tab.a[j - 1] * f0))
        prev2_s = prev_s
        prev_s, prev_p = _stage(hook, j + 1, c[j], t + c[j] * dt, g_star)
    y1 = prev_p
    err = None
    if err_norm is not None:
        d = (12.0 * (y - y1) + 6.0 * dt * (f0 + f(t + dt, y1))) / 15.0
        err = err_norm(d, y)
    return y1, err


def rock2_step(f, y, t, dt, tableau, hook=None, err_norm=None):
    tab = tableau
    s, c = tab.s, tab.c
    y = np.asarray(y, dtype=float)

    prev2_s = y
    prev_s, prev_p = _stage(hook, 2, c[1], t + c[1] * dt, y + tab.mu[1] * dt * f(t, y))
    for j in range(2, s - 1):
        fj = f(t + c[j - 1] * dt, prev_p)
        g_star = tab.mu[j] * dt * fj - tab.nu[j] * prev_s - tab.kappa[j] * prev2_s
        prev2_s = prev_s
        prev_s, prev_p = _stage(hook, j + 1, c[j], t + c[j] * dt, g_star)

    f_sm2 = f(t + c[s - 2] * dt, prev_p)
    last_s, last_p = _stage(hook, s, c[s - 1], t + c[s - 1] * dt,
                            prev_s + tab.sigma * dt * f_sm2)

    f_sm1 = f(t + c[s - 1] * dt, last_p)
    err_vec = tab.sigma * (1.0 - tab.tau / tab.sigma**2) * dt * (f_sm1 - f_sm2)
    _, y1 = _stage(hook, s + 1, c[s], t + c[s] * dt,
                   last_s + tab.sigma * dt * f_sm1 - err_vec)
    err = err_norm(err_vec, y) if err_norm is not None else None
    return y1, err
