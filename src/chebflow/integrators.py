"""Stabilized explicit Runge-Kutta steppers and step-size control.

RKC realizes the shifted/damped Chebyshev stability polynomial
``R_s(z) = a_s + b_s T_s(w0 + w1 z)`` through a three-term stage recursion;
ROCK2 realizes ``w(z) P_{s-2}(z)`` through a tabulated recursion plus a
two-stage finishing procedure.  PIROCK couples the ROCK2 diffusion
propagation with an explicit advection treatment (the reaction branch and
its implicit stages are not implemented; only the fixed-step l = 2 variant
is, for which the diffusion part coincides with ROCK2).

Every stage of RKC/ROCK2/RK4 can be routed through a :class:`StageHook`,
which is how the incompressibility couplings project stages.  The
right-hand side is evaluated at the processed stages, and the recursion
advances with them (the per-stage projection variant of the projection
method) or, under the hook's ``dual`` flag, with the *unprocessed* ones (the
realization consistent with the index-2 DAE formulation).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np


STAGE_CAP = 200
RKC_STAGES = range(2, STAGE_CAP + 1)
RKC_GROWTH = 0.653
RKC_EPS = 0.15        # RKC damping parameter
ROCK2_GROWTH = 0.811


class IntegrationDiverged(RuntimeError):
    """Raised when a stage turns non-finite; carries the stage index."""

    def __init__(self, stage: int):
        super().__init__(f"diverged at stage {stage}")
        self.stage = stage


@dataclass(frozen=True)
class StageHook:
    """Per-stage processing for the incompressibility couplings.

    ``callback(i, c_i, t_i, y_star) -> y_processed`` receives the stage
    index i (stages are numbered U_1..U_{s+1}; U_1 is never passed), the
    node c_i, the stage time t_i and the unprocessed stage vector.
    ``dual`` advances the recursion with the unprocessed stages.
    """

    dual: bool
    callback: Callable


def _check_finite(y, stage):
    if not np.isfinite(y).all():
        raise IntegrationDiverged(stage)


def _stage(hook, i, ci, ti, g_star):
    """Stage U_i at node ci, time ti: check it, process it through the hook,
    and return the pair (the vector the recursion continues with, the one
    the next RHS is evaluated at); a dual hook continues unprocessed."""
    _check_finite(g_star, i)
    if hook is None:
        return g_star, g_star
    g_proc = hook.callback(i, ci, ti, g_star)
    return (g_star if hook.dual else g_proc), g_proc


# ---------------------------------------------------------------------------
# RKC
# ---------------------------------------------------------------------------

def _chebyshev_at(s: int, x: float):
    """T_j(x), T_j'(x), T_j''(x) for j = 0..s by the differentiated recursions."""
    T = np.zeros(s + 1)
    Tp = np.zeros(s + 1)
    Tpp = np.zeros(s + 1)
    T[0] = 1.0
    if s >= 1:
        T[1], Tp[1] = x, 1.0
    for j in range(1, s):
        T[j + 1] = 2 * x * T[j] - T[j - 1]
        Tp[j + 1] = 2 * T[j] + 2 * x * Tp[j] - Tp[j - 1]
        Tpp[j + 1] = 4 * Tp[j] + 2 * x * Tpp[j] - Tpp[j - 1]
    return T, Tp, Tpp


@dataclass(frozen=True)
class RkcTableau:
    """RKC recursion coefficients for ``s`` stages and damping parameter eps.

    Arrays are indexed by the recursion index j (entries below the first
    valid j are unused).  ``c`` holds the nodes of the stages g_0..g_s,
    which are the DAE stages U_1..U_{s+1}, computed by running the
    recursion on y' = 1; the final node is 1.
    """

    s: int
    eps: float
    w0: float
    w1: float
    a: np.ndarray
    b: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    kappa: np.ndarray
    kappa1: float
    c: np.ndarray

    @property
    def damping(self) -> float:
        return float(self.a[self.s] + self.b[self.s])


def rkc_tableau(s: int, eps: float = RKC_EPS) -> RkcTableau:
    if s not in RKC_STAGES:
        raise ValueError(f"RKC runs {RKC_STAGES[0]} to {STAGE_CAP} stages, not {s}")
    if eps <= 0:
        raise ValueError("damping parameter must be positive")
    w0 = 1.0 + eps / s**2
    T, Tp, Tpp = _chebyshev_at(s, w0)
    w1 = Tp[s] / Tpp[s]
    b = np.zeros(s + 1)
    b[2:] = Tpp[2:] / Tp[2:] ** 2
    b[0] = b[1] = b[2]
    a = 1.0 - b * T
    mu = np.zeros(s + 1)
    nu = np.zeros(s + 1)
    kappa = np.zeros(s + 1)
    j = np.arange(2, s + 1)
    mu[2:] = 2 * b[j] * w0 / b[j - 1]
    nu[2:] = -b[j] / b[j - 2]
    kappa[2:] = 2 * b[j] * w1 / b[j - 1]
    kappa1 = b[1] * w1
    c = np.zeros(s + 1)
    c[1] = kappa1
    for jj in range(2, s + 1):
        c[jj] = mu[jj] * c[jj - 1] + nu[jj] * c[jj - 2] + kappa[jj] * (1.0 - a[jj - 1])
    return RkcTableau(s=s, eps=eps, w0=w0, w1=w1, a=a, b=b, mu=mu, nu=nu,
                      kappa=kappa, kappa1=kappa1, c=c)


def rkc_step(f, y, t, dt, tableau: RkcTableau, hook: Optional[StageHook] = None,
             err_norm=None):
    """One RKC step; returns (y_next, err) with err None unless requested.

    The local-error estimate (based on an approximation of y''' that assumes
    a plain ODE) is only valid without per-stage processing, so requesting
    it with a hook is refused.
    """
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


# ---------------------------------------------------------------------------
# ROCK2 (vendored coefficient table)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rock2Tableau:
    """ROCK2 recursion coefficients for one tabulated stage count.

    ``mu[j]``, ``nu[j]``, ``kappa[j]`` drive the three-term recursion
    (j = 1..s-2 for the method itself; entries up to j = s extend the same
    orthogonal family and are used by the PIROCK coupling stages).
    ``sigma``/``tau`` are the finishing coefficients; the assembled weights
    are b_{s-1} = 2 sigma - tau/sigma and b_s = tau/sigma.
    ``c`` holds the nodes of the method's stages U_1..U_{s+1}: g_0..g_{s-2},
    then g_{s-1} and y1 from the finishing procedure.
    """

    s: int
    sigma: float
    tau: float
    mu: np.ndarray
    nu: np.ndarray
    kappa: np.ndarray
    c_ext: np.ndarray = field(repr=False)   # nodes of g_0..g_s under the plain recursion
    c: np.ndarray


def _parse_rock2_table(path):
    records = {}
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    for i in range(0, len(lines), 4):
        head = lines[i].split()
        if head[0] != "s":
            raise ValueError(f"corrupt ROCK2 table near: {lines[i][:60]}")
        kv = dict(zip(head[0::2], head[1::2]))
        s = kv.get("s")
        try:
            s = int(s)
            sigma, tau = float(kv["sigma"]), float(kv["tau"])
            mu, nu, ka = (np.array([float(x) for x in lines[i + k].split()[1:]])
                          for k in (1, 2, 3))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt ROCK2 record for s={s} in {path}: "
                             f"{type(exc).__name__} {exc}") from None
        if len(mu) != s or len(nu) != s - 1 or len(ka) != s - 1:
            raise ValueError(f"corrupt ROCK2 record for s={s} in {path}: "
                             "wrong number of coefficients")
        records[s] = dict(sigma=sigma, tau=tau, mu=mu, nu=nu, kappa=ka)
    return records


@functools.cache
def _rock2_records() -> dict:
    """The vendored coefficient table, read once."""
    return _parse_rock2_table(os.path.join(os.path.dirname(__file__), "data",
                                           "rock2_coeffs.txt"))


def rock2_degrees():
    """Sorted stage counts available in the coefficient table."""
    return sorted(_rock2_records())


def nearest_stage_counts(counts, s: int) -> str:
    """The entries of ``counts`` just below and just above s, as text."""
    below = max((d for d in counts if d < s), default=None)
    above = min((d for d in counts if d > s), default=None)
    return ", ".join(str(d) for d in (below, above) if d is not None)


def rock2_tableau(s: int) -> Rock2Tableau:
    records = _rock2_records()
    if s not in records:
        raise ValueError(f"ROCK2 degree s={s} not in table; nearest available: "
                         f"{nearest_stage_counts(records, s)}")
    rec = records[s]
    mu = np.zeros(s + 1)
    nu = np.zeros(s + 1)
    ka = np.zeros(s + 1)
    mu[1:] = rec["mu"]
    nu[2:] = rec["nu"]
    ka[2:] = rec["kappa"]
    c_ext = np.zeros(s + 1)
    c_ext[1] = mu[1]
    for j in range(2, s + 1):
        c_ext[j] = mu[j] - nu[j] * c_ext[j - 1] - ka[j] * c_ext[j - 2]
    c = np.zeros(s + 1)
    c[:s - 1] = c_ext[:s - 1]                      # g_0..g_{s-2}
    c[s - 1] = c_ext[s - 2] + rec["sigma"]         # g_{s-1}
    c[s] = c_ext[s - 2] + 2 * rec["sigma"]         # y1
    tab = Rock2Tableau(s=s, sigma=rec["sigma"], tau=rec["tau"], mu=mu, nu=nu,
                       kappa=ka, c_ext=c_ext, c=c)
    A, b, c = butcher_tableau(tab)
    if abs(b.sum() - 1.0) > 1e-10 or abs((b * c[:-1]).sum() - 0.5) > 1e-10:
        raise ValueError(f"ROCK2 table record s={s} violates the order conditions")
    return tab


def rock2_step(f, y, t, dt, tableau: Rock2Tableau, hook: Optional[StageHook] = None,
               err_norm=None):
    """One ROCK2 step; the embedded error estimate is valid in every mode."""
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

    # finishing: g_{s-1}, then y1 assembled from g*_s and the correction
    f_sm2 = f(t + c[s - 2] * dt, prev_p)
    last_s, last_p = _stage(hook, s, c[s - 1], t + c[s - 1] * dt,
                            prev_s + tab.sigma * dt * f_sm2)

    f_sm1 = f(t + c[s - 1] * dt, last_p)
    err_vec = tab.sigma * (1.0 - tab.tau / tab.sigma**2) * dt * (f_sm1 - f_sm2)
    _, y1 = _stage(hook, s + 1, c[s], t + c[s] * dt,
                   last_s + tab.sigma * dt * f_sm1 - err_vec)
    err = err_norm(err_vec, y) if err_norm is not None else None
    return y1, err


# ---------------------------------------------------------------------------
# PIROCK (fixed step, l = 2, no reaction terms)
# ---------------------------------------------------------------------------

def pirock_step(f_diffusion, f_advection, y, t, dt, tableau: Rock2Tableau):
    """One PIROCK step for y' = F_D(y) + F_A(y), reaction-free, l = 2.

    The diffusion propagation is exactly ROCK2; two extra recursion stages
    provide the base point for the advection coupling, whose weights and the
    beta = 1 - 2 P_s'(0) factor make the combination second order.  Time
    dependence is handled by carrying t as an extra state component advanced
    by the diffusion quadrature, which reproduces the ROCK2 stage times
    exactly when the advection term vanishes.
    """
    tab = tableau
    s = tab.s
    y = np.asarray(y, dtype=float)
    n = y.size

    def FD(k):
        out = np.empty(n + 1)
        out[:n] = f_diffusion(k[n], k[:n])
        out[n] = 1.0
        return out

    def FA(k):
        out = np.empty(n + 1)
        out[:n] = f_advection(k[n], k[:n])
        out[n] = 0.0
        return out

    k0 = np.append(y, t)
    k_prev2 = k0
    k_prev = k0 + tab.mu[1] * dt * FD(k0)
    _check_finite(k_prev, 2)
    for j in range(2, s + 1):
        fd_prev = FD(k_prev)
        if j == s - 1:
            k_sm2, fd_sm2 = k_prev, fd_prev   # reuse FD(K_{s-2})
        k_new = tab.mu[j] * dt * fd_prev - tab.nu[j] * k_prev - tab.kappa[j] * k_prev2
        _check_finite(k_new, j + 1)
        k_prev2, k_prev = k_prev, k_new
    K = k_prev                       # K_{s-2+l} with l = 2
    fd_K = FD(K)
    ks_m1 = k_sm2 + tab.sigma * dt * fd_sm2
    fd_sm1 = FD(ks_m1)
    ks_star = ks_m1 + tab.sigma * dt * fd_sm1

    gamma = 1.0 - math.sqrt(2.0) / 2.0
    beta = 1.0 - 2.0 * tab.c_ext[s]          # 1 - 2 P_s'(0)
    fa_K = FA(K)
    k_s3 = K + (1.0 - 2.0 * gamma) * dt * fa_K
    k_s4 = K + (dt / 3.0) * fa_K
    k_s5 = K + (2.0 / 3.0) * beta * dt * fd_K + (2.0 / 3.0) * dt * FA(k_s4)

    y1 = (ks_star
          - tab.sigma * (1.0 - tab.tau / tab.sigma**2) * dt * (fd_sm1 - fd_sm2)
          + 0.25 * dt * fa_K
          + 0.75 * dt * FA(k_s5)
          + dt / (2.0 - 4.0 * gamma) * (FD(k_s3) - fd_K))
    _check_finite(y1, s + 6)
    return y1[:n]


# ---------------------------------------------------------------------------
# RK4 reference
# ---------------------------------------------------------------------------

_RK4_A = ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
_RK4_B = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)
_RK4_C = (0.0, 0.5, 0.5, 1.0)


def rk4_step(f, y, t, dt, hook: Optional[StageHook] = None):
    """Classical RK4 step; a hook processes the stages the RHS is evaluated at
    and the result (``dual`` is moot: stages are built from y and RHS values)."""
    y = np.asarray(y, dtype=float)
    fs = []
    for i, row in enumerate(_RK4_A):
        y_star = y + dt * sum(a * fk for a, fk in zip(row, fs) if a)
        if i == 0:
            y_proc = y
        else:
            _, y_proc = _stage(hook, i + 1, _RK4_C[i], t + _RK4_C[i] * dt, y_star)
        fs.append(f(t + _RK4_C[i] * dt, y_proc))
    y_star = y + dt * sum(b * fk for b, fk in zip(_RK4_B, fs))
    return _stage(hook, 5, 1.0, t + dt, y_star)[1]


# ---------------------------------------------------------------------------
# Butcher reconstruction
# ---------------------------------------------------------------------------

def butcher_tableau(tableau):
    """Assemble (A, b, c) from the stage recursion.

    ``A`` has one row per stage U_1..U_{s+1} (the last row is b, the
    quadrature weights); ``c`` are the row sums.  Columns correspond to
    F(U_1)..F(U_s).
    """
    if isinstance(tableau, RkcTableau):
        s = tableau.s
        A = np.zeros((s + 1, s))
        A[1, 0] = tableau.kappa1
        for j in range(2, s + 1):
            A[j] = tableau.mu[j] * A[j - 1] + tableau.nu[j] * A[j - 2]
            A[j, j - 1] += tableau.kappa[j]
            A[j, 0] -= tableau.kappa[j] * tableau.a[j - 1]
    elif isinstance(tableau, Rock2Tableau):
        s = tableau.s
        A = np.zeros((s + 1, s))
        A[1, 0] = tableau.mu[1]
        for j in range(2, s - 1):
            A[j] = -tableau.nu[j] * A[j - 1] - tableau.kappa[j] * A[j - 2]
            A[j, j - 1] += tableau.mu[j]
        A[s - 1] = A[s - 2]
        A[s - 1, s - 2] += tableau.sigma
        A[s] = A[s - 2]
        A[s, s - 2] += 2 * tableau.sigma - tableau.tau / tableau.sigma
        A[s, s - 1] += tableau.tau / tableau.sigma
    else:
        raise TypeError("unsupported tableau type")
    b = A[-1].copy()
    c = A.sum(axis=1)
    return A, b, c


@dataclass(frozen=True)
class MethodSpec:
    """The facts about one integrator that more than one site needs: its
    growth law, the stage counts it runs (ROCK2's are the degrees of the
    vendored table), its coefficients per stage count, and the couplings it
    runs and estimates its error with.  A tableau carries its stage nodes as
    ``c``.  The step call itself stays dispatched by name in
    ``coupling.Stepper.advance``, because the perfbench tracer patches the
    step functions there by name; couplings are named as in
    ``coupling.COUPLINGS``."""

    growth: Optional[float]   # stability interval growth * s^2; None: no growth law
    stage_counts: Callable    # () -> ascending stage counts it runs
    tableau: Callable         # (s) -> coefficients, None for RK4
    couplings: Optional[tuple] = None   # the couplings it runs; None: every one
    estimated: Optional[tuple] = None   # those its error estimate holds with; None: every one


_ROCK2 = MethodSpec(ROCK2_GROWTH, rock2_degrees, rock2_tableau)
METHODS = {
    # the estimate presumes unprocessed stages: adaptive runs use it with the
    # couplings that project once per step, after it (PM1, and PM3 = PM1 with
    # exact boundary derivatives)
    "rkc": MethodSpec(RKC_GROWTH, lambda: RKC_STAGES, rkc_tableau,
                      estimated=("pm1", "pm3")),
    "rock2": _ROCK2,
    # the operator split runs through PM1, at a fixed step
    "pirock": replace(_ROCK2, couplings=("pm1",), estimated=()),
    "rk4": MethodSpec(None, lambda: (4,), lambda s: None, estimated=()),
}


def method_spec(method: str) -> MethodSpec:
    """The table entry of ``method``; ValueError for an unknown name."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method]


def stability_poly_eval(method: str, s: int, z):
    """Amplification factor R(z) of one step on y' = lambda y (z = lambda dt)."""
    tab = method_spec(method).tableau(s)
    z = np.asarray(z, dtype=float)
    y0 = np.ones_like(z)
    f = lambda t, y: z * y
    if method == "rkc":
        y1, _ = rkc_step(f, y0, 0.0, 1.0, tab)
    elif method == "rock2":
        y1, _ = rock2_step(f, y0, 0.0, 1.0, tab)
    elif method == "pirock":
        y1 = pirock_step(f, lambda t, y: 0.0 * y, y0, 0.0, 1.0, tab)
    else:
        y1 = rk4_step(f, y0, 0.0, 1.0)
    return y1


# ---------------------------------------------------------------------------
# Step-size control and stage selection
# ---------------------------------------------------------------------------

# the step controller's fixed tuning: safety factor, step-ratio clamps, and the
# PI filter's exponents 0.7/k and 0.4/k on the current and the previous
# accepted error, for an order-one estimate (k = p + 1 = 2)
SAFETY = 0.95
FAC_MIN = 0.1
FAC_MAX = 10.0
ALPHA = 0.35
BETA = 0.2


@dataclass
class StepController:
    """Adaptive step state: tolerances plus the last accepted step's error.

    The controller works in the tolerance-scaled norm (a step is acceptable
    when the weighted error is <= 1) and proposes by the PI filter of
    ``propose_dt``; the tuning is fixed in module constants, so a controller
    holds only its tolerances and the memory of that filter.  A fresh
    controller remembers err_prev = 1, which makes its first proposal the
    memoryless one.
    """

    atol: float
    rtol: float
    err_prev: float = 1.0
    # the norm's scratch, reused while the state keeps its length
    _work: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def norm(self, err_vec, y) -> float:
        """``weighted_rms_norm(err_vec, y, atol, rtol)`` bit for bit, in one buffer.

        The same operations run in place, and the mean sums the same
        contiguous vector, so the result is the same to the last bit.
        """
        y = np.ravel(y)
        if self._work is None or self._work.shape != y.shape:
            self._work = np.empty(y.shape)
        w = np.abs(y, out=self._work)
        w *= self.rtol
        w += self.atol
        np.divide(np.ravel(err_vec), w, out=w)
        np.multiply(w, w, out=w)
        return float(np.sqrt(np.mean(w)))


def propose_dt(ctrl: StepController, err_new: float, dt_cur: float):
    """New step size and accept/reject flag from the weighted error.

    The PI filter (Gustafsson 1991): an accepted step proposes
    dt·SAFETY·err^-ALPHA·err_prev^BETA and stores its error (floored at
    1e-14) in ``ctrl`` as err_prev; a rejected step proposes
    dt·SAFETY·err^-ALPHA, which is below dt since err > 1 > SAFETY, and
    stores nothing, so the filter's memory is always an accepted step's.
    Every factor is clamped to [``FAC_MIN``, ``FAC_MAX``].  A non-finite
    error (an overflowing weighted norm) rejects with the smallest factor
    and stores nothing.
    """
    if err_new < 0:
        raise ValueError("error must be non-negative")
    if not math.isfinite(err_new):
        return FAC_MIN * dt_cur, False
    err = max(err_new, 1e-14)
    fac = SAFETY * err ** -ALPHA
    accept = err_new <= 1.0
    if accept:
        fac *= ctrl.err_prev ** BETA
        ctrl.err_prev = err
    return min(max(fac, FAC_MIN), FAC_MAX) * dt_cur, accept


def growth_step(growth: float, s: float, rho: float) -> float:
    """The largest step the growth law lets s stages take: growth·s²/ρ."""
    return growth * s * s / rho


def growth_stages(growth: float, dt: float, rho: float) -> float:
    """The (real) stage count the growth law needs for step dt: √(dt·ρ/growth)."""
    return math.sqrt(dt * rho / growth)


def select_stages(dt: float, rho: float, method: str, min_stages: Optional[int] = None) -> int:
    """Smallest stage count the method runs whose stability interval, by its
    growth law, covers dt * rho; RK4, without one, runs its only stage count."""
    if dt <= 0 or rho <= 0:
        raise ValueError("dt and rho must be positive")
    spec = method_spec(method)
    need = 0 if spec.growth is None else math.ceil(growth_stages(spec.growth, dt, rho) - 1e-9)
    if min_stages is not None:
        need = max(need, min_stages)
    for s in spec.stage_counts():
        if s >= need:
            return s
    raise ValueError(f"required stage count {need} exceeds the {method} stage counts")
