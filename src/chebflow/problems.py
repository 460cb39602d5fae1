"""Benchmark problems: manufactured forced flow, Green-Taylor vortex,
lid-driven cavity.

The forced flow prescribes

    u = -cos(t) sin^2(pi x) sin(2 pi y)
    v =  cos(t) sin(2 pi x) sin^2(pi y)
    p = -(sin t / 4) (2 + cos pi x)(2 + cos pi y)
        + (pi^2 / 2) cos t (cos pi x + cos pi y + cos pi x cos pi y)

(divergence-free, homogeneous Dirichlet walls) and adds the forcing
f = u_t + (u . grad) u + grad p - nu lap u in closed form; a Stokes variant
drops the advection term from both the equations and the forcing.  The
Green-Taylor vortex is an exact unforced solution with time-dependent
boundary velocities; the cavity has three resting walls and a sliding lid
(the corner discontinuity never coincides with a stored unknown on the
staggered grid: lid faces carry u = 1, side walls 0).

The closed forms separate in t and (x, y), and a study evaluates them on
the same few point sets over and over: the wall points at every stage, the
u, v and cell-centre points at each trial's set-up.  What is built once per
process, and keyed by what:

- the point sets belong to the grid: ``grid.grid_points(N)`` builds them
  once per N, as read-only arrays that every ``GridSpec`` of that N
  returns, so every trial of a study passes the same objects;
- the problems: ``make_problem`` builds each ``(name, Re, advection)``
  once, so every study of a process shares the problem's memos;
- each problem keeps its spatial factors (sin^2(pi x), the forcing's
  probed parts, ...) in small memos of its own, one per closed form, so an
  evaluation at a new t costs one multiply per factor;
- the Poisson solvers: ``poisson.shared_solver`` builds each
  ``(N, algorithm)`` once (see ``poisson``).

Sharing cannot change a result, because every cached value is derived from
its key alone: a frozen ``ProblemSpec`` whose memos are transparent, and
read-only arrays.

A memo holds only read-only arrays that own their data (the grid's) and
finds them by identity, without reading their values; it keeps the
``MEMO_POINT_SETS`` most recently used point sets.  Any other points
(writable arrays, scalars) are evaluated afresh on every call.  Every
output is computed in the same order as the written formula, so it is
bitwise what the formula gives.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import POINT_GRIDS, BoundaryData

# Point sets each memo keeps: the wall, u, v and cell-centre points of each
# grid whose point sets ``grid.grid_points`` keeps.
MEMO_POINT_SETS = 4 * POINT_GRIDS


def _frozen(a) -> bool:
    """True for an array whose values cannot change behind a memo's back."""
    return isinstance(a, np.ndarray) and not a.flags.writeable and a.base is None


def _point_memo(parts: Callable) -> Callable:
    """``parts(*points)``, computed once per set of frozen point arrays.

    The returned lookup takes the same arrays (or scalars) and returns the
    memoized result; see the module docstring for what it keeps.
    """
    entries = {}    # ids of the points -> (the points, parts)
    lock = threading.Lock()

    def lookup(*points):
        if not all(map(_frozen, points)):
            return parts(*points)
        key = tuple(map(id, points))    # unique while the entry holds the points
        with lock:
            held = entries.pop(key, None)
            value = parts(*points) if held is None else held[1]
            entries[key] = (points, value)      # most recently used last
            if len(entries) > MEMO_POINT_SETS:
                del entries[next(iter(entries))]
            return value

    return lookup


@dataclass(frozen=True)
class ProblemSpec:
    """A benchmark problem: boundary data, forcing, advection, optional exact fields.

    A ``FlowSystem`` reads all of its inputs from here.  The spec is frozen:
    a variant (the Stokes one, wrapped callbacks) is a new spec, from the
    problem's constructor (``advection=False``) or ``dataclasses.replace``.
    ``forcing(t, x, y) -> (f1, f2)`` is the closed form, which the solver
    never calls; ``forcing_factory(xu, yu, xv, yv, layout)`` returns its
    grid evaluator ``g(t)`` with cached spatial parts, equal to it up to
    rounding, which a ``FlowSystem`` evaluates in every stage and pressure
    recovery.  A forcing without a factory raises ``ValueError``, as the
    solver would run unforced.  ``layout(fu, fv)`` places a field at the u
    points (xu, yu) and one at the v points (xv, yv) in one new array (the
    system passes ``spatial.stacked``); ``g(t)`` returns the forcing's two
    components in that layout, in a buffer ``g`` owns and overwrites: the
    result is valid only until the next call of ``g``.
    """

    name: str
    Re: float
    boundary: BoundaryData
    forcing: Optional[Callable] = None
    exact_velocity: Optional[Callable] = None   # (t, x, y) -> (u, v)
    exact_pressure: Optional[Callable] = None   # (t, x, y) -> p
    advection: bool = True
    forcing_factory: Optional[Callable] = None  # (xu, yu, xv, yv, layout) -> g(t)

    def __post_init__(self):
        if self.forcing is not None and self.forcing_factory is None:
            raise ValueError(f"problem {self.name!r}: a forcing needs a forcing_factory, "
                             "its grid evaluator")

    def initial_velocity(self, t0: float = 0.0) -> Callable:
        if self.exact_velocity is not None:
            return lambda t, x, y: self.exact_velocity(t0, x, y)
        return lambda t, x, y: (np.zeros_like(x), np.zeros_like(y))


def forced_flow(Re: float, advection: bool = True) -> ProblemSpec:
    """Manufactured solution with closed-form forcing.

    With ``advection=False`` the same exact fields solve the Stokes
    equations with a forcing that omits the nonlinear term (matching a run
    whose momentum equation drops advection as well).
    """
    if Re <= 0:
        raise ValueError("Reynolds number must be positive")
    nu = 1.0 / Re
    pi = np.pi

    @_point_memo
    def velocity_parts(x, y):
        return (np.sin(pi * x) ** 2, np.sin(2 * pi * y),
                np.sin(2 * pi * x), np.sin(pi * y) ** 2)

    def velocity(t, x, y):
        ct = np.cos(t)
        sx2, s2y, s2x, sy2 = velocity_parts(x, y)
        return -ct * sx2 * s2y, ct * s2x * sy2

    def velocity_dt(t, x, y):
        st = np.sin(t)
        sx2, s2y, s2x, sy2 = velocity_parts(x, y)
        return st * sx2 * s2y, -st * s2x * sy2

    @_point_memo
    def pressure_parts(x, y):
        cx, cy = np.cos(pi * x), np.cos(pi * y)
        return 2 + cx, 2 + cy, cx + cy + cx * cy

    def pressure(t, x, y):
        cx2, cy2, cxy = pressure_parts(x, y)
        return -(np.sin(t) / 4.0) * cx2 * cy2 + (pi**2 / 2.0) * np.cos(t) * cxy

    def trig(x, y):
        """The eight spatial sines and cosines the forcing is written in."""
        return (np.sin(pi * x), np.cos(pi * x), np.sin(pi * y), np.cos(pi * y),
                np.sin(2 * pi * x), np.cos(2 * pi * x), np.sin(2 * pi * y), np.cos(2 * pi * y))

    def forcing_component(t, comp, sines):
        """Component ``comp`` of the forcing at t, from ``trig``'s arrays.

        Component 0 is f1 (w = u, p_w = p_x), component 1 is f2 (w = v,
        p_w = p_y); each is computed on its own, in the order of the
        written formula."""
        sx, cx, sy, cy, s2x, c2x, s2y, c2y = sines
        ct, st = np.cos(t), np.sin(t)
        if comp == 0:
            w_t = st * sx**2 * s2y
            w_x = -ct * pi * s2x * s2y
            w_y = -ct * 2 * pi * sx**2 * c2y
            lap_w = 2 * pi**2 * ct * s2y * (2 * sx**2 - c2x)
            p_w = (pi * st / 4.0) * sx * (2 + cy) - (pi**3 / 2.0) * ct * sx * (1 + cy)
        else:
            w_t = -st * s2x * sy**2
            w_x = ct * 2 * pi * c2x * sy**2
            w_y = ct * pi * s2x * s2y
            lap_w = 2 * pi**2 * ct * s2x * (c2y - 2 * sy**2)
            p_w = (pi * st / 4.0) * sy * (2 + cx) - (pi**3 / 2.0) * ct * sy * (1 + cx)
        f = w_t + p_w - nu * lap_w
        if advection:
            u = -ct * sx**2 * s2y
            v = ct * s2x * sy**2
            f = f + u * w_x + v * w_y
        return f

    def forcing(t, x, y):
        sines = trig(x, y)
        return forcing_component(t, 0, sines), forcing_component(t, 1, sines)

    def tangential_normal_derivative(t, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        on_y_wall = (y == 0.0) | (y == 1.0)
        du_dy = -2 * np.pi * np.cos(t) * np.sin(pi * x) ** 2    # at both y-walls
        dv_dx = 2 * np.pi * np.cos(t) * np.sin(pi * y) ** 2     # at both x-walls
        return np.where(on_y_wall, du_dy, dv_dx)

    @_point_memo
    def forcing_parts(xu, yu, xv, yv):
        # the forcing is sin(t) A + cos(t) B + cos(t)^2 C pointwise, so the
        # three spatial fields can be extracted by probing t = pi/2, 0, pi;
        # one trig pass per point set serves the three probes of the one
        # component kept there (f1 at the u points, f2 at the v points)
        def parts(x, y, comp):
            sines = trig(x, y)
            a, f0, fpi = (forcing_component(t, comp, sines) for t in (np.pi / 2, 0.0, np.pi))
            return a, 0.5 * (f0 - fpi), 0.5 * (f0 + fpi)
        return parts(xu, yu, 0) + parts(xv, yv, 1)

    def forcing_factory(xu, yu, xv, yv, layout):
        A1, B1, C1, A2, B2, C2 = forcing_parts(xu, yu, xv, yv)
        A, B, C = layout(A1, A2), layout(B1, B2), layout(C1, C2)
        out, tmp = np.empty_like(A), np.empty_like(A)

        def g(t):
            # (st A + ct B) + (ct ct) C, both components in one pass
            ct, st = np.cos(t), np.sin(t)
            np.multiply(st, A, out=out)
            np.multiply(ct, B, out=tmp)
            np.add(out, tmp, out=out)
            np.multiply(ct * ct, C, out=tmp)
            return np.add(out, tmp, out=out)

        return g

    bc = BoundaryData(velocity=velocity, velocity_dt=velocity_dt,
                      tangential_normal_derivative=tangential_normal_derivative)
    return ProblemSpec(name="forced", Re=Re, boundary=bc, forcing=forcing,
                       exact_velocity=velocity, exact_pressure=pressure,
                       advection=advection, forcing_factory=forcing_factory)


def green_taylor(Re: float, advection: bool = True) -> ProblemSpec:
    """Decaying vortex; exact solution of the unforced equations.

    With ``advection=False`` the same velocity solves the Stokes equations
    with a constant pressure, reported as 0.
    """
    if Re <= 0:
        raise ValueError("Reynolds number must be positive")
    pi = np.pi

    def amplitude(t):
        return np.exp(-2 * pi**2 * t / Re)

    @_point_memo
    def velocity_parts(x, y):
        return np.sin(pi * x), np.cos(pi * y), np.cos(pi * x), np.sin(pi * y)

    def velocity(t, x, y):
        E = amplitude(t)
        sx, cy, cx, sy = velocity_parts(x, y)
        return -E * sx * cy, E * cx * sy

    def velocity_dt(t, x, y):
        u, v = velocity(t, x, y)
        k = -2 * pi**2 / Re
        return k * u, k * v

    @_point_memo
    def pressure_parts(x, y):
        return np.cos(2 * pi * x) + np.cos(2 * pi * y)

    def pressure(t, x, y):
        return 0.25 * np.exp(-4 * pi**2 * t / Re) * pressure_parts(x, y)

    def stokes_pressure(t, x, y):
        # without advection the velocity alone solves u_t = nu lap u: grad p = 0
        return np.zeros(np.broadcast(x, y).shape)

    def tangential_normal_derivative(t, x, y):
        # du/dy and dv/dx both vanish on the respective walls
        return np.zeros_like(np.asarray(x, dtype=float))

    bc = BoundaryData(velocity=velocity, velocity_dt=velocity_dt,
                      tangential_normal_derivative=tangential_normal_derivative)
    return ProblemSpec(name="taylor", Re=Re, boundary=bc, forcing=None,
                       exact_velocity=velocity,
                       exact_pressure=pressure if advection else stokes_pressure,
                       advection=advection)


def lid_driven_cavity(Re: float, advection: bool = True) -> ProblemSpec:
    """Sliding lid at y = 1 with unit velocity, resting walls elsewhere."""
    if Re <= 0:
        raise ValueError("Reynolds number must be positive")

    def velocity(t, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        u = np.where(y == 1.0, 1.0, 0.0) * np.ones_like(x)
        return u, np.zeros_like(u)

    def velocity_dt(t, x, y):
        x = np.asarray(x, dtype=float)
        z = np.zeros_like(x * np.asarray(y, dtype=float))
        return z, z

    bc = BoundaryData(velocity=velocity, velocity_dt=velocity_dt, time_independent=True)
    return ProblemSpec(name="cavity", Re=Re, boundary=bc, advection=advection)


PROBLEMS = {"forced": forced_flow, "taylor": green_taylor, "cavity": lid_driven_cavity}

# Problems ``make_problem`` keeps: the three problems at one Re, or one
# problem at a few Re (a Reynolds sweep).  At N=64 a forced flow's memos
# hold at most about 0.6 MB per grid.
SHARED_PROBLEMS = 4


def make_problem(name: str, Re: float, advection: bool = True) -> ProblemSpec:
    """The problem ``name`` at Reynolds number Re, shared within the process.

    Equal arguments return one frozen instance, so every study and run of a
    process that asks for it finds the factors its memos already hold.  The
    constructors in ``PROBLEMS`` build a fresh spec on every call.
    """
    return _shared_problem(name, float(Re), advection)


@functools.lru_cache(maxsize=SHARED_PROBLEMS)
def _shared_problem(name: str, Re: float, advection: bool) -> ProblemSpec:
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r} (choose from {sorted(PROBLEMS)})")
    return PROBLEMS[name](Re, advection=advection)
