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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import BoundaryData


@dataclass
class ProblemSpec:
    """A benchmark problem: boundary data, forcing, optional exact fields.

    ``forcing_factory(xu, yu, xv, yv)``, when present, returns a grid
    evaluator ``g(t) -> (f1 at (xu, yu), f2 at (xv, yv))`` of ``forcing``
    with cached spatial parts, equal to it up to rounding; a ``FlowSystem``
    then evaluates only ``g``, in every stage and pressure recovery.
    """

    name: str
    Re: float
    boundary: BoundaryData
    forcing: Optional[Callable] = None
    exact_velocity: Optional[Callable] = None   # (t, x, y) -> (u, v)
    exact_pressure: Optional[Callable] = None   # (t, x, y) -> p
    advection: bool = True
    forcing_factory: Optional[Callable] = None  # (xu, yu, xv, yv) -> g(t)

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

    def velocity(t, x, y):
        ct = np.cos(t)
        return (-ct * np.sin(pi * x) ** 2 * np.sin(2 * pi * y),
                ct * np.sin(2 * pi * x) * np.sin(pi * y) ** 2)

    def velocity_dt(t, x, y):
        st = np.sin(t)
        return (st * np.sin(pi * x) ** 2 * np.sin(2 * pi * y),
                -st * np.sin(2 * pi * x) * np.sin(pi * y) ** 2)

    def pressure(t, x, y):
        return (-(np.sin(t) / 4.0) * (2 + np.cos(pi * x)) * (2 + np.cos(pi * y))
                + (pi**2 / 2.0) * np.cos(t) * (np.cos(pi * x) + np.cos(pi * y)
                                               + np.cos(pi * x) * np.cos(pi * y)))

    def forcing(t, x, y):
        ct, st = np.cos(t), np.sin(t)
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        s2x, c2x = np.sin(2 * pi * x), np.cos(2 * pi * x)
        s2y, c2y = np.sin(2 * pi * y), np.cos(2 * pi * y)
        u = -ct * sx**2 * s2y
        v = ct * s2x * sy**2
        u_t = st * sx**2 * s2y
        v_t = -st * s2x * sy**2
        u_x = -ct * pi * s2x * s2y
        u_y = -ct * 2 * pi * sx**2 * c2y
        v_x = ct * 2 * pi * c2x * sy**2
        v_y = ct * pi * s2x * s2y
        lap_u = 2 * pi**2 * ct * s2y * (2 * sx**2 - c2x)
        lap_v = 2 * pi**2 * ct * s2x * (c2y - 2 * sy**2)
        p_x = (pi * st / 4.0) * sx * (2 + cy) - (pi**3 / 2.0) * ct * sx * (1 + cy)
        p_y = (pi * st / 4.0) * sy * (2 + cx) - (pi**3 / 2.0) * ct * sy * (1 + cx)
        f1 = u_t + p_x - nu * lap_u
        f2 = v_t + p_y - nu * lap_v
        if advection:
            f1 = f1 + u * u_x + v * u_y
            f2 = f2 + u * v_x + v * v_y
        return f1, f2

    def tangential_normal_derivative(t, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        on_y_wall = (y == 0.0) | (y == 1.0)
        du_dy = -2 * np.pi * np.cos(t) * np.sin(pi * x) ** 2    # at both y-walls
        dv_dx = 2 * np.pi * np.cos(t) * np.sin(pi * y) ** 2     # at both x-walls
        return np.where(on_y_wall, du_dy, dv_dx)

    def forcing_factory(xu, yu, xv, yv):
        # the forcing is sin(t) A + cos(t) B + cos(t)^2 C pointwise, so the
        # three spatial fields can be extracted by probing t = pi/2, 0, pi
        def parts(x, y, comp):
            a = forcing(np.pi / 2, x, y)[comp]
            f0 = forcing(0.0, x, y)[comp]
            fpi = forcing(np.pi, x, y)[comp]
            return a, 0.5 * (f0 - fpi), 0.5 * (f0 + fpi)
        A1, B1, C1 = parts(xu, yu, 0)
        A2, B2, C2 = parts(xv, yv, 1)

        def g(t):
            ct, st = np.cos(t), np.sin(t)
            return (st * A1 + ct * B1 + ct * ct * C1,
                    st * A2 + ct * B2 + ct * ct * C2)

        return g

    bc = BoundaryData(velocity=velocity, velocity_dt=velocity_dt,
                      tangential_normal_derivative=tangential_normal_derivative)
    return ProblemSpec(name="forced", Re=Re, boundary=bc, forcing=forcing,
                       exact_velocity=velocity, exact_pressure=pressure,
                       advection=advection, forcing_factory=forcing_factory)


def green_taylor(Re: float) -> ProblemSpec:
    """Decaying vortex; exact solution of the unforced equations."""
    if Re <= 0:
        raise ValueError("Reynolds number must be positive")
    pi = np.pi

    def amplitude(t):
        return np.exp(-2 * pi**2 * t / Re)

    def velocity(t, x, y):
        E = amplitude(t)
        return (-E * np.sin(pi * x) * np.cos(pi * y),
                E * np.cos(pi * x) * np.sin(pi * y))

    def velocity_dt(t, x, y):
        u, v = velocity(t, x, y)
        k = -2 * pi**2 / Re
        return k * u, k * v

    def pressure(t, x, y):
        return 0.25 * np.exp(-4 * pi**2 * t / Re) * (np.cos(2 * pi * x)
                                                     + np.cos(2 * pi * y))

    def tangential_normal_derivative(t, x, y):
        # du/dy and dv/dx both vanish on the respective walls
        return np.zeros_like(np.asarray(x, dtype=float))

    bc = BoundaryData(velocity=velocity, velocity_dt=velocity_dt,
                      tangential_normal_derivative=tangential_normal_derivative)
    return ProblemSpec(name="taylor", Re=Re, boundary=bc, forcing=None,
                       exact_velocity=velocity, exact_pressure=pressure)


def lid_driven_cavity(Re: float) -> ProblemSpec:
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
    return ProblemSpec(name="cavity", Re=Re, boundary=bc)


PROBLEMS = {"forced": forced_flow, "taylor": green_taylor, "cavity": lid_driven_cavity}


def make_problem(name: str, Re: float, advection: bool = True) -> ProblemSpec:
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r} (choose from {sorted(PROBLEMS)})")
    if name == "forced":
        return forced_flow(Re, advection=advection)
    prob = PROBLEMS[name](Re)
    prob.advection = advection
    return prob
