"""Finite-difference operators on the MAC grid.

Interior stencils are the standard second-order centered ones.  In the
direction normal to a nearby wall the stored unknowns sit half a spacing
from the boundary, so one-sided schemes are used there:

    f'(x)  ~ [ f(x+h) + 3 f(x) - 4 f(x-h/2) ] / (3 h)
    f''(x) ~ [ 16 f(x-h/2) - 25 f(x) + 10 f(x+h) - f(x+2h) ] / (5 h^2)

with ``f(x-h/2)`` the Dirichlet wall value.  Both are second order (exact
for quadratics resp. cubics).  The transverse velocity needed by the
advection terms is the arithmetic mean of the four surrounding faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import BoundaryData, CellField, GridSpec, VelocityField


@dataclass
class MomentumRhsConfig:
    """Term selection for the momentum right-hand side.

    ``pm3_derivative`` activates the PM3 boundary fix: the tangential wall
    value used inside the one-sided second-derivative stencil is replaced by
    the ghost value ``interior - (dx/2) * (exact wall-normal derivative)``,
    the one-sided imposition of the exact Neumann data over the actual
    wall-to-unknown distance dx/2.
    """

    include_pressure: bool = True
    include_advection: bool = True
    forcing: Optional[Callable] = None
    pm3_derivative: Optional[Callable] = None
    include_diffusion: bool = True


def wall_velocities(bc: BoundaryData, spec: GridSpec, t: float):
    """Sample every boundary value the stencils need, at time t.

    Returns a dict with u on the four walls (normal on x-walls, tangential
    on y-walls) and v likewise, keyed as the segments of
    ``GridSpec.wall_points``.  The boundary callback runs once, on all wall
    points together; the arrays are read-only views of its result, so the
    dict can be shared by every evaluation at the same t.
    """
    x, y, segments = spec.wall_points
    u, v = bc.velocity(t, x, y)
    u = np.array(np.broadcast_to(u, x.shape), dtype=float)
    v = np.array(np.broadcast_to(v, x.shape), dtype=float)
    u.flags.writeable = False
    v.flags.writeable = False
    return {name: (u if name[0] == "u" else v)[sl] for name, sl in segments.items()}


def _extended(a, axis):
    """Empty array one wall row/column longer on each side of ``axis``.

    The memory order follows ``a`` (Fortran order for a reshaped flat
    state), as ``np.vstack`` would: stencils combining arrays of mixed
    order run several times slower.
    """
    shape = list(a.shape)
    shape[axis] += 2
    return np.empty(shape, order="F" if a.flags.f_contiguous else "C")


def _u_extended_x(u, walls):
    uf = _extended(u, 0)
    uf[0] = walls["u_left"]
    uf[1:-1] = u
    uf[-1] = walls["u_right"]
    return uf


def _v_extended_y(v, walls):
    vf = _extended(v, 1)
    vf[:, 0] = walls["v_bottom"]
    vf[:, 1:-1] = v
    vf[:, -1] = walls["v_top"]
    return vf


def divergence(vel: VelocityField, bc: BoundaryData, spec: GridSpec, t: float,
               walls=None) -> CellField:
    """Cell-centered discrete divergence, boundary faces from ``bc`` at time t.

    ``walls``, when given, is ``wall_velocities(bc, spec, t)`` sampled
    earlier; otherwise it is sampled here.
    """
    if walls is None:
        walls = wall_velocities(bc, spec, t)
    uf = _u_extended_x(vel.u, walls)
    vf = _v_extended_y(vel.v, walls)
    div = (uf[1:, :] - uf[:-1, :] + vf[:, 1:] - vf[:, :-1]) / spec.dx
    return CellField(div)


def gradient_to_faces(phi: CellField, spec: GridSpec) -> VelocityField:
    """Gradient of a cell field on the interior faces; boundary faces get none."""
    g = phi.values
    gu = (g[1:, :] - g[:-1, :]) / spec.dx
    gv = (g[:, 1:] - g[:, :-1]) / spec.dx
    return VelocityField(gu, gv)


def momentum_rhs(vel: VelocityField, p: Optional[CellField], bc: BoundaryData,
                 spec: GridSpec, t: float, cfg: MomentumRhsConfig,
                 walls=None) -> VelocityField:
    """Momentum right-hand side -(u.grad)u - grad p + nu lap u + forcing.

    Each term is included according to ``cfg``; the pressure gradient needs
    ``p``.  Boundary values are evaluated at time t; ``walls``, when given,
    is ``wall_velocities(bc, spec, t)`` sampled earlier.
    """
    if cfg.include_pressure and p is None:
        raise ValueError("pressure required")
    N, dx, nu = spec.N, spec.dx, spec.nu
    u, v = vel.u, vel.v
    if walls is None:
        walls = wall_velocities(bc, spec, t)
    uf = _u_extended_x(u, walls)          # (N+1, N)
    vf = _v_extended_y(v, walls)          # (N, N+1)
    if cfg.pm3_derivative is not None:
        wx, wy, segments = spec.wall_points

        def pm3_wall(name):
            sl = segments[name]
            return np.asarray(cfg.pm3_derivative(t, wx[sl], wy[sl]), dtype=float)

    # -- u equation ----------------------------------------------------------
    if cfg.include_diffusion:
        lap_u = (uf[2:, :] - 2.0 * u + uf[:-2, :]) / dx**2
        d2y = np.empty_like(u)
        d2y[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dx**2
        uw_s, uw_n = walls["u_bottom"], walls["u_top"]
        if cfg.pm3_derivative is not None:
            g_s, g_n = pm3_wall("u_bottom"), pm3_wall("u_top")
            uw_s = u[:, 0] - 0.5 * dx * g_s
            uw_n = u[:, -1] + 0.5 * dx * g_n
        d2y[:, 0] = (16.0 * uw_s - 25.0 * u[:, 0] + 10.0 * u[:, 1] - u[:, 2]) / (5.0 * dx**2)
        d2y[:, -1] = (16.0 * uw_n - 25.0 * u[:, -1] + 10.0 * u[:, -2] - u[:, -3]) / (5.0 * dx**2)
        rhs_u = nu * (lap_u + d2y)
    else:
        rhs_u = np.zeros_like(u)

    if cfg.include_advection:
        dudx = (uf[2:, :] - uf[:-2, :]) / (2.0 * dx)
        dudy = np.empty_like(u)
        dudy[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * dx)
        dudy[:, 0] = (u[:, 1] + 3.0 * u[:, 0] - 4.0 * walls["u_bottom"]) / (3.0 * dx)
        dudy[:, -1] = -(u[:, -2] + 3.0 * u[:, -1] - 4.0 * walls["u_top"]) / (3.0 * dx)
        vbar = 0.25 * (vf[:-1, :-1] + vf[1:, :-1] + vf[:-1, 1:] + vf[1:, 1:])
        rhs_u -= u * dudx + vbar * dudy

    if cfg.include_pressure:
        rhs_u -= (p.values[1:, :] - p.values[:-1, :]) / dx

    # -- v equation ----------------------------------------------------------
    if cfg.include_diffusion:
        lap_v = (vf[:, 2:] - 2.0 * v + vf[:, :-2]) / dx**2
        d2x = np.empty_like(v)
        d2x[1:-1, :] = (v[2:, :] - 2.0 * v[1:-1, :] + v[:-2, :]) / dx**2
        vw_w, vw_e = walls["v_left"], walls["v_right"]
        if cfg.pm3_derivative is not None:
            g_w, g_e = pm3_wall("v_left"), pm3_wall("v_right")
            vw_w = v[0, :] - 0.5 * dx * g_w
            vw_e = v[-1, :] + 0.5 * dx * g_e
        d2x[0, :] = (16.0 * vw_w - 25.0 * v[0, :] + 10.0 * v[1, :] - v[2, :]) / (5.0 * dx**2)
        d2x[-1, :] = (16.0 * vw_e - 25.0 * v[-1, :] + 10.0 * v[-2, :] - v[-3, :]) / (5.0 * dx**2)
        rhs_v = nu * (lap_v + d2x)
    else:
        rhs_v = np.zeros_like(v)

    if cfg.include_advection:
        dvdy = (vf[:, 2:] - vf[:, :-2]) / (2.0 * dx)
        dvdx = np.empty_like(v)
        dvdx[1:-1, :] = (v[2:, :] - v[:-2, :]) / (2.0 * dx)
        dvdx[0, :] = (v[1, :] + 3.0 * v[0, :] - 4.0 * walls["v_left"]) / (3.0 * dx)
        dvdx[-1, :] = -(v[-2, :] + 3.0 * v[-1, :] - 4.0 * walls["v_right"]) / (3.0 * dx)
        ubar = 0.25 * (uf[:-1, :-1] + uf[:-1, 1:] + uf[1:, :-1] + uf[1:, 1:])
        rhs_v -= ubar * dvdx + v * dvdy

    if cfg.include_pressure:
        rhs_v -= (p.values[:, 1:] - p.values[:, :-1]) / dx

    if cfg.forcing is not None:
        xu, yu = spec.u_points()
        xv, yv = spec.v_points()
        rhs_u = rhs_u + np.asarray(cfg.forcing(t, xu, yu)[0], dtype=float)
        rhs_v = rhs_v + np.asarray(cfg.forcing(t, xv, yv)[1], dtype=float)

    return VelocityField(rhs_u, rhs_v)


def spectral_radius_estimate(spec: GridSpec) -> float:
    """Gershgorin row-sum bound for the discrete diffusion operator.

    The largest rows combine the one-sided second-derivative stencil normal
    to a wall (|16|+|25|+|10|+|1| = 52/5 after the 1/5 factor) with the
    centered one in the other direction.
    """
    interior = 8.0
    wall = 52.0 / 5.0 + 4.0
    return spec.nu * max(interior, wall) / spec.dx**2
