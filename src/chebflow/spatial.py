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


class StencilWork:
    """Scratch arrays for the buffered stencils of one N x N grid.

    All arrays are Fortran-ordered, like the u and v views of a flat state
    (stencils combining arrays of mixed memory order run several times
    slower): ``uf``/``vf`` hold u and v extended by their wall rows, and
    ``temps(shape)`` returns three face-field temporaries over one buffer,
    shared by the u and v equations.  ``div`` (a cell field) and ``grad``
    (a flat face vector) hold the stage projection's divergence and
    gradient.  The stencils overwrite these arrays on every call, so one
    set serves one thread.
    """

    def __init__(self, N: int):
        n = (N - 1) * N
        self.uf = np.empty((N + 1, N), order="F")
        self.vf = np.empty((N, N + 1), order="F")
        self.div = np.empty((N, N), order="F")
        self.grad = np.empty(2 * n)
        self._temps = np.empty(3 * n)

    def temps(self, shape):
        n = shape[0] * shape[1]
        return [self._temps[k * n:(k + 1) * n].reshape(shape, order="F") for k in range(3)]


def _faces(N: int) -> VelocityField:
    return VelocityField(np.empty((N - 1, N), order="F"), np.empty((N, N - 1), order="F"))


def _extend(u, v, walls, work):
    """u and v with their wall rows/columns, in ``work.uf`` and ``work.vf``."""
    uf, vf = work.uf, work.vf
    uf[0] = walls["u_left"]
    uf[1:-1] = u
    uf[-1] = walls["u_right"]
    vf[:, 0] = walls["v_bottom"]
    vf[:, 1:-1] = v
    vf[:, -1] = walls["v_top"]
    return uf, vf


def divergence(vel: VelocityField, bc: BoundaryData, spec: GridSpec, t: float,
               walls=None, out=None, work=None) -> CellField:
    """Cell-centered discrete divergence, boundary faces from ``bc`` at time t.

    ``walls``, when given, is ``wall_velocities(bc, spec, t)`` sampled
    earlier; otherwise it is sampled here.  ``out``, an (N, N) array, receives
    the result; ``work``, a :class:`StencilWork` for this grid, supplies the
    scratch arrays.  Either is allocated when omitted.
    """
    if walls is None:
        walls = wall_velocities(bc, spec, t)
    if work is None:
        work = StencilWork(spec.N)
    if out is None:
        out = np.empty((spec.N, spec.N), order="F")
    uf, vf = _extend(vel.u, vel.v, walls, work)
    np.subtract(uf[1:, :], uf[:-1, :], out=out)
    out += vf[:, 1:]
    out -= vf[:, :-1]
    out /= spec.dx
    return CellField(out)


def gradient_to_faces(phi: CellField, spec: GridSpec, out=None) -> VelocityField:
    """Gradient of a cell field on the interior faces; boundary faces get none.

    ``out``, a :class:`VelocityField` (such as views of a flat vector),
    receives the result; it is allocated when omitted.
    """
    g = phi.values
    if out is None:
        out = _faces(phi.N)
    np.subtract(g[1:, :], g[:-1, :], out=out.u)
    out.u /= spec.dx
    np.subtract(g[:, 1:], g[:, :-1], out=out.v)
    out.v /= spec.dx
    return out


def momentum_rhs(vel: VelocityField, p: Optional[CellField], bc: BoundaryData,
                 spec: GridSpec, t: float, cfg: MomentumRhsConfig,
                 walls=None, out=None, work=None) -> VelocityField:
    """Momentum right-hand side -(u.grad)u - grad p + nu lap u + forcing.

    Each term is included according to ``cfg``; the pressure gradient needs
    ``p``.  Boundary values are evaluated at time t; ``walls``, when given,
    is ``wall_velocities(bc, spec, t)`` sampled earlier.  ``out``, a
    :class:`VelocityField` not overlapping ``vel`` (such as views of a flat
    vector), receives the result; ``work``, a :class:`StencilWork` for this
    grid, supplies the scratch arrays.  Either is allocated when omitted.
    """
    if cfg.include_pressure and p is None:
        raise ValueError("pressure required")
    N, dx, nu = spec.N, spec.dx, spec.nu
    dx2 = dx**2
    u, v = vel.u, vel.v
    if walls is None:
        walls = wall_velocities(bc, spec, t)
    if work is None:
        work = StencilWork(N)
    if out is None:
        out = _faces(N)
    uf, vf = _extend(u, v, walls, work)   # (N+1, N), (N, N+1)
    if cfg.pm3_derivative is not None:
        wx, wy, segments = spec.wall_points

        def pm3_wall(name):
            sl = segments[name]
            return np.asarray(cfg.pm3_derivative(t, wx[sl], wy[sl]), dtype=float)

    # Each term is evaluated with the same operations, in the same order, as
    # its textbook expression (noted above it), so the result is bit for bit
    # that of the expression form.
    # -- u equation ----------------------------------------------------------
    rhs_u = out.u
    a, b, c = work.temps(u.shape)
    if cfg.include_diffusion:
        # nu * ((uf[2:] - 2 u + uf[:-2]) / dx^2 + d2y)
        np.multiply(u, 2.0, out=a)
        np.subtract(uf[2:, :], a, out=a)
        a += uf[:-2, :]
        a /= dx2
        bi = b[:, 1:-1]
        np.multiply(u[:, 1:-1], 2.0, out=bi)
        np.subtract(u[:, 2:], bi, out=bi)
        bi += u[:, :-2]
        bi /= dx2
        uw_s, uw_n = walls["u_bottom"], walls["u_top"]
        if cfg.pm3_derivative is not None:
            g_s, g_n = pm3_wall("u_bottom"), pm3_wall("u_top")
            uw_s = u[:, 0] - 0.5 * dx * g_s
            uw_n = u[:, -1] + 0.5 * dx * g_n
        b[:, 0] = (16.0 * uw_s - 25.0 * u[:, 0] + 10.0 * u[:, 1] - u[:, 2]) / (5.0 * dx2)
        b[:, -1] = (16.0 * uw_n - 25.0 * u[:, -1] + 10.0 * u[:, -2] - u[:, -3]) / (5.0 * dx2)
        a += b
        np.multiply(a, nu, out=rhs_u)
    else:
        rhs_u[...] = 0.0

    if cfg.include_advection:
        # u * dudx + vbar * dudy, with vbar the mean of the four nearest v
        np.subtract(uf[2:, :], uf[:-2, :], out=a)
        a /= 2.0 * dx
        bi = b[:, 1:-1]
        np.subtract(u[:, 2:], u[:, :-2], out=bi)
        bi /= 2.0 * dx
        b[:, 0] = (u[:, 1] + 3.0 * u[:, 0] - 4.0 * walls["u_bottom"]) / (3.0 * dx)
        b[:, -1] = -(u[:, -2] + 3.0 * u[:, -1] - 4.0 * walls["u_top"]) / (3.0 * dx)
        np.add(vf[:-1, :-1], vf[1:, :-1], out=c)
        c += vf[:-1, 1:]
        c += vf[1:, 1:]
        c *= 0.25
        a *= u
        c *= b
        a += c
        rhs_u -= a

    if cfg.include_pressure:
        # (p[1:] - p[:-1]) / dx
        np.subtract(p.values[1:, :], p.values[:-1, :], out=a)
        a /= dx
        rhs_u -= a

    # -- v equation ----------------------------------------------------------
    rhs_v = out.v
    a, b, c = work.temps(v.shape)
    if cfg.include_diffusion:
        # nu * ((vf[:, 2:] - 2 v + vf[:, :-2]) / dx^2 + d2x)
        np.multiply(v, 2.0, out=a)
        np.subtract(vf[:, 2:], a, out=a)
        a += vf[:, :-2]
        a /= dx2
        bi = b[1:-1, :]
        np.multiply(v[1:-1, :], 2.0, out=bi)
        np.subtract(v[2:, :], bi, out=bi)
        bi += v[:-2, :]
        bi /= dx2
        vw_w, vw_e = walls["v_left"], walls["v_right"]
        if cfg.pm3_derivative is not None:
            g_w, g_e = pm3_wall("v_left"), pm3_wall("v_right")
            vw_w = v[0, :] - 0.5 * dx * g_w
            vw_e = v[-1, :] + 0.5 * dx * g_e
        b[0, :] = (16.0 * vw_w - 25.0 * v[0, :] + 10.0 * v[1, :] - v[2, :]) / (5.0 * dx2)
        b[-1, :] = (16.0 * vw_e - 25.0 * v[-1, :] + 10.0 * v[-2, :] - v[-3, :]) / (5.0 * dx2)
        a += b
        np.multiply(a, nu, out=rhs_v)
    else:
        rhs_v[...] = 0.0

    if cfg.include_advection:
        # ubar * dvdx + v * dvdy, with ubar the mean of the four nearest u
        np.subtract(vf[:, 2:], vf[:, :-2], out=a)
        a /= 2.0 * dx
        bi = b[1:-1, :]
        np.subtract(v[2:, :], v[:-2, :], out=bi)
        bi /= 2.0 * dx
        b[0, :] = (v[1, :] + 3.0 * v[0, :] - 4.0 * walls["v_left"]) / (3.0 * dx)
        b[-1, :] = -(v[-2, :] + 3.0 * v[-1, :] - 4.0 * walls["v_right"]) / (3.0 * dx)
        np.add(uf[:-1, :-1], uf[:-1, 1:], out=c)
        c += uf[1:, :-1]
        c += uf[1:, 1:]
        c *= 0.25
        c *= b
        a *= v
        c += a
        rhs_v -= c

    if cfg.include_pressure:
        # (p[:, 1:] - p[:, :-1]) / dx
        np.subtract(p.values[:, 1:], p.values[:, :-1], out=a)
        a /= dx
        rhs_v -= a

    if cfg.forcing is not None:
        xu, yu = spec.u_points()
        xv, yv = spec.v_points()
        rhs_u += np.asarray(cfg.forcing(t, xu, yu)[0], dtype=float)
        rhs_v += np.asarray(cfg.forcing(t, xv, yv)[1], dtype=float)

    return out


def spectral_radius_estimate(spec: GridSpec) -> float:
    """Gershgorin row-sum bound for the discrete diffusion operator.

    The largest rows combine the one-sided second-derivative stencil normal
    to a wall (|16|+|25|+|10|+|1| = 52/5 after the 1/5 factor) with the
    centered one in the other direction.
    """
    interior = 8.0
    wall = 52.0 / 5.0 + 4.0
    return spec.nu * max(interior, wall) / spec.dx**2
