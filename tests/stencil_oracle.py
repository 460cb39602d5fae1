"""Frozen expression-form stencils: the oracle for the buffered ones.

These are the divergence, face gradient and momentum right-hand side
written as whole-array expressions, one temporary per operation, as the
solver computed them before its stencils wrote into scratch buffers.  The
buffered stencils must reproduce them bit for bit.
"""

import numpy as np

from chebflow.grid import VelocityField
from chebflow.spatial import wall_velocities


def _u_extended_x(u, walls):
    return np.vstack([walls["u_left"][None, :], u, walls["u_right"][None, :]])


def _v_extended_y(v, walls):
    return np.hstack([walls["v_bottom"][:, None], v, walls["v_top"][:, None]])


def divergence(vel, bc, spec, t):
    walls = wall_velocities(bc, spec, t)
    uf = _u_extended_x(vel.u, walls)
    vf = _v_extended_y(vel.v, walls)
    return (uf[1:, :] - uf[:-1, :] + vf[:, 1:] - vf[:, :-1]) / spec.dx


def gradient_to_faces(phi, spec):
    return VelocityField((phi[1:, :] - phi[:-1, :]) / spec.dx,
                         (phi[:, 1:] - phi[:, :-1]) / spec.dx)


def momentum_rhs(vel, p, bc, spec, t, cfg):
    N, dx, nu = spec.N, spec.dx, spec.nu
    u, v = vel.u, vel.v
    walls = wall_velocities(bc, spec, t)
    uf = _u_extended_x(u, walls)
    vf = _v_extended_y(v, walls)
    if cfg.pm3_derivative is not None:
        wx, wy, segments = spec.wall_points

        def pm3_wall(name):
            sl = segments[name]
            return np.asarray(cfg.pm3_derivative(t, wx[sl], wy[sl]), dtype=float)

    if cfg.include_diffusion:
        lap_u = (uf[2:, :] - 2.0 * u + uf[:-2, :]) / dx**2
        d2y = np.empty_like(u)
        d2y[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dx**2
        uw_s, uw_n = walls["u_bottom"], walls["u_top"]
        if cfg.pm3_derivative is not None:
            uw_s = u[:, 0] - 0.5 * dx * pm3_wall("u_bottom")
            uw_n = u[:, -1] + 0.5 * dx * pm3_wall("u_top")
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
    if p is not None:
        rhs_u -= (p[1:, :] - p[:-1, :]) / dx

    if cfg.include_diffusion:
        lap_v = (vf[:, 2:] - 2.0 * v + vf[:, :-2]) / dx**2
        d2x = np.empty_like(v)
        d2x[1:-1, :] = (v[2:, :] - 2.0 * v[1:-1, :] + v[:-2, :]) / dx**2
        vw_w, vw_e = walls["v_left"], walls["v_right"]
        if cfg.pm3_derivative is not None:
            vw_w = v[0, :] - 0.5 * dx * pm3_wall("v_left")
            vw_e = v[-1, :] + 0.5 * dx * pm3_wall("v_right")
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
    if p is not None:
        rhs_v -= (p[:, 1:] - p[:, :-1]) / dx

    if cfg.forcing is not None:
        f1, f2 = cfg.forcing(t)
        rhs_u = rhs_u + f1
        rhs_v = rhs_v + f2
    return VelocityField(rhs_u, rhs_v)
