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
from numpy.lib.stride_tricks import as_strided

from .grid import BoundaryData, CellField, GridSpec, VelocityField


@dataclass
class MomentumRhsConfig:
    """Term selection for the momentum right-hand side; the pressure gradient
    is not selected here but comes with the pressure ``momentum_rhs`` gets.

    ``forcing``, when given, is a grid evaluator ``g(t) -> (f1, f2)``, f1 at
    the stored u unknowns and f2 at the stored v unknowns (``FlowSystem``
    builds it).  ``pm3_derivative`` activates the PM3 boundary fix: the
    tangential wall value used inside the one-sided second-derivative
    stencil is replaced by the ghost value ``interior - (dx/2) * (exact
    wall-normal derivative)``, the one-sided imposition of the exact
    Neumann data over the actual wall-to-unknown distance dx/2.
    """

    include_advection: bool = True
    forcing: Optional[Callable] = None
    pm3_derivative: Optional[Callable] = None
    include_diffusion: bool = True


def wall_velocities(bc: BoundaryData, spec: GridSpec, t: float):
    """Sample every boundary value the stencils need, at time t.

    Returns a dict with u on the four walls (normal on x-walls, tangential
    on y-walls) and v likewise, keyed as the segments of
    ``GridSpec.wall_points``.  The boundary callback runs once, on all wall
    points together; the arrays are read-only views of one copy of its
    result, so the dict can be shared by every evaluation at the same t.
    """
    x, y, segments = spec.wall_points
    uv = np.empty((2, x.size))
    uv[0], uv[1] = bc.velocity(t, x, y)   # copies, broadcasting scalar output
    uv.flags.writeable = False
    u, v = uv
    return {name: (u if name[0] == "u" else v)[sl] for name, sl in segments.items()}


class StencilWork:
    """Scratch arrays for the buffered stencils of one N x N grid.

    ``uf``/``vf`` hold u and v extended by their wall rows for the
    divergence, Fortran-ordered like the u and v views of a flat state;
    ``div`` and ``grad`` (a flat face vector) hold the stage projection's
    divergence and gradient.  The momentum RHS works on u and v^T, both
    (N-1, N) with axis 0 crossing the walls the component is normal to:
    each with its two wall rows is an (N+1, N+1) Fortran-ordered block (the
    last column is padding), the two blocks side by side in flat arrays of
    length 2 (N+1)^2: ``x`` (velocities), ``a``, ``b``, ``c`` (temporaries),
    ``r`` (result).  A step along axis 0 is a shift of 1, along axis 1 a
    shift of N+1, so each interior term of both equations is one ufunc call
    on shifted slices of the span holding every interior entry (``X``,
    ``A``, ...); what lands on wall rows and padding is never read back.
    The one-sided wall columns 0 and N-1 of both blocks are (N-1, 2, 2)
    views indexed [entry, near/far wall, u/v], like ``tw``, the tangential
    wall values.  The stencils overwrite all these arrays on every call, so
    one set serves one thread.
    """

    def __init__(self, N: int):
        self.uf = np.empty((N + 1, N), order="F")
        self.vf = np.empty((N, N + 1), order="F")
        self.div = np.empty((N, N), order="F")
        self.grad = np.empty(2 * (N - 1) * N)
        m = N + 1
        n, hi = m * m, m * m + N * N + N - 1
        self.x, self.a, self.b, self.c, self.r = (np.zeros(2 * n) for _ in range(5))
        x, a, b, c, r = self.x, self.a, self.b, self.c, self.r
        self.X, self.A, self.B, self.C, self.R = (f[1:hi] for f in (x, a, b, c, r))
        self.Xn, self.Xp, self.Cp = x[2:hi + 1], x[:hi - 1], c[:hi - 1]
        self.Xt, self.Bt = x[1 + m:hi - m], b[1 + m:hi - m]
        self.Xtn, self.Xtp = x[1 + 2 * m:hi], x[1:hi - 2 * m]
        L = 2 * n - m - 1
        self.corners = (a[:L], x[:L], x[m:m + L], x[1:1 + L], x[1 + m:1 + m + L])
        xb, ab, cb, rb = (f.reshape((m, m, 2), order="F") for f in (x, a, c, r))
        self.x_u, self.x_vt = xb[1:N, :N, 0], xb[1:N, :N, 1]
        self.r_u, self.r_vt = rb[1:N, :N, 0], rb[1:N, :N, 1]
        self.c_p, self.c_pt = cb[:N, :N, 0], cb[:N, :N, 1]
        self.swap = (cb[1:N, :N], ab[:N, :N - 1, ::-1].transpose(1, 0, 2))
        self.tw, self.t1, self.t2 = (np.empty((N - 1, 2, 2), order="F") for _ in range(3))
        tw = self.tw
        self.fills = ((xb[0, :N, 0], "u_left"), (xb[N, :N, 0], "u_right"),
                      (xb[0, :N, 1], "v_bottom"), (xb[N, :N, 1], "v_top"),
                      (tw[:, 0, 0], "u_bottom"), (tw[:, 1, 0], "u_top"),
                      (tw[:, 0, 1], "v_left"), (tw[:, 1, 1], "v_right"))
        # columns (j, N-1-j), with explicit strides: at N = 5 the pair j = 2
        # is one column, at N = 4 it runs backwards
        self.W0, self.W1, self.W2, self.Bw = (
            as_strided(f[1 + m * j:], shape=(N - 1, 2, 2),
                       strides=(f.itemsize * k for k in (1, m * (N - 1 - 2 * j), n)))
            for f, j in ((x, 0), (x, 1), (x, 2), (b, 0)))
        self.sign = np.array([1.0, -1.0]).reshape(1, 2, 1)


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

    Each term but the pressure gradient is included according to ``cfg``;
    the pressure gradient is subtracted exactly when ``p`` is given.
    Boundary values are evaluated at time t; ``walls``, when given, is
    ``wall_velocities(bc, spec, t)`` sampled earlier.  ``out``, a
    :class:`VelocityField` (such as views of a flat vector), receives the
    result; ``work``, a :class:`StencilWork` for this grid, supplies the
    scratch arrays.  Either is allocated when omitted.
    """
    N, dx, nu = spec.N, spec.dx, spec.nu
    dx2 = dx**2
    if walls is None:
        walls = wall_velocities(bc, spec, t)
    if work is None:
        work = StencilWork(N)
    if out is None:
        out = _faces(N)
    work.x_u[...] = vel.u
    work.x_vt[...] = vel.v.T
    for dst, name in work.fills:
        dst[...] = walls[name]
    X, Xn, Xp, A, B, C, R = work.X, work.Xn, work.Xp, work.A, work.B, work.C, work.R
    Xt, Xtn, Xtp, Bt = work.Xt, work.Xtn, work.Xtp, work.Bt
    W0, W1, W2, Bw, t1, t2, sign = work.W0, work.W1, work.W2, work.Bw, work.t1, work.t2, work.sign
    # Both equations at once, u's as written and v's transposed.  Every entry
    # gets the same operations, in the same order, as the textbook expression
    # of its term (noted above it for u), so the result is bit for bit that
    # of the expression form; a + c and c + a, and negation, are exact.
    if cfg.include_diffusion:
        # nu * ((uf[2:] - 2 u + uf[:-2]) / dx^2 + d2y)
        np.multiply(X, 2.0, out=A)
        np.subtract(Xn, A, out=A)
        A += Xp
        A /= dx2
        np.multiply(Xt, 2.0, out=Bt)
        np.subtract(Xtn, Bt, out=Bt)
        Bt += Xtp
        Bt /= dx2
        tw = work.tw
        if cfg.pm3_derivative is not None:
            # ghosts u[:, 0] - dx/2 g and u[:, -1] + dx/2 g; the tangential
            # segments follow one another in wall_points
            wx, wy, segments = spec.wall_points
            sl = slice(segments["u_bottom"].start, segments["v_right"].stop)
            g = np.asarray(cfg.pm3_derivative(t, wx[sl], wy[sl]), dtype=float)
            np.multiply(np.broadcast_to(g, wx[sl].shape).reshape(tw.shape, order="F"),
                        0.5 * dx, out=t1)
            t1 *= sign
            tw = W0 - t1
        # d2y[:, 0] = (16 uw_s - 25 u[:, 0] + 10 u[:, 1] - u[:, 2]) / (5 dx^2), d2y[:, -1] alike
        np.multiply(tw, 16.0, out=t1)
        np.multiply(W0, 25.0, out=t2)
        t1 -= t2
        np.multiply(W1, 10.0, out=t2)
        t1 += t2
        t1 -= W2
        np.divide(t1, 5.0 * dx2, out=Bw)
        A += B
        np.multiply(A, nu, out=R)
    else:
        R[...] = 0.0

    if cfg.include_advection:
        # u * dudx + vbar * dudy, vbar the mean of the four nearest v: the
        # four-point sums of both blocks, then swapped between them
        corners, x00, x01, x10, x11 = work.corners
        np.add(x00, x01, out=corners)
        corners += x10
        corners += x11
        dst, src = work.swap
        dst[...] = src
        C *= 0.25
        np.subtract(Xn, Xp, out=A)
        A /= 2.0 * dx
        np.subtract(Xtn, Xtp, out=Bt)
        Bt /= 2.0 * dx
        # dudy[:, 0] = (u[:, 1] + 3 u[:, 0] - 4 uw_s) / (3 dx), dudy[:, -1] its negative mirror
        np.multiply(W0, 3.0, out=t1)
        np.add(W1, t1, out=t1)
        np.multiply(work.tw, 4.0, out=t2)
        t1 -= t2
        t1 /= 3.0 * dx
        np.multiply(t1, sign, out=Bw)
        A *= X
        C *= B
        A += C
        R -= A

    if p is not None:
        # (p[1:] - p[:-1]) / dx, from p and p^T in the blocks of c
        work.c_p[...] = p.values
        work.c_pt[...] = p.values.T
        np.subtract(C, work.Cp, out=A)
        A /= dx
        R -= A

    if cfg.forcing is not None:
        f1, f2 = cfg.forcing(t)
        work.r_u += f1
        work.r_vt += np.transpose(f2)
    out.u[...] = work.r_u
    out.v[...] = work.r_vt.T
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
