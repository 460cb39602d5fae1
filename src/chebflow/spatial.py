"""Finite-difference operators on the MAC grid.

Interior stencils are the standard second-order centered ones.  In the
direction normal to a nearby wall the stored unknowns sit half a spacing
from the boundary, so one-sided schemes are used there:

    f'(x)  ~ [ f(x+h) + 3 f(x) - 4 f(x-h/2) ] / (3 h)
    f''(x) ~ [ 16 f(x-h/2) - 25 f(x) + 10 f(x+h) - f(x+2h) ] / (5 h^2)

with ``f(x-h/2)`` the Dirichlet wall value.  Both are second order (exact
for quadratics resp. cubics).  The transverse velocity needed by the
advection terms is the arithmetic mean of the four surrounding faces.

The momentum RHS computes u's equation and v's, transposed, together in
one stacked span (see :class:`StencilWork`).  Its once-per-step inputs come
laid out like that span: the pressure gradient from
:func:`stacked_pressure_gradient` and the forcing from a grid evaluator
that returns one span-shaped array per t (:func:`stacked` is the layout).
Every division by a grid quantity goes through :func:`divide_by`, which
multiplies by 1/d when d is a power of two: 1/d is then exact, so the
product and the quotient round the same real number once and have the same
bits.  Other spacings (N = 5, 6, 7, 48, ...) keep true division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .grid import BoundaryData, GridSpec, VelocityField


@dataclass(frozen=True)
class MomentumRhsConfig:
    """Term selection for the momentum right-hand side; the pressure gradient
    is not selected here but comes with the span ``momentum_rhs`` gets.

    ``forcing``, when given, is a grid evaluator ``g(t)`` returning one
    array laid out like :func:`stacked`: the u component at the stored u
    unknowns, the v component at the stored v unknowns (``FlowSystem``
    builds it).  The array may be a buffer ``g`` owns and overwrites, valid
    only until its next call.  ``pm3_derivative`` activates the PM3
    boundary fix: the tangential wall value used inside the one-sided
    second-derivative stencil is replaced by the ghost value ``interior -
    (dx/2) * (exact wall-normal derivative)``, the one-sided imposition of
    the exact Neumann data over the actual wall-to-unknown distance dx/2.
    """

    include_advection: bool = True
    forcing: Optional[Callable] = None
    pm3_derivative: Optional[Callable] = None
    include_diffusion: bool = True


def divide_by(a, d: float, out=None):
    """``a / d`` into ``out``, as the multiply ``a * (1/d)`` when 1/d is exact.

    That is when d is a power of two whose reciprocal is a normal or
    subnormal float.  Both operations then round the same real quotient
    once, so they give the same bits, also for zeros, subnormals, overflow,
    infinities and NaN; a multiply is the cheaper one.
    """
    if abs(math.frexp(d)[0]) == 0.5:
        r = 1.0 / d
        if abs(math.frexp(r)[0]) == 0.5:
            return np.multiply(a, r, out=out)
    return np.divide(a, d, out=out)


def _span(N: int):
    """Block side m, block size n and end ``hi`` of the stacked span [1, hi)."""
    m = N + 1
    return m, m * m, m * m + N * N + N - 1


def stacked(fu, fv) -> np.ndarray:
    """``fu`` (N-1, N) at the u unknowns and ``fv`` (N, N-1) at the v
    unknowns of the stacked span (``StencilWork.R``), zeros elsewhere.

    This is the layout of a ``MomentumRhsConfig.forcing`` result; returns a
    new array.
    """
    N = np.shape(fu)[1]
    m, n, hi = _span(N)
    flat = np.zeros(2 * n)
    blocks = flat.reshape((m, m, 2), order="F")
    blocks[1:N, :N, 0] = fu
    blocks[1:N, :N, 1] = np.transpose(fv)
    return flat[1:hi]


def stacked_pressure_gradient(p: np.ndarray, spec: GridSpec) -> np.ndarray:
    """(p[1:] - p[:-1]) / dx at the u unknowns and (p[:, 1:] - p[:, :-1]) / dx
    at the v unknowns, laid out like :func:`stacked`: the span
    ``momentum_rhs`` subtracts.  Returns a new array.

    Both differences are one subtraction of the span holding p and p^T
    from itself shifted by one entry.
    """
    N = spec.N
    m, n, hi = _span(N)
    c = np.zeros(2 * n)
    blocks = c.reshape((m, m, 2), order="F")
    blocks[:N, :N, 0] = p
    blocks[:N, :N, 1] = p.T
    grad = np.subtract(c[1:hi], c[:hi - 1])
    return divide_by(grad, spec.dx, out=grad)


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
        m, n, hi = _span(N)
        self.x, self.a, self.b, self.c, self.r = (np.zeros(2 * n) for _ in range(5))
        x, a, b, c, r = self.x, self.a, self.b, self.c, self.r
        self.X, self.A, self.B, self.C, self.R = (f[1:hi] for f in (x, a, b, c, r))
        self.Xn, self.Xp = x[2:hi + 1], x[:hi - 1]
        self.Xt, self.Bt = x[1 + m:hi - m], b[1 + m:hi - m]
        self.Xtn, self.Xtp = x[1 + 2 * m:hi], x[1:hi - 2 * m]
        L = 2 * n - m - 1
        self.corners = (a[:L], x[:L], x[m:m + L], x[1:1 + L], x[1 + m:1 + m + L])
        xb, ab, cb, rb = (f.reshape((m, m, 2), order="F") for f in (x, a, c, r))
        self.x_u, self.x_vt = xb[1:N, :N, 0], xb[1:N, :N, 1]
        self.r_u, self.r_vt = rb[1:N, :N, 0], rb[1:N, :N, 1]
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
               walls=None, out=None, work=None) -> np.ndarray:
    """Cell-centered discrete divergence, boundary faces from ``bc`` at time t.

    ``walls``, when given, is ``wall_velocities(bc, spec, t)`` sampled
    earlier; otherwise it is sampled here.  ``out``, an (N, N) array, receives
    the result; ``work``, a :class:`StencilWork` for this grid, supplies the
    scratch arrays.  Either is allocated when omitted.  Returns ``out``.
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
    divide_by(out, spec.dx, out=out)
    return out


def gradient_to_faces(phi: np.ndarray, spec: GridSpec, out=None) -> VelocityField:
    """Gradient of the (N, N) cell field ``phi`` on the interior faces;
    boundary faces get none.

    ``out``, a :class:`VelocityField` (such as views of a flat vector),
    receives the result; it is allocated when omitted.
    """
    if out is None:
        out = _faces(spec.N)
    np.subtract(phi[1:, :], phi[:-1, :], out=out.u)
    divide_by(out.u, spec.dx, out=out.u)
    np.subtract(phi[:, 1:], phi[:, :-1], out=out.v)
    divide_by(out.v, spec.dx, out=out.v)
    return out


def momentum_rhs(vel: VelocityField, grad_p: Optional[np.ndarray], bc: BoundaryData,
                 spec: GridSpec, t: float, cfg: MomentumRhsConfig,
                 walls=None, out=None, work=None) -> VelocityField:
    """Momentum right-hand side -(u.grad)u - grad p + nu lap u + forcing.

    Each term but the pressure gradient is included according to ``cfg``;
    the pressure gradient is subtracted exactly when ``grad_p``, the span
    ``stacked_pressure_gradient(p, spec)``, is given.
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
        divide_by(A, dx2, out=A)
        np.multiply(Xt, 2.0, out=Bt)
        np.subtract(Xtn, Bt, out=Bt)
        Bt += Xtp
        divide_by(Bt, dx2, out=Bt)
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
        divide_by(t1, 5.0 * dx2, out=Bw)
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
        divide_by(A, 2.0 * dx, out=A)
        np.subtract(Xtn, Xtp, out=Bt)
        divide_by(Bt, 2.0 * dx, out=Bt)
        # dudy[:, 0] = (u[:, 1] + 3 u[:, 0] - 4 uw_s) / (3 dx), dudy[:, -1] its negative mirror
        np.multiply(W0, 3.0, out=t1)
        np.add(W1, t1, out=t1)
        np.multiply(work.tw, 4.0, out=t2)
        t1 -= t2
        divide_by(t1, 3.0 * dx, out=t1)
        np.multiply(t1, sign, out=Bw)
        A *= X
        C *= B
        A += C
        R -= A

    if grad_p is not None:
        R -= grad_p
    if cfg.forcing is not None:
        R += cfg.forcing(t)
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
