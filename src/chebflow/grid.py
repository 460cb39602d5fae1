"""Uniform MAC staggered grid on the unit square.

Unknown placement (N cells per side, dx = 1/N):

- u (horizontal velocity) on vertical cell faces, points ``(i dx, (j-1/2) dx)``
  for i = 1..N-1, j = 1..N, stored as an (N-1, N) array ``u[i-1, j-1]``;
- v (vertical velocity) on horizontal faces, points ``((i-1/2) dx, j dx)``
  for i = 1..N, j = 1..N-1, stored as an (N, N-1) array ``v[i-1, j-1]``;
- cell-centered scalars (pressure and friends) at ``((i-1/2) dx, (j-1/2) dx)``,
  stored as an (N, N) array.

Face-normal velocities on the boundary are never stored; they are Dirichlet
data supplied by a :class:`BoundaryData`.  The flattened state vector used by
the time integrators lists all u entries with the y-index outermost, then all
v entries in the same order (Fortran order of the arrays above).

The coordinates of those points are built once per N (``grid_points``) and
shared, read-only, by every ``GridSpec`` of that N; the problems memoize
their spatial factors per point set (see ``problems``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry and viscosity.

    ``N`` is the number of cells per side (>= 4 for the flow solver),
    ``dx = 1/N`` and ``nu = 1/Re`` is the kinematic viscosity.
    """

    N: int
    nu: float
    dx: float = field(init=False)

    def __post_init__(self):
        if self.N < 4:
            raise ValueError("grid needs at least 4 cells per side")
        if not self.nu > 0:
            raise ValueError("viscosity must be positive")
        object.__setattr__(self, "dx", 1.0 / self.N)

    # staggered point coordinates ------------------------------------------
    # Each returns the arrays of ``grid_points(N)``: built once per N, shared
    # by every GridSpec of that N, and read-only.

    def u_points(self):
        """Coordinates (x, y) of the stored u unknowns, shapes (N-1, N)."""
        return grid_points(self.N).u

    def v_points(self):
        """Coordinates (x, y) of the stored v unknowns, shapes (N, N-1)."""
        return grid_points(self.N).v

    def cell_centers(self):
        """Coordinates (x, y) of the cell centers, shapes (N, N)."""
        return grid_points(self.N).cell

    @property
    def wall_points(self):
        """Every boundary point the stencils sample, as one (x, y) pair.

        Returns ``(x, y, segments)``: coordinate arrays holding eight wall
        segments one after the other, and a read-only mapping of each
        segment name to its slice of them.  ``u_left``/``u_right`` lie on
        x = 0, 1 and ``v_bottom``/``v_top`` on y = 0, 1, at the N
        face-centered positions (the normal velocity there closes the
        divergence); ``u_bottom``/``u_top`` lie on y = 0, 1 and
        ``v_left``/``v_right`` on x = 0, 1, at the N-1 interior node
        positions (the tangential velocity there enters the one-sided
        stencils).
        """
        return grid_points(self.N).wall


# Grids whose point sets ``grid_points`` keeps: a study that alternates two
# resolutions reuses both (the problems' memos keep the factors of as many).
POINT_GRIDS = 2


class GridPoints(NamedTuple):
    """The point sets of one N x N grid; see ``grid_points``."""

    u: tuple
    v: tuple
    cell: tuple
    wall: tuple


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=POINT_GRIDS)
def grid_points(N: int) -> GridPoints:
    """The u, v, cell-centre and wall coordinates of the N x N grid.

    Built once per N and kept for the ``POINT_GRIDS`` most recently used N.
    Every array owns its data and is read-only, so the shared arrays cannot
    change behind a caller's back (writing into one raises), and the
    problems' memos recognise them by identity (see ``problems``).  Like the
    ROCK2 table, the cache holds only constants derived from its argument.
    """
    dx = 1.0 / N
    half = (np.arange(1, N + 1) - 0.5) * dx
    node = np.arange(1, N) * dx
    zeros_h, ones_h = np.zeros_like(half), np.ones_like(half)
    zeros_n, ones_n = np.zeros_like(node), np.ones_like(node)
    parts = (("u_left", zeros_h, half), ("u_right", ones_h, half),
             ("v_bottom", half, zeros_h), ("v_top", half, ones_h),
             ("u_bottom", node, zeros_n), ("u_top", node, ones_n),
             ("v_left", zeros_n, node), ("v_right", ones_n, node))
    segments, start = {}, 0
    for name, xs, _ in parts:
        segments[name] = slice(start, start + xs.size)
        start += xs.size
    wall = _read_only(np.concatenate([xs for _, xs, _ in parts]),
                      np.concatenate([ys for _, _, ys in parts]))
    return GridPoints(u=_read_only(*np.meshgrid(node, half, indexing="ij")),
                      v=_read_only(*np.meshgrid(half, node, indexing="ij")),
                      cell=_read_only(*np.meshgrid(half, half, indexing="ij")),
                      wall=wall + (MappingProxyType(segments),))


@dataclass
class VelocityField:
    """Face-normal velocity samples; boundary faces live in BoundaryData."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        nu1, nu2 = self.u.shape
        nv1, nv2 = self.v.shape
        if nu1 + 1 != nu2 or nv2 + 1 != nv1 or nu2 != nv1:
            raise ValueError(f"inconsistent staggered shapes u{self.u.shape} v{self.v.shape}")

    @property
    def N(self) -> int:
        return self.u.shape[1]

    def copy(self) -> "VelocityField":
        return VelocityField(self.u.copy(), self.v.copy())

    @classmethod
    def zeros(cls, N: int) -> "VelocityField":
        return cls(np.zeros((N - 1, N)), np.zeros((N, N - 1)))

    # state-vector flattening (u first, then v, y-index outermost) ----------

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.u.ravel(order="F"), self.v.ravel(order="F")])

    @classmethod
    def views(cls, w: np.ndarray, N: int) -> "VelocityField":
        """u and v as views of the flat float vector ``w`` of length 2 (N-1) N.

        Neither the dtype nor the length is checked: ``w`` is a state vector
        the solver built.  ``VelocityField(u, v)`` checks its arrays."""
        vel = cls.__new__(cls)
        nu = (N - 1) * N
        vel.u = w[:nu].reshape((N - 1, N), order="F")
        vel.v = w[nu:].reshape((N, N - 1), order="F")
        return vel

    def __add__(self, other):
        return VelocityField(self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        return VelocityField(self.u - other.u, self.v - other.v)

    def __mul__(self, a):
        return VelocityField(self.u * a, self.v * a)

    __rmul__ = __mul__


@dataclass
class CellField:
    """Cell-centered scalar samples (pressure, divergence, potentials)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("cell field must be a square array")

    @property
    def N(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "CellField":
        return CellField(self.values.copy())

    @classmethod
    def zeros(cls, N: int) -> "CellField":
        return cls(np.zeros((N, N)))

    def mean(self) -> float:
        return float(self.values.mean())

    def zero_mean(self) -> "CellField":
        return CellField(self.values - self.values.mean())


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet boundary velocity and optional extra data.

    ``velocity(t, x, y) -> (u, v)`` must accept numpy arrays for x, y and is
    only ever evaluated on the boundary of the unit square.  It must be
    pointwise in (x, y), each output entry depending only on the matching
    input point, and a pure function of t: the solver evaluates it in one
    call on all wall points (the walls concatenated into one array, see
    ``GridSpec.wall_points``) and a ``FlowSystem`` reuses the values for
    every evaluation at the same t.  ``velocity_dt`` is its analytic time
    derivative, which both hidden-constraint pressure recoveries (p2 and
    AP1) need; ``tangential_normal_derivative(t, x, y) -> (du/dn of the
    tangential component)`` supplies exact wall-normal derivatives for the PM3 boundary
    fix.  The derivative is taken along the +x axis on the walls x in {0, 1}
    (tangential component v) and along +y on the walls y in {0, 1}
    (tangential component u).  ``time_independent`` declares that the
    velocity does not depend on t: a ``FlowSystem`` then samples it once and
    keeps that sample for every t.  The data are frozen, and so is a
    ``FlowSystem``'s problem, so the system keys its samples on t alone.
    """

    velocity: Callable
    velocity_dt: Optional[Callable] = None
    tangential_normal_derivative: Optional[Callable] = None
    time_independent: bool = False


def sample_velocity(spec: GridSpec, f: Callable, t: float) -> VelocityField:
    """Sample an exact velocity callable ``f(t, x, y) -> (u, v)`` on the grid."""
    xu, yu = spec.u_points()
    xv, yv = spec.v_points()
    u = np.asarray(f(t, xu, yu)[0], dtype=float)
    v = np.asarray(f(t, xv, yv)[1], dtype=float)
    u = np.broadcast_to(u, xu.shape).astype(float)
    v = np.broadcast_to(v, xv.shape).astype(float)
    return VelocityField(u, v)


def sample_pressure(spec: GridSpec, p: Callable, t: float) -> CellField:
    """Sample an exact pressure callable at the cell centers."""
    xc, yc = spec.cell_centers()
    vals = np.broadcast_to(np.asarray(p(t, xc, yc), dtype=float), xc.shape)
    return CellField(vals.astype(float))


def inf_norm(a) -> float:
    """Maximum absolute value over all stored entries of a field or array."""
    if isinstance(a, VelocityField):
        if a.u.size == 0:
            return float(np.max(np.abs(a.v)))
        return float(max(np.max(np.abs(a.u)), np.max(np.abs(a.v))))
    if isinstance(a, CellField):
        return float(np.max(np.abs(a.values)))
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def weighted_rms_norm(err, y, atol: float, rtol: float) -> float:
    """Tolerance-scaled RMS norm used by the step controller.

    sqrt( (1/M) sum_k (err_k / (atol + rtol |y_k|))^2 ); a step is
    acceptable when this is <= 1.
    """
    err = np.asarray(err, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if err.size == 0:
        raise ValueError("empty state")
    if err.shape != y.shape:
        raise ValueError("err and y must have the same length")
    if not (atol > 0 and rtol > 0):
        raise ValueError("tolerances must be positive")
    w = err / (atol + rtol * np.abs(y))
    return float(np.sqrt(np.mean(w * w)))


# -- text dumps ---------------------------------------------------------------

def write_field(path, name: str, spec: GridSpec, t: float, values: np.ndarray) -> None:
    """Write one field as text: header line then one value per line.

    Values are listed in the documented flattening order (y-index outermost)
    with 17 significant digits, so re-parsing reproduces them exactly.
    """
    if name not in ("u", "v", "p"):
        raise ValueError("field name must be one of u, v, p")
    flat = np.asarray(values, dtype=float).ravel(order="F")
    with open(path, "w") as fh:
        fh.write(f"# field={name} N={spec.N} t={t:.17g}\n")
        for val in flat:
            fh.write(f"{val:.17g}\n")


def read_field(path):
    """Read a field dump; returns (name, N, t, array in stored shape)."""
    with open(path) as fh:
        header = fh.readline().strip()
        entries = dict(kv.split("=") for kv in header.lstrip("# ").split())
        name, N, t = entries["field"], int(entries["N"]), float(entries["t"])
        flat = np.array([float(line) for line in fh if line.strip()])
    shape = {"u": (N - 1, N), "v": (N, N - 1), "p": (N, N)}[name]
    return name, N, t, flat.reshape(shape, order="F")
