"""Direct solver for the cell-centered Neumann Poisson problem.

The five-point Laplacian with mirror (homogeneous Neumann) boundary
conditions is diagonal in the DCT basis: transforming the equation
``lap u = f`` gives

    U_{j,k} (2 cos(j pi / N) + 2 cos(k pi / N) - 4) = dx^2 F_{j,k}.

The (0, 0) mode is the compatibility/mean mode: its right-hand side portion
is projected out silently (the discrete data are compatible only up to
discretization error) and the solution gauge is fixed by U_{0,0} = 0, i.e.
zero mean.

A solver holds only tables derived from its arguments, all read-only: the
eigen scaling, built with the solver, and the plan's DCT tables, built on
the first solve.  ``shared_solver(N, algorithm)`` builds one solver per
``(N, algorithm)`` and process, which every run on that grid shares, so no
run after the first builds either; the runs cannot change it, as writing
into its arrays raises.
"""

from __future__ import annotations

import functools

import numpy as np

from .dct import DEFAULT_ALGORITHM, HYBRID_CUTOFF, DctPlan, dct2d, idct2d
from .grid import POINT_GRIDS

# Solvers ``shared_solver`` keeps: one per grid whose point sets
# ``grid.grid_points`` keeps.  An N=128 solver holds 0.52 MB once solved.
SHARED_SOLVERS = POINT_GRIDS


class PoissonSolver:
    """Neumann Poisson solver on an N x N cell grid with spacing dx = 1/N."""

    def __init__(self, N: int, algorithm: str = DEFAULT_ALGORITHM, cutoff: int = HYBRID_CUTOFF):
        self.N = int(N)
        self.dx = 1.0 / self.N
        self.plan = DctPlan(self.N, algorithm, cutoff)
        j = np.arange(self.N)
        lam = 2.0 * np.cos(j * np.pi / self.N) - 2.0
        self.eigenvalues = lam[:, None] + lam[None, :]
        # dx^2 / lambda; the zero (0,0) eigenvalue is replaced by 1, as that
        # mode is gauged away
        safe = self.eigenvalues.copy()
        safe[0, 0] = 1.0
        self._scale = self.dx**2 / safe
        self.eigenvalues.flags.writeable = self._scale.flags.writeable = False

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve lap u = rhs, both (N, N) arrays, with zero-mean gauge.

        The mean of rhs, which no field with Neumann walls can produce, is
        discarded with the (0, 0) mode.  An rhs of another shape raises
        ``ValueError``.
        """
        if np.shape(rhs) != (self.N, self.N):
            raise ValueError(f"rhs shape {np.shape(rhs)} does not match solver N={self.N}")
        U = self._scale * dct2d(self.plan, rhs)
        U[0, 0] = 0.0
        return idct2d(self.plan, U)


def shared_solver(N: int, algorithm: str = DEFAULT_ALGORITHM) -> PoissonSolver:
    """The solver of the N x N grid under ``algorithm``, shared within the process.

    Equal arguments return one solver (with the default hybrid cutoff); the
    ``SHARED_SOLVERS`` most recently used are kept.
    """
    return _shared_solver(N, algorithm)


@functools.lru_cache(maxsize=SHARED_SOLVERS)
def _shared_solver(N: int, algorithm: str) -> PoissonSolver:
    return PoissonSolver(N, algorithm)
