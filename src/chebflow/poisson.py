"""Direct solver for the cell-centered Neumann Poisson problem.

The five-point Laplacian with mirror (homogeneous Neumann) boundary
conditions is diagonal in the DCT basis: transforming the equation
``lap u = f`` gives

    U_{j,k} (2 cos(j pi / N) + 2 cos(k pi / N) - 4) = dx^2 F_{j,k}.

The (0, 0) mode is the compatibility/mean mode: its right-hand side portion
is projected out silently (the discrete data are compatible only up to
discretization error) and the solution gauge is fixed by U_{0,0} = 0, i.e.
zero mean.
"""

from __future__ import annotations

import numpy as np

from .dct import DEFAULT_ALGORITHM, HYBRID_CUTOFF, DctPlan, dct2d, idct2d
from .grid import CellField


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

    def solve(self, rhs: CellField, return_diagnostics: bool = False):
        """Solve lap u = rhs with zero-mean gauge.

        With ``return_diagnostics`` the discarded incompatible-mean magnitude
        (dx^2 F_00, i.e. the residual the projected mode leaves behind) is
        returned alongside the solution.
        """
        if rhs.N != self.N:
            raise ValueError(f"rhs side {rhs.N} does not match solver N={self.N}")
        F = dct2d(self.plan, rhs.values)
        discarded = self.dx**2 * F[0, 0]
        U = self._scale * F
        U[0, 0] = 0.0
        u = CellField(idct2d(self.plan, U))
        if return_diagnostics:
            return u, float(discarded)
        return u
