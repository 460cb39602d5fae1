"""Shared oracles for the test suite."""

import numpy as np

from chebflow.spatial import wall_velocities


def neumann_laplacian_matrix(N, dx):
    """Dense 5-point Laplacian on N x N cell centers with mirror boundaries.

    Independent assembly used as the oracle for the DCT-based solver and for
    the div(grad(.)) identity.
    """
    n = N * N
    A = np.zeros((n, n))

    def idx(i, j):
        return i * N + j

    for i in range(N):
        for j in range(N):
            k = idx(i, j)
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < N and 0 <= jj < N:
                    A[k, idx(ii, jj)] += 1.0
                    A[k, k] -= 1.0
                # mirror neighbor outside: value equals the cell itself,
                # contributing nothing
    return A / dx**2


def apply_neumann_laplacian(values, dx):
    """Stencil application of the same operator (mirror padding)."""
    p = np.pad(values, 1, mode="edge")
    return (p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2]
            - 4.0 * values) / dx**2


def wall_flux(bc, spec, t):
    """Net discrete flux of boundary data bc through the walls, summed over
    the wall-normal velocities the stencils sample."""
    w = wall_velocities(bc, spec, t)
    return float(spec.dx * (np.sum(w["u_right"]) - np.sum(w["u_left"])
                            + np.sum(w["v_top"]) - np.sum(w["v_bottom"])))
