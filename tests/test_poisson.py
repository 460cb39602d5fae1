import numpy as np
import pytest
from conftest import apply_neumann_laplacian, neumann_laplacian_matrix

from chebflow import poisson
from chebflow.dct import ALGORITHMS, DEFAULT_ALGORITHM, dct2d, idct2d
from chebflow.poisson import SHARED_SOLVERS, PoissonSolver, shared_solver


def test_zero_and_constant_rhs():
    solver = PoissonSolver(8)
    assert np.max(np.abs(solver.solve(np.zeros((8, 8))))) == 0.0
    u = solver.solve(np.full((8, 8), 2.5))
    assert np.max(np.abs(u)) < 1e-13   # the mean of the rhs is discarded


def test_eigenvalue_table():
    solver = PoissonSolver(8)
    assert solver.eigenvalues[0, 0] == 0.0
    lam = solver.eigenvalues.copy()
    lam[0, 0] = -1.0
    assert np.all(lam < 0)


def test_single_mode_recovery():
    for N in (8, 16):
        solver = PoissonSolver(N, "hybrid", cutoff=8)
        m = np.arange(N)
        u0 = np.cos(np.pi * (2 * m + 1) / (2 * N))[:, None] * np.ones((1, N))
        rhs = apply_neumann_laplacian(u0, 1.0 / N)
        got = solver.solve(rhs)
        assert np.max(np.abs(got - u0)) < 1e-11 * max(np.max(np.abs(rhs)), 1)


def test_residual_random_mean_free():
    rng = np.random.RandomState(10)
    for N in (8, 16, 32):
        solver = PoissonSolver(N, "naive")
        A = neumann_laplacian_matrix(N, 1.0 / N)
        for _ in range(5):
            rhs = rng.randn(N, N)
            rhs -= rhs.mean()
            u = solver.solve(rhs)
            res = (A @ u.ravel()).reshape(N, N) - rhs
            assert np.max(np.abs(res)) <= 1e-11 * np.max(np.abs(rhs))
            assert abs(u.mean()) <= 1e-12 * max(np.max(np.abs(u)), 1e-30)


def test_solver_linearity():
    N = 16
    solver = PoissonSolver(N)
    rng = np.random.RandomState(12)
    f, g = rng.randn(N, N), rng.randn(N, N)
    a, b = 0.7, -1.9
    lhs = solver.solve(a * f + b * g)
    rhs = a * solver.solve(f) + b * solver.solve(g)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1)


def test_mirror_symmetry_of_solution():
    # extending the solution by reflection and applying interior centered
    # differences across the wall must reproduce the residual-free Laplacian
    N = 16
    solver = PoissonSolver(N)
    rng = np.random.RandomState(13)
    rhs = rng.randn(N, N)
    rhs -= rhs.mean()
    u = solver.solve(rhs)
    lap = apply_neumann_laplacian(u, 1.0 / N)
    assert np.max(np.abs(lap - rhs)) <= 1e-11 * np.max(np.abs(rhs))


def test_size_mismatch():
    solver = PoissonSolver(8)
    for shape in ((16, 16), (8, 9), (64,)):
        with pytest.raises(ValueError, match="does not match solver N=8"):
            solver.solve(np.zeros(shape))


@pytest.mark.parametrize("N, algorithm", [(5, "naive"), (16, "hybrid"), (32, "naive"),
                                          (48, "iterative"), (64, "hybrid"), (64, "recursive")])
def test_solver_bitwise_equal_to_expression_form(N, algorithm):
    solver = PoissonSolver(N, algorithm)
    rhs = np.asfortranarray(np.random.RandomState(N).randn(N, N))
    F = dct2d(solver.plan, rhs)
    safe = solver.eigenvalues.copy()
    safe[0, 0] = 1.0
    U = (solver.dx**2 / safe) * F
    U[0, 0] = 0.0
    want = idct2d(solver.plan, U)
    got = solver.solve(rhs)
    assert got.tobytes() == want.tobytes()
    assert got.flags.f_contiguous == want.flags.f_contiguous


def test_folded_solver_residual_and_constant_gauge():
    # criterion 02's checks at a size whose transforms fold by parity
    N = 128
    solver = PoissonSolver(N)
    assert solver.plan.folds
    rng = np.random.RandomState(128)
    for _ in range(3):
        rhs = np.asfortranarray(rng.randn(N, N))
        rhs -= rhs.mean()
        u = solver.solve(rhs)
        res = apply_neumann_laplacian(u, 1.0 / N) - rhs
        assert np.max(np.abs(res)) <= 1e-11 * np.max(np.abs(rhs))
        assert u.flags.f_contiguous
    const = solver.solve(np.full((N, N), 3.3))
    assert np.max(np.abs(const)) < 1e-13


@pytest.mark.parametrize("algorithm, N", [(alg, 16) for alg in ALGORITHMS] + [("naive", 128)],
                         ids=[*ALGORITHMS, "naive-folded"])
def test_shared_solver_is_one_read_only_solver_per_grid_and_algorithm(algorithm, N):
    solver = shared_solver(N, algorithm)
    assert shared_solver(N, algorithm) is solver
    if algorithm == DEFAULT_ALGORITHM:
        assert shared_solver(N) is solver
    assert shared_solver(N, "iterative" if algorithm == "naive" else "naive") is not solver
    assert (solver.N, solver.plan.algorithm) == (N, algorithm)
    solver.solve(np.ones((N, N)))    # builds the tables a solve reads
    tables = [a for tab in solver.plan._tables.values() for t in tab.values()
              for a in (t if isinstance(t, tuple) else (t,))]
    assert tables
    for a in [solver.eigenvalues, solver._scale] + tables:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_shared_solvers_keep_at_most_their_bound():
    kept = shared_solver(8)
    for N in range(10, 10 + 2 * SHARED_SOLVERS, 2):
        shared_solver(N)
    assert poisson._shared_solver.cache_info().currsize == SHARED_SOLVERS
    assert shared_solver(8) is not kept      # the least recently used went
