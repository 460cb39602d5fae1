import numpy as np
import pytest
from conftest import neumann_laplacian_matrix

from chebflow import spatial
from chebflow.grid import BoundaryData, GridSpec, VelocityField, inf_norm, sample_velocity
from chebflow.poisson import PoissonSolver
from chebflow.problems import forced_flow, green_taylor, lid_driven_cavity
from chebflow.spatial import (MomentumRhsConfig, divergence, divide_by, gradient_to_faces,
                              momentum_rhs, spectral_radius_estimate,
                              stacked_pressure_gradient)
from chebflow.spatial import wall_velocities


def zero_bc():
    return BoundaryData(velocity=lambda t, x, y: (np.zeros_like(x + y), np.zeros_like(x + y)))


def const_bc(cu, cv):
    return BoundaryData(velocity=lambda t, x, y: (np.full_like(x + y, cu), np.full_like(x + y, cv)))


def test_divergence_constant_field():
    spec = GridSpec(8, nu=1.0)
    vel = VelocityField(np.ones((7, 8)), np.ones((8, 7)))
    div = divergence(vel, const_bc(1.0, 1.0), spec, 0.0)
    assert inf_norm(div) < 1e-13


def test_divergence_linear_field():
    spec = GridSpec(8, nu=1.0)
    bc = BoundaryData(velocity=lambda t, x, y: (x, np.zeros_like(y)))
    vel = sample_velocity(spec, bc.velocity, 0.0)
    div = divergence(vel, bc, spec, 0.0)
    assert np.max(np.abs(div - 1.0)) < 1e-13


def test_divergence_green_taylor_telescopes():
    spec = GridSpec(16, nu=0.01)
    prob = green_taylor(100.0)
    vel = sample_velocity(spec, prob.exact_velocity, 0.0)
    div = divergence(vel, prob.boundary, spec, 0.0)
    assert inf_norm(div) < 1e-13


def test_gradient_constant_and_linear():
    spec = GridSpec(8, nu=1.0)
    assert inf_norm(gradient_to_faces(np.full((8, 8), 3.7), spec)) < 1e-13
    xc, _ = spec.cell_centers()
    g = gradient_to_faces(xc, spec)
    assert np.max(np.abs(g.u - 1.0)) < 1e-13
    assert np.max(np.abs(g.v)) < 1e-13


def test_div_grad_equals_neumann_laplacian():
    N = 8
    spec = GridSpec(N, nu=1.0)
    rng = np.random.RandomState(4)
    phi = rng.randn(N, N)
    g = gradient_to_faces(phi, spec)
    lap = divergence(g, zero_bc(), spec, 0.0)
    A = neumann_laplacian_matrix(N, spec.dx)
    oracle = (A @ phi.ravel()).reshape(N, N)
    assert np.max(np.abs(lap - oracle)) < 1e-10


def test_one_sided_stencils_polynomial_exactness():
    h = 0.1
    x = 0.7
    # first derivative: exact for degree <= 2
    f = lambda z: z**2
    fd1 = (f(x + h) + 3 * f(x) - 4 * f(x - h / 2)) / (3 * h)
    assert abs(fd1 - 2 * x) < 1e-13
    # second derivative: exact for degree <= 3
    g = lambda z: z**3
    fd2 = (16 * g(x - h / 2) - 25 * g(x) + 10 * g(x + h) - g(x + 2 * h)) / (5 * h**2)
    assert abs(fd2 - 6 * x) < 1e-12


def test_momentum_rhs_zero_state():
    spec = GridSpec(8, nu=0.5)
    vel = VelocityField.zeros(8)
    p = np.zeros((8, 8))
    cfg = MomentumRhsConfig()
    rhs = momentum_rhs(vel, stacked_pressure_gradient(p, spec), zero_bc(), spec, 0.0, cfg)
    assert inf_norm(rhs) == 0.0


def test_momentum_rhs_subtracts_the_pressure_gradient_exactly_when_given_one():
    spec = GridSpec(8, nu=0.5)
    vel = VelocityField.zeros(8)
    cfg = MomentumRhsConfig()
    assert inf_norm(momentum_rhs(vel, None, zero_bc(), spec, 0.0, cfg)) == 0.0
    p = np.random.RandomState(5).randn(8, 8)
    rhs = momentum_rhs(vel, stacked_pressure_gradient(p, spec), zero_bc(), spec, 0.0, cfg)
    grad = gradient_to_faces(p, spec)
    assert np.array_equal(rhs.u, -grad.u) and np.array_equal(rhs.v, -grad.v)


def test_momentum_rhs_diffusion_polynomial_fields():
    # u = y^2 has lap u = 2 including at the wall-adjacent rows (one-sided
    # stencil exact through cubics); boundary values supplied consistently
    spec = GridSpec(8, nu=1.0)
    f = lambda t, x, y: (y**2, x**2)
    bc = BoundaryData(velocity=f)
    vel = sample_velocity(spec, f, 0.0)
    cfg = MomentumRhsConfig(include_advection=False)
    rhs = momentum_rhs(vel, None, bc, spec, 0.0, cfg)
    assert np.max(np.abs(rhs.u - 2.0)) < 1e-11
    assert np.max(np.abs(rhs.v - 2.0)) < 1e-11


def test_momentum_rhs_linearity_without_advection():
    spec = GridSpec(8, nu=0.3)
    prob = green_taylor(10.0)
    bc = prob.boundary
    cfg = MomentumRhsConfig(include_advection=False)
    rng = np.random.RandomState(6)
    x = VelocityField(rng.randn(7, 8), rng.randn(8, 7))
    y = VelocityField(rng.randn(7, 8), rng.randn(8, 7))
    a, b = 1.3, -0.6
    t = 0.4
    rhs = lambda v: momentum_rhs(v, None, bc, spec, t, cfg)
    lhs = rhs(VelocityField(a * x.u + b * y.u, a * x.v + b * y.v))
    zero = rhs(VelocityField.zeros(8))
    comb_u = a * rhs(x).u + b * rhs(y).u + (1 - a - b) * zero.u
    comb_v = a * rhs(x).v + b * rhs(y).v + (1 - a - b) * zero.v
    scale = 1 + inf_norm(lhs)
    assert np.max(np.abs(lhs.u - comb_u)) < 1e-12 * scale
    assert np.max(np.abs(lhs.v - comb_v)) < 1e-12 * scale


def test_projection_annihilation():
    N = 16
    spec = GridSpec(N, nu=1.0)
    solver = PoissonSolver(N, "naive")
    rng = np.random.RandomState(8)
    bc = zero_bc()
    for _ in range(5):
        vel = VelocityField(rng.randn(N - 1, N), rng.randn(N, N - 1))
        div = divergence(vel, bc, spec, 0.0)
        phi = solver.solve(div)
        proj = vel - gradient_to_faces(phi, spec)
        res = divergence(proj, bc, spec, 0.0)
        assert inf_norm(res) <= 1e-11 * (1 + inf_norm(vel))


def test_spectral_radius_estimate():
    spec = GridSpec(8, nu=0.25)
    expect = (52.0 / 5.0 + 4.0) * 0.25 * 64
    assert abs(spectral_radius_estimate(spec) - expect) < 1e-12
    # interior row bound for reference: 8 nu / dx^2 is dominated by the wall rows
    assert spectral_radius_estimate(spec) > 8 * 0.25 * 64
    spec2 = GridSpec(8, nu=0.5)
    assert abs(spectral_radius_estimate(spec2) - 2 * spectral_radius_estimate(spec)) < 1e-12


def per_segment_walls(bc, spec, t):
    """Oracle: one boundary call per wall segment, eight in all."""
    half = (np.arange(1, spec.N + 1) - 0.5) * spec.dx
    node = np.arange(1, spec.N) * spec.dx
    zeros_h, ones_h = np.zeros_like(half), np.ones_like(half)
    zeros_n, ones_n = np.zeros_like(node), np.ones_like(node)
    br = np.broadcast_to
    return {
        "u_left": br(bc.velocity(t, zeros_h, half)[0], half.shape).astype(float),
        "u_right": br(bc.velocity(t, ones_h, half)[0], half.shape).astype(float),
        "v_bottom": br(bc.velocity(t, half, zeros_h)[1], half.shape).astype(float),
        "v_top": br(bc.velocity(t, half, ones_h)[1], half.shape).astype(float),
        "u_bottom": br(bc.velocity(t, node, zeros_n)[0], node.shape).astype(float),
        "u_top": br(bc.velocity(t, node, ones_n)[0], node.shape).astype(float),
        "v_left": br(bc.velocity(t, zeros_n, node)[1], node.shape).astype(float),
        "v_right": br(bc.velocity(t, ones_n, node)[1], node.shape).astype(float),
    }


@pytest.mark.parametrize("make", [forced_flow, green_taylor, lid_driven_cavity])
@pytest.mark.parametrize("N", [5, 16, 64, 128])
def test_wall_velocities_bitwise_equal_to_per_segment_sampling(make, N):
    spec = GridSpec(N, nu=0.01)
    bc = make(100.0).boundary
    for boundary in (bc, BoundaryData(velocity=bc.velocity_dt)):
        for t in (0.0, 0.3671, 2.5):
            got = wall_velocities(boundary, spec, t)
            want = per_segment_walls(boundary, spec, t)
            assert list(got) == list(want)
            for name, value in want.items():
                assert got[name].dtype == value.dtype and got[name].shape == value.shape
                assert got[name].tobytes() == value.tobytes(), name


def test_wall_velocities_broadcast_scalar_callbacks():
    spec = GridSpec(6, nu=1.0)
    walls = wall_velocities(BoundaryData(velocity=lambda t, x, y: (1.5, 0.0)), spec, 0.0)
    assert np.array_equal(walls["u_left"], np.full(6, 1.5))
    assert np.array_equal(walls["u_top"], np.full(5, 1.5))
    assert np.array_equal(walls["v_right"], np.zeros(5))


def test_wall_velocities_are_read_only():
    walls = wall_velocities(green_taylor(100.0).boundary, GridSpec(8, nu=0.01), 0.1)
    for name, values in walls.items():
        with pytest.raises(ValueError):
            values[0] = 1.0


class _DivideCounter:
    """Stands in for numpy in ``spatial``, counting true divisions."""

    def __init__(self):
        self.divides = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def divide(self, *args, **kwargs):
        self.divides += 1
        return np.divide(*args, **kwargs)


@pytest.mark.parametrize("d", [2.0**-7, 2.0**-14, 2.0**-6, 1.0 / 3.0, 1.0 / 48.0,
                               -(2.0**-7), 2.0**-1070])
def test_divide_by_is_bitwise_division(d, monkeypatch):
    tiny = np.finfo(float).smallest_subnormal
    big = np.finfo(float).max
    a = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -2.5e-320, 1e-300,
                  big, -big, big / 200.0, 1.5e306, np.inf, -np.inf, np.nan, -np.nan,
                  1.0, -0.1, np.pi, 7.0 / 3.0])
    counter = _DivideCounter()
    monkeypatch.setattr(spatial, "np", counter)
    with np.errstate(over="ignore"):
        want = a / d
        got = divide_by(a, d)
        out = a.copy()
        assert divide_by(out, d, out=out) is out
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
    assert out.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
    # a multiply exactly when 1/d is exact: 2^1070 overflows
    assert counter.divides == (0 if abs(d) in (2.0**-7, 2.0**-14, 2.0**-6) else 2)
