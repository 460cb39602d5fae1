"""The buffered stencils against the frozen expression-form oracle, bit for bit."""

import itertools

import numpy as np
import pytest
import stencil_oracle as oracle

from chebflow.coupling import CouplingState, FlowSystem, Stepper, _project_once, dae_step
from chebflow.grid import CellField, GridSpec, VelocityField, sample_velocity
from chebflow.poisson import PoissonSolver
from chebflow.problems import forced_flow, green_taylor, lid_driven_cavity
from chebflow.spatial import (MomentumRhsConfig, StencilWork, divergence,
                              gradient_to_faces, momentum_rhs, stacked,
                              stacked_pressure_gradient)

SIZES = [5, 16, 48, 64]
# the stacked momentum RHS builds its wall-column views with explicit
# strides: at N = 5 the second-inward columns coincide, at N = 4 they swap
RHS_SIZES = [4, 5, 6, 7, 16, 48, 64, 128]


def random_state(N, seed=3):
    """A rough velocity (as views of a flat state) and pressure."""
    rng = np.random.RandomState(seed)
    w = rng.randn(2 * (N - 1) * N)
    return w, VelocityField.views(w, N), CellField(rng.randn(N, N))


def unstacked(span, N):
    """The u and v entries of an array laid out like ``stacked``, as copies."""
    m = N + 1
    flat = np.zeros(2 * m * m)
    flat[1:1 + span.size] = span
    blocks = flat.reshape((m, m, 2), order="F")
    u, vt = blocks[1:N, :N, 0].copy(), blocks[1:N, :N, 1].copy()
    assert stacked(u, vt.T).tobytes() == span.tobytes()      # nothing else is set
    return u, vt.T.copy()


def grid_forcing(prob, spec):
    """The factory's evaluator in the stacked layout, and the same values as
    the (f1, f2) pair the oracle adds."""
    g = prob.forcing_factory(*spec.u_points(), *spec.v_points(), stacked)
    return g, lambda t: unstacked(g(t), spec.N)


def all_configs(prob, spec):
    """Every term selection, as a config for the solver and one for the oracle."""
    g, pair = grid_forcing(prob, spec)
    for advection, diffusion, forcing, pm3 in itertools.product((False, True), repeat=4):
        yield tuple(MomentumRhsConfig(
            include_advection=advection,
            forcing=evaluator if forcing else None,
            pm3_derivative=prob.boundary.tangential_normal_derivative if pm3 else None,
            include_diffusion=diffusion) for evaluator in (g, pair))


def pressure_gradients(p, spec):
    """(None, None) and (the stacked gradient of p, p): the solver's pressure
    argument and the oracle's."""
    return (None, None), (stacked_pressure_gradient(p, spec), p)


def same_bits(a: VelocityField, b: VelocityField):
    return a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()


@pytest.mark.parametrize("N", RHS_SIZES)
def test_momentum_rhs_bitwise_equal_to_expression_form(N):
    prob = forced_flow(100.0)
    spec = GridSpec(N, nu=0.01)
    w, vel, p = random_state(N)
    w_before, p_before = w.tobytes(), p.values.tobytes()
    work = StencilWork(N)            # one scratch set reused across all terms
    flat = np.empty(2 * (N - 1) * N)
    # the pressure gradient is subtracted exactly when a pressure is given
    for (cfg, cfg_oracle), (grad_p, pressure) in itertools.product(
            all_configs(prob, spec), pressure_gradients(p, spec)):
        want = oracle.momentum_rhs(vel, pressure, prob.boundary, spec, 0.37, cfg_oracle)
        got = momentum_rhs(vel, grad_p, prob.boundary, spec, 0.37, cfg)
        assert same_bits(got, want), cfg
        out = VelocityField.views(flat, N)
        got = momentum_rhs(vel, grad_p, prob.boundary, spec, 0.37, cfg, out=out, work=work)
        assert got is out and same_bits(out, want), cfg
    assert w.tobytes() == w_before and p.values.tobytes() == p_before


@pytest.mark.parametrize("N", SIZES)
def test_divergence_and_gradient_bitwise_equal_to_expression_form(N):
    spec = GridSpec(N, nu=0.01)
    _, vel, phi = random_state(N)
    work = StencilWork(N)
    for bc in (forced_flow(100.0).boundary, green_taylor(100.0).boundary):
        want = oracle.divergence(vel, bc, spec, 0.37).values
        assert divergence(vel, bc, spec, 0.37).values.tobytes() == want.tobytes()
        out = np.empty((N, N), order="F")
        got = divergence(vel, bc, spec, 0.37, out=out, work=work)
        assert got.values is out and out.tobytes() == want.tobytes()
    want = oracle.gradient_to_faces(phi, spec)
    assert same_bits(gradient_to_faces(phi, spec), want)
    out = VelocityField.views(np.empty(2 * (N - 1) * N), N)
    assert same_bits(gradient_to_faces(phi, spec, out=out), want)


def forced_system(N, advection=True):
    prob = forced_flow(100.0, advection=advection)
    return prob, FlowSystem(GridSpec(N, nu=1.0 / prob.Re), prob, PoissonSolver(N, "naive"))


@pytest.mark.parametrize("N", RHS_SIZES)
def test_rhs_flat_bitwise_equal_to_expression_form(N):
    prob, system = forced_system(N)
    w, vel, p = random_state(N)
    p2 = CellField(np.random.RandomState(5).randn(N, N))
    g = grid_forcing(prob, system.spec)[1]
    # every closure is built before the first is called: each keeps the
    # gradient of its own pressure
    pressures = (None, p, p2)
    closures = [system.rhs_flat(system.rhs_config(), q) for q in pressures]
    for pressure, f in zip(pressures, closures):
        want = oracle.momentum_rhs(vel, pressure, prob.boundary, system.spec, 0.37,
                                   MomentumRhsConfig(True, g))
        assert f(0.37, w).tobytes() == want.flatten().tobytes()


def test_flow_system_takes_advection_from_its_problem():
    # the Stokes variant's forcing drops the advection term, and so does the
    # system's momentum RHS: the flag and the forcing come from one problem
    N = 16
    prob, system = forced_system(N, advection=False)
    assert system.rhs_config().include_advection is False
    w, vel, p = random_state(N)
    g = grid_forcing(prob, system.spec)[1]
    for pressure in (None, p):
        want = oracle.momentum_rhs(vel, pressure, prob.boundary, system.spec, 0.37,
                                   MomentumRhsConfig(False, g))
        got = system.rhs_flat(system.rhs_config(), pressure)(0.37, w)
        assert got.tobytes() == want.flatten().tobytes()


@pytest.mark.parametrize("make", [green_taylor, lid_driven_cavity])
def test_momentum_rhs_bitwise_equal_to_expression_form_with_other_walls(make):
    # the forced flow's walls are (to rounding) at rest; these move
    prob = make(100.0)
    derivative = prob.boundary.tangential_normal_derivative
    for N in (4, 5, 16):
        spec = GridSpec(N, nu=0.01)
        _, vel, p = random_state(N, seed=N)
        for pm3 in (None, derivative) if derivative is not None else (None,):
            cfg = MomentumRhsConfig(pm3_derivative=pm3)
            want = oracle.momentum_rhs(vel, p, prob.boundary, spec, 2.5, cfg)
            got = momentum_rhs(vel, stacked_pressure_gradient(p, spec), prob.boundary, spec,
                               2.5, cfg)
            assert same_bits(got, want)


def test_flow_system_has_no_stacked_buffers_before_its_first_rhs_call():
    _, system = forced_system(8)
    f = system.rhs_flat(system.rhs_config())
    assert system._work is None
    w, vel, _ = random_state(8)
    f(0.0, w)
    x = system.work.x
    assert x.shape == (2 * 9 * 9,)
    # u and v^T, each with its wall rows, as (N+1, N+1) blocks side by side
    blocks = x.reshape((9, 9, 2), order="F")
    assert blocks[1:8, :8, 0].tobytes() == vel.u.tobytes()
    assert blocks[1:8, :8, 1].tobytes() == vel.v.T.tobytes()


def test_rhs_flat_returns_a_new_array_per_call():
    _, system = forced_system(16)
    f = system.rhs_flat(system.rhs_config())
    w1, _, _ = random_state(16, seed=1)
    w2, _, _ = random_state(16, seed=2)
    first = f(0.1, w1)
    kept = first.copy()
    second = f(0.2, w2)
    assert second is not first and not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, system.work.grad)


def test_flow_system_builds_its_scratch_on_first_use_and_shares_it():
    prob, system = forced_system(16)
    assert system._work is None
    f = system.rhs_flat(system.rhs_config())
    assert system._work is None
    f(0.0, np.zeros(2 * 15 * 16))
    work = system._work
    assert isinstance(work, StencilWork)
    u0 = sample_velocity(system.spec, prob.initial_velocity(0.0), 0.0)
    state = CouplingState(u0, CellField.zeros(16), 0.0)
    dae_step(state, system, Stepper("rock2", 3), 1e-3)
    assert system._work is work


@pytest.mark.parametrize("N", [16, 32])
@pytest.mark.parametrize("h", [None, 0.37 * 1e-2])
def test_projection_bitwise_equal_to_expression_form(N, h):
    _, system = forced_system(N)
    w, vel, _ = random_state(N)
    # the transform's matrix product sums in an order set by memory layout,
    # and the solver's divergence has the Fortran order of the flat state
    bc = system.problem.boundary
    div = CellField(np.asfortranarray(oracle.divergence(vel, bc, system.spec, 0.2).values))
    if h is None:
        phi = system.poisson.solve(div)
        want = w - oracle.gradient_to_faces(phi, system.spec).flatten()
    else:
        phi = system.poisson.solve(CellField(div.values / h))
        want = w - h * oracle.gradient_to_faces(phi, system.spec).flatten()
    got, got_phi = _project_once(system, w, 0.2, h)
    assert got.tobytes() == want.tobytes()
    assert got_phi.values.tobytes() == phi.values.tobytes()
