import dataclasses

import numpy as np
import pytest

from chebflow.bench import RunConfig, fit_slope
from chebflow.coupling import (COUPLINGS, Ap2wCoefficients, CouplingState, FlowSystem,
                               Stepper, ap1_pressure, ap2_pressure,
                               ap2w_coefficients, ap2w_pressure, dae_step,
                               pm1_second_order_pressure, pm1_step, pm1v_step,
                               pm3_step, reconstruct_pressure)
from chebflow.grid import (BoundaryData, GridSpec, VelocityField, inf_norm,
                           sample_pressure, sample_velocity, zero_mean)
from chebflow.integrators import StageHook, butcher_tableau, rkc_tableau, rock2_tableau
from chebflow.poisson import PoissonSolver
from chebflow.problems import ProblemSpec, forced_flow, green_taylor, make_problem
from chebflow.spatial import (divergence, gradient_to_faces, momentum_rhs,
                              stacked_pressure_gradient)


def make_system(prob, N, algorithm="naive"):
    return FlowSystem(GridSpec(N, nu=1.0 / prob.Re), prob, PoissonSolver(N, algorithm))


def walls_only(bc, advection=True):
    """An unforced problem with the boundary data ``bc``."""
    return ProblemSpec("walls", 10.0, bc, advection=advection)


def initial_state(prob, system):
    u0 = sample_velocity(system.spec, prob.initial_velocity(0.0), 0.0)
    if prob.exact_pressure is not None:
        p0 = zero_mean(sample_pressure(system.spec, prob.exact_pressure, 0.0))
    else:
        p0 = np.zeros((system.spec.N, system.spec.N))
    return CouplingState(u0, p0, 0.0)


# ---------------------------------------------------------------------------
# PM1
# ---------------------------------------------------------------------------

def test_pm1_divergence_free_input_untouched():
    prob = green_taylor(100.0)
    system = make_system(prob, 16)
    state = initial_state(prob, system)
    div = divergence(state.u, prob.boundary, system.spec, 0.0)
    assert inf_norm(div) < 1e-13
    w, phi = state.u.flatten(), None
    from chebflow.coupling import _project_once
    w2, phi = _project_once(system, w, 0.0)
    assert np.max(np.abs(w2 - w)) < 1e-13
    assert inf_norm(phi) < 1e-13


def test_pm1_recovers_manufactured_potential():
    prob = green_taylor(100.0)
    system = make_system(prob, 16)
    state = initial_state(prob, system)
    rng = np.random.RandomState(30)
    psi = rng.randn(16, 16)
    psi -= psi.mean()
    polluted = state.u + gradient_to_faces(psi, system.spec)
    from chebflow.coupling import _project_once
    w2, phi = _project_once(system, polluted.flatten(), 0.0)
    assert np.max(np.abs(phi - psi)) < 1e-10 * (1 + np.max(np.abs(psi)))
    assert np.max(np.abs(w2 - state.u.flatten())) < 1e-10


def test_pm1_step_and_gauge_invariance():
    prob = green_taylor(100.0)
    system = make_system(prob, 16)
    stepper = Stepper("rock2", 4)
    state = initial_state(prob, system)
    out1, _ = pm1_step(state, system, stepper, 1e-3)
    shifted = CouplingState(state.u.copy(), state.p + 3.21, state.t)
    out2, _ = pm1_step(shifted, system, stepper, 1e-3)
    assert np.max(np.abs(out1.u.u - out2.u.u)) < 1e-12
    assert np.max(np.abs(out1.u.v - out2.u.v)) < 1e-12
    assert abs(out1.p.mean()) <= 1e-12 * (1 + inf_norm(out1.p))


@pytest.mark.parametrize("name", ["forced", "taylor", "cavity"])
def test_p2_is_the_ap1_solve(name):
    # on the MAC grid div grad is the Neumann Laplacian, so the second
    # projection p + lap^-1 div F(u, p) is lap^-1 div F(u, 0), AP1, once both
    # take the zero-mean gauge
    prob = make_problem(name, 100.0)
    system = make_system(prob, 16)
    stepper = Stepper("rock2", 5)
    state = initial_state(prob, system)
    for _ in range(3):
        state, _ = pm1_step(state, system, stepper, 1e-2)
    p2 = pm1_second_order_pressure(state, system, stepper)
    assert np.array_equal(p2, ap1_pressure(state, system, stepper))
    bc = prob.boundary
    F = momentum_rhs(state.u, stacked_pressure_gradient(state.p, system.spec), bc,
                     system.spec, state.t, system.rhs_config())
    rhs = divergence(F, BoundaryData(velocity=bc.velocity_dt), system.spec, state.t)
    second_projection = state.p + system.poisson.solve(rhs)
    assert inf_norm(state.p) > 0
    assert (np.max(np.abs(p2 - zero_mean(second_projection)))
            <= 1e-12 * inf_norm(state.p))


def test_pm1_second_order_pressure_zero_state():
    zero2 = lambda t, x, y: (np.zeros_like(x + y), np.zeros_like(x + y))
    bc = BoundaryData(velocity=zero2, velocity_dt=zero2)
    spec = GridSpec(8, nu=0.1)
    system = FlowSystem(spec, walls_only(bc), PoissonSolver(8, "naive"))
    state = CouplingState(VelocityField.zeros(8), np.zeros((8, 8)), 0.0)
    assert inf_norm(pm1_second_order_pressure(state, system, None)) < 1e-14


def test_pm1_second_order_pressure_perturbation_reversal():
    prob = green_taylor(50.0)
    system = make_system(prob, 16)
    state = initial_state(prob, system)
    base = pm1_second_order_pressure(state, system, None)
    rng = np.random.RandomState(31)
    delta = rng.randn(16, 16)
    delta -= delta.mean()
    state2 = CouplingState(state.u.copy(), state.p + delta, 0.0)
    shifted = pm1_second_order_pressure(state2, system, None)
    assert np.array_equal(shifted, base)


def test_default_poisson_solver_takes_any_grid_size():
    # N = 48 is not a power of two, which the recursive DCT algorithms need
    prob = green_taylor(100.0)
    spec = GridSpec(48, nu=0.01)
    system = FlowSystem(spec, prob)
    new, _ = pm1_step(initial_state(prob, system), system, Stepper("rock2", 3), 1e-3)
    assert inf_norm(system.divergence_of(new.u.flatten(), new.t)) < 1e-10


# ---------------------------------------------------------------------------
# PM1V / DAE
# ---------------------------------------------------------------------------

def test_pm1v_projects_every_stage():
    prob = forced_flow(100.0)
    system = make_system(prob, 16)
    state = initial_state(prob, system)
    stepper = Stepper("rock2", 5)
    new, _ = pm1v_step(state, system, stepper, 1e-3)
    assert len(new.phi_log) == 5     # stages U_2..U_{s+1}
    # re-check the hook postcondition on the final state
    div = divergence(new.u, prob.boundary, system.spec, new.t)
    assert inf_norm(div) <= 1e-10 * (1 + inf_norm(new.u))


def test_pm1v_reduces_to_plain_step_when_stages_stay_divergence_free():
    # zero rhs, divergence-free initial state: projections are no-ops
    bc = BoundaryData(velocity=lambda t, x, y: (np.zeros_like(x + y), np.zeros_like(x + y)))
    spec = GridSpec(8, nu=0.1)
    system = FlowSystem(spec, walls_only(bc, advection=False), PoissonSolver(8, "naive"))
    state = CouplingState(VelocityField.zeros(8), np.zeros((8, 8)), 0.0)
    stepper = Stepper("rkc", 4)
    hooked, _ = pm1v_step(state, system, stepper, 0.05)
    plain, _ = pm1_step(state, system, stepper, 0.05)
    assert np.max(np.abs(hooked.u.u - plain.u.u)) < 1e-13
    assert np.max(np.abs(hooked.u.v - plain.u.v)) < 1e-13


@pytest.mark.parametrize("method, s", [("rkc", 5), ("rock2", 6)], ids=["rkc", "rock2"])
@pytest.mark.parametrize("problem", ["forced", "taylor", "cavity"])
def test_pm1v_close_to_dae_at_small_dt(problem, method, s):
    # PM1V and the DAE step build the same velocities to rounding: the
    # projection Q annihilates every face gradient, so QP_j = Q and the
    # recursion on projected or on unprojected stages gives the same steps
    prob = make_problem(problem, 100.0)
    system = make_system(prob, 16)
    a = b = initial_state(prob, system)
    stepper = Stepper(method, s)
    for _ in range(20):
        a, _ = pm1v_step(a, system, stepper, 1e-2)
        b, _ = dae_step(b, system, stepper, 1e-2)
    assert inf_norm(a.u - b.u) <= 1e-12 * inf_norm(b.u)   # at most 2.8e-15 measured


def test_dae_stages_satisfy_constraint():
    # every projected stage is divergence-free against bc at its stage time
    prob = green_taylor(100.0)      # time-dependent boundary data
    system = make_system(prob, 16)
    state = initial_state(prob, system)
    stepper = Stepper("rock2", 5)
    from chebflow.coupling import _stage_hook
    from chebflow.integrators import rock2_step
    hook = _stage_hook(system, True, 1e-2, [])
    checked = []

    def checking_callback(i, ci, ti, w_star):
        w = hook.callback(i, ci, ti, w_star)
        div = system.divergence_of(w, ti)
        checked.append(inf_norm(div) / (1 + np.max(np.abs(w))))
        return w

    hook2 = type(hook)(hook.dual, checking_callback)
    f = system.rhs_flat(system.rhs_config())
    rock2_step(f, state.u.flatten(), 0.0, 1e-2, stepper.tableau, hook2)
    assert len(checked) == 5
    assert max(checked) <= 1e-10


def test_dae_matches_explicit_index2_form():
    # oracle: U_i = u_n + dt sum a_ij (I - G L^{-1} M) F_j + G L^{-1}(r1(t_i) - r1(t_n)),
    # evaluated directly with the assembled Butcher coefficients
    prob = green_taylor(20.0)     # time-dependent boundary data exercises r1
    N = 8
    system = make_system(prob, N)
    spec = system.spec
    state = initial_state(prob, system)
    s = 3
    stepper = Stepper("rock2", s)
    dt = 1e-2
    A, b, c = butcher_tableau(stepper.tableau)
    f = system.rhs_flat(system.rhs_config())
    zero = np.zeros_like(state.u.flatten())

    def project_raw(w):
        # (I - G L^{-1} M) on a raw face field (no boundary faces of its own)
        d = system.divergence_of(w, 0.0) - system.divergence_of(zero, 0.0)
        phi = system.poisson.solve(d)
        return w - gradient_to_faces(phi, spec).flatten()

    def boundary_term(ti):
        # G L^{-1} (r1(t_i) - r1(t_n)); the divergence of the zero field
        # realizes -r1(t)
        d_i = system.divergence_of(zero, ti)
        d_n = system.divergence_of(zero, 0.0)
        phi = system.poisson.solve(-(d_i - d_n))
        return gradient_to_faces(phi, spec).flatten()

    u_n = state.u.flatten()
    nodes = stepper.tableau.c
    U = [u_n]
    F = []
    for k in range(2, s + 2):          # build U_2 .. U_{s+1}
        F.append(f(nodes[len(F)] * dt, U[len(F)]))
        acc = np.zeros_like(u_n)
        for j in range(k - 1):
            acc += A[k - 1, j] * F[j]
        U.append(u_n + dt * project_raw(acc) + boundary_term(nodes[k - 1] * dt))
    got, _ = dae_step(state, system, stepper, dt)
    assert np.max(np.abs(U[-1] - got.u.flatten())) < 1e-11 * (1 + np.max(np.abs(U[-1])))


# ---------------------------------------------------------------------------
# pressure recoveries
# ---------------------------------------------------------------------------

def test_ap1_green_taylor_exact_state():
    prob = green_taylor(100.0)
    system = make_system(prob, 32)
    t = 0.13
    u = sample_velocity(system.spec, prob.exact_velocity, t)
    state = CouplingState(u, np.zeros((32, 32)), t)
    p = ap1_pressure(state, system, None)
    pex = zero_mean(sample_pressure(system.spec, prob.exact_pressure, t))
    assert np.max(np.abs(p - pex)) <= 5e-3


def test_ap1_zero_state_and_missing_rate():
    bc = BoundaryData(velocity=lambda t, x, y: (np.zeros_like(x + y), np.zeros_like(x + y)),
                      velocity_dt=lambda t, x, y: (np.zeros_like(x + y), np.zeros_like(x + y)))
    spec = GridSpec(8, nu=0.1)
    system = FlowSystem(spec, walls_only(bc), PoissonSolver(8, "naive"))
    state = CouplingState(VelocityField.zeros(8), np.zeros((8, 8)), 0.0)
    assert inf_norm(ap1_pressure(state, system, None)) < 1e-13
    bare = BoundaryData(velocity=bc.velocity)
    system2 = FlowSystem(spec, walls_only(bare), system.poisson)
    with pytest.raises(ValueError, match="AP1 requires boundary time derivative"):
        ap1_pressure(state, system2, None)


def test_p2_needs_the_wall_rate():
    # the Green-Taylor walls move, so resting wall rates would be wrong
    prob = green_taylor(100.0)
    prob = dataclasses.replace(prob, boundary=dataclasses.replace(prob.boundary,
                                                                  velocity_dt=None))
    system = make_system(prob, 8)
    with pytest.raises(ValueError, match="^p2 requires boundary time derivative"):
        pm1_second_order_pressure(initial_state(prob, system), system, None)


def test_ap1_stationary_boundaries_equal_mf_solve():
    prob = forced_flow(100.0)     # homogeneous walls: r1' = 0
    system = make_system(prob, 16)
    t = 0.4
    u = sample_velocity(system.spec, prob.exact_velocity, t)
    state = CouplingState(u, np.zeros((16, 16)), t)
    p = ap1_pressure(state, system, None)
    cfg = system.rhs_config()
    F = momentum_rhs(u, None, prob.boundary, system.spec, t, cfg)
    zero_rate = BoundaryData(velocity=lambda t, x, y: (np.zeros_like(x + y),
                                                       np.zeros_like(x + y)))
    rhs = divergence(F, zero_rate, system.spec, t)
    expect = zero_mean(system.poisson.solve(rhs))
    assert np.max(np.abs(p - expect)) < 1e-13


def test_ap2_reconstruction_exactness_and_remainder():
    # p(t) = P0 + P1 t + P2 t^2 with random fields P_k: the average over
    # [0, c dt] is P0 + P1 c dt / 2 + P2 (c dt)^2 / 3, and the pressure at
    # the node b up to the zero-mean gauge
    rng = np.random.RandomState(5)
    N, dt, a, b = 4, 0.37, 0.4, 1.0
    P0, P1, P2 = (rng.randn(N, N) for _ in range(3))

    def gauged(x):
        return x - x.mean()

    def reconstruct(average):
        return reconstruct_pressure(*((c, average(c * dt)) for c in (a, b)))

    # a constant and a linear pressure (quadratic primitive) are exact
    assert np.max(np.abs(reconstruct(lambda t: P0) - gauged(P0))) < 1e-12
    assert np.max(np.abs(reconstruct(lambda t: P0 + P1 * t / 2)
                         - gauged(P0 + P1 * b * dt))) < 1e-12
    # p = t^2: the derivative at b dt of the parabola through the primitive
    # t^3/3 at 0, a dt and b dt
    times = np.array([0.0, a, b]) * dt
    expect = np.polyval(np.polyder(np.polyfit(times, times**3 / 3.0, 2)), b * dt)
    assert np.max(np.abs(reconstruct(lambda t: P2 * t**2 / 3.0)
                         - gauged(expect * P2))) < 1e-12
    assert abs(expect - (b * dt)**2) > 1e-3   # a remainder the quadratic leaves


def test_ap2_node_validation():
    phi = np.ones((4, 4))
    with pytest.raises(ValueError, match="distinct"):
        reconstruct_pressure((0.5, phi), (0.5, phi))
    with pytest.raises(ValueError, match="distinct"):   # coincides with the step start
        reconstruct_pressure((0.0, phi), (1.0, phi))


@pytest.mark.parametrize("method, s", [("rkc", 3), ("rkc", 7), ("rock2", 3), ("rock2", 9)])
def test_reconstructions_read_their_stages_from_the_stepper(method, s):
    # AP2 interpolates through U_s and U_{s+1}; AP2W combines U_2, U_3, U_4
    prob = green_taylor(100.0)
    system = make_system(prob, 16)
    stepper = Stepper(method, s)
    dt = 1e-3
    new, _ = dae_step(initial_state(prob, system), system, stepper, dt)
    stages = {i: (c, phi) for i, c, phi in new.phi_log}
    assert sorted(stages) == list(range(2, s + 2))

    def formula(inner, last):
        (a, phi_a), (b, phi_b) = inner, last
        return zero_mean(((2 * b - a) * phi_b - b * phi_a) / (b - a))

    if method == "rkc":
        want = formula(stages[s], stages[s + 1])
        got = ap2_pressure(new, system, stepper)
    else:
        co = ap2w_coefficients(stepper.tableau, (2, 3, 4))
        bar = ((co.alpha * stages[2][1] + co.beta * stages[3][1] + co.gamma * stages[4][1])
               / (co.alpha + co.beta + co.gamma))
        want = formula((co.c[1], bar), stages[s + 1])
        got = ap2w_pressure(new, system, stepper)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(COUPLINGS))
def test_a_step_reads_the_state_pressure_as_its_coupling_says(name):
    # a step's velocities depend on the state's pressure exactly when its
    # coupling says so; where they do not, a recovery fed back to the step
    # (cp=1) would change nothing.  PM1V's frozen -grad p_n drops out of
    # every projected stage (to rounding); the DAE step reads no pressure.
    prob = green_taylor(100.0)
    system = make_system(prob, 16)
    state = initial_state(prob, system)
    delta = 0.1 * np.random.RandomState(3).randn(16, 16)
    shifted = CouplingState(state.u.copy(), state.p + delta, 0.0)
    step = {"pm1": pm1_step, "pm1v": pm1v_step, "pm3": pm3_step, "dae": dae_step}[name]
    a, _ = step(state, system, Stepper("rock2", 3), 1e-3)
    b, _ = step(shifted, system, Stepper("rock2", 3), 1e-3)
    du = inf_norm(a.u - b.u) / inf_norm(a.u)     # 9e-6 on PM1, 3e-16 on PM1V
    if COUPLINGS[name].reads_pressure:
        assert du > 1e-8
    else:
        assert du < 1e-14
    if name == "dae":    # its velocity and pressure, bit for bit
        assert all(np.array_equal(x, y) for x, y in ((a.u.u, b.u.u), (a.u.v, b.u.v),
                                                      (a.p, b.p)))


def test_ap2w_coefficients_identities_and_example():
    from chebflow.integrators import rock2_degrees
    for s in rock2_degrees()[:6] + [rock2_degrees()[-1]]:
        tab = rock2_tableau(s)
        co = ap2w_coefficients(tab, (2, 3, 4))
        ci, cj, ck = co.c
        ei, ej, ek = co.e
        assert abs(co.alpha * (ci - cj) + co.gamma * (ck - cj)) < 1e-12
        assert abs(co.alpha * ei + co.beta * ej + co.gamma * ek) < 1e-12
        assert abs(co.alpha + co.beta + co.gamma) >= 1e-10


def test_ap2w_formula_example():
    # plug the documented example directly into the weight formulas
    ci, cj, ck = 0.1, 0.3, 0.4
    ei, ej, ek = 0.01, 0.02, 0.03
    alpha = ej / (cj - ci)
    beta = ei / (ci - cj) - ek / (ck - cj)
    gamma = ej / (ck - cj)
    assert abs(alpha - 0.1) < 1e-15
    assert abs(gamma - 0.2) < 1e-15
    assert abs(beta + 0.35) < 1e-15


def test_ap2w_degenerates_for_second_order_stages():
    # RKC internal stages are second order: e_i = 0 and the combination
    # degenerates
    tab = rkc_tableau(6)
    with pytest.raises(ValueError, match="degenerates"):
        ap2w_coefficients(tab, (3, 4, 5))


def test_pressure_independence_of_velocity():
    prob = green_taylor(100.0)
    system = make_system(prob, 16)
    state = initial_state(prob, system)
    stepper = Stepper("rock2", 5)
    new, _ = dae_step(state, system, stepper, 1e-3)
    u_before = new.u.u.copy()
    v_before = new.u.v.copy()
    ap1_pressure(new, system, stepper)
    ap2w_pressure(new, system, stepper)
    assert np.array_equal(new.u.u, u_before)
    assert np.array_equal(new.u.v, v_before)


def test_phi_last_pressure_first_order():
    prob = green_taylor(100.0)
    system = make_system(prob, 32)
    errs = []
    for dt in (0.02, 0.01, 0.005):
        state = initial_state(prob, system)
        stepper = Stepper("rock2", 5)
        n = int(round(0.1 / dt))
        for _ in range(n):
            state, _ = dae_step(state, system, stepper, dt)
        pex = zero_mean(sample_pressure(system.spec, prob.exact_pressure, state.t))
        errs.append(np.max(np.abs(state.p - pex)))
    slope = fit_slope([0.02, 0.01, 0.005], errs)
    assert slope >= 0.8


# ---------------------------------------------------------------------------
# PM3
# ---------------------------------------------------------------------------

def test_pm3_requires_derivative_hook():
    prob = forced_flow(100.0)
    bare = BoundaryData(velocity=prob.boundary.velocity,
                        velocity_dt=prob.boundary.velocity_dt)
    spec = GridSpec(16, nu=0.01)
    system = FlowSystem(spec, dataclasses.replace(prob, boundary=bare),
                        PoissonSolver(16, "naive"))
    state = initial_state(prob, system)
    with pytest.raises(ValueError, match="PM3 requires exact boundary derivatives"):
        pm3_step(state, system, Stepper("rock2", 4), 1e-3)


def test_pm3_coincides_with_pm1_for_zero_derivative():
    # resting flow with homogeneous walls and zero exact normal derivative:
    # ghost values reproduce the Dirichlet data along the whole (zero)
    # trajectory and PM3 falls back to PM1
    zero2 = lambda t, x, y: (np.zeros_like(x + y), np.zeros_like(x + y))
    bc = BoundaryData(velocity=zero2, velocity_dt=zero2,
                      tangential_normal_derivative=lambda t, x, y: np.zeros_like(x + y))
    spec = GridSpec(16, nu=0.05)
    system = FlowSystem(spec, walls_only(bc), PoissonSolver(16, "naive"))
    state = CouplingState(VelocityField.zeros(16), np.zeros((16, 16)), 0.0)
    stepper = Stepper("rock2", 5)
    a, _ = pm1_step(state, system, stepper, 1e-3)
    b, _ = pm3_step(state, system, stepper, 1e-3)
    assert np.max(np.abs(a.u.u - b.u.u)) < 1e-12
    assert np.max(np.abs(a.u.v - b.u.v)) < 1e-12
    assert inf_norm(b.u) < 1e-12


def test_dae_step_samples_boundary_once_per_stage_time():
    prob = green_taylor(100.0)
    times = []

    def counted(t, x, y):
        times.append(t)
        return prob.boundary.velocity(t, x, y)

    system = make_system(dataclasses.replace(prob, boundary=dataclasses.replace(
        prob.boundary, velocity=counted)), 16)
    state = initial_state(prob, system)
    stepper = Stepper("rock2", 3)
    dt = 1e-3
    dae_step(state, system, stepper, dt)
    stage_times = {state.t + c * dt for c in stepper.tableau.c}
    assert len(times) == len(stage_times) == len(set(times))
    assert set(times) == stage_times


def test_time_independent_walls_are_sampled_once():
    prob = green_taylor(100.0)
    times = []

    def counted(t, x, y):
        times.append(t)
        return prob.boundary.velocity(0.0, x, y)

    bc = dataclasses.replace(prob.boundary, velocity=counted, time_independent=True)
    system = make_system(dataclasses.replace(prob, boundary=bc), 16)
    first = system.walls(0.0)
    assert system.walls(0.5) is first and system.walls(0.0) is first
    state = initial_state(prob, system)
    dae_step(state, system, Stepper("rock2", 3), 1e-3)
    assert times == [0.0]
    # the cache keys on t alone: the problem it samples cannot be swapped
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.problem = dataclasses.replace(system.problem, boundary=dataclasses.replace(bc))


FROZEN_INPUTS = {
    "RunConfig": lambda: RunConfig(),
    "ProblemSpec": lambda: forced_flow(10.0),
    "BoundaryData": lambda: forced_flow(10.0).boundary,
    "FlowSystem": lambda: make_system(forced_flow(10.0), 8),
    "MomentumRhsConfig": lambda: make_system(forced_flow(10.0), 8).rhs_config(),
    "StageHook": lambda: StageHook(True, lambda i, ci, ti, y: y),
}


@pytest.mark.parametrize("name", sorted(FROZEN_INPUTS))
def test_run_inputs_are_frozen(name):
    # only run state mutates: a run's inputs cannot change under the values
    # built from them (a system's forcing evaluator, its wall samples)
    obj = FROZEN_INPUTS[name]()
    assert type(obj).__name__ == name
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


def test_flow_system_with_a_factory_never_calls_the_pointwise_forcing():
    # the stages and both hidden-constraint recoveries share the factory's
    # evaluator, so they add the same forcing values
    prob = forced_flow(100.0)
    calls = []

    def counted(t, x, y):
        calls.append(t)
        return prob.forcing(t, x, y)

    prob = dataclasses.replace(prob, forcing=counted)
    system = make_system(prob, 16)
    state, _ = dae_step(initial_state(prob, system), system, Stepper("rock2", 3), 1e-3)
    ap1_pressure(state, system, None)
    pm1_second_order_pressure(state, system, None)
    assert calls == []
