import dataclasses

import numpy as np
import pytest
from conftest import wall_flux

from chebflow import problems
from chebflow.bench import RunConfig, run_simulation
from chebflow.grid import GridSpec, inf_norm, sample_velocity
from chebflow.problems import (MEMO_POINT_SETS, ProblemSpec, forced_flow, green_taylor,
                               lid_driven_cavity, make_problem)
from chebflow.spatial import divergence, stacked


def fd_momentum_residual(prob, t, pts, h=1e-3, ht=1e-6):
    nu = 1.0 / prob.Re
    x, y = pts[:, 0], pts[:, 1]
    vel, pres = prob.exact_velocity, prob.exact_pressure
    u, v = vel(t, x, y)
    u_t = (vel(t + ht, x, y)[0] - vel(t - ht, x, y)[0]) / (2 * ht)
    v_t = (vel(t + ht, x, y)[1] - vel(t - ht, x, y)[1]) / (2 * ht)
    u_x = (vel(t, x + h, y)[0] - vel(t, x - h, y)[0]) / (2 * h)
    u_y = (vel(t, x, y + h)[0] - vel(t, x, y - h)[0]) / (2 * h)
    v_x = (vel(t, x + h, y)[1] - vel(t, x - h, y)[1]) / (2 * h)
    v_y = (vel(t, x, y + h)[1] - vel(t, x, y - h)[1]) / (2 * h)
    lap_u = ((vel(t, x + h, y)[0] - 2 * u + vel(t, x - h, y)[0])
             + (vel(t, x, y + h)[0] - 2 * u + vel(t, x, y - h)[0])) / h**2
    lap_v = ((vel(t, x + h, y)[1] - 2 * v + vel(t, x - h, y)[1])
             + (vel(t, x, y + h)[1] - 2 * v + vel(t, x, y - h)[1])) / h**2
    p_x = (pres(t, x + h, y) - pres(t, x - h, y)) / (2 * h)
    p_y = (pres(t, x, y + h) - pres(t, x, y - h)) / (2 * h)
    r1 = u_t + p_x - nu * lap_u
    r2 = v_t + p_y - nu * lap_v
    if prob.advection:
        r1 = r1 + u * u_x + v * u_y
        r2 = r2 + u * v_x + v * v_y
    if prob.forcing is not None:
        f1, f2 = prob.forcing(t, x, y)
        r1 = r1 - f1
        r2 = r2 - f2
    return max(np.max(np.abs(r1)), np.max(np.abs(r2)))


def test_forced_flow_forcing_residual():
    rng = np.random.RandomState(40)
    pts = rng.uniform(0.05, 0.95, size=(100, 2))
    for advection in (True, False):
        prob = forced_flow(100.0, advection=advection)
        for t in (0.0, 0.7, 1.0):
            assert fd_momentum_residual(prob, t, pts) <= 1e-4


def test_forced_flow_divergence_free():
    rng = np.random.RandomState(41)
    pts = rng.uniform(0.05, 0.95, size=(100, 2))
    prob = forced_flow(100.0)
    h = 1e-4
    x, y = pts[:, 0], pts[:, 1]
    for t in (0.0, 0.33):
        u_x = (prob.exact_velocity(t, x + h, y)[0] - prob.exact_velocity(t, x - h, y)[0]) / (2 * h)
        v_y = (prob.exact_velocity(t, x, y + h)[1] - prob.exact_velocity(t, x, y - h)[1]) / (2 * h)
        assert np.max(np.abs(u_x + v_y)) <= 1e-6


def test_forced_flow_velocity_vanishes_at_pi_half():
    prob = forced_flow(10.0)
    rng = np.random.RandomState(42)
    x, y = rng.rand(50), rng.rand(50)
    u, v = prob.exact_velocity(np.pi / 2, x, y)
    assert np.max(np.abs(u)) < 1e-15 and np.max(np.abs(v)) < 1e-15


def test_green_taylor_frozen_values():
    prob = green_taylor(100.0)
    assert abs(prob.exact_pressure(0.0, 0.0, 0.0) - 0.5) < 1e-15
    x, y = 0.3, 0.8
    assert abs(prob.exact_velocity(0.0, x, y)[0]
               + np.sin(np.pi * x) * np.cos(np.pi * y)) < 1e-15
    # pointwise exponential decay
    t = 0.7
    ratio = prob.exact_velocity(t, x, y)[0] / prob.exact_velocity(0.0, x, y)[0]
    assert abs(ratio - np.exp(-2 * np.pi**2 * t / 100.0)) < 1e-14


def test_initial_matches_exact():
    spec = GridSpec(16, nu=0.01)
    for prob in (forced_flow(100.0), green_taylor(100.0)):
        init = sample_velocity(spec, prob.initial_velocity(0.0), 0.0)
        exact = sample_velocity(spec, prob.exact_velocity, 0.0)
        assert np.max(np.abs(init.u - exact.u)) <= 1e-14
        assert np.max(np.abs(init.v - exact.v)) <= 1e-14


def test_cavity_boundary_and_initial_state():
    prob = lid_driven_cavity(1000.0)
    spec = GridSpec(16, nu=1e-3)
    assert abs(wall_flux(prob.boundary, spec, 0.0)) == 0.0
    # lid faces, including the ones adjacent to the corners, carry u = 1
    u_lid, v_lid = prob.boundary.velocity(0.0, np.array([1e-9, 0.5, 1 - 1e-9]),
                                          np.array([1.0, 1.0, 1.0]))
    assert np.all(u_lid == 1.0) and np.all(v_lid == 0.0)
    u_side, _ = prob.boundary.velocity(0.0, np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert np.all(u_side == 0.0)
    rest = sample_velocity(spec, prob.initial_velocity(0.0), 0.0)
    assert inf_norm(divergence(rest, prob.boundary, spec, 0.0)) == 0.0


def test_make_problem_dispatch():
    assert make_problem("forced", 50.0).Re == 50.0
    assert make_problem("taylor", 10.0).name == "taylor"
    assert make_problem("cavity", 1000.0).exact_velocity is None
    with pytest.raises(ValueError):
        make_problem("channel", 1.0)
    with pytest.raises(ValueError):
        forced_flow(-1.0)


@pytest.mark.parametrize("name", sorted(problems.PROBLEMS))
def test_every_problem_takes_its_advection_flag(name):
    # the flag is a constructor argument like any other: no problem is
    # built and then changed
    assert problems.PROBLEMS[name](20.0, advection=False).advection is False
    assert make_problem(name, 20.0, advection=False).advection is False
    assert make_problem(name, 20.0).advection is True


def test_a_forcing_needs_its_factory():
    # the factory is the only way a forcing enters the solver: without it
    # a custom problem would run unforced
    prob = forced_flow(100.0)
    with pytest.raises(ValueError, match="'custom': a forcing needs a forcing_factory"):
        ProblemSpec("custom", 100.0, prob.boundary, forcing=prob.forcing)
    with pytest.raises(ValueError, match="a forcing needs a forcing_factory"):
        dataclasses.replace(prob, forcing_factory=None)
    assert dataclasses.replace(prob, forcing=None, forcing_factory=None).forcing is None


# -- the memoized closed forms against the written-out formulas ---------------

PI = np.pi


def forced_oracle(prob):
    """The forced flow's fields and grid forcing as whole expressions."""
    def velocity(t, x, y):
        return (-np.cos(t) * np.sin(PI * x) ** 2 * np.sin(2 * PI * y),
                np.cos(t) * np.sin(2 * PI * x) * np.sin(PI * y) ** 2)

    def velocity_dt(t, x, y):
        return (np.sin(t) * np.sin(PI * x) ** 2 * np.sin(2 * PI * y),
                -np.sin(t) * np.sin(2 * PI * x) * np.sin(PI * y) ** 2)

    def pressure(t, x, y):
        return (-(np.sin(t) / 4.0) * (2 + np.cos(PI * x)) * (2 + np.cos(PI * y))
                + (PI**2 / 2.0) * np.cos(t) * (np.cos(PI * x) + np.cos(PI * y)
                                               + np.cos(PI * x) * np.cos(PI * y)))

    def grid_forcing(t, xu, yu, xv, yv):
        # sin(t) A + cos(t) B + cos(t)^2 C, the parts probed at t = pi/2, 0, pi
        def parts(x, y, comp):
            a = prob.forcing(PI / 2, x, y)[comp]
            f0 = prob.forcing(0.0, x, y)[comp]
            fpi = prob.forcing(PI, x, y)[comp]
            return a, 0.5 * (f0 - fpi), 0.5 * (f0 + fpi)
        (A1, B1, C1), (A2, B2, C2) = parts(xu, yu, 0), parts(xv, yv, 1)
        ct, st = np.cos(t), np.sin(t)
        return (st * A1 + ct * B1 + ct * ct * C1, st * A2 + ct * B2 + ct * ct * C2)

    return velocity, velocity_dt, pressure, grid_forcing


def taylor_oracle(prob):
    Re = prob.Re

    def velocity(t, x, y):
        E = np.exp(-2 * PI**2 * t / Re)
        return -E * np.sin(PI * x) * np.cos(PI * y), E * np.cos(PI * x) * np.sin(PI * y)

    def velocity_dt(t, x, y):
        u, v = velocity(t, x, y)
        return (-2 * PI**2 / Re) * u, (-2 * PI**2 / Re) * v

    def pressure(t, x, y):
        return 0.25 * np.exp(-4 * PI**2 * t / Re) * (np.cos(2 * PI * x) + np.cos(2 * PI * y))

    return velocity, velocity_dt, pressure, None


ORACLES = {"forced": (lambda: forced_flow(7.0), forced_oracle),
           "forced-stokes": (lambda: forced_flow(7.0, advection=False), forced_oracle),
           "taylor": (lambda: green_taylor(7.0), taylor_oracle)}


def assert_bytes_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def read_only_copy(a):
    a = a.copy()
    a.flags.writeable = False
    return a


def check_against_oracle(prob, oracle, t, x, y):
    velocity, velocity_dt, pressure, _ = oracle
    for got, want in ((prob.exact_velocity(t, x, y), velocity(t, x, y)),
                      (prob.boundary.velocity(t, x, y), velocity(t, x, y)),
                      (prob.boundary.velocity_dt(t, x, y), velocity_dt(t, x, y)),
                      ((prob.exact_pressure(t, x, y),), (pressure(t, x, y),))):
        for g, w in zip(got, want):
            assert_bytes_equal(g, w)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_closed_forms_are_bitwise_the_formulas(name):
    make, make_oracle = ORACLES[name]
    prob = make()
    oracle = make_oracle(prob)
    spec = GridSpec(12, nu=0.1)
    wx, wy, _ = spec.wall_points
    point_sets = [(wx, wy), spec.u_points(), spec.v_points(), spec.cell_centers(), (0.3, 0.8)]
    # repeated calls at several t, the point sets interleaved, and fresh
    # read-only arrays of the same values (a grid's own arrays are shared
    # by every grid of its N, so they are copied here)
    for rnd in range(3):
        for t in (0.0, 0.37, 1.9):
            for x, y in point_sets[rnd:] + point_sets[:rnd]:
                check_against_oracle(prob, oracle, t, x, y)
        point_sets[:4] = [tuple(read_only_copy(a) for a in pts) for pts in point_sets[:4]]
    grid_forcing = oracle[3]
    if grid_forcing is not None:
        (xu, yu), (xv, yv) = spec.u_points(), spec.v_points()
        for rnd in range(2):
            g = prob.forcing_factory(xu, yu, xv, yv, stacked)
            for t in (0.0, 0.37, 1.9, 0.37):
                assert_bytes_equal(g(t), stacked(*grid_forcing(t, xu, yu, xv, yv)))
            xu, yu = xu.copy(), yu.copy()


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_closed_forms_follow_points_changed_in_place(name):
    make, make_oracle = ORACLES[name]
    prob = make()
    oracle = make_oracle(prob)
    # writable copies: the grid's own point arrays are read-only
    x, y = (a.copy() for a in GridSpec(10, nu=0.1).u_points())
    check_against_oracle(prob, oracle, 0.4, x, y)
    x += 0.01
    y[3, 4] = 0.123
    check_against_oracle(prob, oracle, 0.4, x, y)
    if oracle[3] is not None:
        xv, yv = (a.copy() for a in GridSpec(10, nu=0.1).v_points())
        prob.forcing_factory(x, y, xv, yv, stacked)
        xv *= 0.5
        assert_bytes_equal(prob.forcing_factory(x, y, xv, yv, stacked)(0.4),
                           stacked(*oracle[3](0.4, x, y, xv, yv)))
    # a read-only array made writable and changed is not taken by identity
    wx, wy, _ = GridSpec(10, nu=0.1).wall_points
    wx, wy = wx.copy(), wy.copy()
    wx.flags.writeable = wy.flags.writeable = False
    check_against_oracle(prob, oracle, 0.4, wx, wy)
    wx.flags.writeable = True
    wx[:] = wx[::-1]
    check_against_oracle(prob, oracle, 0.4, wx, wy)


@pytest.mark.parametrize("coupling", ["pm1", "dae"])
def test_stokes_taylor_pressure_is_constant(coupling):
    # without advection the vortex solves u_t = nu lap u, so grad p = 0; a
    # run that starts from and is measured against that pressure finds it
    prob = green_taylor(100.0, advection=False)
    assert_bytes_equal(prob.exact_pressure(0.3, np.ones((2, 3)), np.ones((2, 3))),
                       np.zeros((2, 3)))
    rep = run_simulation(RunConfig(problem="taylor", re=100.0, nx=32, t_end=0.1, dt=1e-3,
                                   integrator="rock2", coupling=coupling, pressure="p1",
                                   advection=False))
    assert not rep.unstable and rep.err_u < 2e-5
    assert rep.err_p < 1e-2


class _TrigCounter:
    """Stands in for numpy in ``problems``, counting full-grid trigonometry."""

    def __init__(self):
        self.grid_calls = 0

    def __getattr__(self, name):
        real = getattr(np, name)
        if name not in ("sin", "cos", "exp"):
            return real

        def counted(a, *args, **kwargs):
            self.grid_calls += np.ndim(a) == 2
            return real(a, *args, **kwargs)
        return counted


def test_memo_keeps_a_bounded_number_of_point_sets(monkeypatch):
    counter = _TrigCounter()
    monkeypatch.setattr(problems, "np", counter)
    prob = forced_flow(7.0)
    oracle = forced_oracle(prob)
    rng = np.random.RandomState(43)
    # the memo keeps read-only arrays that own their data, as the grid's are
    sets = [tuple(read_only_copy(rng.rand(2, 3)) for _ in "xy")
            for _ in range(MEMO_POINT_SETS + 1)]

    def trig_calls(x, y):
        before = counter.grid_calls
        for got, want in zip(prob.exact_velocity(0.6, x, y), oracle[0](0.6, x, y)):
            assert_bytes_equal(got, want)
        return counter.grid_calls - before

    assert all(trig_calls(*pts) > 0 for pts in sets[:-1])
    assert all(trig_calls(*pts) == 0 for pts in sets[:-1])     # all kept
    assert trig_calls(*sets[0]) == 0
    assert trig_calls(*sets[-1]) > 0        # one more evicts the least recently used
    assert trig_calls(*sets[0]) == 0
    assert trig_calls(*sets[1]) > 0
    writable = (rng.rand(2, 3), rng.rand(2, 3))     # not kept: computed on every call
    assert trig_calls(*writable) > 0 and trig_calls(*writable) > 0


@pytest.mark.parametrize("name", ["forced", "taylor"])
def test_one_problem_serves_a_study_bitwise(name, monkeypatch):
    def cfg(N):
        return RunConfig(problem=name, re=20.0, nx=N, t_end=4e-3, dt=1e-3,
                         integrator="rock2", coupling="dae", pressure="ap1")

    counter = _TrigCounter()
    monkeypatch.setattr(problems, "np", counter)
    prob = make_problem(name, 20.0)
    shared, calls = [], []
    for N in (16, 32, 16):
        before = counter.grid_calls
        shared.append(run_simulation(cfg(N), problem=prob))
        calls.append(counter.grid_calls - before)
    assert calls[0] > 0 and calls[1] > 0
    assert calls[2] == 0                # the second N=16 run reuses every factor
    monkeypatch.undo()
    for rep in shared:
        fresh = run_simulation(rep.config)
        for field in ("u", "v", "p"):
            assert_bytes_equal(getattr(rep, field), getattr(fresh, field))
