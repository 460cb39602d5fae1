import numpy as np
import pytest
from conftest import wall_flux

from chebflow.grid import GridSpec, inf_norm, sample_velocity
from chebflow.problems import (forced_flow, green_taylor, lid_driven_cavity,
                               make_problem)
from chebflow.spatial import divergence


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
