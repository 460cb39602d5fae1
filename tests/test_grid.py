import os

import numpy as np
import pytest
from conftest import wall_flux

from chebflow.grid import (BoundaryData, CellField, GridSpec, VelocityField,
                           inf_norm, read_field, sample_velocity,
                           weighted_rms_norm, write_field)
from chebflow.problems import forced_flow, green_taylor, lid_driven_cavity


def test_grid_spec_invariants():
    spec = GridSpec(8, nu=0.01)
    assert spec.dx * spec.N == 1.0
    with pytest.raises(ValueError):
        GridSpec(3, nu=0.1)
    with pytest.raises(ValueError):
        GridSpec(8, nu=0.0)


def test_grids_of_one_size_share_read_only_points():
    a, b = GridSpec(12, nu=0.1), GridSpec(12, nu=3.0)
    dx = 1.0 / 12
    node, half = np.arange(1, 12) * dx, (np.arange(1, 13) - 0.5) * dx
    formulas = {"u_points": np.meshgrid(node, half, indexing="ij"),
                "v_points": np.meshgrid(half, node, indexing="ij"),
                "cell_centers": np.meshgrid(half, half, indexing="ij")}
    for name, want in formulas.items():
        got = getattr(a, name)()
        assert all(g is h for g, h in zip(got, getattr(b, name)()))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes() and g.shape == w.shape
            assert not g.flags.writeable and g.base is None
            with pytest.raises(ValueError, match="read-only"):
                g[0, 0] = 0.5
    wx, wy, segments = a.wall_points
    assert b.wall_points[0] is wx and b.wall_points[1] is wy
    assert not wx.flags.writeable and not wy.flags.writeable
    assert wx[segments["u_right"]].tolist() == [1.0] * 12
    assert wy[segments["u_right"]].tobytes() == half.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        wx[:] = 0.0
    with pytest.raises(TypeError):
        segments["u_right"] = slice(0, 1)
    assert GridSpec(16, nu=0.1).u_points()[0].shape == (15, 16)


def test_velocity_field_shapes():
    VelocityField(np.zeros((7, 8)), np.zeros((8, 7)))
    with pytest.raises(ValueError):
        VelocityField(np.zeros((8, 8)), np.zeros((8, 7)))
    with pytest.raises(ValueError):
        CellField(np.zeros((4, 5)))


def test_sample_velocity_zero_and_linear():
    spec = GridSpec(8, nu=1.0)
    zero = sample_velocity(spec, lambda t, x, y: (np.zeros_like(x), np.zeros_like(y)), 0.0)
    assert inf_norm(zero) == 0.0
    lin = sample_velocity(spec, lambda t, x, y: (x, -y), 0.0)
    for i in range(1, spec.N):
        assert np.allclose(lin.u[i - 1, :], i * spec.dx, atol=1e-15)
    for j in range(1, spec.N):
        assert np.allclose(lin.v[:, j - 1], -j * spec.dx, atol=1e-15)


def test_sample_green_taylor_pointwise():
    spec = GridSpec(8, nu=0.01)
    prob = green_taylor(100.0)
    vel = sample_velocity(spec, prob.exact_velocity, 0.0)
    for i in range(1, spec.N):
        for j in range(1, spec.N + 1):
            x, yy = i * spec.dx, (j - 0.5) * spec.dx
            assert abs(vel.u[i - 1, j - 1] + np.sin(np.pi * x) * np.cos(np.pi * yy)) < 1e-15


def test_inf_norm_against_scan():
    rng = np.random.RandomState(0)
    u = np.abs(np.sin(rng.randn(7, 8)))
    v = np.abs(np.sin(rng.randn(8, 7)))
    vel = VelocityField(u, v)
    brute = max(max(abs(x) for x in u.ravel()), max(abs(x) for x in v.ravel()))
    assert inf_norm(vel) == brute
    single = np.zeros((4, 4))
    single[2, 1] = 3.0
    assert inf_norm(CellField(single)) == 3.0
    assert inf_norm(CellField(np.zeros((4, 4)))) == 0.0


def test_weighted_rms_norm():
    assert weighted_rms_norm(np.zeros(5), np.ones(5), 1e-3, 1e-3) == 0.0
    atol = 0.37
    err = np.full(8, atol)
    assert abs(weighted_rms_norm(err, np.zeros(8), atol, 1.0) - 1.0) < 1e-14
    rng = np.random.RandomState(1)
    e, y = rng.randn(100), rng.randn(100)
    atol, rtol = 1e-4, 1e-3
    direct = np.sqrt(np.mean((e / (atol + rtol * np.abs(y))) ** 2))
    got = weighted_rms_norm(e, y, atol, rtol)
    assert abs(got - direct) <= 1e-14 * direct
    with pytest.raises(ValueError, match="empty state"):
        weighted_rms_norm(np.zeros(0), np.zeros(0), 1e-3, 1e-3)


def test_index_round_trip():
    spec = GridSpec(64, nu=1.0)
    xu, yu = spec.u_points()
    for arr, offset in ((xu[:, 0], 0.0), (yu[0, :], -0.5)):
        for k, coord in enumerate(arr):
            idx = int(round(coord / spec.dx + offset))
            back = (idx - offset) * spec.dx
            assert abs(back - coord) <= 1e-15


def test_boundary_compatibility_all_problems():
    rng = np.random.RandomState(42)
    spec = GridSpec(16, nu=0.01)
    for prob in (forced_flow(100.0), green_taylor(50.0), lid_driven_cavity(1000.0)):
        for t in rng.uniform(0.0, 1.0, size=20):
            assert abs(wall_flux(prob.boundary, spec, float(t))) <= 1e-12


def test_flattening_order():
    N = 4
    u = np.arange((N - 1) * N, dtype=float).reshape(N - 1, N)
    v = 100 + np.arange(N * (N - 1), dtype=float).reshape(N, N - 1)
    vel = VelocityField(u, v)
    w = vel.flatten()
    # u first, i (x-index) fastest, j outermost
    expected = [u[i, j] for j in range(N) for i in range(N - 1)]
    expected += [v[i, j] for j in range(N - 1) for i in range(N)]
    assert np.array_equal(w, np.array(expected))
    back = VelocityField.views(w, N)
    assert np.array_equal(back.u, u) and np.array_equal(back.v, v)


def test_flat_views_share_memory_with_the_flat_vector():
    N = 5
    w = np.arange(2 * (N - 1) * N, dtype=float)
    vel = VelocityField.views(w, N)
    assert vel.u.shape == (N - 1, N) and vel.v.shape == (N, N - 1)
    assert np.shares_memory(vel.u, w) and np.shares_memory(vel.v, w)
    assert vel.flatten().tobytes() == w.tobytes()
    vel.u[1, 2] = -1.0              # writes reach the vector
    assert w[1 + 2 * (N - 1)] == -1.0
    # the checked constructor is for outside input: integer arrays become float
    u, v = np.arange((N - 1) * N).reshape(N - 1, N), np.arange(N * (N - 1)).reshape(N, N - 1)
    assert VelocityField(u, v).u.dtype == float


def test_field_dump_round_trip(tmp_path):
    spec = GridSpec(8, nu=0.1)
    rng = np.random.RandomState(2)
    vals = rng.randn(spec.N - 1, spec.N) * np.pi
    path = os.path.join(tmp_path, "u.txt")
    write_field(path, "u", spec, 0.625, vals)
    name, N, t, arr = read_field(path)
    assert name == "u" and N == 8 and t == 0.625
    assert np.array_equal(arr, vals)     # 17 significant digits round-trip exactly
    with pytest.raises(ValueError):
        write_field(path, "w", spec, 0.0, vals)


def test_boundary_rate_wrapper():
    prob = green_taylor(10.0)
    rate = BoundaryData(velocity=prob.boundary.velocity_dt)
    u1, _ = rate.velocity(0.3, 0.2, 0.0)
    u2, _ = prob.boundary.velocity_dt(0.3, 0.2, 0.0)
    assert u1 == u2


def test_time_independence_flag():
    cavity = lid_driven_cavity(100.0).boundary
    assert cavity.time_independent
    # the rate of steady walls is zero, but it is still a separate callback
    assert not BoundaryData(velocity=cavity.velocity_dt).time_independent
    assert not forced_flow(100.0).boundary.time_independent
    assert not green_taylor(100.0).boundary.time_independent
    assert not BoundaryData(velocity=lambda t, x, y: (x, y)).time_independent
