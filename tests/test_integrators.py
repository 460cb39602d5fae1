import re

import numpy as np
import pytest

from chebflow.bench import fit_slope
from chebflow.coupling import Stepper
from chebflow.grid import weighted_rms_norm
from chebflow.integrators import (ALPHA, FAC_MAX, FAC_MIN, METHODS, SAFETY, IntegrationDiverged,
                                  StageHook, StepController, butcher_tableau, pirock_step,
                                  propose_dt, rk4_step, rkc_step, rkc_tableau,
                                  rock2_degrees, rock2_step, rock2_tableau,
                                  select_stages, stability_poly_eval)

MAXNORM = lambda e, y: float(np.max(np.abs(e)))


def test_rkc_tableau_frozen_values():
    tab = rkc_tableau(2, 0.15)
    assert abs(tab.w0 - 1.0375) < 1e-15
    assert abs((2 * tab.w0**2 - 1) - 1.15281250) < 1e-12      # T_2(w0)
    assert abs(tab.w1 - 4.15 / 4) < 1e-12
    assert abs(tab.b[2] - 4 / 4.15**2) < 1e-12
    assert abs(tab.a[2] - (1 - tab.b[2] * 1.15281250)) < 1e-12
    with pytest.raises(ValueError):
        rkc_tableau(1)


def test_rkc_damping_close_to_one_minus_eps_third():
    for s in (5, 10, 20):
        tab = rkc_tableau(s, 0.15)
        assert abs(tab.damping - (1 - 0.15 / 3)) < 2e-2


def test_rkc_kappa1_cross_check():
    for s in (2, 5, 12):
        tab = rkc_tableau(s, 0.15)
        # kappa_1 = c_2 / T'_2(w0) (the recursion node c[2] against 4 w0)
        assert abs(tab.kappa1 - tab.c[2] / (4 * tab.w0)) < 1e-12


def test_rkc_nodes_monotone_and_final():
    for s in (3, 10, 30):
        c = rkc_tableau(s).c
        assert abs(c[-1] - 1.0) < 1e-10
        assert np.all(np.diff(c) > 0)


def test_rock2_nodes_final():
    for s in (3, 10, 30):
        c = rock2_tableau(s).c
        assert abs(c[-1] - 1.0) < 1e-10


def test_rock2_table_order_conditions_subset():
    for s in (3, 5, 13, 48, 200):
        tab = rock2_tableau(s)
        A, b, c = butcher_tableau(tab)
        assert abs(b.sum() - 1) < 1e-10
        assert abs((b * c[:-1]).sum() - 0.5) < 1e-10


def test_rock2_unsupported_degree():
    degrees = rock2_degrees()
    assert 41 not in degrees
    with pytest.raises(ValueError, match="nearest available: 40, 44"):
        rock2_tableau(41)


def test_butcher_reconstruction_matches_recursion():
    rng = np.random.RandomState(20)
    M = rng.randn(5, 5) * 0.4
    y0 = rng.randn(5)
    f = lambda t, y: M @ y
    for s in (3, 5, 10):
        for name in ("rkc", "rock2"):
            tab = rkc_tableau(s) if name == "rkc" else rock2_tableau(s)
            A, b, c = butcher_tableau(tab)
            dt = 0.05
            F = []
            for i in range(s):
                Ui = y0 + dt * sum(A[i, j] * F[j] for j in range(i))
                F.append(f(0.0, Ui))
            explicit = y0 + dt * sum(b[j] * F[j] for j in range(s))
            step = rkc_step if name == "rkc" else rock2_step
            recursed, _ = step(f, y0, 0.0, dt, tab)
            assert np.max(np.abs(explicit - recursed)) < 1e-12


def test_rkc_step_trivial_rhs():
    tab = rkc_tableau(6)
    y = np.array([2.0, -1.0])
    y1, err = rkc_step(lambda t, y: np.zeros_like(y), y, 0.0, 0.3, tab, err_norm=MAXNORM)
    assert np.array_equal(y1, y) and err == 0.0
    y1, err = rkc_step(lambda t, y: np.ones_like(y), y, 0.0, 0.3, tab, err_norm=MAXNORM)
    assert np.max(np.abs(y1 - y - 0.3)) < 1e-13
    assert err < 1e-13     # 12(-dt) + 6 dt (1 + 1) cancels


def test_rkc_amplification_matches_chebyshev_form():
    s = 5
    tab = rkc_tableau(s, 0.15)
    for z in (-0.1, -2.0, -10.0):
        x = tab.w0 + tab.w1 * z
        Ts = np.cosh(s * np.arccosh(np.abs(x))) * np.sign(x) ** s if abs(x) > 1 \
            else np.cos(s * np.arccos(x))
        expect = tab.a[s] + tab.b[s] * Ts
        got = stability_poly_eval("rkc", s, np.array([z]))[0]
        assert abs(got - expect) < 1e-12 * max(1, abs(expect))


def test_rock2_step_trivial_rhs_and_consistency():
    tab = rock2_tableau(7)
    y = np.array([1.5])
    y1, err = rock2_step(lambda t, y: np.zeros_like(y), y, 0.0, 0.2, tab, err_norm=MAXNORM)
    # the three-term form reproduces y only to rounding (-nu - kappa = 1)
    assert np.max(np.abs(y1 - y)) < 1e-14 and err == 0.0
    y1, _ = rock2_step(lambda t, y: np.ones_like(y), y, 0.0, 0.2, tab)
    assert abs(y1[0] - 1.7) < 1e-12


def test_rock2_stability_within_growth_law():
    for s in (5, 13):
        bound = 0.95 * 0.811 * s * s
        z = -np.linspace(1e-3, bound, 2000)
        R = stability_poly_eval("rock2", s, z)
        assert np.max(np.abs(R)) <= 1.0 + 1e-12


def test_pirock_reduces_to_rock2():
    rng = np.random.RandomState(21)
    M = rng.randn(4, 4) * 0.3
    y0 = rng.randn(4)
    tab = rock2_tableau(6)
    fd = lambda t, y: M @ y
    fa = lambda t, y: np.zeros_like(y)
    y_ro, _ = rock2_step(fd, y0, 0.0, 0.1, tab)
    y_pi, _ = pirock_step((fd, fa), y0, 0.0, 0.1, tab)
    assert np.max(np.abs(y_ro - y_pi)) < 1e-12


def test_pirock_constant_advection():
    tab = rock2_tableau(5)
    y0 = np.array([0.3, -0.7])
    y1, _ = pirock_step((lambda t, y: np.zeros_like(y), lambda t, y: np.ones_like(y)),
                        y0, 0.0, 0.4, tab)
    assert np.max(np.abs(y1 - y0 - 0.4)) < 1e-12


def test_pirock_second_order_on_split_linear():
    tab = rock2_tableau(6)
    lam_d, lam_a = -1.0, 0.5
    dts = [0.1, 0.05, 0.025, 0.0125]
    errs = []
    for dt in dts:
        y1, _ = pirock_step((lambda t, y: lam_d * y, lambda t, y: lam_a * y),
                            np.array([1.0]), 0.0, dt, tab)
        errs.append(abs(y1[0] - np.exp((lam_d + lam_a) * dt)))
    slope = fit_slope(dts, errs)
    assert slope > 2.8       # local error O(dt^3)


def test_rk4_frozen_values_and_order():
    y1, _ = rk4_step(lambda t, y: np.ones_like(y), np.array([1.0]), 0.0, 0.5, None)
    assert abs(y1[0] - 1.5) < 1e-15
    y1, _ = rk4_step(lambda t, y: y, np.array([1.0]), 0.0, 0.1, None)
    taylor4 = 1 + 0.1 + 0.1**2 / 2 + 0.1**3 / 6 + 0.1**4 / 24
    assert abs(y1[0] - taylor4) < 1e-15
    dts = [0.1, 0.05, 0.025]
    errs = []
    for dt in dts:
        y = np.array([1.0])
        t = 0.0
        while t < 1.0 - 1e-12:
            y, _ = rk4_step(lambda t, y: -y, y, t, dt, None)
            t += dt
        errs.append(abs(y[0] - np.exp(-1.0)))
    slope = fit_slope(dts, errs)
    assert abs(slope - 4.0) < 0.1


def test_fixed_step_order_two_on_forced_scalar():
    # y' = -y + sin(t): both methods converge at second order
    f = lambda t, y: -y + np.sin(t)
    exact = lambda t: 1.5 * np.exp(-t) + 0.5 * (np.sin(t) - np.cos(t))
    for name in ("rkc", "rock2"):
        errs, dts = [], []
        for m in range(4, 11, 2):
            dt = 2.0**-m
            tab = rkc_tableau(5) if name == "rkc" else rock2_tableau(5)
            step = rkc_step if name == "rkc" else rock2_step
            y, t = np.array([1.0]), 0.0
            n = int(round(1.0 / dt))
            for _ in range(n):
                y, _ = step(f, y, t, dt, tab)
                t += dt
            errs.append(abs(y[0] - exact(1.0)))
            dts.append(dt)
        slope = fit_slope(dts, errs)
        assert abs(slope - 2.0) < 0.1, (name, slope)


def test_stability_bound_sharpness():
    # smallest unstable step exceeds 0.95 l_s / rho on y' = -rho y
    rho = 1.0
    for name, growth in (("rkc", 0.653), ("rock2", 0.811)):
        for s in (5, 10, 20):
            z = -0.95 * growth * s * s
            R = stability_poly_eval(name, s, np.array([z]))[0]
            assert abs(R) <= 1.0 + 1e-12, (name, s, R)


def test_hook_neutrality_bit_for_bit():
    rng = np.random.RandomState(22)
    M = rng.randn(6, 6) * 0.2
    y0 = rng.randn(6)
    f = lambda t, y: M @ y + np.sin(t)
    identity = StageHook(True, lambda i, ci, ti, ystar: ystar)
    for step, tab in ((rkc_step, rkc_tableau(7)), (rock2_step, rock2_tableau(7))):
        plain, _ = step(f, y0, 0.1, 0.05, tab)
        hooked, _ = step(f, y0, 0.1, 0.05, tab, hook=identity)
        assert np.array_equal(plain, hooked)
    assert np.array_equal(rk4_step(f, y0, 0.1, 0.05, None)[0],
                          rk4_step(f, y0, 0.1, 0.05, None, hook=identity)[0])


@pytest.mark.parametrize("method", list(METHODS))
def test_every_method_steps_through_one_contract(method):
    # Stepper.advance(f, y, t, dt, hook, err_norm) -> (y1, err) for every
    # method; PIROCK's f is the operator-split pair, and a step refuses what
    # its MethodSpec says it cannot do
    spec = METHODS[method]
    s = next(c for c in spec.stage_counts() if c >= 3)
    stepper = Stepper(method, s)
    f = lambda t, y: -y
    rhs = (f, lambda t, y: np.zeros_like(y)) if spec.split else f
    y0 = np.array([1.0, -2.0])
    y1, err = stepper.advance(rhs, y0, 0.0, 0.1)
    assert err is None
    R = stability_poly_eval(method, s, np.array([-0.1]))[0]
    assert np.allclose(y1, R * y0, rtol=1e-14, atol=0)
    assert np.max(np.abs(y1 - y0 * np.exp(-0.1))) < 1e-3
    if spec.estimated == ():
        with pytest.raises(ValueError, match="no error estimate"):
            stepper.advance(rhs, y0, 0.0, 0.1, err_norm=MAXNORM)
    else:
        y1_err, err = stepper.advance(rhs, y0, 0.0, 0.1, err_norm=MAXNORM)
        assert np.array_equal(y1_err, y1) and 0 < err < 1e-2
    identity = StageHook(True, lambda i, ci, ti, ystar: ystar)
    if spec.split:
        with pytest.raises(ValueError, match="processes no stages"):
            stepper.advance(rhs, y0, 0.0, 0.1, hook=identity)
    else:
        assert np.array_equal(stepper.advance(rhs, y0, 0.0, 0.1, hook=identity)[0], y1)


def test_rkc_error_estimate_refused_with_projection():
    hook = StageHook(True, lambda i, ci, ti, ystar: ystar)
    with pytest.raises(ValueError, match="invalid"):
        rkc_step(lambda t, y: y, np.ones(2), 0.0, 0.1, rkc_tableau(4),
                 hook=hook, err_norm=MAXNORM)


def test_stage_hook_rejects_the_non_dual_mode():
    # the recursion always continues with the unprocessed stages
    with pytest.raises(ValueError, match="dual must be True"):
        StageHook(False, lambda i, ci, ti, ystar: ystar)


@pytest.mark.parametrize("z", [np.array([-1.0 + 0.5j]), [-1.0 + 0.5j, -2.0]],
                         ids=["array", "list"])
def test_stability_poly_eval_rejects_complex_z(z):
    with pytest.raises(ValueError, match="only real z"):
        stability_poly_eval("rock2", 5, z)


def test_divergence_detection():
    f = lambda t, y: np.full_like(y, np.nan)
    with pytest.raises(IntegrationDiverged) as exc:
        rkc_step(f, np.ones(2), 0.0, 0.1, rkc_tableau(4))
    assert exc.value.stage == 2


def test_controller_examples():
    # the PI filter: dt·SAFETY·err^-ALPHA·err_prev^BETA on an accepted step
    ctrl = StepController(atol=1.0, rtol=1.0)
    dt_new, accept = propose_dt(ctrl, 0.5, 0.01)
    # a fresh controller proposes the memoryless 0.95·0.5^-0.35·dt
    assert accept and dt_new == pytest.approx(0.012108325959532991, rel=1e-14)
    assert ctrl.err_prev == 0.5
    dt_new, accept = propose_dt(ctrl, 0.25, 0.01)
    # with memory: 0.95·0.25^-0.35·0.5^0.2·dt
    assert accept and dt_new == pytest.approx(0.0134350288425444, rel=1e-14)
    assert ctrl.err_prev == 0.25
    # a rejection ignores the memory, shrinks the step and stores nothing
    dt_new, accept = propose_dt(ctrl, 4.0, 0.01)
    assert not accept and dt_new == pytest.approx(SAFETY * 4.0 ** -ALPHA * 0.01, rel=1e-15)
    assert dt_new < 0.01 and ctrl.err_prev == 0.25
    # a zero error is floored at 1e-14 and the growth clamped
    dt_new, accept = propose_dt(ctrl, 0.0, 0.01)
    assert accept and dt_new == FAC_MAX * 0.01 and ctrl.err_prev == 1e-14
    # clamps bound every proposal
    ctrl2 = StepController(atol=1e-6, rtol=1e-6)
    assert propose_dt(ctrl2, 1e-9, 0.01) == (FAC_MAX * 0.01, True)
    assert propose_dt(ctrl2, 1e3, 0.01) == (FAC_MIN * 0.01, False)


def test_controller_rejects_a_non_finite_error_without_storing_it():
    ctrl = StepController(atol=1e-300, rtol=1e-300)
    for err in (np.inf, np.inf, np.nan):
        dt_new, accept = propose_dt(ctrl, err, 0.01)
        assert not accept and dt_new == FAC_MIN * 0.01
        assert ctrl.err_prev == 1.0
    propose_dt(ctrl, 0.5, 0.01)
    dt_new, accept = propose_dt(ctrl, np.inf, 0.005)
    assert not accept and dt_new == FAC_MIN * 0.005
    assert ctrl.err_prev == 0.5


def test_select_stages():
    assert select_stages(1e-9, 1.0, "rkc") == 2
    assert select_stages(1e-9, 1.0, "rock2") == 3
    assert select_stages(65.3 / 100, 100.0, "rkc") == 10
    assert select_stages(81.1 / 100, 100.0, "rock2") == 10
    assert select_stages(1e-9, 1.0, "rkc", min_stages=3) == 3
    with pytest.raises(ValueError, match="exceeds"):
        select_stages(1e6, 1e6, "rkc")
    with pytest.raises(ValueError, match="exceeds"):
        select_stages(1e6, 1e6, "rock2")


def test_stability_poly_basics():
    for name in ("rkc", "rock2", "pirock", "rk4"):
        R0 = stability_poly_eval(name, 5, np.array([0.0]))[0]
        assert abs(R0 - 1.0) < 1e-13
        h = 1e-4
        Rp = (stability_poly_eval(name, 5, np.array([h]))[0]
              - stability_poly_eval(name, 5, np.array([-h]))[0]) / (2 * h)
        assert abs(Rp - 1.0) < 1e-6


def test_rkc_damped_strip():
    s = 15
    ls = 0.653 * s * s
    z = -np.linspace(1.0, 0.9 * ls, 4000)
    R = stability_poly_eval("rkc", s, z)
    assert np.max(np.abs(R)) <= 0.98


def test_rock2_table_path_resolution(tmp_path, monkeypatch):
    # the vendored table is the only one; the environment plays no part
    from chebflow.integrators import _rock2_records
    degrees = rock2_degrees()
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("x 1\n")
    monkeypatch.setenv("CHEBFLOW_ROCK2_TABLE", str(corrupt))
    _rock2_records.cache_clear()
    assert rock2_degrees() == degrees


def test_rock2_parser_rejects_malformed_files(tmp_path):
    from chebflow.integrators import _parse_rock2_table
    header = tmp_path / "header.txt"
    header.write_text("x 1\n")
    with pytest.raises(ValueError, match="corrupt ROCK2 table near: x 1"):
        _parse_rock2_table(header)
    short = tmp_path / "short.txt"       # s = 3 needs three mu values
    short.write_text("s 3 eta 1 l 1 lstar 1 sigma 0.4 tau 0.3\n"
                     "mu 0.1 0.2\nnu 0.1 0.2\nkappa 0.1 0.2\n")
    with pytest.raises(ValueError, match="corrupt ROCK2 record for s=3"):
        _parse_rock2_table(short)
    # a header without tau, and a record cut short after its mu line, name
    # the file and the degree
    no_tau = tmp_path / "no_tau.txt"
    no_tau.write_text("s 3 sigma 0.4\nmu 0.1 0.2 0.3\nnu 0.1 0.2\nkappa 0.1 0.2\n")
    cut = tmp_path / "cut.txt"
    cut.write_text("s 3 sigma 0.4 tau 0.3\nmu 0.1 0.2 0.3\n")
    for path in (no_tau, cut):
        message = f"corrupt ROCK2 record for s=3 in {re.escape(str(path))}"
        with pytest.raises(ValueError, match=message):
            _parse_rock2_table(path)


def test_controller_norm_is_weighted_rms_norm_bit_for_bit():
    # a quarter of such vectors give another last bit when summed in another
    # order (np.dot), so twenty of them pin the order of np.mean
    ctrl = StepController(atol=1e-3, rtol=1e-4)
    rng = np.random.RandomState(4)
    cases = [(rng.randn(n) * 10.0 ** rng.uniform(-6, 0), rng.randn(n))
             for n in [33024] * 20 + [7, 1]]
    cases += [(np.zeros(n), np.zeros(n)) for n in (33024, 7)] + [(rng.randn(7), np.zeros(7))]
    for err, y in cases:
        want = weighted_rms_norm(err, y, ctrl.atol, ctrl.rtol)
        assert np.float64(ctrl.norm(err, y)).tobytes() == np.float64(want).tobytes()
    assert ctrl.norm(np.zeros(5), np.ones(5)) == 0.0
