import argparse
import os
import re
import warnings

from dataclasses import replace

import numpy as np
import pytest

from chebflow.bench import (HEADERS, RunConfig, centerline_profiles, convergence_study,
                            efficiency_study, fmt, ghia_compare, restrict_field,
                            reynolds_sweep, run_simulation, write_csv, write_outputs)
from chebflow.cli import _add_run_options, _resolve
from chebflow.cli import main as cli_main
from chebflow.grid import read_field


def small_cfg(**kw):
    base = dict(problem="taylor", re=100.0, nx=16, dt=1e-3, t_end=0.02,
                integrator="rock2", coupling="dae", pressure="ap1")
    base.update(kw)
    return RunConfig(**base)


def test_validation_rejects_illegal_combinations():
    bad = [
        dict(integrator="rkc", coupling="dae", adaptive=True),
        dict(integrator="rkc", coupling="pm1v", adaptive=True, pressure="p2"),
        dict(integrator="pirock", coupling="dae"),
        dict(integrator="pirock", coupling="pm1", adaptive=True, pressure="p1"),
        dict(integrator="rock2", coupling="dae", pressure="ap2"),
        dict(integrator="rkc", coupling="dae", pressure="ap2w"),
        dict(integrator="rock2", coupling="pm1", pressure="ap1"),
        dict(integrator="rock2", coupling="dae", pressure="p2"),
        dict(integrator="rk4", coupling="dae", adaptive=True),
        dict(integrator="rkc", coupling="dae", pressure="ap2", stages=2),
        dict(dt=None),
        dict(coupling="dae", cp=1),
        dict(coupling="pm1", pressure="p1", cp=1),
    ]
    for kw in bad:
        with pytest.raises(ValueError):
            small_cfg(**kw).validate()


# integrator -> coupling -> the pressures validate accepts with it
ACCEPTED_FIXED_STEP = {
    "rkc": {"pm1": "p1 p2", "pm1v": "p1 p2", "pm3": "p1 p2", "dae": "p1 ap1 ap2"},
    "rock2": {"pm1": "p1 p2", "pm1v": "p1 p2", "pm3": "p1 p2", "dae": "p1 ap1 ap2w"},
    "pirock": {"pm1": "p1 p2"},
    "rk4": {"pm1": "p1 p2", "pm1v": "p1 p2", "pm3": "p1 p2", "dae": "p1 ap1"},
}
ACCEPTED_ADAPTIVE = {
    "rkc": {"pm1": "p1 p2", "pm3": "p1 p2"},
    "rock2": {"pm1": "p1 p2", "pm1v": "p1 p2", "pm3": "p1 p2", "dae": "p1 ap1 ap2w"},
}
# the (coupling, pressure) pairs validate accepts cp=1 with: the step reads
# the state's pressure (not the DAE's), and the pressure has a per-step
# recovery (not p1, the state's own)
ACCEPTED_CP1 = {("pm1", "p2"), ("pm1v", "p2"), ("pm3", "p2")}


def test_validation_accepts_exactly_the_valid_combinations():
    from itertools import product
    from chebflow.bench import COUPLINGS, INTEGRATORS, PRESSURES
    accepted = set()
    for integrator, coupling, pressure, adaptive, cp in product(
            INTEGRATORS, COUPLINGS, PRESSURES, (False, True), (0, 1)):
        cfg = small_cfg(integrator=integrator, coupling=coupling, pressure=pressure,
                        adaptive=adaptive, cp=cp)
        try:
            cfg.validate()
        except ValueError:
            continue
        accepted.add((integrator, coupling, pressure, adaptive, cp))
    expected = {(integrator, coupling, pressure, adaptive, cp)
                for adaptive, table in ((False, ACCEPTED_FIXED_STEP), (True, ACCEPTED_ADAPTIVE))
                for integrator, couplings in table.items()
                for coupling, pressures in couplings.items()
                for pressure in pressures.split()
                for cp in ((0, 1) if (coupling, pressure) in ACCEPTED_CP1 else (0,))}
    assert len(expected) == 56
    assert accepted == expected


@pytest.mark.parametrize("kw, message", [
    (dict(nx=33, dct_algorithm="iterative"), "iterative DCT requires even N"),
    (dict(nx=24, dct_algorithm="recursive"), "recursive DCT requires N to be a power of two"),
    (dict(problem="nope"), "problem must be one of"),
    # the cavity's walls give no exact wall-normal derivative
    (dict(problem="cavity", coupling="pm3", pressure="p1"), "pm3 needs the exact wall-normal"),
    # the DAE step does not read the pressure a per-step recovery would give it
    (dict(coupling="dae", cp=1), "cp=1 .* the dae step does not read it"),
    # p1 is the state's own pressure: no per-step recovery to run
    (dict(coupling="pm1", pressure="p1", cp=1), "cp=1 .* p1 .* has no recovery"),
], ids=["iterative_odd", "recursive_not_pow2", "unknown_problem", "pm3_without_derivatives",
        "dae_cp1", "p1_cp1"])
def test_validation_rejects_what_the_run_cannot_set_up(kw, message):
    # caught by validate itself, before the run builds its transforms
    with pytest.raises(ValueError, match=message):
        small_cfg(**kw).validate()


def test_zero_horizon_returns_initial_state():
    rep = run_simulation(small_cfg(problem="cavity", t_end=0.0, pressure="p1"))
    assert rep.steps_accepted == 0 and rep.steps_attempted == 0
    assert np.max(np.abs(rep.u)) == 0.0 and np.max(np.abs(rep.v)) == 0.0


def test_counters_are_consistent():
    rep = run_simulation(small_cfg(adaptive=True, atol=1e-5, rtol=1e-5,
                                   t_end=0.1, dt=1e-3))
    assert rep.steps_accepted + rep.steps_rejected == rep.steps_attempted
    assert rep.total_stages >= 3 * rep.steps_attempted
    assert rep.t_final == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("tol", [1e-300, 1e-150])
def test_unreachable_tolerance_stops_at_the_step_floor(tol):
    # 1e-300 overflows the weighted error norm (inf); 1e-150 is finite but
    # out of reach, so each shrinks dt until the loop's end tolerance
    cfg = small_cfg(nx=8, t_end=0.1, adaptive=True, atol=tol, rtol=tol)
    with np.errstate(over="ignore"):
        with pytest.raises(RuntimeError, match=r"dt=.* fell below .* at t=0\.0"):
            run_simulation(cfg)


def test_determinism_bitwise(tmp_path):
    outs = []
    for k in (0, 1):
        out = os.path.join(tmp_path, f"run{k}")
        write_outputs(run_simulation(small_cfg(t_end=0.01)), out)
        outs.append(out)
    for fname in ("u.txt", "v.txt", "p.txt"):
        a = open(os.path.join(outs[0], fname)).read()
        b = open(os.path.join(outs[1], fname)).read()
        assert a == b
    _, _, _, arr = read_field(os.path.join(outs[0], "u.txt"))
    rep = run_simulation(small_cfg(t_end=0.01))
    assert np.array_equal(arr, rep.u)


def test_csv_numbers_round_trip(tmp_path):
    rows = [(np.pi, 1.0 / 3.0), (2.0**-52, 1e300)]
    path = os.path.join(tmp_path, "x.csv")
    write_csv(path, ("a", "b"), rows)
    with open(path) as fh:
        fh.readline()
        for row, line in zip(rows, fh):
            vals = [float(v) for v in line.split(",")]
            assert vals[0] == row[0] and vals[1] == row[1]
    assert fmt(np.pi) == "3.1415926535897931"


def test_restriction_is_exact_on_matching_fields():
    # u restriction averages the two fine y-neighbors symmetric about the
    # coarse point: exact for fields linear in y; the nesting coordinate
    # matches exactly
    Nf = 16
    xf = np.arange(1, Nf) / Nf
    yf = (np.arange(1, Nf + 1) - 0.5) / Nf
    fine_u = xf[:, None] + 2.0 * yf[None, :]
    coarse = restrict_field(fine_u, "u", 2)
    Nc = 8
    xc = np.arange(1, Nc) / Nc
    yc = (np.arange(1, Nc + 1) - 0.5) / Nc
    assert np.max(np.abs(coarse - (xc[:, None] + 2.0 * yc[None, :]))) < 1e-14
    # cell restriction: 4-point average symmetric about the coarse center
    cf = (np.arange(1, Nf + 1) - 0.5) / Nf
    fine_p = 3.0 * cf[:, None] - cf[None, :]
    coarse_p = restrict_field(fine_p, "p", 2)
    cc = (np.arange(1, Nc + 1) - 0.5) / Nc
    assert np.max(np.abs(coarse_p - (3.0 * cc[:, None] - cc[None, :]))) < 1e-14


def test_convergence_degenerate_zero_errors():
    # t_end = 0: every run reproduces the initial state, all errors vanish
    # and the slopes are NaN rather than crashing
    cfg = small_cfg(t_end=0.0, pressure="ap1")
    rows = convergence_study(cfg, axis="time", dts=[1e-2, 5e-3], ref_dt=1e-3)
    assert all(r[1] == 0.0 for r in rows)
    assert all(np.isnan(r[2]) for r in rows)


def test_convergence_rejects_non_nested_grids():
    with pytest.raises(ValueError, match="nested"):
        convergence_study(small_cfg(), axis="space", Ns=[12], ref_N=32)


def test_efficiency_error_decreases_with_tolerance():
    cfg = small_cfg(t_end=0.2, adaptive=True)
    tols = [10.0**-m for m in range(2, 7)]
    rows = efficiency_study([cfg], tols, ref_dt=2e-4)
    errs = [r[2] for r in rows]          # rows sorted by decreasing tol
    pairs = list(zip(errs, errs[1:]))
    ok = sum(1 for a, b in pairs if b <= a * (1 + 1e-9))
    assert ok >= 0.8 * len(pairs)


def test_efficiency_reference_self_check():
    # Richardson check of the reference: halving its step barely moves it
    cfg = RunConfig(problem="taylor", re=100.0, nx=16, t_end=0.05, dt=1e-3,
                    integrator="rk4", coupling="dae", pressure="ap1")
    a = run_simulation(cfg)
    b = run_simulation(RunConfig(**{**cfg.__dict__, "dt": 5e-4}))
    diff = max(np.max(np.abs(a.u - b.u)), np.max(np.abs(a.v - b.v)))
    assert diff <= 1e-9


def test_ghia_compare(tmp_path):
    rep = run_simulation(small_cfg(problem="cavity", re=100.0, nx=16,
                                   t_end=0.05, pressure="p1", coupling="dae",
                                   integrator="rock2"))
    (yk, u_prof), (xk, v_prof) = centerline_profiles(rep)
    path = os.path.join(tmp_path, "ref.csv")
    with open(path, "w") as fh:
        fh.write("profile,coord,value\n")
        for c, v in zip(yk, u_prof):
            fh.write(f"u,{c:.17g},{v:.17g}\n")
        for c, v in zip(xk, v_prof):
            fh.write(f"v,{c:.17g},{v:.17g}\n")
    res = ghia_compare(rep, path)
    assert res["u"]["rms"] < 1e-13 and res["v"]["rms"] < 1e-13
    # constant shift moves the RMS by exactly that constant
    with open(path, "w") as fh:
        fh.write("profile,coord,value\n")
        for c, v in zip(yk, u_prof):
            fh.write(f"u,{c:.17g},{v + 0.01:.17g}\n")
    res = ghia_compare(rep, path)
    assert abs(res["u"]["rms"] - 0.01) < 1e-12
    assert ghia_compare(rep, os.path.join(tmp_path, "missing.csv")) is None


def test_centerline_walls_default_to_the_reports_problem():
    # the profiles end at the walls of the problem the report's config names:
    # the cavity's lid moves at u = 1, its other walls rest
    from chebflow.problems import lid_driven_cavity
    rep = run_simulation(small_cfg(problem="cavity", re=100.0, nx=16, t_end=0.05,
                                   pressure="p1"))
    (yk, u_prof), (xk, v_prof) = centerline_profiles(rep)
    bcv = lid_driven_cavity(100.0).boundary.velocity
    t, N = rep.t_final, rep.spec.N
    assert u_prof[0] == float(np.asarray(bcv(t, 0.5, 0.0)[0]))
    assert u_prof[-1] == float(np.asarray(bcv(t, 0.5, 1.0)[0])) == 1.0
    assert v_prof[0] == float(np.asarray(bcv(t, 0.0, 0.5)[1])) == 0.0
    assert v_prof[-1] == float(np.asarray(bcv(t, 1.0, 0.5)[1])) == 0.0
    assert np.array_equal(u_prof[1:-1], rep.u[N // 2 - 1, :])
    assert np.array_equal(v_prof[1:-1], rep.v[:, N // 2 - 1])
    assert yk[0] == xk[0] == 0.0 and yk[-1] == xk[-1] == 1.0


def test_unstable_run_is_flagged(tmp_path):
    # far beyond the stability limit with a pinned tiny stage count; the
    # report carries the blow-up, so the overflow raises no numpy warning
    cfg = small_cfg(problem="forced", nx=32, dt=0.2, t_end=2.0, stages=3,
                    coupling="pm1", pressure="p1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_simulation(cfg)
    assert rep.unstable and rep.blow_up_time is not None
    # ROCK2's stages are U_1..U_{s+1}
    assert 0.0 < rep.blow_up_time < cfg.t_end and 1 <= rep.blow_up_stage <= cfg.stages + 1
    write_outputs(rep, str(tmp_path))
    with open(os.path.join(tmp_path, "summary.txt")) as fh:
        summary = dict(line.rstrip("\n").split("=", 1) for line in fh)
    assert summary["unstable"] == "1"
    assert float(summary["blow_up_time"]) == rep.blow_up_time
    assert int(summary["blow_up_stage"]) == rep.blow_up_stage


def test_config_file_and_cli(tmp_path, capsys):
    conf = os.path.join(tmp_path, "run.conf")
    with open(conf, "w") as fh:
        fh.write("# settings\nproblem = taylor\nnx = 16\ndt = 0.001\n"
                 "t_end = 0.01\nintegrator = rock2\ncoupling = dae\npressure = ap1\n")
    out = os.path.join(tmp_path, "cli_out")
    assert cli_main(["run", "--config", conf, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "rock2+dae+ap1 on taylor" in text
    assert os.path.exists(os.path.join(out, "summary.txt"))
    # flag overrides file entry
    assert cli_main(["run", "--config", conf, "--coupling", "pm1",
                     "--pressure", "p1"]) == 0
    assert "rock2+pm1+p1" in capsys.readouterr().out


@pytest.mark.parametrize("line, message", [
    ("integrater = rkc", "unknown key 'integrater'"),
    ("nx = sixteen", "nx: invalid literal"),
    ("integrator = rk5", "integrator: expected one of"),
    ("adaptive = maybe", "adaptive: expected one of"),
], ids=["key", "int", "choice", "bool"])
def test_config_file_rejects_bad_entries(tmp_path, line, message):
    conf = os.path.join(tmp_path, "run.conf")
    with open(conf, "w") as fh:
        fh.write(f"# settings\nproblem = taylor\n{line}\n")
    with pytest.raises(SystemExit, match=re.escape(f"{conf}:3: {message}")):
        cli_main(["run", "--config", conf])


def test_config_file_booleans_in_any_case(tmp_path):
    conf = os.path.join(tmp_path, "run.conf")
    for text, value in (("True", True), ("YES", True), ("1", True),
                        ("False", False), ("no", False), ("0", False)):
        with open(conf, "w") as fh:
            fh.write(f"adaptive = {text}\nno-advection = {text}\n")
        opts = _resolve(argparse.Namespace(config=conf))
        assert opts["adaptive"] is value and opts["advection"] is not value, text


def test_cli_run_flags_and_defaults_are_run_config():
    parser = argparse.ArgumentParser(add_help=False)
    _add_run_options(parser)
    flags = [flag for action in parser._actions for flag in action.option_strings]
    assert sorted(flags) == sorted([
        "--problem", "--re", "--nx", "--dt", "--adaptive", "--atol", "--rtol",
        "--t-end", "--integrator", "--coupling", "--pressure", "--cp", "--stages",
        "--no-advection", "--out", "--config", "--dct-algorithm"])
    opts = _resolve(argparse.Namespace())
    assert opts.pop("out") is None
    assert RunConfig(**opts) == RunConfig()


def test_cli_stability_and_convergence(tmp_path, capsys):
    assert cli_main(["convergence", "--problem", "taylor", "--nx", "16",
                     "--t-end", "0.05", "--dts", "0.01,0.005", "--ref-dt",
                     "0.001", "--integrator", "rock2", "--coupling", "dae",
                     "--pressure", "ap1", "--out", str(tmp_path)]) == 0
    assert os.path.exists(os.path.join(tmp_path, "convergence_time.csv"))
    capsys.readouterr()


def test_cli_convergence_header_matches_its_rows(capsys):
    assert cli_main(["convergence", "--problem", "taylor", "--nx", "8", "--t-end", "0.004",
                     "--dts", "0.002,0.001", "--ref-dt", "0.0005"]) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.startswith("h,err_u,") and len(rows) == 2
    assert all(len(row.split(",")) == len(header.split(",")) for row in rows)


def test_cli_study_options_default_to_the_study_functions(monkeypatch, capsys):
    import chebflow.cli as cli
    calls = {}

    def recorded(name):
        def study(*args, **kwargs):
            calls[name] = (args, kwargs)
            return []
        return study

    for name in ("convergence_study", "stability_sweep", "efficiency_study"):
        monkeypatch.setattr(cli, name, recorded(name))
    for argv in (["convergence"], ["stability", "--values", "4"], ["efficiency"]):
        assert cli_main(argv + ["--problem", "taylor"]) == 0
    assert "axis" not in calls["convergence_study"][1]
    args, kwargs = calls["stability_sweep"]
    assert "dt" not in kwargs and args[0].dt is None
    assert "ref_dt" not in calls["efficiency_study"][1]
    capsys.readouterr()


def test_cli_study_prints_the_lines_of_its_csv(tmp_path, capsys):
    assert cli_main(["stability", "--problem", "forced", "--nx", "8", "--re", "20",
                     "--t-end", "4", "--integrator", "rock2", "--coupling", "dae",
                     "--pressure", "p1", "--values", "3,4", "--out", str(tmp_path)]) == 0
    with open(os.path.join(tmp_path, "stability_max_dt_given_s.csv")) as fh:
        written = fh.read()
    assert capsys.readouterr().out == written
    assert len(written.splitlines()) == 3


def test_study_against_an_unstable_reference_raises():
    # the N=32 reference blows up at t=1.5; its errors of order 1e114 must not
    # come back as convergence rows
    cfg = RunConfig(problem="taylor", re=100.0, nx=8, t_end=4.0, dt=0.25, stages=3,
                    integrator="rock2", coupling="dae", pressure="ap1")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match=r"reference run rock2\+dae\+ap1 on taylor "
                                              r"\(Re=100, N=32, dt=0.25\) blew up at t=1.5"):
        convergence_study(cfg, axis="space", Ns=[8, 16], ref_N=32)
    with np.errstate(over="ignore", invalid="ignore"):
        blown = run_simulation(replace(cfg, nx=32))
    assert blown.unstable
    with pytest.raises(RuntimeError, match="blew up"):
        efficiency_study([small_cfg()], [1e-3], reference=blown)


def test_space_convergence_gives_an_unstable_trial_a_nan_row(monkeypatch):
    # on the reference's grid and step a p1 trial takes the reference's steps,
    # so the N=16 trial is made to blow up by walls that move at NaN speed
    import dataclasses
    from chebflow import bench
    run = bench.run_simulation

    def nan_walls(t, x, y):
        return np.full_like(x, np.nan), np.full_like(y, np.nan)

    def run_with_nan_walls_in_the_fine_trial(cfg, problem=None, **kw):
        if cfg.nx == 16 and cfg.pressure == "p1":
            problem = dataclasses.replace(problem, boundary=dataclasses.replace(
                problem.boundary, velocity=nan_walls))
        return run(cfg, problem=problem, **kw)

    monkeypatch.setattr(bench, "run_simulation", run_with_nan_walls_in_the_fine_trial)
    cfg = RunConfig(problem="taylor", re=100.0, nx=8, t_end=0.5, dt=0.05, stages=3,
                    integrator="rock2", coupling="pm1", pressure="p1")
    coarse, fine = convergence_study(cfg, axis="space", Ns=[8, 16], ref_N=16)
    assert coarse[0] == 1 / 8 and np.all(np.isfinite(coarse[1::2]))
    assert fine[0] == 1 / 16 and np.all(np.isnan(fine[1:]))


def test_space_convergence_compares_p1_with_the_references_p1():
    # the p1 column measures the trial's p1 chain against the reference's own
    # p1, restricted to the trial's grid, not against its recovered pressure
    cfg = RunConfig(problem="taylor", re=100.0, nx=8, t_end=0.125, dt=2.0**-6,
                    integrator="rock2", coupling="dae", pressure="ap1")
    (row,) = convergence_study(cfg, axis="space", Ns=[8], ref_N=16)
    ref, trial = run_simulation(replace(cfg, nx=16)), run_simulation(cfg)
    d = trial.pressures["p1"] - restrict_field(ref.pressures["p1"], "p", 2)
    assert row[5] == float(np.max(np.abs(d - d.mean())))


def test_min_stages_monotone_in_reynolds():
    # with diffusion-only stiffness, rho ~ 1/Re: the smallest stable stage
    # count cannot grow when Re grows
    from chebflow.bench import stability_sweep
    cfg = RunConfig(problem="forced", re=1.0, nx=32, t_end=1.0, dt=1e-2,
                    integrator="rock2", coupling="dae", pressure="p1")
    rows = stability_sweep(cfg, "min_s_given_dt", [1.0, 5.0, 25.0], dt=1e-2)
    ss = [r[1] for r in rows]          # rows sorted by Re
    assert all(b <= a for a, b in zip(ss, ss[1:]))
    # measured counts bracket the theoretical estimate from above
    assert all(r[1] >= r[2] * 0.5 for r in rows)


def test_cli_reynolds_and_efficiency(tmp_path, capsys):
    assert cli_main(["reynolds", "--problem", "taylor", "--nx", "16",
                     "--t-end", "0.05", "--dt", "0.001", "--atol", "1e-4",
                     "--rtol", "1e-4", "--integrator", "rock2", "--coupling",
                     "dae", "--pressure", "ap1", "--re-values", "50,100",
                     "--out", str(tmp_path)]) == 0
    assert os.path.exists(os.path.join(tmp_path, "reynolds.csv"))
    assert capsys.readouterr().out.splitlines()[0] == ",".join(HEADERS["reynolds"])
    assert cli_main(["efficiency", "--problem", "taylor", "--nx", "16",
                     "--t-end", "0.05", "--dt", "0.001", "--integrator", "rock2",
                     "--coupling", "dae", "--pressure", "ap1",
                     "--tolerances", "1e-3,1e-4", "--ref-dt", "5e-4",
                     "--out", str(tmp_path)]) == 0
    assert os.path.exists(os.path.join(tmp_path, "efficiency.csv"))
    capsys.readouterr()


def test_reynolds_sweep_rows_are_sorted_direct_runs():
    cfg = small_cfg(atol=1e-4, rtol=1e-4)
    rows = reynolds_sweep(cfg, [100.0, 50.0])
    assert [row[0] for row in rows] == [50.0, 100.0]
    for row in rows:
        rep = run_simulation(replace(cfg, re=row[0], advection=False, adaptive=True))
        direct = dict(re=row[0], err_u=rep.err_u, avg_stages=rep.avg_stages,
                      total_stages=rep.total_stages, steps=rep.steps_accepted,
                      rejected=rep.steps_rejected)
        got = dict(zip(HEADERS["reynolds"], row))
        del got["wall_time"]
        assert got == direct


def test_cli_stability_and_ghia(tmp_path, capsys):
    assert cli_main(["stability", "--problem", "forced", "--nx", "16", "--re",
                     "20", "--integrator", "rock2", "--coupling", "dae",
                     "--pressure", "p1", "--mode", "max_dt_given_s",
                     "--values", "4", "--out", str(tmp_path)]) == 0
    assert os.path.exists(os.path.join(tmp_path, "stability_max_dt_given_s.csv"))
    ref = os.path.join(tmp_path, "ghia_ref.csv")
    with open(ref, "w") as fh:
        fh.write("profile,coord,value\nu,0.5,0.0\n")
    assert cli_main(["ghia", "--re", "100", "--nx", "16", "--dt", "0.001",
                     "--t-end", "0.02", "--integrator", "rock2", "--coupling",
                     "dae", "--pressure", "p1", "--reference", ref]) == 0
    out = capsys.readouterr().out
    assert "u-centerline: rms" in out


@pytest.mark.parametrize("kw, message", [
    (dict(integrator="rk4", coupling="dae", dt=-1e-3), "dt must be positive"),
    (dict(nx=3), "nx must be at least 4"),
    (dict(re=0.0), "Reynolds number must be positive"),
    (dict(t_end=-0.01), "t_end must be non-negative"),
    (dict(atol=0.0), "atol must be positive"),
    (dict(rtol=-1e-6), "rtol must be positive"),
    (dict(stages=0), "stages must be at least 1"),
    (dict(integrator="rkc", stages=1), "rkc cannot run stages=1; nearest available: 2$"),
    (dict(stages=2), "rock2 cannot run stages=2; nearest available: 3$"),
    (dict(stages=500), "rock2 cannot run stages=500; nearest available: 200$"),
    (dict(integrator="rk4", stages=9), "rk4 cannot run stages=9; nearest available: 4$"),
], ids=["dt", "nx", "re", "t_end", "atol", "rtol", "stages", "rkc_stages",
        "rock2_stages_below", "rock2_stages_above", "rk4_stages"])
def test_validation_rejects_invalid_values(kw, message):
    with pytest.raises(ValueError, match=message):
        run_simulation(small_cfg(**kw))


def test_cli_run_leaves_the_environment_unchanged(capsys):
    before = dict(os.environ)
    assert cli_main(["run", "--problem", "taylor", "--nx", "8", "--dt", "0.001",
                     "--t-end", "0.003", "--integrator", "rock2", "--coupling", "dae",
                     "--pressure", "p1"]) == 0
    assert dict(os.environ) == before
    capsys.readouterr()


def test_adaptive_cavity_samples_its_walls_once():
    import dataclasses
    from chebflow.problems import lid_driven_cavity
    prob = lid_driven_cavity(100.0)
    velocity = prob.boundary.velocity
    times = []

    def counted(t, x, y):
        times.append(t)
        return velocity(t, x, y)

    prob = dataclasses.replace(prob, boundary=dataclasses.replace(prob.boundary, velocity=counted))
    rep = run_simulation(RunConfig(problem="cavity", re=100.0, nx=16, t_end=5.0, dt=0.5,
                                   adaptive=True, atol=1e-3, rtol=1e-3), problem=prob)
    assert rep.steps_rejected > 0 and not rep.unstable
    assert len(times) == 1


def test_adaptive_cavity_takes_the_same_steps_under_every_dct_algorithm():
    # the four DCT algorithms agree to rounding; the step controller must not
    # turn that into different step sequences on this stability-limited flow,
    # as a controller that cycles between accepted and rejected steps did
    from chebflow.dct import ALGORITHMS
    counts = set()
    for algorithm in ALGORITHMS:
        rep = run_simulation(RunConfig(problem="cavity", re=1000.0, nx=64, t_end=5.0,
                                       dt=1e-3, adaptive=True, atol=1e-3, rtol=1e-3,
                                       integrator="rock2", coupling="dae", pressure="p1",
                                       dct_algorithm=algorithm))
        assert not rep.unstable
        counts.add((rep.steps_accepted, rep.steps_rejected, rep.total_stages))
    assert len(counts) == 1
    (accepted, rejected, _), = counts
    assert rejected <= 0.05 * (accepted + rejected)


def test_cavity_stability_studies_terminate():
    # the cavity starts at rest, so only the wall speed can scale the
    # growth test; scaling by the zero initial velocity never settled a trial
    from chebflow.bench import max_stable_dt, min_stable_stages
    cfg = RunConfig(problem="cavity", re=100.0, nx=16, t_end=5.0, dt=0.01,
                    integrator="rock2", coupling="dae", pressure="p1")
    dt = max_stable_dt(cfg, 5)
    assert 0.1 < dt < 1.0
    s = min_stable_stages(cfg, 2.0 * dt)
    assert s > 5
    assert min_stable_stages(cfg, 0.5 * dt) <= 5


def test_adaptive_rkc_pm3_reaches_the_horizon():
    # PM3 projects once per step, after the integrator, so RKC's plain-ODE
    # error estimate holds for it as for PM1
    rep = run_simulation(small_cfg(integrator="rkc", coupling="pm3", pressure="p1",
                                   adaptive=True, atol=1e-4, rtol=1e-4, t_end=0.05))
    assert not rep.unstable and rep.t_final == pytest.approx(0.05, abs=1e-12)
    assert rep.steps_accepted > 0 and np.isfinite(rep.err_u)


def _theory(cfg, s):
    from chebflow.grid import GridSpec
    from chebflow.integrators import method_spec
    from chebflow.spatial import spectral_radius_estimate
    rho = spectral_radius_estimate(GridSpec(cfg.nx, nu=1.0 / cfg.re))
    return method_spec(cfg.integrator).growth * s * s / rho


def _bisection_before_deferral(stable, theory, rel_tol):
    """The bisection that first confirmed the lower bracket 0.5*theory."""
    lo, hi = 0.5 * theory, 1.5 * theory
    while not stable(lo):
        lo *= 0.5
        if lo < 1e-6 * theory:
            raise RuntimeError("no stable step found")
    while stable(hi):
        hi *= 1.5
        if hi > 16 * theory:
            break
    while (hi - lo) > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("c", [0.8, 1.2, 2.0, 20.0, 0.3, 0.05, 1e-7])
def test_max_stable_dt_trial_order_and_fallback(monkeypatch, c):
    # a trial is stable iff dt <= c*theory; no solver runs
    from chebflow import bench
    cfg, s, rel_tol = small_cfg(), 5, 0.02
    theory = _theory(cfg, s)
    trials = []

    def threshold(dt):
        return dt <= c * theory

    def record(cfg_, prob, dt, s_):
        assert s_ == s
        trials.append((dt, threshold(dt)))
        return trials[-1][1]

    monkeypatch.setattr(bench, "_stable_run", record)
    if c < 1e-6:
        with pytest.raises(RuntimeError, match="no stable step found"):
            bench.max_stable_dt(cfg, s, rel_tol=rel_tol)
        return
    result = bench.max_stable_dt(cfg, s, rel_tol=rel_tol)
    assert (result, True) in trials
    cap = 1.5 * theory
    while not cap > 16 * theory:
        cap *= 1.5
    above = [dt for dt, ok in trials if not ok] + [cap]
    assert any(result < dt and dt - result <= rel_tol * result for dt in above)
    if c >= 0.5:
        before = []
        expected = _bisection_before_deferral(lambda dt: before.append(dt) or threshold(dt),
                                               theory, rel_tol)
        assert result == expected
        assert len(trials) == len(before) - 1
        assert 0.5 * theory not in [dt for dt, _ in trials]
    else:
        assert [dt for dt, _ in trials].count(0.5 * theory) == 1


@pytest.mark.parametrize("coupling, expected", [("pm1", "0.04157185554504393"),
                                                ("dae", "0.04833936691284179")])
def test_max_stable_dt_bit_for_bit(coupling, expected):
    # real trials on the forced flow; a bisection that runs 0.5*theory
    # first returns these same values, so skipping that trial moves nothing
    from chebflow.bench import max_stable_dt
    cfg = RunConfig(problem="forced", re=5.0, nx=16, t_end=1.0,
                    integrator="rock2", coupling=coupling, pressure="p1")
    assert repr(max_stable_dt(cfg, 5)) == expected


def test_stability_trial_too_short_to_blow_up_raises():
    # at t_end=0.1 every trial took one or two clipped steps and none could
    # blow up: the bisection ran stable up to the cap and returned 9.2546
    # against a theory of 0.55
    from chebflow.bench import max_stable_dt, min_stable_stages
    cfg = RunConfig(problem="forced", re=100.0, nx=16, t_end=0.1,
                    integrator="rock2", coupling="dae", pressure="p1")
    with pytest.raises(ValueError, match=r"dt=0\.82\d* takes fewer than 5 full steps "
                                         r"to t_end=0\.1"):
        max_stable_dt(cfg, 5)
    with pytest.raises(ValueError, match=r"dt=0\.05 takes fewer than 5 full steps"):
        min_stable_stages(cfg, 0.05)


def test_stability_studies_reject_a_method_without_growth_law():
    from chebflow.bench import max_stable_dt, min_stable_stages, stability_sweep
    cfg = small_cfg(integrator="rk4", nx=8, t_end=0.002)
    for study in (lambda: max_stable_dt(cfg, 4), lambda: min_stable_stages(cfg, 1e-3),
                  lambda: stability_sweep(cfg, "max_dt_given_s", [4]),
                  lambda: stability_sweep(cfg, "min_s_given_dt", [100.0], dt=1e-3)):
        with pytest.raises(ValueError, match="rk4 runs a fixed stage count"):
            study()


@pytest.mark.parametrize("content, message", [
    ("coord,profile,value\nu,0.5,0.0\n", r"ref\.csv, line 1: header must be"),
    ("profile,coord,value\nu,0.5,0.0\nw,0.5,0.0\n", r"ref\.csv, line 3: profile must be"),
], ids=["header", "label"])
def test_ghia_compare_rejects_bad_reference(tmp_path, content, message):
    rep = run_simulation(small_cfg(problem="cavity", nx=16, t_end=0.002, pressure="p1"))
    path = os.path.join(tmp_path, "ref.csv")
    with open(path, "w") as fh:
        fh.write(content)
    with pytest.raises(ValueError, match=message):
        ghia_compare(rep, path)
