"""The benchmark workloads, their correctness checks and reference values.

Each workload is a scaled-down copy of the acceptance criteria that make up
most of the test gate's time.  A pass executes the workload once through the
public ``chebflow.bench`` API and is then checked; a failed check makes the
pass a failed operation.  No solver path draws random numbers, so every pass
of a workload computes bit-for-bit the same fields.

Import this module only after ``env.prepare()``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from chebflow import bench, coupling, integrators, poisson, spatial
from chebflow.bench import RunConfig

MODULES = SimpleNamespace(bench=bench, coupling=coupling, integrators=integrators,
                          poisson=poisson, spatial=spatial)
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# The Taylor and cavity horizons are half those of criteria 06 and 13: twice
# the passes per run steady the medians, while the step size, the stage
# counts and the cavity's rejection share stay close to the full horizon's.
TAYLOR = RunConfig(problem="taylor", re=100.0, nx=64, t_end=0.5, dt=2.0**-10,
                   integrator="rock2", coupling="dae", pressure="ap1")
# Recorded on the unmodified solver: err_u 1.5653e-5, err_p 1.6965e-4.  The
# bounds leave 10 % for changes that alter rounding but not the scheme.
TAYLOR_ERR_U_MAX = 1.72e-5
TAYLOR_ERR_P_MAX = 1.87e-4

CAVITY = RunConfig(problem="cavity", re=1000.0, nx=128, t_end=5.0, dt=1e-3,
                   adaptive=True, atol=1e-3, rtol=1e-3,
                   integrator="rock2", coupling="dae", pressure="p1")
CAVITY_MAX_SPEED = 10.0

BISECT = RunConfig(problem="forced", re=5.0, nx=64, t_end=0.5, dt=1e-3,
                   integrator="rock2", coupling="pm1", pressure="p1")
BISECT_STAGES = 10
BISECT_REL_TOL = 0.02
BISECT_DT = 1.0097556644015841e-2     # result of the unmodified solver


def cavity_profiles(u, v, p):
    """Velocity and pressure along the cavity's centerlines.

    u(0.5, y) and v(x, 0.5) at the stored unknowns, and the zero-mean
    pressure averaged over the two cell columns next to x = 0.5.
    """
    n = p.shape[0]
    q = p - p.mean()
    return u[n // 2 - 1, :], v[:, n // 2 - 1], 0.5 * (q[n // 2 - 1, :] + q[n // 2, :])


def kinetic_energy(u, v):
    n = u.shape[1]
    return 0.5 * float(np.sum(u * u) + np.sum(v * v)) / n**2


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _single_run(cfg):
    def execute(problem):
        return bench.run_simulation(cfg, problem=problem)
    return execute


def _bisection(problem):
    return bench.max_stable_dt(BISECT, BISECT_STAGES, rel_tol=BISECT_REL_TOL,
                               problem=problem)


def _check_taylor(result, reports, reference):
    failures = []
    if result.unstable or abs(result.t_final - TAYLOR.t_end) > 1e-9:
        failures.append(f"taylor run unstable or stopped at t={result.t_final}")
        return float("nan"), float("nan"), failures
    if not result.err_u <= TAYLOR_ERR_U_MAX:
        failures.append(f"err_u {result.err_u:.6e} > {TAYLOR_ERR_U_MAX:.1e}")
    if not result.err_p <= TAYLOR_ERR_P_MAX:
        failures.append(f"err_p {result.err_p:.6e} > {TAYLOR_ERR_P_MAX:.1e}")
    return result.err_u, result.err_p, failures


def _check_cavity(result, reports, reference):
    """Stable to t_end, bounded speed, stored values matched.

    err_u / err_p are the centerline distances from a tight-tolerance run of
    the same grid (the time-integration error the adaptive run commits).
    The stored samples and the kinetic energy come from the unmodified
    solver; the tolerance is several times the error it commits, so only a
    changed result, not a changed rounding, fails the pass.
    """
    failures = []
    speed = max(np.max(np.abs(result.u)), np.max(np.abs(result.v)))
    if result.unstable or abs(result.t_final - CAVITY.t_end) > 1e-6:
        failures.append(f"cavity run unstable or stopped at t={result.t_final}")
        return float("nan"), float("nan"), failures
    if not speed <= CAVITY_MAX_SPEED:
        failures.append(f"max|u| {speed:.6g} > {CAVITY_MAX_SPEED}")
    ref = reference["cavity_dae_n128"]
    u_line, v_line, p_line = cavity_profiles(result.u, result.v, result.p)
    tight = ref["tight"]
    err_u = max(np.max(np.abs(u_line - tight["u_centerline"])),
                np.max(np.abs(v_line - tight["v_centerline"])))
    err_p = float(np.max(np.abs(p_line - tight["p_centerline"])))
    seed = ref["recorded"]
    idx = seed["sample_index"]
    tol = seed["sample_abs_tol"]
    for name, line in (("u", u_line), ("v", v_line)):
        dev = np.max(np.abs(line[idx] - seed[f"{name}_samples"]))
        if not dev <= tol:
            failures.append(f"{name} centerline samples off by {dev:.3e} > {tol:.1e}")
    ke, ke_ref = kinetic_energy(result.u, result.v), seed["kinetic_energy"]
    if not abs(ke - ke_ref) <= seed["kinetic_energy_rel_tol"] * ke_ref:
        failures.append(f"kinetic energy {ke:.9g} vs recorded {ke_ref:.9g}")
    return float(err_u), err_p, failures


def _check_bisection(result, reports, reference):
    """The bisected step is within rel_tol of the recorded one.

    Trials that blow up are part of the bisection, not failures.  The errors
    reported are those of the trial at the returned (largest stable) step.
    """
    failures = []
    if not abs(result - BISECT_DT) <= BISECT_REL_TOL * BISECT_DT:
        failures.append(f"max stable dt {result:.9e} vs recorded {BISECT_DT:.9e}")
    at_result = [rep for rep in reports if rep.config.dt == result and not rep.unstable]
    if not at_result:
        failures.append("no stable trial at the returned step")
        return float("nan"), float("nan"), failures
    return at_result[-1].err_u, at_result[-1].err_p, failures


@dataclass(frozen=True)
class Workload:
    problem: tuple                  # (name, Re) for make_problem
    execute: Callable               # problem-or-None -> result
    check: Callable                 # (result, reports, reference) -> (err_u, err_p, failures)


WORKLOADS = {
    "taylor_dae_n64": Workload(("taylor", TAYLOR.re), _single_run(TAYLOR), _check_taylor),
    "cavity_dae_n128": Workload(("cavity", CAVITY.re), _single_run(CAVITY), _check_cavity),
    "forced_pm1_bisect_n64": Workload(("forced", BISECT.re), _bisection, _check_bisection),
}


@contextmanager
def recording_runs():
    """Record ``(outer seconds, report)`` for every ``bench.run_simulation`` call.

    The patch sits on the module attribute that the studies call, so the
    bisection's trials are seen too.
    """
    runs = []
    real = bench.run_simulation

    def recorded(cfg, problem=None, track_divergence=False):
        t0 = time.perf_counter()
        rep = real(cfg, problem, track_divergence)
        runs.append((time.perf_counter() - t0, rep))
        return rep

    bench.run_simulation = recorded
    try:
        yield runs
    finally:
        bench.run_simulation = real


def digest(reports, result):
    """SHA-256 over every run's final fields and the workload's result."""
    h = hashlib.sha256()
    for rep in reports:
        for a in (rep.u, rep.v, rep.p):
            h.update(np.ascontiguousarray(a).tobytes())
    if isinstance(result, float):
        h.update(repr(result).encode())
    return h.hexdigest()


def run_pass(workload, problem, reference):
    """Execute and check one pass; ``problem`` None lets the solver build it."""
    with recording_runs() as runs:
        t0 = time.perf_counter()
        result = workload.execute(problem)
        wall = time.perf_counter() - t0
    reports = [rep for _, rep in runs]
    err_u, err_p, failures = workload.check(result, reports, reference)
    return {
        "wall_s": wall,
        "setup_s": sum(outer - rep.wall_time for outer, rep in runs),
        "err_u": err_u,
        "err_p": err_p,
        "counters": {
            "runs": len(reports),
            "unstable_runs": sum(rep.unstable for rep in reports),
            "steps_attempted": sum(rep.steps_attempted for rep in reports),
            "steps_rejected": sum(rep.steps_rejected for rep in reports),
            "total_stages": sum(rep.total_stages for rep in reports),
        },
        "digest": digest(reports, result),
        "failures": failures,
    }
