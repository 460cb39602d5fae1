"""Simulation driver and experiment studies.

``run_simulation`` advances one configuration (problem x integrator x
coupling x pressure policy) and reports final fields, errors against the
exact solution when one exists, and the step/stage counters.  The study
functions reproduce the benchmark protocols: temporal/spatial convergence
with a fine numerical reference, stability sweeps (largest stable step for
fixed stage counts, smallest stable stage count for fixed steps), tolerance
sweeps for work-precision data, Reynolds-number sweeps, and the comparison
of cavity centerline profiles against user-supplied reference data.

Runs and studies return their results and write nothing.  ``write_outputs``
dumps a run's fields (in the grid module's format) and summary to a
directory; ``write_csv``/``write_rows`` write a study's rows as CSV whose
numbers carry 17 significant digits (re-parsing reproduces them exactly).
Runs are fully deterministic; the only non-reproducible column is wall time.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .coupling import (CouplingState, FlowSystem, PressureNeeds, Stepper, ap1_pressure,
                       ap2_pressure, ap2w_pressure, dae_step, pm1_second_order_pressure,
                       pm1_step, pm1v_step, pm3_step)
from .grid import (GridSpec, inf_norm, sample_pressure, sample_velocity, write_field,
                   zero_mean)
from .dct import ALGORITHMS, DEFAULT_ALGORITHM, check_size
from .integrators import (METHODS, IntegrationDiverged, StepController, growth_stages,
                          growth_step, method_spec, nearest_stage_counts, propose_dt,
                          select_stages)
from .poisson import shared_solver
from . import coupling, spatial
from .problems import PROBLEMS, ProblemSpec, make_problem
from .spatial import spectral_radius_estimate

INTEGRATORS = tuple(METHODS)
COUPLINGS = tuple(coupling.COUPLINGS)
PRESSURES = tuple(dict.fromkeys(p for c in coupling.COUPLINGS.values() for p in c.pressures))
# the values of RunConfig's choice fields: validate checks them, the CLI offers them
CHOICES = dict(problem=tuple(PROBLEMS), integrator=INTEGRATORS, coupling=COUPLINGS,
               pressure=PRESSURES, cp=(0, 1), dct_algorithm=ALGORITHMS)
# the columns of each study's rows (the stability sweep's by mode), as its CSV
# file and the CLI print them
HEADERS = {
    "convergence": ("h", "err_u", "slope_u", "err_p", "slope_p", "err_p1", "slope_p1"),
    "max_dt_given_s": ("s", "measured", "theory"),
    "min_s_given_dt": ("re", "measured", "theory"),
    "efficiency": ("method", "tol", "err_u", "err_p", "wall_time", "steps", "total_stages"),
    "reynolds": ("re", "err_u", "wall_time", "avg_stages", "total_stages", "steps",
                 "rejected"),
}


@dataclass(frozen=True)
class RunConfig:
    """One simulation configuration.  Fully deterministic given its fields,
    which are frozen: a variant is a new config (``dataclasses.replace``)."""

    problem: str = "forced"
    re: float = 100.0
    nx: int = 64
    t_end: float = 1.0
    dt: Optional[float] = None          # fixed step, or initial step if adaptive
    adaptive: bool = False
    atol: float = 1e-6
    rtol: float = 1e-6
    integrator: str = "rock2"
    coupling: str = "dae"
    pressure: str = "p1"
    cp: int = 0                         # 0: recover pressure at t_end only; 1: every step,
                                        # for the next step to read
    stages: Optional[int] = None        # fixed stage count (otherwise selected per step)
    advection: bool = True
    dct_algorithm: str = DEFAULT_ALGORITHM

    def validate(self) -> "RunConfig":
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, "
                                 f"got {getattr(self, name)!r}")
        if not self.adaptive and self.dt is None:
            raise ValueError("fixed-step runs need dt")
        # `not x > 0` also rejects NaN
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.nx < 4:
            raise ValueError(f"nx must be at least 4 cells per side, got {self.nx}")
        check_size(self.nx, self.dct_algorithm)
        for name in ("re", "t_end", "atol", "rtol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.re > 0:
            raise ValueError(f"Reynolds number must be positive, got {self.re}")
        if not self.t_end >= 0:
            raise ValueError(f"t_end must be non-negative, got {self.t_end}")
        for name in ("atol", "rtol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        spec = method_spec(self.integrator)
        needs = coupling.PRESSURE_NEEDS.get(self.pressure, PressureNeeds())
        if self.stages is not None:
            if self.stages < 1:
                raise ValueError(f"stages must be at least 1, got {self.stages}")
            counts = spec.stage_counts()
            if self.stages not in counts:
                raise ValueError(f"{self.integrator} cannot run stages={self.stages}; nearest "
                                 f"available: {nearest_stage_counts(counts, self.stages)}")
            if self.stages < needs.min_stages:
                raise ValueError(f"{self.pressure} needs stages >= {needs.min_stages}, "
                                 f"got {self.stages}")
        if spec.couplings is not None and self.coupling not in spec.couplings:
            raise ValueError(f"{self.integrator} does not run the {self.coupling} coupling")
        if self.adaptive and spec.estimated is not None and self.coupling not in spec.estimated:
            raise ValueError(f"adaptive {self.integrator}+{self.coupling} has no error estimate")
        if self.pressure not in coupling.COUPLINGS[self.coupling].pressures:
            raise ValueError(f"the {self.coupling} coupling reports no {self.pressure} pressure")
        if self.cp == 1 and not coupling.COUPLINGS[self.coupling].reads_pressure:
            raise ValueError(f"cp=1 recovers the pressure every step for the next step to "
                             f"read, but the {self.coupling} step's velocities do not depend "
                             f"on it; use cp=0")
        if self.cp == 1 and self.pressure == "p1":
            raise ValueError("cp=1 recovers the pressure every step, but p1 is the state's "
                             "own pressure and has no recovery; use cp=0")
        if needs.integrator not in (None, self.integrator):
            raise ValueError(f"{self.pressure} needs the stages of {needs.integrator}")
        if (self.coupling == "pm3" and make_problem(self.problem, self.re, self.advection)
                .boundary.tangential_normal_derivative is None):
            raise ValueError(f"pm3 needs the exact wall-normal derivatives, which the "
                             f"{self.problem} problem does not give")
        return self


@dataclass
class RunReport:
    config: RunConfig
    spec: GridSpec
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    pressures: dict
    t_final: float
    steps_accepted: int = 0
    steps_rejected: int = 0
    total_stages: int = 0
    last_stages: int = 0
    wall_time: float = 0.0
    unstable: bool = False
    blow_up_time: Optional[float] = None
    blow_up_stage: Optional[int] = None     # the stage that turned non-finite, if one did
    err_u: Optional[float] = None
    err_p: Optional[float] = None
    divergence_history: List[float] = field(default_factory=list)

    @property
    def steps_attempted(self) -> int:
        return self.steps_accepted + self.steps_rejected

    @property
    def avg_stages(self) -> float:
        n = max(self.steps_attempted, 1)
        return self.total_stages / n


def run_simulation(cfg: RunConfig, problem: Optional[ProblemSpec] = None,
                   track_divergence: bool = False) -> RunReport:
    """Advance one configuration to t_end and report fields and counters."""
    cfg.validate()
    prob = problem if problem is not None else make_problem(cfg.problem, cfg.re, cfg.advection)
    spec = GridSpec(cfg.nx, nu=1.0 / cfg.re)
    system = FlowSystem(spec, prob, shared_solver(cfg.nx, cfg.dct_algorithm))
    rho = _spectral_radius(cfg)

    u0 = sample_velocity(spec, prob.initial_velocity(0.0), 0.0)
    if prob.exact_pressure is not None:
        p0 = zero_mean(sample_pressure(spec, prob.exact_pressure, 0.0))
    else:
        p0 = np.zeros((cfg.nx, cfg.nx))
    state = CouplingState(u0, p0, 0.0)

    ctrl = StepController(atol=cfg.atol, rtol=cfg.rtol) if cfg.adaptive else None
    err_norm = ctrl.norm if ctrl is not None else None
    dt = cfg.dt if cfg.dt is not None else 1e-3
    steppers: dict = {}
    report = RunReport(config=cfg, spec=spec, u=u0.u, v=u0.v, p=p0,
                       pressures={}, t_final=0.0)

    min_stages = coupling.PRESSURE_NEEDS.get(cfg.pressure, PressureNeeds()).min_stages
    step = {"pm1": pm1_step, "pm1v": pm1v_step, "pm3": pm3_step, "dae": dae_step}[cfg.coupling]
    # the pressure from the state after a step; p1 is the state's own
    recover = {"p1": None, "p2": pm1_second_order_pressure, "ap1": ap1_pressure,
               "ap2": ap2_pressure, "ap2w": ap2w_pressure}[cfg.pressure]

    def stepper_for(s: int) -> Stepper:
        if s not in steppers:
            steppers[s] = Stepper(cfg.integrator, s)
        return steppers[s]

    t0 = time.perf_counter()
    eps_t = 1e-12 * max(cfg.t_end, 1.0)
    try:
        # a blow-up overflows before the fields are checked; the report carries it
        with np.errstate(over="ignore", invalid="ignore"):
            while state.t < cfg.t_end - eps_t:
                if cfg.adaptive and dt < eps_t:
                    raise RuntimeError(f"adaptive step dt={dt:.3e} fell below the end "
                                       f"tolerance {eps_t:.1e} at t={state.t!r}")
                dt_step = min(dt, cfg.t_end - state.t)
                s_used = cfg.stages or select_stages(dt_step, rho, cfg.integrator, min_stages)
                stepper = stepper_for(s_used)
                new_state, err = step(state, system, stepper, dt_step, err_norm)
                report.total_stages += s_used
                if ctrl is not None and err is not None:
                    dt_new, accept = propose_dt(ctrl, err, dt_step)
                    if not accept:
                        report.steps_rejected += 1
                        dt = min(dt_new, cfg.t_end - state.t)
                        continue
                    dt = dt_new
                report.steps_accepted += 1
                report.last_stages = s_used
                state = new_state
                if track_divergence:
                    div = system.divergence_of(state.u.flatten(), state.t)
                    norm_u = max(inf_norm(state.u), 0.0)
                    report.divergence_history.append(inf_norm(div) / (1.0 + norm_u))
                if cfg.cp == 1:
                    state.p = recover(state, system, stepper)
    except IntegrationDiverged as exc:
        report.unstable = True
        report.blow_up_time = state.t
        report.blow_up_stage = exc.stage
    else:
        if not np.all(np.isfinite(state.u.u)) or not np.all(np.isfinite(state.u.v)):
            report.unstable = True
            report.blow_up_time = state.t
        elif cfg.cp == 0 and recover is not None and report.steps_accepted:
            # the loop ends on an accepted step: its stepper built state.phi_log
            report.pressures["p1"] = state.p
            state.p = recover(state, system, stepper)
    report.wall_time = time.perf_counter() - t0
    report.t_final = state.t
    report.u, report.v, report.p = state.u.u, state.u.v, state.p
    report.pressures[cfg.pressure] = state.p
    report.pressures.setdefault("p1", state.p)
    if not report.unstable and prob.exact_velocity is not None:
        exact = sample_velocity(spec, prob.exact_velocity, state.t)
        report.err_u = inf_norm(state.u - exact)
        if prob.exact_pressure is not None:
            pex = zero_mean(sample_pressure(spec, prob.exact_pressure, state.t))
            report.err_p = inf_norm(zero_mean(state.p - pex))
    return report


def write_outputs(report: RunReport, directory: str) -> None:
    """Write a run's final fields (u.txt, v.txt, p.txt) and summary.txt to directory."""
    os.makedirs(directory, exist_ok=True)
    spec, t = report.spec, report.t_final
    write_field(os.path.join(directory, "u.txt"), "u", spec, t, report.u)
    write_field(os.path.join(directory, "v.txt"), "v", spec, t, report.v)
    write_field(os.path.join(directory, "p.txt"), "p", spec, t, report.p)
    cfg = report.config
    lines = {
        "problem": cfg.problem, "re": cfg.re, "nx": cfg.nx, "t_end": cfg.t_end,
        "integrator": cfg.integrator, "coupling": cfg.coupling,
        "pressure": cfg.pressure, "cp": cfg.cp, "adaptive": int(cfg.adaptive),
        "t_final": report.t_final,
        "steps_attempted": report.steps_attempted,
        "steps_accepted": report.steps_accepted,
        "steps_rejected": report.steps_rejected,
        "total_stages": report.total_stages,
        "avg_stages": report.avg_stages,
        "last_stages": report.last_stages,
        "unstable": int(report.unstable),
        "wall_time": report.wall_time,
    }
    if report.unstable:
        lines["blow_up_time"] = report.blow_up_time
        lines["blow_up_stage"] = report.blow_up_stage
    if report.err_u is not None:
        lines["err_u"] = report.err_u
    if report.err_p is not None:
        lines["err_p"] = report.err_p
    with open(os.path.join(directory, "summary.txt"), "w") as fh:
        for k, v in lines.items():
            fh.write(f"{k}={fmt(v)}\n" if isinstance(v, float) else f"{k}={v}\n")


def fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def write_rows(fh, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write a CSV header and rows to the text file object fh."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(fmt(float(x)) if isinstance(x, (int, float, np.floating))
                          else str(x) for x in row) + "\n")


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w") as fh:
        write_rows(fh, header, rows)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def restrict_to_coarse(fine: np.ndarray, kind: str) -> np.ndarray:
    """One factor-2 restriction onto the coincident coarse positions.

    Staggered points of nested grids never coincide in the staggered
    coordinate, so the restriction pairs the exact match in the nesting
    coordinate with the symmetric two-point average centered exactly on the
    coarse position (four points for cell centers).
    """
    if kind == "u":
        return 0.5 * (fine[1::2, 0::2] + fine[1::2, 1::2])
    if kind == "v":
        return 0.5 * (fine[0::2, 1::2] + fine[1::2, 1::2])
    if kind == "p":
        return 0.25 * (fine[0::2, 0::2] + fine[1::2, 0::2]
                       + fine[0::2, 1::2] + fine[1::2, 1::2])
    raise ValueError(kind)


def restrict_field(fine: np.ndarray, kind: str, factor: int) -> np.ndarray:
    out = fine
    while factor > 1:
        out = restrict_to_coarse(out, kind)
        factor //= 2
    return out


def _slope_rows(xs, errs):
    """Per-row convergence slope against the previous row (NaN first/degenerate)."""
    slopes = [float("nan")]
    for i in range(1, len(xs)):
        if errs[i] > 0 and errs[i - 1] > 0 and xs[i] != xs[i - 1]:
            slopes.append(float(np.log(errs[i - 1] / errs[i]) / np.log(xs[i - 1] / xs[i])))
        else:
            slopes.append(float("nan"))
    return slopes


def fit_slope(xs, errs) -> float:
    """Least-squares slope of log(err) vs log(x), ignoring zero errors."""
    xs = np.asarray(xs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 0
    if keep.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(xs[keep]), np.log(errs[keep]), 1)[0])


def _stable_reference(ref: RunReport) -> RunReport:
    """A study's reference run, or RuntimeError if it blew up."""
    if ref.unstable:
        cfg = ref.config
        raise RuntimeError(f"reference run {cfg.integrator}+{cfg.coupling}+{cfg.pressure} "
                           f"on {cfg.problem} (Re={cfg.re:g}, N={cfg.nx}, dt={cfg.dt}) "
                           f"blew up at t={ref.blow_up_time:g}")
    return ref


def _errors(rep: RunReport, u, v, p, p1=None) -> tuple:
    """Distances of a run from reference fields: max |u - u_ref| over both
    components, then the pressure's (and, if p1 is given, the p1 chain's)
    up to a constant, the max of the zero-mean difference.  NaN for a run
    that blew up."""
    pairs = [(rep.p, p)] + ([(rep.pressures["p1"], p1)] if p1 is not None else [])
    if rep.unstable:
        return (float("nan"),) * (1 + len(pairs))
    errs = [float(max(np.max(np.abs(rep.u - u)), np.max(np.abs(rep.v - v))))]
    for mine, ref in pairs:
        d = mine - ref
        errs.append(float(np.max(np.abs(d - d.mean()))))
    return tuple(errs)


def convergence_study(cfg: RunConfig, axis: str = "time",
                      dts: Optional[Sequence[float]] = None, ref_dt: Optional[float] = None,
                      Ns: Optional[Sequence[int]] = None, ref_N: Optional[int] = None):
    """Temporal or spatial convergence against a fine numerical reference.

    Time axis: fixed grid, reference at the smallest step, h = dt.  Space
    axis: fixed step, reference on the finest (nested) grid restricted to
    each coarse one, h = dx.  Rows are ``HEADERS["convergence"]``: h, then
    the error and slope of u, of the recovered pressure and of p1, each
    against the reference's own.
    """
    prob = make_problem(cfg.problem, cfg.re, cfg.advection)
    # the reference run carries its coupling's second-order pressure
    ref_cfg = replace(cfg, pressure=coupling.COUPLINGS[cfg.coupling].reference, adaptive=False)
    if axis == "time":
        dts = list(dts) if dts is not None else [2.0**-m for m in range(4, 11)]
        ref_dt = ref_dt if ref_dt is not None else 2.0**-12
        ref = _stable_reference(run_simulation(replace(ref_cfg, dt=ref_dt), problem=prob))
        rows = []
        for dt in sorted(dts, reverse=True):
            rep = run_simulation(replace(cfg, dt=dt, adaptive=False), problem=prob)
            # the first-order pressure chain keeps its initialization offset,
            # so it is compared like-for-like against the reference's own p1
            rows.append((dt, *_errors(rep, ref.u, ref.v, ref.p, ref.pressures["p1"])))
    elif axis == "space":
        Ns = list(Ns) if Ns is not None else [16, 32, 64]
        ref_N = ref_N if ref_N is not None else 128
        dt = cfg.dt if cfg.dt is not None else 2.0**-12
        for N in Ns:
            if ref_N % N != 0 or (ref_N // N) & (ref_N // N - 1):
                raise ValueError(f"grid N={N} is not nested in the reference N={ref_N}")
        ref = _stable_reference(run_simulation(replace(ref_cfg, nx=ref_N, dt=dt), problem=prob))
        rows = []
        for N in sorted(Ns):
            rep = run_simulation(replace(cfg, nx=N, dt=dt, adaptive=False), problem=prob)
            r = ref_N // N
            rows.append((1.0 / N, *_errors(rep, restrict_field(ref.u, "u", r),
                                           restrict_field(ref.v, "v", r),
                                           restrict_field(ref.p, "p", r),
                                           restrict_field(ref.pressures["p1"], "p", r))))
    else:
        raise ValueError("axis must be 'time' or 'space'")
    xs = [r[0] for r in rows]
    eu = [r[1] for r in rows]
    ep = [r[2] for r in rows]
    ep1 = [r[3] for r in rows]
    su = _slope_rows(xs, eu)
    sp = _slope_rows(xs, ep)
    sp1 = _slope_rows(xs, ep1)
    return [tuple(v) for v in zip(xs, eu, su, ep, sp, ep1, sp1)]


# ---------------------------------------------------------------------------
# stability sweeps
# ---------------------------------------------------------------------------

# the fewest full steps a stability trial must take: a shorter run cannot
# grow far enough to show an instability, so it would count as stable
MIN_TRIAL_STEPS = 5


def _trial(cfg: RunConfig, dt: float, s: Optional[int]) -> RunConfig:
    """The fixed-step run a stability trial makes at step dt with s stages."""
    return replace(cfg, dt=dt, adaptive=False, stages=s)


def _stable_run(cfg: RunConfig, prob: ProblemSpec, dt: float, s: int) -> bool:
    if cfg.t_end < MIN_TRIAL_STEPS * dt:
        raise ValueError(f"a stability trial at dt={dt:.6g} takes fewer than "
                         f"{MIN_TRIAL_STEPS} full steps to t_end={cfg.t_end:g}; "
                         f"lengthen t_end to at least {MIN_TRIAL_STEPS * dt:.6g}")
    rep = run_simulation(_trial(cfg, dt, s), problem=prob)
    if rep.unstable:
        return False
    u0 = sample_velocity(rep.spec, prob.initial_velocity(0.0), 0.0)
    peak = max(np.max(np.abs(rep.u)), np.max(np.abs(rep.v)))
    if peak <= 10.0 * max(inf_norm(u0), 1e-30):
        return True
    # A flow driven by its walls (the cavity starts at rest) grows to the
    # wall speed: the scale is the larger of the two.  Walls are sampled
    # only here, where the interior scale alone does not settle the trial.
    walls = spatial.wall_velocities(prob.boundary, rep.spec, 0.0)
    scale = max(inf_norm(u0), max(inf_norm(w) for w in walls.values()))
    return peak <= 10.0 * max(scale, 1e-30)


def _spectral_radius(cfg: RunConfig) -> float:
    """The diffusion operator's spectral radius bound on cfg's grid."""
    return spectral_radius_estimate(GridSpec(cfg.nx, nu=1.0 / cfg.re))


def _growth(cfg: RunConfig) -> float:
    """The growth constant of the stability interval; studies need one."""
    growth = method_spec(cfg.integrator).growth
    if growth is None:
        raise ValueError(f"{cfg.integrator} runs a fixed stage count: no growth law to study")
    return growth


def max_stable_dt(cfg: RunConfig, s: int, rel_tol: float = 0.02,
                  problem: Optional[ProblemSpec] = None) -> float:
    """Bisect the largest stable step for a fixed stage count.

    With theory = growth·s²/ρ, the upper bracket starts at 1.5·theory and
    grows by 1.5 while it runs stable, up to the first step above
    16·theory (the cap, which is not run).  The bracket [0.5·theory, hi]
    is then bisected to ``rel_tol``.  Any stable midpoint proves the lower
    end stable, so 0.5·theory is run only if no midpoint was; if it is
    unstable, the bracket moves below it (halving down to 1e-6·theory)
    and is bisected again.  The returned step ran stable, and a step
    within ``rel_tol`` above it ran unstable or is the cap.  A trial
    whose step leaves fewer than ``MIN_TRIAL_STEPS`` full steps to ``t_end``
    raises ValueError instead of running, as does ``rel_tol`` not in (0, inf).
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    _trial(cfg, 1.0, s).validate()      # the trials pick their own steps
    growth = _growth(cfg)
    prob = problem if problem is not None else make_problem(cfg.problem, cfg.re, cfg.advection)
    theory = growth_step(growth, s, _spectral_radius(cfg))
    lo, hi = 0.5 * theory, 1.5 * theory
    while _stable_run(cfg, prob, hi, s):
        hi *= 1.5
        if hi > 16 * theory:
            break
    while True:
        start = lo
        while (hi - lo) > rel_tol * lo:
            mid = 0.5 * (lo + hi)
            if _stable_run(cfg, prob, mid, s):
                lo = mid
            else:
                hi = mid
        if lo > start or _stable_run(cfg, prob, lo, s):
            return lo
        hi, lo = lo, 0.5 * lo
        if lo < 1e-6 * theory:
            raise RuntimeError("no stable step found")


def min_stable_stages(cfg: RunConfig, dt: float,
                      problem: Optional[ProblemSpec] = None) -> int:
    """Smallest tabulated stage count that runs stably at the given step;
    ValueError if dt leaves fewer than ``MIN_TRIAL_STEPS`` full steps to ``t_end``."""
    _trial(cfg, dt, None).validate()
    _growth(cfg)
    prob = problem if problem is not None else make_problem(cfg.problem, cfg.re, cfg.advection)
    for s in method_spec(cfg.integrator).stage_counts():
        if _stable_run(cfg, prob, dt, s):
            return s
    raise RuntimeError("no stable stage count within the cap")


def stability_sweep(cfg: RunConfig, mode: str, values: Sequence, dt: float = 1e-2):
    """Sweep rows for the two stability experiments.

    ``max_dt_given_s``: values are whole stage counts (3.0 is 3, 1.5 raises
    ValueError); rows (s, measured, theory).
    ``min_s_given_dt``: values are Reynolds numbers; rows (Re, s_measured,
    s_theory); run without advection (the sweep isolates the Re effect).
    Every value's trials are validated before any trial runs.
    """
    growth = _growth(cfg)
    if mode == "max_dt_given_s":
        for s in values:
            if not float(s).is_integer():
                raise ValueError(f"stage counts must be whole numbers, got {s!r}")
        stages = [int(s) for s in values]
        for s in stages:
            _trial(cfg, 1.0, s).validate()
        rho = _spectral_radius(cfg)
        return [(s, max_stable_dt(cfg, s), growth_step(growth, s, rho)) for s in stages]
    if mode == "min_s_given_dt":
        cfgs = [replace(cfg, re=float(re_val), advection=False) for re_val in values]
        for cfg_re in cfgs:
            _trial(cfg_re, dt, None).validate()
        return [(cfg_re.re, min_stable_stages(cfg_re, dt),
                 growth_stages(growth, dt, _spectral_radius(cfg_re))) for cfg_re in cfgs]
    raise ValueError("mode must be 'max_dt_given_s' or 'min_s_given_dt'")


# ---------------------------------------------------------------------------
# efficiency and Reynolds sweeps
# ---------------------------------------------------------------------------

def efficiency_study(method_cfgs: Sequence[RunConfig], tolerances: Sequence[float],
                     ref_dt: float = 1e-5, reference: Optional[RunReport] = None):
    """Work-precision rows: per method and tolerance, error vs wall time.

    The reference is an RK4 + DAE run at a small fixed step; errors are
    measured against it in the infinity norm.  Every run is validated first.
    """
    if not method_cfgs:
        return []
    runs = [(cfg, tol, replace(cfg, adaptive=True, atol=tol, rtol=tol).validate())
            for cfg in method_cfgs for tol in tolerances]
    base = method_cfgs[0]
    if reference is None:
        reference = run_simulation(RunConfig(
            problem=base.problem, re=base.re, nx=base.nx, t_end=base.t_end, dt=ref_dt,
            integrator="rk4", coupling="dae", pressure="ap1", advection=base.advection))
    reference = _stable_reference(reference)
    rows = []
    for cfg, tol, run in runs:
        rep = run_simulation(run)
        err_u, err_p = _errors(rep, reference.u, reference.v, reference.p)
        rows.append((f"{cfg.integrator}+{cfg.coupling}+{cfg.pressure}+cp{cfg.cp}", tol,
                     err_u, err_p, rep.wall_time, rep.steps_accepted, rep.total_stages))
    rows.sort(key=lambda r: (r[0], -r[1]))
    return rows


def reynolds_sweep(cfg: RunConfig, re_values: Sequence[float]):
    """Adaptive runs over Reynolds numbers, advection neglected.

    Rows: (Re, err_u, wall_time, avg_stages, total_stages, steps, rejected).
    """
    rows = []
    for re_val in re_values:
        rep = run_simulation(replace(cfg, re=float(re_val), advection=False, adaptive=True))
        rows.append((float(re_val),
                     rep.err_u if rep.err_u is not None else float("nan"),
                     rep.wall_time, rep.avg_stages, rep.total_stages,
                     rep.steps_accepted, rep.steps_rejected))
    rows.sort(key=lambda r: r[0])
    return rows


# ---------------------------------------------------------------------------
# cavity centerline comparison
# ---------------------------------------------------------------------------

def centerline_profiles(report: RunReport):
    """u on the vertical and v on the horizontal centerline, wall values included.

    The wall values are the boundary velocity of the problem the report's
    config names.
    """
    N = report.spec.N
    if N % 2:
        raise ValueError("centerline extraction needs even N")
    cfg = report.config
    bc_velocity = make_problem(cfg.problem, cfg.re, cfg.advection).boundary.velocity
    dx = report.spec.dx
    yk = np.concatenate([[0.0], (np.arange(1, N + 1) - 0.5) * dx, [1.0]])
    u_line = report.u[N // 2 - 1, :]
    u0 = float(np.asarray(bc_velocity(report.t_final, 0.5, 0.0)[0]))
    u1 = float(np.asarray(bc_velocity(report.t_final, 0.5, 1.0)[0]))
    v0 = float(np.asarray(bc_velocity(report.t_final, 0.0, 0.5)[1]))
    v1 = float(np.asarray(bc_velocity(report.t_final, 1.0, 0.5)[1]))
    u_prof = np.concatenate([[u0], u_line, [u1]])
    xk = yk
    v_line = report.v[:, N // 2 - 1]
    v_prof = np.concatenate([[v0], v_line, [v1]])
    return (yk, u_prof), (xk, v_prof)


def ghia_compare(report: RunReport, reference_csv: str):
    """RMS/max deviation of centerline profiles from reference data.

    The reference file is a CSV with header ``profile,coord,value``; rows
    with profile ``u`` give u(0.5, y) at coord = y, rows with ``v`` give
    v(x, 0.5) at coord = x.  A missing file gives None; another header or
    profile label, a data row without exactly three fields, or a coord or
    value that is not a number raises ValueError naming the file and line;
    blank lines are skipped.  The wall values are taken as in
    ``centerline_profiles``.
    """
    if not os.path.exists(reference_csv):
        return None
    ref = {"u": [], "v": []}
    with open(reference_csv) as fh:
        header = fh.readline()
        if [h.strip() for h in header.split(",")] != ["profile", "coord", "value"]:
            raise ValueError(f"{reference_csv}, line 1: header must be "
                             f"'profile,coord,value', got {header.strip()!r}")
        for lineno, line in enumerate(fh, start=2):
            row = line.strip()
            if not row:
                continue
            where = f"{reference_csv}, line {lineno}"
            parts = row.split(",")
            if len(parts) != 3:
                raise ValueError(f"{where}: a row must have the 3 fields profile,coord,value, "
                                 f"got {row!r}")
            if parts[0] not in ref:
                raise ValueError(f"{where}: profile must be 'u' or 'v', got {parts[0]!r}")
            try:
                ref[parts[0]].append((float(parts[1]), float(parts[2])))
            except ValueError:
                raise ValueError(f"{where}: coord and value must be numbers, got {row!r}") from None
    (yk, u_prof), (xk, v_prof) = centerline_profiles(report)
    out = {}
    for name, (coords, prof) in (("u", (yk, u_prof)), ("v", (xk, v_prof))):
        data = sorted(ref[name])
        if not data:
            continue
        cs = np.array([c for c, _ in data])
        vals = np.array([v for _, v in data])
        interp = np.interp(cs, coords, prof)
        dev = interp - vals
        out[name] = {"rms": float(np.sqrt(np.mean(dev**2))),
                     "max": float(np.max(np.abs(dev)))}
    return out
