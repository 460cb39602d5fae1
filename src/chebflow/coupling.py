"""Incompressibility couplings for the stabilized integrators.

Two families are implemented.

Projection methods advance the momentum equation with the pressure frozen
at p_n and restore incompressibility with Poisson solves:

- PM1  projects once per step (and updates p via (2/dt) phi);
- PM1V projects every internal stage, advancing the recursion with the
  projected stages;
- PM3  is PM1 with exact wall-normal derivative data replacing the
  Dirichlet tangential wall values in the one-sided diffusion stencil
  (a test-only device for quantifying the virtual-velocity boundary layer).

The differential-algebraic step treats the semi-discrete system as an
index-2 DAE: the momentum right-hand side carries no pressure at all, every
stage U*_i is projected through the pressure-like variable phi_i solving
``lap phi_i = div(U*_i, t_i) / (c_i dt)``, and the recursion is advanced
with the unprojected buffers (the realization equivalent to the Butcher
form of the method).  Accurate pressures are recovered afterwards: AP1 by
one extra Poisson solve of the hidden constraint, AP2 by differentiating a
Lagrange interpolant of the pressure primitive through the phi_i (needs
second-order internal stages, i.e. RKC), AP2W by first combining three
first-order phi_i into a second-order average (for ROCK2's order-one
stages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .grid import BoundaryData, CellField, GridSpec, VelocityField
from .integrators import (Rock2Tableau, StageHook, method_spec,
                          pirock_step, rk4_step, rkc_step, rock2_step)
from . import spatial
from .poisson import PoissonSolver
from .spatial import MomentumRhsConfig, divergence, gradient_to_faces, momentum_rhs

_DEGENERATE_NODE_TOL = 1e-12


@dataclass(frozen=True)
class Coupling:
    """One entry of ``COUPLINGS``: the facts about a coupling that validation
    and the studies read."""

    pressures: Tuple[str, ...]   # the pressures it reports: p1, the state's, then recoveries
    reference: str               # the second-order one its studies' reference runs use


COUPLINGS = {
    "pm1": Coupling(("p1", "p2"), "p2"),
    "pm1v": Coupling(("p1", "p2"), "p2"),
    "pm3": Coupling(("p1", "p2"), "p2"),
    "dae": Coupling(("p1", "ap1", "ap2", "ap2w"), "ap1"),
}

# AP2 reconstructs through U_s and U_{s+1}, which must be distinct from U_1
# and U_2: the smallest stage count it runs
AP2_MIN_STAGES = 3


@dataclass(frozen=True)
class PressureNeeds:
    """What a recovered pressure needs of the integrator; a pressure not in
    ``PRESSURE_NEEDS`` needs nothing."""

    integrator: Optional[str] = None   # the only integrator whose stages it can use
    min_stages: int = 1                # the fewest stages it can use


PRESSURE_NEEDS = {
    "ap2": PressureNeeds("rkc", AP2_MIN_STAGES),   # second-order internal stages
    "ap2w": PressureNeeds("rock2"),                # weights for ROCK2's order-one stages
}


class Stepper:
    """One integrator method bound to a stage count."""

    def __init__(self, method: str, s: int):
        self.method = method
        self.tableau = method_spec(method).tableau(s)
        self.s = s

    def advance(self, f, y, t, dt, hook=None, err_norm=None):
        if self.method == "rkc":
            return rkc_step(f, y, t, dt, self.tableau, hook, err_norm)
        if self.method == "rock2":
            return rock2_step(f, y, t, dt, self.tableau, hook, err_norm)
        if self.method == "rk4":
            return rk4_step(f, y, t, dt, hook), None
        raise ValueError("pirock steps through pm1_step's operator split")


@dataclass
class FlowSystem:
    """Grid, boundary data, forcing and the shared Poisson solver.

    The pointwise ``forcing(t, x, y)`` becomes one grid evaluator ``g(t)``
    at the stored u and v points, built by ``forcing_factory`` when given;
    ``rhs_config`` hands it to every momentum RHS, stages and pressure
    recoveries alike.
    The boundary data are sampled through ``walls(t)``, which keeps the
    last sample: a projected stage's divergence and the next stage's
    momentum RHS share one boundary evaluation at their common time.
    The stencils run in one set of scratch arrays (``work``), built on
    first use and shared by the RHS and the stage projections, so a
    system serves one thread at a time.
    """

    spec: GridSpec
    bc: BoundaryData
    forcing: Optional[Callable] = None
    advection: bool = True
    poisson: Optional[PoissonSolver] = None
    forcing_factory: Optional[Callable] = None

    def __post_init__(self):
        if self.poisson is None:
            self.poisson = PoissonSolver(self.spec.N)
        self._forcing_eval = None
        if self.forcing is not None:
            (xu, yu), (xv, yv) = self.spec.u_points(), self.spec.v_points()
            if self.forcing_factory is not None:
                self._forcing_eval = self.forcing_factory(xu, yu, xv, yv)
            else:
                forcing = self.forcing
                self._forcing_eval = lambda t: (forcing(t, xu, yu)[0], forcing(t, xv, yv)[1])
        self._last_walls = None
        self._work = None

    @property
    def work(self) -> spatial.StencilWork:
        if self._work is None:
            self._work = spatial.StencilWork(self.spec.N)
        return self._work

    def walls(self, t: float):
        """``spatial.wall_velocities`` at time t, reused while t repeats.

        Time-independent boundary data keep their first sample for every t.
        """
        last = self._last_walls
        if (last is None or last[1] is not self.bc
                or (last[0] != t and not self.bc.time_independent)):
            walls = spatial.wall_velocities(self.bc, self.spec, t)
            last = self._last_walls = (t, self.bc, walls)
        return last[2]

    def rhs_config(self, include_pressure: bool, pm3: bool = False,
                   advection: Optional[bool] = None, diffusion: bool = True,
                   forcing: bool = True) -> MomentumRhsConfig:
        return MomentumRhsConfig(
            include_pressure=include_pressure,
            include_advection=self.advection if advection is None else advection,
            forcing=self._forcing_eval if forcing else None,
            pm3_derivative=self.bc.tangential_normal_derivative if pm3 else None,
            include_diffusion=diffusion,
        )

    def rhs_flat(self, cfg: MomentumRhsConfig, p: Optional[CellField] = None):
        """Momentum RHS as a callable on flattened state vectors.

        Every call returns a new array: the integrators keep earlier
        evaluations (f_0, f_{s-2}) across later ones.
        """
        N = self.spec.N

        def f(t, w):
            out = np.empty(w.size)
            momentum_rhs(VelocityField.from_flat(w, N), p, self.bc, self.spec, t, cfg,
                         walls=self.walls(t), out=VelocityField.from_flat(out, N),
                         work=self.work)
            return out

        return f

    def divergence_of(self, w: np.ndarray, t: float, out=None) -> CellField:
        """Divergence of the flat state ``w`` at t, into ``out`` when given."""
        return divergence(VelocityField.from_flat(w, self.spec.N), self.bc, self.spec, t,
                          walls=self.walls(t), out=out, work=self.work)


@dataclass
class CouplingState:
    """Velocity/pressure pair plus the per-step log of stage potentials."""

    u: VelocityField
    p: CellField
    t: float
    phi_log: List[Tuple[int, float, CellField]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# projection methods
# ---------------------------------------------------------------------------

def _project_once(system: FlowSystem, w_star: np.ndarray, t: float,
                  h: Optional[float] = None):
    """Project the flat state ``w_star`` at t; returns (w, phi).

    phi solves lap phi = div(w_star) / h and w = w_star - h grad(phi); ``h``
    None means h = 1 without the two scalings.  The divergence and the
    gradient live in the system's scratch arrays; w is a new array.
    """
    work = system.work
    div = system.divergence_of(w_star, t, out=work.div)
    if h is not None:
        div.values /= h
    phi = system.poisson.solve(div)
    gradient_to_faces(phi, system.spec, out=VelocityField.from_flat(work.grad, system.spec.N))
    if h is not None:
        work.grad *= h
    return w_star - work.grad, phi


def pm1_step(state: CouplingState, system: FlowSystem, stepper: Stepper,
             dt: float, err_norm=None, pm3: bool = False):
    """One projection step: integrate with frozen pressure, project, update p.

    Returns (new_state, err); err is the pre-projection estimate when an
    error norm is supplied (the projection itself is error-free for the
    divergence-free part).
    """
    if pm3 and system.bc.tangential_normal_derivative is None:
        raise ValueError("PM3 requires exact boundary derivatives")
    cfg = system.rhs_config(include_pressure=True, pm3=pm3)
    p_n = state.p
    w0 = state.u.flatten()
    t = state.t
    if stepper.method == "pirock":
        # diffusion operator carries the frozen pressure gradient; advection
        # operator carries the nonlinear term and the forcing
        f_d = system.rhs_flat(system.rhs_config(True, pm3=pm3, advection=False,
                                                forcing=False), p_n)
        f_a = system.rhs_flat(system.rhs_config(False, diffusion=False))
        w_star = pirock_step(f_d, f_a, w0, t, dt, stepper.tableau)
        err = None
    else:
        f = system.rhs_flat(cfg, p_n)
        w_star, err = stepper.advance(f, w0, t, dt, hook=None, err_norm=err_norm)
    w_new, phi1 = _project_once(system, w_star, t + dt)
    p_new = CellField(p_n.values + (2.0 / dt) * phi1.values).zero_mean()
    new = CouplingState(VelocityField.from_flat(w_new, system.spec.N), p_new, t + dt)
    return new, err


def pm3_step(state: CouplingState, system: FlowSystem, stepper: Stepper,
             dt: float, err_norm=None):
    """PM1 with the exact-derivative tangential boundary treatment."""
    return pm1_step(state, system, stepper, dt, err_norm=err_norm, pm3=True)


def _stage_hook(system: FlowSystem, dual: bool, dt: float, log: list):
    """The hook projecting every stage, logged as (i, c_i, phi_i): PM1V's state,
    or (``dual``, the DAE step) through lap phi_i = div U*_i / (c_i dt)."""

    def project(i, ci, ti, w_star):
        if dual and ci <= _DEGENERATE_NODE_TOL:
            raise ValueError(f"degenerate node c_{i} = {ci}")
        w, phi = _project_once(system, w_star, ti, ci * dt if dual else None)
        log.append((i, ci, phi))
        return w

    return StageHook(dual, project)


def pm1v_step(state: CouplingState, system: FlowSystem, stepper: Stepper,
              dt: float, err_norm=None):
    """Per-stage-projection variant of PM1 (recursion on projected stages)."""
    log: list = []
    hook = _stage_hook(system, False, dt, log)
    f = system.rhs_flat(system.rhs_config(include_pressure=True), state.p)
    w_new, err = stepper.advance(f, state.u.flatten(), state.t, dt, hook, err_norm)
    phi_last = log[-1][2]
    p_new = CellField(state.p.values + (2.0 / dt) * phi_last.values).zero_mean()
    new = CouplingState(VelocityField.from_flat(w_new, system.spec.N), p_new,
                        state.t + dt, phi_log=log)
    return new, err


def dae_step(state: CouplingState, system: FlowSystem, stepper: Stepper,
             dt: float, err_norm=None):
    """Index-2 DAE step: pressure-free RHS, every stage projected, dual buffers.

    The stage potentials (c_i, phi_i) are logged for the pressure
    recoveries; the state pressure is set to the first-order phi_{s+1}.
    """
    log: list = []
    hook = _stage_hook(system, True, dt, log)
    f = system.rhs_flat(system.rhs_config(include_pressure=False))
    w_new, err = stepper.advance(f, state.u.flatten(), state.t, dt, hook, err_norm)
    p_new = log[-1][2].zero_mean()
    new = CouplingState(VelocityField.from_flat(w_new, system.spec.N), p_new,
                        state.t + dt, phi_log=log)
    return new, err


# ---------------------------------------------------------------------------
# pressure recoveries
# ---------------------------------------------------------------------------

def _hidden_constraint(state: CouplingState, system: FlowSystem,
                       p: Optional[CellField], rate_bc: BoundaryData) -> CellField:
    """phi with lap phi = div F(u, t): F the momentum RHS with the pressure p
    (None: no pressure term), its boundary faces the wall rates ``rate_bc``."""
    cfg = system.rhs_config(include_pressure=p is not None)
    F = momentum_rhs(state.u, p, system.bc, system.spec, state.t, cfg,
                     walls=system.walls(state.t), work=system.work)
    rhs = divergence(F, rate_bc, system.spec, state.t, work=system.work)
    return system.poisson.solve(rhs)


def pm1_second_order_pressure(state: CouplingState, system: FlowSystem) -> CellField:
    """Second projection on the acceleration: p + phi2 with lap phi2 = div F."""
    rate_bc = (system.bc.as_rate() if system.bc.velocity_dt is not None
               else BoundaryData(velocity=lambda t, x, y: (np.zeros_like(x), np.zeros_like(y))))
    phi2 = _hidden_constraint(state, system, state.p, rate_bc)
    return CellField(state.p.values + phi2.values).zero_mean()


def ap1_pressure(state: CouplingState, system: FlowSystem) -> CellField:
    """Solve the hidden constraint lap p = div F(u, t) - r1'(t) for the pressure."""
    if system.bc.velocity_dt is None:
        raise ValueError("AP1 requires boundary time derivative")
    return _hidden_constraint(state, system, None, system.bc.as_rate()).zero_mean()


def _lagrange_derivative_at_last(times: np.ndarray) -> np.ndarray:
    """d/dt of each Lagrange basis polynomial, evaluated at the last node."""
    m = len(times)
    tm = times[-1]
    out = np.empty(m)
    for j in range(m):
        others = np.delete(times, j)
        if j == m - 1:
            out[j] = np.sum(1.0 / (tm - others))
        else:
            mask = others != tm
            num = np.prod(tm - others[mask])
            out[j] = num / np.prod(times[j] - others)
    return out


def reconstruct_pressure(entries, dt: float) -> CellField:
    """Pressure point value from running averages phi_i.

    ``entries`` is a list of (c_i, phi_i or None) pairs sorted by node; the
    first entry is the step start (c = 0, average zero) and the last must be
    the step end (c = 1).  Returns the derivative of the interpolant of the
    pressure primitive, evaluated at the step end, with zero-mean gauge.
    """
    cs = np.array([c for c, _ in entries], dtype=float)
    if len(cs) < 3:
        raise ValueError("pressure reconstruction needs at least 3 nodes")
    if np.unique(cs).size != cs.size:
        raise ValueError("pressure reconstruction nodes must be distinct")
    if abs(cs[0]) > 1e-14 or abs(cs[-1] - 1.0) > 1e-10:
        raise ValueError("reconstruction nodes must bracket the step (c=0 and c=1)")
    dl = _lagrange_derivative_at_last(cs * dt)
    N = entries[-1][1].N
    acc = np.zeros((N, N))
    for (c, phi), w in zip(entries[1:], dl[1:]):
        acc += (c * dt) * w * phi.values
    return CellField(acc).zero_mean()


def ap2_pressure(phi_log, stage_indices, dt: float) -> CellField:
    """Lagrange reconstruction through selected stage potentials (RKC).

    ``stage_indices`` selects stages by their U-index; index 1 denotes the
    step start (zero average).  The last selected stage must be the final
    one (node 1).  Stage potentials must be second-order accurate averages,
    which requires second-order internal stages and s >= 3.
    """
    by_index = {i: (c, phi) for i, c, phi in phi_log}
    entries = []
    for k in stage_indices:
        if k == 1:
            entries.append((0.0, None))
        elif k in by_index:
            entries.append(by_index[k])
        else:
            raise ValueError(f"stage {k} not present in the potential log")
    entries.sort(key=lambda e: e[0])
    if entries[0][0] != 0.0:
        raise ValueError("reconstruction must include the step start")
    return reconstruct_pressure(entries, dt)


@dataclass(frozen=True)
class Ap2wCoefficients:
    """Combination weights turning three first-order averages into a
    second-order one (for methods with order-one internal stages)."""

    stages: Tuple[int, int, int]
    c: Tuple[float, float, float]
    e: Tuple[float, float, float]
    alpha: float
    beta: float
    gamma: float


def ap2w_coefficients(tableau: Rock2Tableau, stages=(2, 3, 4)) -> Ap2wCoefficients:
    """Weights annihilating both the O(dt) node offset and the shared
    leading error term of the stage averages; the nodes are the tableau's,
    at which the DAE step projects its stages."""
    from .integrators import butcher_tableau

    A = butcher_tableau(tableau)[0]
    c = tableau.c
    i, j, k = stages

    def e_of(m):
        cm = c[m - 1]
        if cm <= _DEGENERATE_NODE_TOL:
            raise ValueError(f"degenerate node c_{m} = {cm}")
        return 0.5 * cm - float(A[m - 1, :] @ c[:-1]) / cm

    ci, cj, ck = c[i - 1], c[j - 1], c[k - 1]
    if min(abs(ci - cj), abs(ck - cj), abs(ci - ck)) < 1e-12:
        raise ValueError("AP2W stages must have distinct nodes")
    ei, ej, ek = e_of(i), e_of(j), e_of(k)
    alpha = ej / (cj - ci)
    beta = ei / (ci - cj) - ek / (ck - cj)
    gamma = ej / (ck - cj)
    if abs(alpha + beta + gamma) < 1e-10:
        raise ValueError(
            f"AP2W combination degenerates (alpha+beta+gamma = {alpha + beta + gamma:.3e}); "
            "the internal stages are already second order")
    return Ap2wCoefficients(stages=(i, j, k), c=(ci, cj, ck), e=(ei, ej, ek),
                            alpha=alpha, beta=beta, gamma=gamma)


def ap2w_pressure(phi_log, coeffs: Ap2wCoefficients, dt: float) -> CellField:
    """AP2 reconstruction seeded with the combined second-order average."""
    by_index = {i: (c, phi) for i, c, phi in phi_log}
    i, j, k = coeffs.stages
    phi_i, phi_j, phi_k = (by_index[m][1] for m in (i, j, k))
    s_total = coeffs.alpha + coeffs.beta + coeffs.gamma
    bar = CellField((coeffs.alpha * phi_i.values + coeffs.beta * phi_j.values
                     + coeffs.gamma * phi_k.values) / s_total)
    last_index = max(by_index)
    c_last, phi_last = by_index[last_index]
    entries = [(0.0, None), (coeffs.c[1], bar), (c_last, phi_last)]
    return reconstruct_pressure(entries, dt)
