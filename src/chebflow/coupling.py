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
form of the method).  Accurate pressures are recovered afterwards, once,
at the end of a run: AP1 by one extra Poisson solve of the hidden
constraint, AP2 by differentiating the quadratic interpolant of the
pressure primitive through the step start and two phi_i (needs
second-order internal stages, i.e. RKC), AP2W by first combining three
first-order phi_i into a second-order average (for ROCK2's order-one
stages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .grid import CellField, GridSpec, VelocityField
from .integrators import (Rock2Tableau, StageHook, method_spec,
                          pirock_step, rk4_step, rkc_step, rock2_step)
from . import spatial
from .poisson import PoissonSolver
from .problems import ProblemSpec
from .spatial import MomentumRhsConfig, divergence, gradient_to_faces, momentum_rhs

_DEGENERATE_NODE_TOL = 1e-12


@dataclass(frozen=True)
class Coupling:
    """One entry of ``COUPLINGS``: the facts about a coupling that validation
    and the studies read."""

    pressures: Tuple[str, ...]   # the pressures it reports: p1, the state's, then recoveries
    reference: str               # the second-order one its studies' reference runs use
    reads_pressure: bool         # whether its step reads the state's pressure


COUPLINGS = {
    "pm1": Coupling(("p1", "p2"), "p2", True),
    "pm1v": Coupling(("p1", "p2"), "p2", True),
    "pm3": Coupling(("p1", "p2"), "p2", True),
    "dae": Coupling(("p1", "ap1", "ap2", "ap2w"), "ap1", False),
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
    """A problem on a grid, with the shared Poisson solver.

    The grid (``spec``) carries the viscosity; ``problem`` gives the rest:
    the boundary data (``problem.boundary``), whether the momentum RHS
    carries advection (``problem.advection``) and the forcing.  The forcing
    enters as one grid evaluator
    ``g = problem.forcing_factory(xu, yu, xv, yv, spatial.stacked)`` at the
    stored u and v points, built here once; ``rhs_config`` hands it to
    every momentum RHS, stages and pressure recoveries alike.
    The boundary data are sampled through ``walls(t)``, which keeps the
    last sample: a projected stage's divergence and the next stage's
    momentum RHS share one boundary evaluation at their common time.
    The stencils run in one set of scratch arrays (``work``), built on
    first use and shared by the RHS and the stage projections, so a
    system serves one thread at a time.
    """

    spec: GridSpec
    problem: ProblemSpec
    poisson: Optional[PoissonSolver] = None

    def __post_init__(self):
        if self.poisson is None:
            self.poisson = PoissonSolver(self.spec.N)
        make = self.problem.forcing_factory
        self._forcing_eval = (None if make is None else
                              make(*self.spec.u_points(), *self.spec.v_points(), spatial.stacked))
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
        bc, last = self.problem.boundary, self._last_walls
        if (last is None or last[1] is not bc
                or (last[0] != t and not bc.time_independent)):
            walls = spatial.wall_velocities(bc, self.spec, t)
            last = self._last_walls = (t, bc, walls)
        return last[2]

    def rhs_config(self, pm3: bool = False, advection: Optional[bool] = None,
                   diffusion: bool = True, forcing: bool = True) -> MomentumRhsConfig:
        return MomentumRhsConfig(
            include_advection=self.problem.advection if advection is None else advection,
            forcing=self._forcing_eval if forcing else None,
            pm3_derivative=self.problem.boundary.tangential_normal_derivative if pm3 else None,
            include_diffusion=diffusion,
        )

    def rhs_flat(self, cfg: MomentumRhsConfig, p: Optional[CellField] = None):
        """Momentum RHS as a callable on flattened state vectors, with the
        pressure gradient of ``p`` when given.

        The gradient is laid out once, here, for every call of the closure
        (a projection step freezes p for all its stages), into an array of
        the closure's own: closures built with other pressures do not
        disturb it.  Every call returns a new array: the integrators keep
        earlier evaluations (f_0, f_{s-2}) across later ones.
        """
        N = self.spec.N
        grad_p = None if p is None else spatial.stacked_pressure_gradient(p, self.spec)

        def f(t, w):
            out = np.empty(w.size)
            momentum_rhs(VelocityField.views(w, N), grad_p, self.problem.boundary, self.spec,
                         t, cfg, walls=self.walls(t), out=VelocityField.views(out, N),
                         work=self.work)
            return out

        return f

    def divergence_of(self, w: np.ndarray, t: float, out=None) -> CellField:
        """Divergence of the flat state ``w`` at t, into ``out`` when given."""
        return divergence(VelocityField.views(w, self.spec.N), self.problem.boundary,
                          self.spec, t, walls=self.walls(t), out=out, work=self.work)


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
    gradient_to_faces(phi, system.spec, out=VelocityField.views(work.grad, system.spec.N))
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
    if pm3 and system.problem.boundary.tangential_normal_derivative is None:
        raise ValueError("PM3 requires exact boundary derivatives")
    p_n = state.p
    w0 = state.u.flatten()
    t = state.t
    if stepper.method == "pirock":
        # diffusion operator carries the frozen pressure gradient; advection
        # operator carries the nonlinear term and the forcing
        f_d = system.rhs_flat(system.rhs_config(pm3=pm3, advection=False, forcing=False),
                              p_n)
        f_a = system.rhs_flat(system.rhs_config(diffusion=False))
        w_star = pirock_step(f_d, f_a, w0, t, dt, stepper.tableau)
        err = None
    else:
        f = system.rhs_flat(system.rhs_config(pm3=pm3), p_n)
        w_star, err = stepper.advance(f, w0, t, dt, hook=None, err_norm=err_norm)
    w_new, phi1 = _project_once(system, w_star, t + dt)
    p_new = CellField(p_n.values + (2.0 / dt) * phi1.values).zero_mean()
    new = CouplingState(VelocityField.views(w_new, system.spec.N), p_new, t + dt)
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
    f = system.rhs_flat(system.rhs_config(), state.p)
    w_new, err = stepper.advance(f, state.u.flatten(), state.t, dt, hook, err_norm)
    phi_last = log[-1][2]
    p_new = CellField(state.p.values + (2.0 / dt) * phi_last.values).zero_mean()
    new = CouplingState(VelocityField.views(w_new, system.spec.N), p_new,
                        state.t + dt, phi_log=log)
    return new, err


def dae_step(state: CouplingState, system: FlowSystem, stepper: Stepper,
             dt: float, err_norm=None):
    """Index-2 DAE step: pressure-free RHS, every stage projected, dual buffers.

    The stage potentials (c_i, phi_i) are logged for the pressure
    recoveries; the state pressure is set to the first-order phi_{s+1},
    which the next step does not read.
    """
    log: list = []
    hook = _stage_hook(system, True, dt, log)
    f = system.rhs_flat(system.rhs_config())
    w_new, err = stepper.advance(f, state.u.flatten(), state.t, dt, hook, err_norm)
    p_new = log[-1][2].zero_mean()
    new = CouplingState(VelocityField.views(w_new, system.spec.N), p_new,
                        state.t + dt, phi_log=log)
    return new, err


# ---------------------------------------------------------------------------
# pressure recoveries: recover(state, system, stepper, dt) is the pressure at
# state.t after a step of dt by stepper; AP2 and AP2W pick their stages from it
# ---------------------------------------------------------------------------

def _hidden_constraint(state: CouplingState, system: FlowSystem,
                       p: Optional[CellField], recovery: str) -> CellField:
    """phi with lap phi = div F(u, t): F the momentum RHS with the pressure p
    (None: no pressure term), its boundary faces the walls' time derivative;
    boundary data without one raise ``ValueError`` naming the ``recovery``."""
    bc = system.problem.boundary
    if bc.velocity_dt is None:
        raise ValueError(f"{recovery} requires boundary time derivative")
    grad_p = None if p is None else spatial.stacked_pressure_gradient(p, system.spec)
    F = momentum_rhs(state.u, grad_p, bc, system.spec, state.t, system.rhs_config(),
                     walls=system.walls(state.t), work=system.work)
    rhs = divergence(F, bc.as_rate(), system.spec, state.t, work=system.work)
    return system.poisson.solve(rhs)


def pm1_second_order_pressure(state: CouplingState, system: FlowSystem,
                              stepper: Stepper, dt: float) -> CellField:
    """Second projection on the acceleration: p + phi2 with lap phi2 = div F."""
    phi2 = _hidden_constraint(state, system, state.p, "p2")
    return CellField(state.p.values + phi2.values).zero_mean()


def ap1_pressure(state: CouplingState, system: FlowSystem,
                 stepper: Stepper, dt: float) -> CellField:
    """Solve the hidden constraint lap p = div F(u, t) - r1'(t) for the pressure."""
    return _hidden_constraint(state, system, None, "AP1").zero_mean()


def reconstruct_pressure(inner, last) -> CellField:
    """Pressure at the node b of ``last`` from two running averages.

    ``inner`` = (a, phi_a) and ``last`` = (b, phi_b), phi_c the average of
    p over the first c dt of the step.  The quadratic through the
    primitive's values 0, a dt phi_a and b dt phi_b at the step start, a and
    b has the derivative ((2b - a) phi_b - b phi_a) / (b - a) at b (dt
    cancels); returned with zero-mean gauge.
    """
    (a, phi_a), (b, phi_b) = inner, last
    if len({0.0, a, b}) < 3:
        raise ValueError(f"pressure reconstruction nodes 0, {a}, {b} must be distinct")
    return CellField(((2 * b - a) * phi_b.values - b * phi_a.values) / (b - a)).zero_mean()


def ap2_pressure(state: CouplingState, system: FlowSystem,
                 stepper: Stepper, dt: float) -> CellField:
    """Reconstruction through the step start, U_s and U_{s+1} (RKC).

    The stage potentials must be second-order accurate averages, which
    requires second-order internal stages and s >= ``AP2_MIN_STAGES``.
    """
    stages = {i: (c, phi) for i, c, phi in state.phi_log}
    return reconstruct_pressure(stages[stepper.s], stages[stepper.s + 1])


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


def ap2w_coefficients(tableau: Rock2Tableau, stages) -> Ap2wCoefficients:
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


def ap2w_pressure(state: CouplingState, system: FlowSystem,
                  stepper: Stepper, dt: float) -> CellField:
    """AP2 reconstruction through the step start, the combination of U_2, U_3
    and U_4 (second order from ROCK2's first-order stages) and U_{s+1}."""
    coeffs = ap2w_coefficients(stepper.tableau, (2, 3, 4))
    stages = {i: (c, phi) for i, c, phi in state.phi_log}
    phi_i, phi_j, phi_k = (stages[m][1] for m in coeffs.stages)
    s_total = coeffs.alpha + coeffs.beta + coeffs.gamma
    bar = CellField((coeffs.alpha * phi_i.values + coeffs.beta * phi_j.values
                     + coeffs.gamma * phi_k.values) / s_total)
    return reconstruct_pressure((coeffs.c[1], bar), stages[stepper.s + 1])
