"""Outside-in span tracer for chebflow.

The tracer never edits the package.  It replaces, for the duration of a
``with installed(...)`` block, the module attributes through which callers
actually reach each layer (``coupling.momentum_rhs`` rather than only
``spatial.momentum_rhs``, ``bench.dae_step``, ``poisson.dct2d`` ...), plus a
few methods on their classes, and it wraps the callbacks of a problem before
that problem is handed to ``run_simulation(problem=...)``.  Every wrapped call
records one span ``(id, parent, name, start_ns, end_ns, key)`` in memory;
aggregation happens after the timed region.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the self times of all spans
of a pass add up to the time covered by its root spans.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> per-layer metric base.  Several span names can feed one metric.
LAYER_OF_SPAN = {
    "grid.bc": "grid.bc",
    "spatial.walls": "spatial.walls",
    "spatial.rhs": "spatial.rhs",
    "spatial.div": "spatial.div",
    "spatial.grad": "spatial.grad",
    "dct.fwd": "dct.fwd",
    "dct.inv": "dct.inv",
    "poisson.solve": "poisson.solve",
    "integrators.step": "integrators.step",
    "integrators.controller": "integrators.controller",
    "coupling.step": "coupling.step",
    "coupling.hook": "coupling.hook",
    "coupling.recover": "coupling.recover",
    "coupling.rhs_flat": "coupling.rhs_flat",
    "problems.forcing": "problems.forcing",
    "bench.run": "bench.driver",
    "bench.trial": "bench.driver",
    "bench.study": "bench.driver",
}


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn, key=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``key(*args, **kwargs)``, when given, is stored with the span (used
        for the boundary sample time and the transform size).
        """
        if fn is None:
            return None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            k = key(*args, **kwargs) if key is not None else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, k))

        return traced

    def take(self):
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _patch(target, attr, value, undo):
    undo.append((target, attr, getattr(target, attr)))
    setattr(target, attr, value)


@contextmanager
def installed(tracer, cf):
    """Trace the chebflow layers reached through the modules in ``cf``.

    ``cf`` is a namespace holding the imported modules ``bench``,
    ``coupling``, ``spatial``, ``poisson`` and ``integrators``.  Every patch is
    undone on exit.
    """
    w = tracer.wrap
    undo = []
    try:
        bench, coupling, spatial, poisson = cf.bench, cf.coupling, cf.spatial, cf.poisson
        _patch(bench, "run_simulation", w("bench.run", bench.run_simulation), undo)
        _patch(bench, "_stable_run", w("bench.trial", bench._stable_run), undo)
        _patch(bench, "max_stable_dt", w("bench.study", bench.max_stable_dt), undo)
        for name in ("dae_step", "pm1_step", "pm1v_step", "pm3_step"):
            _patch(bench, name, w("coupling.step", getattr(bench, name)), undo)
        for name in ("ap1_pressure", "ap2_pressure", "ap2w_pressure",
                     "pm1_second_order_pressure"):
            _patch(bench, name, w("coupling.recover", getattr(bench, name)), undo)
        for name in ("select_stages", "propose_dt"):
            _patch(bench, name, w("integrators.controller", getattr(bench, name)), undo)
        _patch(cf.integrators.StepController, "norm",
               w("integrators.controller", cf.integrators.StepController.norm), undo)

        _patch(coupling, "momentum_rhs", w("spatial.rhs", coupling.momentum_rhs), undo)
        _patch(coupling, "divergence", w("spatial.div", coupling.divergence), undo)
        _patch(coupling, "gradient_to_faces",
               w("spatial.grad", coupling.gradient_to_faces), undo)
        for name in ("rkc_step", "rock2_step", "rk4_step", "pirock_step"):
            _patch(coupling, name, w("integrators.step", getattr(coupling, name)), undo)
        stage_hook = coupling.StageHook
        _patch(coupling, "StageHook",
               lambda mode="none", callback=None:
               stage_hook(mode, w("coupling.hook", callback)), undo)
        rhs_flat = coupling.FlowSystem.rhs_flat
        _patch(coupling.FlowSystem, "rhs_flat",
               lambda self, cfg, p=None: w("coupling.rhs_flat", rhs_flat(self, cfg, p)),
               undo)

        _patch(spatial, "wall_velocities",
               w("spatial.walls", spatial.wall_velocities,
                 key=lambda bc, spec, t: (bc.velocity, t)), undo)
        _patch(poisson, "dct2d",
               w("dct.fwd", poisson.dct2d, key=_plan_key), undo)
        _patch(poisson, "idct2d",
               w("dct.inv", poisson.idct2d, key=_plan_key), undo)
        _patch(poisson.PoissonSolver, "solve",
               w("poisson.solve", poisson.PoissonSolver.solve), undo)
        yield
    finally:
        for target, attr, old in reversed(undo):
            setattr(target, attr, old)


def traced_problem(tracer, problem):
    """A copy of ``problem`` whose boundary and forcing callbacks record spans."""
    w = tracer.wrap
    bc = problem.boundary
    boundary = dataclasses.replace(
        bc, velocity=w("grid.bc", bc.velocity), velocity_dt=w("grid.bc", bc.velocity_dt))
    make = problem.forcing_factory

    def traced_factory(*points):
        return w("problems.forcing", make(*points))

    return dataclasses.replace(problem, boundary=boundary,
                               forcing=w("problems.forcing", problem.forcing),
                               forcing_factory=traced_factory if make else None)


def _plan_key(plan, values):
    return plan.algorithm, plan.N, plan.cutoff


def dct_flops(algorithm, n, cutoff):
    """Nominal floating-point operations of one 2D transform of an n x n array.

    Leading-order counts from the algorithm's structure (computed, not
    measured): the 2D transform is n one-dimensional transforms along each
    axis.  ``naive`` is a dense matrix product (2 n^2 per 1D transform),
    ``iterative`` runs five-operation recurrences over n/2 x n/2 terms for
    each parity, ``recursive`` does about 2.5 n operations per halving level,
    and ``hybrid`` recurses down to the cutoff and finishes iteratively.
    """
    def one_d(m, algo):
        if algo == "naive":
            return 2.0 * m * m
        if algo == "iterative":
            return 2.5 * m * m
        if algo == "recursive":
            return 2.5 * m * math.log2(max(m, 2))
        raise ValueError(algo)

    if algorithm == "hybrid":
        cutoff = min(cutoff, n)
        cost = 2.5 * n * math.log2(n / cutoff) + (n / cutoff) * one_d(cutoff, "iterative")
    else:
        cost = one_d(n, algorithm)
    return 2.0 * n * cost


def summarize(spans):
    """Per-layer counts and self times of one pass's spans.

    Returns ``(calls, self_s, extra)``: calls and self seconds keyed by layer
    metric base, and ``extra`` with the covered seconds, the number of
    distinct (run, boundary, sample time) keys of the boundary samplings
    and the computed DCT operations.
    """
    child_ns = defaultdict(int)
    parent_of = {}
    run_ids = set()
    for sid, parent, name, start, end, key in spans:
        parent_of[sid] = parent
        if parent >= 0:
            child_ns[parent] += end - start
        if name == "bench.run":
            run_ids.add(sid)

    def enclosing_run(sid):
        while sid >= 0 and sid not in run_ids:
            sid = parent_of[sid]
        return sid

    calls = Counter()
    self_ns = Counter()
    covered_ns = 0
    walls = set()
    flops = 0.0
    for sid, parent, name, start, end, key in spans:
        layer = LAYER_OF_SPAN[name]
        calls[name] += 1
        self_ns[layer] += end - start - child_ns[sid]
        if parent < 0:
            covered_ns += end - start
        if name == "spatial.walls":
            walls.add((enclosing_run(sid), key))
        elif name in ("dct.fwd", "dct.inv"):
            flops += dct_flops(*key)
    extra = {"covered_s": covered_ns * 1e-9, "distinct_walls": len(walls),
             "dct_flops": flops}
    return dict(calls), {k: v * 1e-9 for k, v in self_ns.items()}, extra
