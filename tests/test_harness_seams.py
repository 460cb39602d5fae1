"""The names the perfbench tracer patches still carry the layers it counts.

The tracer (``perfbench/tracer.py``, loaded here as a file, unchanged)
replaces module attributes and methods by name; a refactor that drops or
bypasses one of them (say, a dispatch table that captures the step
functions at import) would silently zero a per-layer metric.  Short forced
runs under the tracer must produce a span for each layer they reach.
"""

import importlib.util
import os
from types import SimpleNamespace

import pytest

from chebflow import bench, coupling, integrators, poisson, spatial
from chebflow.problems import make_problem

TRACER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_run(integrator="rock2", **kw):
    """One short forced run under the tracer: (report, its spans)."""
    tracing = load_tracer()
    tracer = tracing.Tracer()
    cfg = bench.RunConfig(problem="forced", re=100.0, nx=8, t_end=3e-3, dt=1e-3,
                          integrator=integrator, cp=1, **kw)
    problem = tracing.traced_problem(tracer, make_problem("forced", cfg.re))
    modules = SimpleNamespace(bench=bench, coupling=coupling, integrators=integrators,
                              poisson=poisson, spatial=spatial)
    with tracing.installed(tracer, modules):
        rep = bench.run_simulation(cfg, problem, False)   # positional, as the workloads call it
    assert rep.steps_accepted == 3 and not rep.unstable
    return rep, tracer.take()


def test_tracer_sees_every_layer_of_a_forced_dae_run():
    _, spans = traced_run(coupling="dae", pressure="ap1")
    name_of = {sid: name for sid, _, name, *_ in spans}
    assert {"spatial.rhs", "spatial.div", "coupling.hook", "coupling.recover",
            "problems.forcing", "coupling.step", "integrators.step",
            "integrators.controller", "coupling.rhs_flat", "poisson.solve", "dct.fwd",
            "dct.inv", "spatial.grad", "spatial.walls", "grid.bc",
            "bench.run"} <= set(name_of.values())
    # every forcing evaluation, stages and recoveries alike, is one momentum RHS's
    assert all(name_of.get(parent) == "spatial.rhs"
               for _, parent, name, *_ in spans if name == "problems.forcing")


def test_tracer_sees_the_projection_step_and_its_recovery():
    # pm1_step and pm1_second_order_pressure, once per step each (cp=1)
    _, spans = traced_run(coupling="pm1", pressure="p2")
    names = [name for _, _, name, *_ in spans]
    assert names.count("coupling.step") == 3 and names.count("coupling.recover") == 3


@pytest.mark.parametrize("integrator, coupling", [("rkc", "pm1"), ("rk4", "dae"),
                                                  ("pirock", "pm1")])
def test_tracer_sees_every_methods_step(integrator, coupling):
    # coupling.Stepper.advance and pm1_step reach each step function through
    # the module name the tracer patches
    _, spans = traced_run(integrator, coupling=coupling, pressure="p1")
    names = [name for _, _, name, *_ in spans]
    assert names.count("integrators.step") == 3 and names.count("coupling.step") == 3
