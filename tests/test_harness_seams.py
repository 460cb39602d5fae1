"""The names the perfbench tracer patches still carry the layers it counts.

The tracer (``perfbench/tracer.py``, loaded here as a file, unchanged)
replaces module attributes and methods by name; a refactor that drops or
bypasses one of them would silently zero a per-layer metric.  One short
forced DAE + AP1 run under the tracer must produce a span for each layer.
"""

import importlib.util
import os
from types import SimpleNamespace

from chebflow import bench, coupling, integrators, poisson, spatial
from chebflow.problems import make_problem

TRACER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_of_a_forced_dae_run():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    cfg = bench.RunConfig(problem="forced", re=100.0, nx=8, t_end=3e-3, dt=1e-3,
                          integrator="rock2", coupling="dae", pressure="ap1", cp=1)
    problem = tracing.traced_problem(tracer, make_problem("forced", cfg.re))
    modules = SimpleNamespace(bench=bench, coupling=coupling, integrators=integrators,
                              poisson=poisson, spatial=spatial)
    with tracing.installed(tracer, modules):
        rep = bench.run_simulation(cfg, problem, False)   # positional, as the workloads call it
    assert rep.steps_accepted == 3 and not rep.unstable
    spans = tracer.take()
    name_of = {sid: name for sid, _, name, *_ in spans}
    assert {"spatial.rhs", "spatial.div", "coupling.hook", "coupling.recover",
            "problems.forcing"} <= set(name_of.values())
    # every forcing evaluation, stages and recoveries alike, is one momentum RHS's
    assert all(name_of.get(parent) == "spatial.rhs"
               for _, parent, name, *_ in spans if name == "problems.forcing")
