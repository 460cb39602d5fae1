"""The field-digest matrix covers every choice ``RunConfig`` accepts.

``tools/field_digest.py`` (loaded here as a file, unchanged) is the check
that two source trees compute bitwise identical fields; a choice it does not
run could change unseen.  No solver runs here.
"""

import importlib.util
import os
from itertools import product

import numpy as np

from chebflow import bench
from chebflow.dct import ALGORITHMS

DIGEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "tools", "field_digest.py")


def load_field_digest():
    spec = importlib.util.spec_from_file_location("field_digest", DIGEST_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loading_the_tool_leaves_the_environment_unchanged(monkeypatch):
    # the tool pins the BLAS threads when it runs, not when it is loaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    load_field_digest()
    assert dict(os.environ) == before


def accepted_on_some_problem():
    """Every fixed-step (integrator, coupling, pressure, cp) that validates
    on at least one problem."""
    accepted = set()
    for choice in product(bench.INTEGRATORS, bench.COUPLINGS, bench.PRESSURES, (0, 1)):
        for problem in bench.CHOICES["problem"]:
            cfg = bench.RunConfig(problem=problem, nx=16, dt=1e-2, t_end=0.3,
                                  integrator=choice[0], coupling=choice[1],
                                  pressure=choice[2], cp=choice[3])
            try:
                cfg.validate()
            except ValueError:
                continue
            accepted.add(choice)
            break
    return accepted


def test_the_matrix_runs_every_accepted_choice_and_dct_algorithm():
    runs = [cfg for _, cfg in load_field_digest().configs(bench)]
    accepted = accepted_on_some_problem()
    assert len(accepted) == 35
    covered = {(c.integrator, c.coupling, c.pressure, c.cp) for c in runs if not c.adaptive}
    assert covered == accepted
    assert {c.dct_algorithm for c in runs} == set(ALGORITHMS)


def test_difference_reports_changed_counters():
    tool = load_field_digest()
    old = {"u": np.zeros(3), "v": np.zeros(3), "p:p1": np.ones(3),
           "counters": np.array([0.3, 30.0, 0.0, 90.0, 0.0])}
    assert tool.difference(old, old).endswith("counters equal")
    new = dict(old, counters=np.array([0.3, 31.0, 1.0, 93.0, 0.0]))
    assert tool.difference(old, new).endswith("counters DIFFER")
