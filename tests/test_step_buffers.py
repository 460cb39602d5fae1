"""The in-place RKC and ROCK2 steps against the frozen expression form.

``step_oracle`` holds the steps as whole-array expressions; the in-place
steps must reproduce their stages, results and error estimates bit for bit
with and without a stage hook.  ``y`` and every array a hook returns are
read-only here, so a step that writes into one raises.
"""

import numpy as np
import pytest

import step_oracle
from chebflow.integrators import (StageHook, rkc_step, rkc_tableau, rock2_step,
                                  rock2_tableau)

N = 40
_rng = np.random.RandomState(25)
_M = _rng.randn(N, N) * 0.3
_V = _rng.randn(N)
_Y0 = _rng.randn(N)


def rhs(t, y):
    """Nonlinear, time-dependent, and a new array on every call."""
    return _M @ y - 0.4 * y**3 + np.sin(3.0 * t) * _V


def read_only(a):
    a.flags.writeable = False
    return a


def run(step, tableau, hook_kind, with_err):
    """One step; returns (y1, err, copies of every vector handed to the hook
    and to err_norm)."""
    seen = []
    hook = None
    if hook_kind is not None:
        def callback(i, ci, ti, w):
            seen.append((i, w.copy()))
            return read_only(w - 0.05 * np.tanh(w) + 1e-3 * ti)
        hook = StageHook(True, callback)
    err_norm = None
    if with_err:
        def err_norm(e, y):
            seen.append(("err", e.copy()))
            return float(np.sqrt(np.mean((e / (1e-3 + 1e-3 * np.abs(y)))**2)))
    y1, err = step(rhs, read_only(_Y0.copy()), 0.3, 0.0173, tableau, hook, err_norm)
    return y1, err, seen


MODES = [(None, False), ("dual", False), (None, True)]
CASES = ([("rock2", s, hook, err) for s in (3, 4, 10) for hook, err in
          MODES + [("dual", True)]]
         + [("rkc", s, hook, err) for s in (2, 5, 10) for hook, err in MODES])


@pytest.mark.parametrize("method,s,hook_kind,with_err", CASES)
def test_in_place_step_matches_expression_form(method, s, hook_kind, with_err):
    if method == "rkc":
        tab, new, old = rkc_tableau(s), rkc_step, step_oracle.rkc_step
    else:
        tab, new, old = rock2_tableau(s), rock2_step, step_oracle.rock2_step
    y1, err, seen = run(new, tab, hook_kind, with_err)
    y1_ref, err_ref, seen_ref = run(old, tab, hook_kind, with_err)
    assert np.array_equal(y1, y1_ref)
    assert err == err_ref and (err is None) == (not with_err)
    assert [k for k, _ in seen] == [k for k, _ in seen_ref]
    for (_, a), (_, b) in zip(seen, seen_ref):
        assert np.array_equal(a, b)
