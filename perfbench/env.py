"""Process set-up for the benchmark: BLAS thread pin, package path, record.

``prepare()`` must run before anything imports numpy.  It pins the BLAS and
OpenMP thread pools to one thread (on a small machine the default thread
pool makes a 128 x 128 DCT up to a hundred times slower and the timings
measure the BLAS scheduler rather than chebflow), then puts the checkout's
``src`` directory first on the import path and refuses any other copy of
the package.
"""

from __future__ import annotations

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory or process."""


def prepare():
    """Pin BLAS threads and import chebflow from this checkout's ``src``."""
    if "numpy" in sys.modules and any(os.environ.get(k) != v for k, v in THREAD_PIN.items()):
        raise SetupError("numpy was imported before the BLAS thread pin was set")
    os.environ.update(THREAD_PIN)
    if not os.path.isfile(os.path.join(SRC, "chebflow", "__init__.py")):
        raise SetupError(f"no chebflow package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import chebflow

    where = os.path.realpath(chebflow.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"chebflow was imported from {where}, not from {SRC}")


def _git_commit():
    """HEAD of the checkout read from ``.git`` directly; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def record(seed):
    """Versions, thread settings and machine facts for the result file."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in THREAD_PIN},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }
