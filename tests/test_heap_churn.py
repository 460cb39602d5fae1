"""``tools/heap_churn.py`` runs a benchmark workload and reports its passes."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "heap_churn.py")


def test_one_workload_prints_times_faults_and_digest():
    out = subprocess.run([sys.executable, TOOL, "--passes", "1", "taylor_dae_n64"],
                         capture_output=True, text=True, timeout=300, check=True).stdout
    name, min_s, median_s, faults, lo, hi, digest = out.split()
    assert name == "taylor_dae_n64" and float(min_s) == float(median_s) > 0
    assert int(faults) >= 0 and lo == f"[{faults}," and hi == f"{faults}]"
    assert len(digest) == 12 and int(digest, 16) >= 0


def test_an_unknown_workload_is_refused():
    run = subprocess.run([sys.executable, TOOL, "no_such_workload"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 2 and "unknown workload 'no_such_workload'" in run.stderr
