"""Self-test of the benchmark harness (about two minutes single-threaded).

    python3 perfbench/selftest.py

It checks that a short untraced run and every traced run report exactly
the metrics ``BENCHMARK.json`` declares.  For every workload it makes two
short traced runs with different seeds and asserts that

- every pass is correct and no pass failed;
- the exact counters (runs, steps attempted and rejected, stages) and the
  digest of the final fields are identical across all passes, traced and
  untraced, so tracing cannot perturb results;
- the per-layer call counts (RHS evaluations, Poisson solves, boundary
  callbacks ...) are identical across the traced passes of both runs;
- in every traced pass the per-layer self times add up to the time the
  root spans cover, and that time plus the unattributed remainder is the
  traced pass time.

Finally it runs the benchmark in a directory holding only ``BENCHMARK.json``
and the benchmark's own files, where it must exit non-zero without printing
a result.
"""

import json
import os
import shutil
import subprocess
import sys

from run import OUT_DIR as OUT, WORKLOAD_NAMES as WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace=1, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def declared(kind):
    """Metric name -> unit as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def result_of(proc, kind):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared(kind), (units, declared(kind))
    return result


def traced_record(workload, seed):
    result_of(run(workload, seed), "per_layer")
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace1.json")) as fh:
        return json.load(fh)


def check_workload(workload):
    records = [traced_record(workload, seed) for seed in (1, 2)]
    passes = [p for rec in records for p in rec["passes"]]
    assert {rec["traced_first"] for rec in records} == {True, False}
    assert all(not p["failures"] for p in passes)
    assert len({json.dumps(p["counters"], sort_keys=True) for p in passes}) == 1
    assert len({p["digest"] for p in passes}) == 1
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    assert len(traced) >= 4 and len(untraced) >= 4
    assert len({json.dumps(p["layer_calls"], sort_keys=True) for p in traced}) == 1
    for p in traced:
        self_total = sum(p["layer_self_s"].values())
        assert abs(self_total - p["covered_s"]) < 1e-6, (self_total, p["covered_s"])
        assert 0.0 <= p["wall_s"] - p["covered_s"] < 0.01 * p["wall_s"]
    counters = passes[0]["counters"]
    print(f"{workload}: {len(passes)} passes identical; counters {counters}; "
          f"layer calls {traced[0]['layer_calls']}")


def check_bare_directory():
    """Without the package sources the benchmark must fail, printing no result."""
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 1, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    print(f"bare directory: exit code {proc.returncode}, no result printed")


def main():
    result = result_of(run(WORKLOADS[0], 1, trace=0), "end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values()), result
    for workload in WORKLOADS:
        check_workload(workload)
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
