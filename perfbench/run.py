"""Run one chebflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload taylor_dae_n64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The workload is executed in passes, one after the other in this process,
until the next pass would end after ``--seconds``; every pass is checked
(see ``workloads.py``) and a failed check counts as a failed operation.

``--trace 0`` reports the end-to-end metrics of untraced passes.  The pass
time is reported as ``wall_ref_s``, scaled to a reference machine speed by a
calibration kernel timed around every pass (see ``calibration_s``); the raw
wall time is kept in the result file.
``--trace 1`` alternates traced and untraced passes (the seed picks which
comes first) and reports the per-layer metrics of the traced ones, plus the
tracing overhead: the median traced pass time over the median untraced one.
Every pass of a workload must reproduce the first pass's counters and the
digest of its fields, traced or not, so tracing cannot perturb results.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, every pass, quartiles, span dump) goes to ``.perfbench_out/``.
The solver draws no random numbers: the seed only orders the passes and is
recorded.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

import env
import tracer as tr

OUT_DIR = os.path.join(env.ROOT, ".perfbench_out")
MIN_PASSES = 3                  # untraced run
MIN_PASSES_EACH = 2             # traced run: at least this many of each kind
# Seconds the calibration kernel takes at the reference machine speed;
# wall_ref_s scales a pass's wall time by CAL_REF_S over the kernel's time
# measured around that pass.
CAL_REF_S = 0.065
WORKLOAD_NAMES = ("taylor_dae_n64", "cavity_dae_n128", "forced_pm1_bisect_n64")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def spread(values):
    """Median, quartiles and sample count of a list of numbers."""
    xs = [x for x in values if x is not None and not math.isnan(x)]
    if not xs:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2], "n": len(xs)}


def calibration_s():
    """Seconds a fixed numpy/Python kernel takes right now.

    Shared hosts change their speed by up to a quarter over minutes, and the
    pass times of every workload move with this kernel's time (correlation
    0.8 to 0.9), so dividing by it removes most of that drift.  The kernel
    mixes what the solver does: a 128 x 128 matrix product, stencil slices,
    trigonometric evaluations, flattening and Python-level loops.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    b = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128) / 128.0
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(70):
        c = b @ b
        for _ in range(30):
            d = (a[2:, :] - 2.0 * a[1:-1, :] + a[:-2, :]) * 4096.0
            e = np.sin(np.pi * a[0]) ** 2 * np.cos(2 * np.pi * a[:, 0])
            f = np.concatenate([d.ravel(order="F"), e])
            acc += float(f[7]) + float(c[3, 5])
    return time.perf_counter() - t0


def run_passes(workload, reference, seconds, traced_first, trace):
    """Execute passes until the next one would overrun ``seconds``."""
    import workloads as wl
    from chebflow.problems import make_problem

    tracer = tr.Tracer()
    passes = []
    start = time.perf_counter()
    cal_before = calibration_s()
    while True:
        traced = trace and (len(passes) % 2 == 0) == traced_first
        t0 = time.perf_counter()
        try:
            if traced:
                problem = tr.traced_problem(tracer, make_problem(*workload.problem))
                with tr.installed(tracer, wl.MODULES):
                    rec = wl.run_pass(workload, problem, reference)
                rec["spans"] = tracer.take()
            else:
                rec = wl.run_pass(workload, None, reference)
        except Exception:
            tracer.take()
            rec = {"wall_s": None, "failures": [traceback.format_exc()]}
        cal_after = calibration_s()
        rec["traced"] = traced
        rec["cal_s"] = 0.5 * (cal_before + cal_after)
        if rec["wall_s"] is not None:
            rec["wall_ref_s"] = rec["wall_s"] * CAL_REF_S / rec["cal_s"]
        cal_before = cal_after
        passes.append(rec)
        now = time.perf_counter()
        n_traced = sum(p["traced"] for p in passes)
        enough = (len(passes) >= MIN_PASSES if not trace else
                  min(n_traced, len(passes) - n_traced) >= MIN_PASSES_EACH)
        if enough and now - start + (now - t0) > seconds:
            return passes


def check_consistency(passes):
    """Fail every pass whose counters or field digest differ from the first
    completed pass, or whose traced call counts differ from the first traced
    pass."""
    done = [p for p in passes if "digest" in p]
    if not done:
        return
    base = done[0]
    traced = [p for p in done if p["traced"]]
    for p in done:
        if p["counters"] != base["counters"] or p["digest"] != base["digest"]:
            p["failures"].append("counters or fields differ from the first pass")
        if p["traced"] and p["layer_calls"] != traced[0]["layer_calls"]:
            p["failures"].append("traced call counts differ from the first traced pass")


def layer_metrics(traced, untraced):
    """Per-layer metrics: counts of the first traced pass, medians of times."""
    calls = traced[0]["layer_calls"]
    counters = traced[0]["counters"]
    steps = max(calls.get("integrators.step", 0), 1)
    attempted = max(counters["steps_attempted"], 1)

    def med(values):
        return spread(values)["median"]

    def self_s(layer):
        return med([p["layer_self_s"].get(layer, 0.0) for p in traced])

    m = {}
    for base in ("grid.bc", "spatial.walls", "spatial.rhs", "spatial.div", "spatial.grad",
                 "dct.fwd", "dct.inv", "poisson.solve", "integrators.step",
                 "coupling.step", "coupling.hook", "problems.forcing"):
        m[f"{base}_calls"] = (calls.get(base, 0), "count")
        m[f"{base}_s"] = (self_s(base), "s")
    walls = calls.get("spatial.walls", 0)
    m["grid.bc_distinct_t_ratio"] = (traced[0]["distinct_walls"] / walls if walls else 0.0,
                                     "ratio")
    m["dct.gflops_computed"] = (traced[0]["dct_flops"] * 1e-9, "GFLOP")
    m["poisson.solves_per_step"] = (calls.get("poisson.solve", 0) / steps, "1/step")
    m["integrators.rhs_per_step"] = (calls.get("coupling.rhs_flat", 0) / steps, "1/step")
    m["integrators.avg_stages"] = (counters["total_stages"] / attempted, "1/step")
    m["integrators.reject_ratio"] = (counters["steps_rejected"] / attempted, "ratio")
    m["integrators.controller_s"] = (self_s("integrators.controller"), "s")
    m["coupling.recover_s"] = (self_s("coupling.recover"), "s")
    m["coupling.rhs_flat_s"] = (self_s("coupling.rhs_flat"), "s")
    m["bench.runs"] = (counters["runs"], "count")
    m["bench.unstable_runs"] = (counters["unstable_runs"], "count")
    m["bench.driver_s"] = (self_s("bench.driver"), "s")
    m["trace.overhead"] = (med([p["wall_ref_s"] for p in traced])
                           / med([p["wall_ref_s"] for p in untraced]), "ratio")
    m["trace.unattributed_s"] = (med([p["wall_s"] - p["covered_s"] for p in traced]), "s")
    return m


def summarize_traced(passes):
    for p in passes:
        spans = p.get("spans")
        if spans is not None and "digest" in p:
            calls, self_s, extra = tr.summarize(spans)
            p.update(layer_calls=calls, layer_self_s=self_s, **extra)


def write_spans(path, passes):
    """Dump the spans of the first traced pass as gzipped CSV."""
    first = next((p for p in passes if p.get("spans")), None)
    if first is None:
        return
    with gzip.open(path, "wt", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("id", "parent", "name", "start_ns", "end_ns"))
        out.writerows(span[:5] for span in first["spans"])


def main(argv=None):
    args = parse_args(argv)
    try:
        env.prepare()
    except env.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads as wl

    try:
        reference = wl.load_reference()
    except OSError as exc:
        print(f"perfbench: cannot read the reference values: {exc}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    traced_first = random.Random(args.seed).random() < 0.5
    trace = args.trace == 1
    passes = run_passes(workload, reference, args.seconds, traced_first, trace)

    summarize_traced(passes)
    check_consistency(passes)
    failed = sum(bool(p["failures"]) for p in passes)
    untraced = [p for p in passes if not p["traced"] and "digest" in p]
    traced = [p for p in passes if p["traced"] and "digest" in p]
    stats = {k: spread([p[k] for p in untraced])
             for k in ("wall_ref_s", "wall_s", "setup_s", "err_u", "err_p")}
    if trace:
        metrics = layer_metrics(traced, untraced) if traced and untraced else {}
    else:
        metrics = {"wall_ref_s": (stats["wall_ref_s"]["median"], "s"),
                   "setup_s": (stats["setup_s"]["median"], "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "MB"),
                   "err_u": (stats["err_u"]["median"], "1"),
                   "err_p": (stats["err_p"]["median"], "1")}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if trace:
        write_spans(stem + "-spans.csv.gz", passes)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": env.record(args.seed),
        "traced_first": traced_first if trace else None,
        "fail_frac": failed / len(passes),
        "spread": stats,
        "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for p in passes:
        for msg in p["failures"]:
            print(f"perfbench: failed pass: {msg}", file=sys.stderr)
    print(f"perfbench: {args.workload}: {len(passes)} passes, {failed} failed, "
          f"wall_s median {stats['wall_s']['median']}, wall_ref_s median "
          f"{stats['wall_ref_s']['median']} (n={stats['wall_s']['n']})",
          file=sys.stderr)
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(passes),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
