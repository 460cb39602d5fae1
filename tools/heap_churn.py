"""Time warm benchmark passes and count the minor page faults each one takes.

    python tools/heap_churn.py [--tree DIR] [--passes K] [WORKLOAD ...]

Runs the benchmark workloads of ``DIR/perfbench/workloads.py`` (DIR
defaults to the checkout holding this script) on the chebflow package in
``DIR/src``, with BLAS pinned to one thread by ``perfbench/env.py``; both
files are only imported.  Each workload (all three by default) runs in a
fresh process of its own, as in ``perfbench/run.py``, because the heap's
layout and glibc's trim and mmap thresholds depend on what ran before: one
cold pass, then K warm passes.  It prints the min and median wall time of
the warm passes and the minor page faults each warm pass took (``getrusage``
of that process: median, then [min, max]).  A process whose heap is trimmed
and regrown between allocations faults its pages in again on every pass,
which these counts show and a pass time alone does not.  Every pass must
pass its workload's check and reproduce the first pass's field digest, whose
first 12 hex digits are printed.
"""

import argparse
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def churn(wl, workload, reference, passes):
    """(warm pass seconds, warm pass minor faults, digest) of one workload."""
    times, faults, digest = [], [], None
    for k in range(passes + 1):
        f0, t0 = minor_faults(), time.perf_counter()
        rec = wl.run_pass(workload, None, reference)
        seconds, faulted = time.perf_counter() - t0, minor_faults() - f0
        if rec["failures"]:
            raise RuntimeError(f"pass {k} failed its check: {rec['failures']}")
        digest = digest or rec["digest"]
        if rec["digest"] != digest:
            raise RuntimeError(f"pass {k} computed other fields than the first pass")
        if k:
            times.append(seconds)
            faults.append(faulted)
    return times, faults, digest


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*", help="workload names (default: all)")
    ap.add_argument("--tree", default=ROOT, help="checkout whose perfbench and src to run")
    ap.add_argument("--passes", type=int, default=6, help="warm passes per workload")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    sys.path.insert(0, os.path.join(os.path.abspath(args.tree), "perfbench"))
    import env

    env.prepare()       # before numpy: pins BLAS to one thread
    import workloads as wl

    for name in set(args.workloads) - set(wl.WORKLOADS):
        ap.error(f"unknown workload {name!r}; choose from {', '.join(wl.WORKLOADS)}")
    if len(args.workloads) != 1:
        print(f"{'workload':<24} {'min_s':>7} {'median_s':>8} {'minflt/pass':>11}  "
              f"{'[min, max]':<17} digest", flush=True)
        for name in args.workloads or wl.WORKLOADS:
            subprocess.run([sys.executable, os.path.abspath(__file__), "--tree", args.tree,
                            "--passes", str(args.passes), name], check=True)
        return 0
    name, = args.workloads
    times, faults, digest = churn(wl, wl.WORKLOADS[name], wl.load_reference(), args.passes)
    print(f"{name:<24} {min(times):7.3f} {statistics.median(times):8.3f} "
          f"{statistics.median(faults):11.0f}  "
          f"{f'[{min(faults)}, {max(faults)}]':<17} {digest[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
