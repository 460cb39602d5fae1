"""Fold a tree's untraced benchmark runs into one ``BENCH_<k>.json`` record.

    python tools/bench_record.py K [--tree DIR] [--out FILE]

Reads every ``DIR/.perfbench_out/*-trace0.json`` (the result files of
``perfbench/run.py --trace 0``, one per workload and seed) and writes, per
workload: for each end-to-end metric, the raw pass time ``wall_s`` and the
calibration kernel's ``cal_s``, the median, quartiles, IQR and count over
the runs; each run's own values by seed, so two records can be paired seed
by seed; and the share of failed passes.  The record also holds the
environment of the runs (without the seed), the commit the tree's checkout
named (None for an exported tree) and a SHA-256 over the tree's ``src``
files, which names the measured code whether or not it was committed.
DIR defaults to the checkout holding this script, FILE to ``BENCH_<K>.json``
in the current directory.  Runs whose environment differs from the first
one's are refused, as they do not measure one setting.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """Median, quartiles, IQR and count of a list of numbers (None dropped)."""
    xs = [x for x in values if x is not None]
    if not xs:
        return {"median": None, "q1": None, "q3": None, "iqr": None, "n": 0}
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2],
            "iqr": q[2] - q[0], "n": len(xs)}


def src_sha256(tree):
    """SHA-256 over the relative paths and bytes of the tree's src/**/*.py."""
    h = hashlib.sha256()
    src = os.path.join(tree, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_values(record):
    """One run's end-to-end metrics plus its median raw and calibration times."""
    values = {k: m["value"] for k, m in record["metrics"].items()}
    values["wall_s"] = record["spread"]["wall_s"]["median"]
    values["cal_s"] = statistics.median(p["cal_s"] for p in record["passes"])
    return values


def fold(records):
    """The per-workload summary and the shared environment of ``records``."""
    env = None
    workloads = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["env"]["seed"])):
        run_env = {k: v for k, v in rec["env"].items() if k != "seed"}
        if env is None:
            env = run_env
        elif run_env != env:
            raise ValueError(f"{rec['workload']} seed {rec['env']['seed']} ran in another "
                             f"environment: {run_env} against {env}")
        w = workloads.setdefault(rec["workload"], {"seconds": rec["seconds"], "runs": []})
        if rec["seconds"] != w["seconds"]:
            raise ValueError(f"{rec['workload']} mixes runs of {w['seconds']} and "
                             f"{rec['seconds']} seconds")
        w["runs"].append({"seed": rec["env"]["seed"], "fail_frac": rec["fail_frac"],
                          "passes": len(rec["passes"]), **run_values(rec)})
    for w in workloads.values():
        names = dict.fromkeys(k for run in w["runs"] for k in run
                              if k not in ("seed", "fail_frac", "passes"))
        w["metrics"] = {k: spread([run.get(k) for run in w["runs"]]) for k in names}
        w["fail_frac"] = spread([run["fail_frac"] for run in w["runs"]])
    return env, workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("k", type=int, help="the record's number, as in BENCH_<k>.json")
    ap.add_argument("--tree", default=ROOT, help="checkout whose .perfbench_out to read")
    ap.add_argument("--out", help="output file (default BENCH_<k>.json)")
    args = ap.parse_args(argv)
    paths = sorted(glob.glob(os.path.join(args.tree, ".perfbench_out", "*-trace0.json")))
    if not paths:
        print(f"bench_record: no untraced run files under {args.tree}/.perfbench_out",
              file=sys.stderr)
        return 2
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    try:
        env, workloads = fold(records)
    except ValueError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    out = {"k": args.k, "commit": env.pop("git_commit"), "src_sha256": src_sha256(args.tree),
           "env": env, "workloads": workloads}
    path = args.out or f"BENCH_{args.k}.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"bench_record: {len(records)} runs of {len(workloads)} workloads -> {path}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
