"""Fold a tree's untraced benchmark runs into one ``BENCH_<k>.json`` record.

    python tools/bench_record.py K [--tree DIR] [--out FILE]
    python tools/bench_record.py --diff OLD NEW

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

``--diff OLD NEW`` reads two records (the parent's and the change's) and
prints the paired table of a performance claim, one row per workload and
metric both hold: each side's median and [q1, q3], the change of the
median in %, the change's wins, ties and losses over the runs paired by
seed (lower is better for every metric), the parent's IQR, and whether the
claim rule holds: the change wins at least nine tenths of the pairs (a tie
is no win) and its median is lower by more than the parent's IQR.
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


def paired(old_runs, new_runs, metric):
    """The change's wins, ties and losses on ``metric``, runs paired by seed."""
    old = {run["seed"]: run.get(metric) for run in old_runs}
    wins = ties = losses = 0
    for run in new_runs:
        a, b = old.get(run["seed"]), run.get(metric)
        if a is None or b is None:
            continue
        wins, ties, losses = wins + (b < a), ties + (b == a), losses + (b > a)
    return wins, ties, losses


def diff_rows(old, new):
    """One row per workload and metric of both records; see the module docstring."""
    rows = []
    for name in sorted(set(old["workloads"]) & set(new["workloads"])):
        ow, nw = old["workloads"][name], new["workloads"][name]
        for metric, a in ow["metrics"].items():
            b = nw["metrics"].get(metric)
            if b is None or a["median"] is None or b["median"] is None:
                continue
            wins, ties, losses = paired(ow["runs"], nw["runs"], metric)
            pairs = wins + ties + losses
            rows.append({
                "workload": name, "metric": metric, "old": a, "new": b,
                "change": (b["median"] - a["median"]) / a["median"] if a["median"] else None,
                "wtl": (wins, ties, losses), "old_iqr": a["iqr"],
                "met": pairs > 0 and wins >= 0.9 * pairs
                and a["median"] - b["median"] > a["iqr"]})
    return rows


def _spread_text(m):
    return f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"


def print_diff(old, new, out=None):
    """The paired table of ``diff_rows`` as Markdown, with notes on what differs."""
    for key in ("env", "commit", "src_sha256"):
        if old.get(key) != new.get(key):
            print(f"note: {key} differs: {old.get(key)} -> {new.get(key)}", file=out)
    print("| workload | metric | parent | change | change % | w/t/l | parent IQR | rule |",
          file=out)
    print("|---|---|---|---|---|---|---|---|", file=out)
    for r in diff_rows(old, new):
        change = "n/a" if r["change"] is None else f"{100 * r['change']:+.1f} %"
        print(f"| {r['workload']} | {r['metric']} | {_spread_text(r['old'])} | "
              f"{_spread_text(r['new'])} | {change} | {'/'.join(map(str, r['wtl']))} | "
              f"{r['old_iqr']:.4g} | {'met' if r['met'] else 'not met'} |", file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("k", type=int, nargs="?", help="the record's number, as in BENCH_<k>.json")
    ap.add_argument("--tree", default=ROOT, help="checkout whose .perfbench_out to read")
    ap.add_argument("--out", help="output file (default BENCH_<k>.json)")
    ap.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                    help="print the paired table of two records instead")
    args = ap.parse_args(argv)
    if args.diff:
        records = []
        for path in args.diff:
            with open(path) as fh:
                records.append(json.load(fh))
        print_diff(*records)
        return 0
    if args.k is None:
        ap.error("give K or --diff OLD NEW")
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
