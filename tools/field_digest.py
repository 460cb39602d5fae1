"""Print a SHA-256 of the final fields of a fixed matrix of short runs.

The matrix covers every integrator, coupling, pressure recovery, ``cp``
value and DCT algorithm that ``RunConfig`` accepts (fixed step, on the
forced flow, the Green-Taylor vortex and the cavity in turn, N = 12-32),
plus adaptive runs of the step controller.  Each line is the digest of one
run's final u, v, p, every recovered pressure and its step/stage counters;
the last line is the digest of all of them.  Two source trees compute
bitwise identical results exactly when their totals agree.  BLAS runs on
one thread, as the bits of a matrix product can depend on the split.

``--dump FILE`` also stores every run's fields and counters in an ``.npz``
file; ``--compare FILE`` reads such a file (made from another tree) and,
for every run whose fields or counters differ from it, prints max |du|,
max |dv|, the largest relative pressure change max|dp| / max|p| over the
stored pressures, and whether the counters agree.  It exits with status 1
when any run differs or is missing from FILE, and 0 otherwise, so a script
can gate on bitwise identical results.

Usage: python tools/field_digest.py [--src DIR] [--dump FILE] [--compare FILE]
(DIR defaults to ./src)
"""

import argparse
import hashlib
import os
import sys
import time

import numpy as np

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# (algorithm, N): the recursive and hybrid transforms need a power of two,
# the iterative one an even N
DCT_SIZES = (("naive", 12), ("iterative", 24), ("recursive", 16), ("hybrid", 32))
ADAPTIVE = (("taylor", "rock2", "dae", "ap1"), ("forced", "rock2", "pm1", "p2"),
            ("cavity", "rkc", "pm1", "p1"), ("forced", "rock2", "pm1v", "p1"))


def configs(bench):
    """(name, RunConfig) for every valid fixed-step choice, then the adaptive runs."""
    runs = []
    for integrator in bench.INTEGRATORS:
        for coupling in bench.COUPLINGS:
            for pressure in bench.PRESSURES:
                for cp in (0, 1):
                    k = len(runs)
                    algorithm, nx = DCT_SIZES[k % len(DCT_SIZES)]
                    # PM3 needs exact wall-normal derivatives, which the cavity lacks
                    problems = ("forced", "taylor") if coupling == "pm3" else (
                        "forced", "taylor", "cavity")
                    cfg = bench.RunConfig(problem=problems[k % len(problems)], nx=nx,
                                          dt=1e-2, t_end=0.3, integrator=integrator,
                                          coupling=coupling, pressure=pressure, cp=cp,
                                          dct_algorithm=algorithm)
                    try:
                        cfg.validate()
                    except ValueError:
                        continue
                    runs.append(cfg)
    for k, (problem, integrator, coupling, pressure) in enumerate(ADAPTIVE):
        algorithm, nx = DCT_SIZES[k]
        runs.append(bench.RunConfig(problem=problem, nx=nx, dt=1e-2, t_end=2.0,
                                    adaptive=True, atol=1e-5, rtol=1e-5,
                                    integrator=integrator, coupling=coupling,
                                    pressure=pressure, dct_algorithm=algorithm))
    return [(f"{c.problem}-N{c.nx}-{c.integrator}-{c.coupling}-{c.pressure}-cp{c.cp}"
             f"-{c.dct_algorithm}{'-adaptive' if c.adaptive else ''}", c) for c in runs]


def run_record(bench, cfg):
    """The digest of one run and its record: {"u", "v", "p", "p:<name>" for
    each recovered pressure, "counters", "digest"}."""
    rep = bench.run_simulation(cfg)
    counters = (rep.t_final, rep.steps_attempted, rep.steps_rejected,
                rep.total_stages, rep.unstable)
    fields = {"u": rep.u, "v": rep.v, "p": rep.p,
              **{f"p:{k}": rep.pressures[k] for k in sorted(rep.pressures)}}
    h = hashlib.sha256()
    for a in fields.values():
        h.update(a.tobytes(order="F"))
    h.update(repr(counters).encode())
    fields["counters"] = np.array(counters, dtype=float)
    fields["digest"] = np.array(h.hexdigest())
    return h.hexdigest(), fields


def _max_abs(a):
    return float(np.max(np.abs(a))) if a.size else 0.0


def difference(old, new):
    """One line on how the record ``new`` of a run differs from ``old``."""
    du, dv = _max_abs(new["u"] - old["u"]), _max_abs(new["v"] - old["v"])
    rel_p = max(_max_abs(new[k] - old[k]) / max(_max_abs(old[k]), 1e-300)
                for k in old if k.startswith("p:") and k in new)
    same = np.array_equal(old["counters"], new["counters"], equal_nan=True)
    return (f"max|du| {du:.2g}  max|dv| {dv:.2g}  max|dp|/max|p| {rel_p:.2g}  "
            f"counters {'equal' if same else 'DIFFER'}")


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(here, "..", "src"),
                    help="directory holding the chebflow package")
    ap.add_argument("--dump", help="store every run's fields in this .npz file")
    ap.add_argument("--compare", help="report the runs that differ from this --dump file")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from chebflow import bench

    old = None
    if args.compare:
        with np.load(args.compare) as stored:
            old = {}
            for key in stored.files:
                name, field = key.split("|")
                old.setdefault(name, {})[field] = stored[key]
    t0 = time.perf_counter()
    total = hashlib.sha256()
    runs = configs(bench)
    dump, changed = {}, 0
    for name, cfg in runs:
        d, fields = run_record(bench, cfg)
        total.update(d.encode())
        print(f"{d}  {name}")
        if args.dump:
            dump.update({f"{name}|{k}": a for k, a in fields.items()})
        if old is not None:
            if name not in old:
                print(f"    not in {args.compare}")
                changed += 1
            elif str(old[name]["digest"]) != d:
                print(f"    {difference(old[name], fields)}")
                changed += 1
    print(f"{total.hexdigest()}  total over {len(runs)} runs "
          f"({time.perf_counter() - t0:.1f} s)")
    if args.dump:
        np.savez(args.dump, **dump)
    if old is not None:
        print(f"{changed} of {len(runs)} runs differ from {args.compare}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
