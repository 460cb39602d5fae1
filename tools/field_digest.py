"""Print a SHA-256 of the final fields of a fixed matrix of short runs.

The matrix covers every integrator, coupling, pressure recovery, ``cp``
value and DCT algorithm that ``RunConfig`` accepts (fixed step, on the
forced flow, the Green-Taylor vortex and the cavity in turn, N = 12-32),
plus adaptive runs of the step controller.  Each line is the digest of one
run's final u, v, p, every recovered pressure and its step/stage counters;
the last line is the digest of all of them.  Two source trees compute
bitwise identical results exactly when their totals agree.  BLAS runs on
one thread, as the bits of a matrix product can depend on the split.

Usage: python tools/field_digest.py [--src DIR]   (DIR defaults to ./src)
"""

import argparse
import hashlib
import os
import sys
import time

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


def run_digest(bench, cfg):
    rep = bench.run_simulation(cfg)
    h = hashlib.sha256()
    for a in (rep.u, rep.v, rep.p, *(rep.pressures[k] for k in sorted(rep.pressures))):
        h.update(a.tobytes(order="F"))
    h.update(repr((rep.t_final, rep.steps_attempted, rep.steps_rejected,
                   rep.total_stages, rep.unstable)).encode())
    return h.hexdigest()


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(here, "..", "src"),
                    help="directory holding the chebflow package")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from chebflow import bench

    t0 = time.perf_counter()
    total = hashlib.sha256()
    runs = configs(bench)
    for name, cfg in runs:
        d = run_digest(bench, cfg)
        total.update(d.encode())
        print(f"{d}  {name}")
    print(f"{total.hexdigest()}  total over {len(runs)} runs "
          f"({time.perf_counter() - t0:.1f} s)")


if __name__ == "__main__":
    main()
