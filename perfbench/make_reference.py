"""Regenerate ``reference.json``, the stored cavity reference values.

    python3 perfbench/make_reference.py

Two runs of the cavity workload's configuration on the same grid: one at
atol = rtol = 1e-7 (about a minute single-threaded), whose centerline
profiles define the cavity's err_u / err_p, and one exactly as the workload
runs it, whose samples and kinetic energy the correctness check compares
against.  Run it only on a solver whose results are trusted.
"""

import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import env  # noqa: E402

env.prepare()
import numpy as np  # noqa: E402

import workloads  # noqa: E402

TIGHT_TOL = 1e-7
SAMPLE_INDEX = [15, 31, 63, 95, 111]


def main():
    cfg = workloads.CAVITY
    tight = workloads.bench.run_simulation(
        dataclasses.replace(cfg, atol=TIGHT_TOL, rtol=TIGHT_TOL))
    run = workloads.bench.run_simulation(cfg)
    u_t, v_t, p_t = workloads.cavity_profiles(tight.u, tight.v, tight.p)
    u_r, v_r, p_r = workloads.cavity_profiles(run.u, run.v, run.p)
    err_u = max(np.max(np.abs(u_r - u_t)), np.max(np.abs(v_r - v_t)))
    ke_t = workloads.kinetic_energy(tight.u, tight.v)
    ke_r = workloads.kinetic_energy(run.u, run.v)
    ref = {"cavity_dae_n128": {
        "tight": {"atol": TIGHT_TOL, "rtol": TIGHT_TOL,
                  "steps_accepted": tight.steps_accepted, "kinetic_energy": ke_t,
                  "u_centerline": u_t.tolist(), "v_centerline": v_t.tolist(),
                  "p_centerline": p_t.tolist()},
        "recorded": {"sample_index": SAMPLE_INDEX,
                     "u_samples": u_r[SAMPLE_INDEX].tolist(),
                     "v_samples": v_r[SAMPLE_INDEX].tolist(),
                     # tolerances: four times the run's own distance from the tight run
                     "sample_abs_tol": float(f"{4 * err_u:.1e}"),
                     "kinetic_energy": ke_r,
                     "kinetic_energy_rel_tol": float(f"{4 * abs(ke_r - ke_t) / ke_t:.1e}"),
                     "err_u": float(err_u),
                     "err_p": float(np.max(np.abs(p_r - p_t)))}}}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(json.dumps(ref["cavity_dae_n128"]["recorded"]))


if __name__ == "__main__":
    main()
