"""Command-line interface.

Subcommands: ``run`` (one simulation), ``convergence`` (temporal/spatial
order study), ``stability`` (stability-domain sweeps), ``efficiency``
(work-precision sweep over tolerances), ``reynolds`` (Reynolds-number
sweep), ``ghia`` (cavity run plus centerline comparison against a
user-supplied reference CSV).

Options may also be given in a config file (``--config``) with one
``key = value`` per line and ``#`` comments; explicit command-line flags
override file entries.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (RunConfig, convergence_study, efficiency_study, fmt,
                    ghia_compare, reynolds_sweep, run_simulation, stability_sweep)
from .problems import make_problem


def _parse_config_file(path):
    if not os.path.exists(path):
        raise SystemExit(f"config file not found: {path}")
    entries = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{ln}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key.replace("-", "_")] = value
    return entries


def _add_run_options(p):
    p.add_argument("--problem", choices=("forced", "taylor", "cavity"), default=None)
    p.add_argument("--re", type=float, default=None, help="Reynolds number")
    p.add_argument("--nx", type=int, default=None, help="cells per side")
    p.add_argument("--dt", type=float, default=None, help="fixed (or initial) time step")
    p.add_argument("--adaptive", action="store_true", default=None)
    p.add_argument("--atol", type=float, default=None)
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--integrator", choices=("rkc", "rock2", "pirock", "rk4"), default=None)
    p.add_argument("--coupling", choices=("pm1", "pm1v", "pm3", "dae"), default=None)
    p.add_argument("--pressure", choices=("p1", "p2", "ap1", "ap2", "ap2w"), default=None)
    p.add_argument("--cp", type=int, choices=(0, 1), default=None)
    p.add_argument("--stages", type=int, default=None)
    p.add_argument("--no-advection", action="store_true", default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--rock2-table", default=None, help="alternative coefficient table")
    p.add_argument("--dct-algorithm",
                   choices=("naive", "iterative", "recursive", "hybrid"), default=None)


_DEFAULTS = dict(problem="forced", re=100.0, nx=64, dt=None, adaptive=False,
                 atol=1e-6, rtol=1e-6, t_end=1.0, integrator="rock2",
                 coupling="dae", pressure="p1", cp=0, stages=None,
                 no_advection=False, out=None, rock2_table=None,
                 dct_algorithm="naive")

_CASTS = dict(re=float, nx=int, dt=float, adaptive=lambda v: v in ("1", "true", "yes"),
              atol=float, rtol=float, t_end=float, cp=int, stages=int,
              no_advection=lambda v: v in ("1", "true", "yes"))


def _resolve(args):
    """Merge defaults, config-file entries and explicit flags (in that order)."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, value in _parse_config_file(args.config).items():
            if key in merged:
                merged[key] = _CASTS.get(key, str)(value)
    for key in list(merged):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _run_config(opts, **overrides):
    cfg = RunConfig(problem=opts["problem"], re=opts["re"], nx=opts["nx"],
                    dt=opts["dt"], adaptive=opts["adaptive"], atol=opts["atol"],
                    rtol=opts["rtol"], t_end=opts["t_end"],
                    integrator=opts["integrator"], coupling=opts["coupling"],
                    pressure=opts["pressure"], cp=opts["cp"], stages=opts["stages"],
                    advection=not opts["no_advection"], out=opts["out"],
                    rock2_table=opts["rock2_table"],
                    dct_algorithm=opts["dct_algorithm"])
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def _floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="chebflow",
                                     description="stabilized explicit Runge-Kutta "
                                                 "Navier-Stokes benchmark suite")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    _add_run_options(p_run)

    p_conv = sub.add_parser("convergence", help="temporal/spatial order study")
    _add_run_options(p_conv)
    p_conv.add_argument("--axis", choices=("time", "space"), default="time")
    p_conv.add_argument("--dts", type=str, default=None, help="comma list of steps")
    p_conv.add_argument("--ref-dt", type=float, default=None)
    p_conv.add_argument("--ns", type=str, default=None, help="comma list of grid sizes")
    p_conv.add_argument("--ref-n", type=int, default=None)

    p_stab = sub.add_parser("stability", help="stability-domain sweeps")
    _add_run_options(p_stab)
    p_stab.add_argument("--mode", choices=("max_dt_given_s", "min_s_given_dt"),
                        default="max_dt_given_s")
    p_stab.add_argument("--values", type=str, required=True,
                        help="comma list of stage counts (max_dt) or Reynolds numbers (min_s)")
    p_stab.add_argument("--sweep-dt", type=float, default=1e-2,
                        help="fixed step for the min_s sweep")

    p_eff = sub.add_parser("efficiency", help="work-precision sweep")
    _add_run_options(p_eff)
    p_eff.add_argument("--tolerances", type=str,
                       default=",".join(str(10.0**-m) for m in range(2, 13)))
    p_eff.add_argument("--ref-dt", type=float, default=1e-5)

    p_rey = sub.add_parser("reynolds", help="Reynolds-number sweep")
    _add_run_options(p_rey)
    p_rey.add_argument("--re-values", type=str, required=True)

    p_ghia = sub.add_parser("ghia", help="cavity centerline comparison")
    _add_run_options(p_ghia)
    p_ghia.add_argument("--reference", type=str, required=True,
                        help="CSV with header profile,coord,value")

    args = parser.parse_args(argv)
    opts = _resolve(args)
    outdir = opts["out"]
    if outdir:
        os.makedirs(outdir, exist_ok=True)

    if args.command == "run":
        rep = run_simulation(_run_config(opts))
        _print_report(rep)
    elif args.command == "convergence":
        cfg = _run_config(opts, out=None)
        path = os.path.join(outdir, f"convergence_{args.axis}.csv") if outdir else None
        rows = convergence_study(cfg, axis=args.axis,
                                 dts=_floats(args.dts) if args.dts else None,
                                 ref_dt=args.ref_dt,
                                 Ns=[int(v) for v in _floats(args.ns)] if args.ns else None,
                                 ref_N=args.ref_n, out=path)
        _print_rows(("h", "err_u", "slope_u", "err_p", "slope_p"), rows)
    elif args.command == "stability":
        cfg = _run_config(opts, out=None)
        if cfg.dt is None:
            cfg.dt = 1e-2
        path = os.path.join(outdir, f"stability_{args.mode}.csv") if outdir else None
        rows = stability_sweep(cfg, args.mode, _floats(args.values),
                               dt=args.sweep_dt, out=path)
        key = "s" if args.mode == "max_dt_given_s" else "re"
        _print_rows((key, "measured", "theory"), rows)
    elif args.command == "efficiency":
        cfg = _run_config(opts, out=None)
        path = os.path.join(outdir, "efficiency.csv") if outdir else None
        rows = efficiency_study([cfg], _floats(args.tolerances),
                                ref_dt=args.ref_dt, out=path)
        _print_rows(("method", "tol", "err_u", "err_p", "wall_time", "steps",
                     "total_stages"), rows)
    elif args.command == "reynolds":
        cfg = _run_config(opts, out=None, adaptive=True)
        path = os.path.join(outdir, "reynolds.csv") if outdir else None
        rows = reynolds_sweep(cfg, _floats(args.re_values), out=path)
        _print_rows(("re", "err_u", "wall_time", "avg_stages", "total_stages",
                     "steps", "rejected"), rows)
    elif args.command == "ghia":
        cfg = _run_config(opts)
        cfg.problem = "cavity"
        rep = run_simulation(cfg)
        _print_report(rep)
        prob = make_problem("cavity", cfg.re)
        result = ghia_compare(rep, args.reference, bc_velocity=prob.boundary.velocity)
        if result is not None:
            for name, stats in result.items():
                print(f"{name}-centerline: rms = {stats['rms']:.6g}  "
                      f"max = {stats['max']:.6g}")
    return 0


def _print_report(rep):
    cfg = rep.config
    print(f"{cfg.integrator}+{cfg.coupling}+{cfg.pressure} on {cfg.problem} "
          f"(Re={cfg.re:g}, N={cfg.nx}): t={rep.t_final:g}")
    print(f"  steps: {rep.steps_accepted} accepted, {rep.steps_rejected} rejected; "
          f"stages: {rep.total_stages} total, {rep.avg_stages:.2f}/step "
          f"(last s={rep.last_stages}); wall {rep.wall_time:.3f}s")
    if rep.unstable:
        print(f"  UNSTABLE (blow-up at t={rep.blow_up_time:g})")
    if rep.err_u is not None:
        line = f"  velocity error vs exact: {rep.err_u:.6e}"
        if rep.err_p is not None:
            line += f"; pressure error: {rep.err_p:.6e}"
        print(line)
    if cfg.out:
        print(f"  fields and summary written to {cfg.out}")


def _print_rows(header, rows):
    print(",".join(header))
    for row in rows:
        print(",".join(fmt(float(x)) if isinstance(x, (int, float)) else str(x)
                       for x in row))


if __name__ == "__main__":
    sys.exit(main())
