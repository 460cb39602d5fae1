"""Command-line interface.

Subcommands: ``run`` (one simulation), ``convergence`` (temporal/spatial
order study), ``stability`` (stability-domain sweeps), ``efficiency``
(work-precision sweep over tolerances), ``reynolds`` (Reynolds-number
sweep), ``ghia`` (cavity run plus centerline comparison against a
user-supplied reference CSV).

The run options are ``RunConfig``'s fields plus ``out``, the directory that
receives results; this is the only module that writes them.  A config file
(``--config``) holds one ``key = value`` per line, keys named like the
flags, booleans as 1/0/true/false/yes/no, ``#`` comments; a bad line ends
the run naming it.  Explicit command-line flags override file entries.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys
import typing

from .bench import (CHOICES, HEADERS, RunConfig, convergence_study, efficiency_study,
                    ghia_compare, reynolds_sweep, run_simulation, stability_sweep,
                    write_csv, write_outputs, write_rows)
from .problems import PROBLEMS

_CHOICES = dict(CHOICES, problem=tuple(PROBLEMS))
_HELP = dict(re="Reynolds number", nx="cells per side", dt="fixed (or initial) time step",
             out="output directory")
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# the output directory, an option read beside RunConfig's fields
_Output = dataclasses.make_dataclass("_Output", [("out", typing.Optional[str], None)])
_TYPES = dict(typing.get_type_hints(RunConfig), **typing.get_type_hints(_Output))
# the run options by flag name: RunConfig's fields but compensated, and out
_OPTIONS = {("no_" if f.default is True else "") + f.name: f
            for f in dataclasses.fields(RunConfig) + dataclasses.fields(_Output)
            if f.name != "compensated"}


def _kind(f):
    """The value type of field f, Optional[X] read as X."""
    kind = _TYPES[f.name]
    return next((a for a in typing.get_args(kind) if a is not type(None)), kind)


def _cast(f, text):
    if _kind(f) is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"expected one of {'/'.join(_BOOLS)}, got {text!r}")
        return _BOOLS[text.lower()]
    value = _kind(f)(text)
    if f.name in _CHOICES and value not in _CHOICES[f.name]:
        raise ValueError(f"expected one of {_CHOICES[f.name]}, got {text!r}")
    return value


def _parse_config_file(path):
    """RunConfig field values from a ``key = value`` file; an unknown key or a
    value that does not parse for its field exits naming the file and line."""
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
            key, text = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest not in _OPTIONS:
                raise SystemExit(f"{path}:{ln}: unknown key {key!r}")
            f = _OPTIONS[dest]
            try:
                value = _cast(f, text)
            except ValueError as exc:
                raise SystemExit(f"{path}:{ln}: {key}: {exc}") from None
            entries[f.name] = value if dest == f.name else not value
    return entries


def _add_run_options(p):
    for dest, f in _OPTIONS.items():
        flag = "--" + dest.replace("_", "-")
        if _kind(f) is bool:        # --adaptive, --no-advection: the opposite of the default
            p.add_argument(flag, dest=f.name, action="store_const", const=not f.default,
                           default=None)
        else:
            p.add_argument(flag, type=_kind(f), choices=_CHOICES.get(f.name),
                           default=None, help=_HELP.get(f.name))
    p.add_argument("--config", default=None, help="key = value config file")


def _resolve(args):
    """RunConfig field values and out: defaults, then file entries, then flags."""
    opts = {f.name: f.default for f in _OPTIONS.values()}
    if getattr(args, "config", None):
        opts.update(_parse_config_file(args.config))
    for name in opts:
        if getattr(args, name, None) is not None:
            opts[name] = getattr(args, name)
    return opts


def _run_config(opts, **overrides):
    return RunConfig(**dict(opts, **overrides))


def _floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _given(**study_options):
    """The study options whose flags were given; the study defaults the rest."""
    return {k: v for k, v in study_options.items() if v is not None}


def _write_study(outdir, name, header, rows):
    """Print a study's rows as CSV and, given an output directory, write the
    same text to <outdir>/<name>.csv."""
    write_rows(sys.stdout, header, rows)
    if outdir:
        write_csv(os.path.join(outdir, f"{name}.csv"), header, rows)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="chebflow",
                                     description="stabilized explicit Runge-Kutta "
                                                 "Navier-Stokes benchmark suite")
    sub = parser.add_subparsers(dest="command", required=True)
    run_options = argparse.ArgumentParser(add_help=False)
    _add_run_options(run_options)
    sub.add_parser("run", parents=[run_options], help="run one simulation")

    p_conv = sub.add_parser("convergence", parents=[run_options],
                            help="temporal/spatial order study")
    p_conv.add_argument("--axis", choices=("time", "space"), default=None)
    p_conv.add_argument("--dts", type=str, default=None, help="comma list of steps")
    p_conv.add_argument("--ref-dt", type=float, default=None)
    p_conv.add_argument("--ns", type=str, default=None, help="comma list of grid sizes")
    p_conv.add_argument("--ref-n", type=int, default=None)

    p_stab = sub.add_parser("stability", parents=[run_options], help="stability-domain sweeps")
    p_stab.add_argument("--mode", choices=("max_dt_given_s", "min_s_given_dt"),
                        default="max_dt_given_s")
    p_stab.add_argument("--values", type=str, required=True,
                        help="comma list of stage counts (max_dt) or Reynolds numbers (min_s)")
    p_stab.add_argument("--sweep-dt", type=float, default=None,
                        help="fixed step for the min_s sweep")

    p_eff = sub.add_parser("efficiency", parents=[run_options], help="work-precision sweep")
    p_eff.add_argument("--tolerances", type=str,
                       default=",".join(str(10.0**-m) for m in range(2, 13)))
    p_eff.add_argument("--ref-dt", type=float, default=None)

    p_rey = sub.add_parser("reynolds", parents=[run_options], help="Reynolds-number sweep")
    p_rey.add_argument("--re-values", type=str, required=True)

    p_ghia = sub.add_parser("ghia", parents=[run_options],
                            help="cavity centerline comparison")
    p_ghia.add_argument("--reference", type=str, required=True,
                        help="CSV with header profile,coord,value")

    args = parser.parse_args(argv)
    opts = _resolve(args)
    outdir = opts.pop("out")
    if outdir:
        os.makedirs(outdir, exist_ok=True)

    if args.command == "run":
        _run(_run_config(opts), outdir)
    elif args.command == "convergence":
        rows = convergence_study(_run_config(opts), **_given(
            axis=args.axis, dts=_floats(args.dts) if args.dts else None, ref_dt=args.ref_dt,
            Ns=[int(v) for v in _floats(args.ns)] if args.ns else None, ref_N=args.ref_n))
        axis = args.axis
        if axis is None and outdir:     # the file is named after the study's default axis
            axis = inspect.signature(convergence_study).parameters["axis"].default
        _write_study(outdir, f"convergence_{axis}", HEADERS["convergence"], rows)
    elif args.command == "stability":
        rows = stability_sweep(_run_config(opts), args.mode, _floats(args.values),
                               **_given(dt=args.sweep_dt))
        _write_study(outdir, f"stability_{args.mode}", HEADERS[args.mode], rows)
    elif args.command == "efficiency":
        rows = efficiency_study([_run_config(opts)], _floats(args.tolerances),
                                **_given(ref_dt=args.ref_dt))
        _write_study(outdir, "efficiency", HEADERS["efficiency"], rows)
    elif args.command == "reynolds":
        rows = reynolds_sweep(_run_config(opts, adaptive=True), _floats(args.re_values))
        _write_study(outdir, "reynolds", HEADERS["reynolds"], rows)
    elif args.command == "ghia":
        rep = _run(_run_config(opts, problem="cavity"), outdir)
        result = ghia_compare(rep, args.reference)
        if result is None:
            print(f"ghia_compare: reference file {args.reference!r} not found; skipped")
        else:
            for name, stats in result.items():
                print(f"{name}-centerline: rms = {stats['rms']:.6g}  "
                      f"max = {stats['max']:.6g}")
    return 0


def _run(cfg, outdir):
    """Run cfg, write its fields and summary to outdir when given, print its report."""
    rep = run_simulation(cfg)
    _print_report(rep)
    if outdir:
        write_outputs(rep, outdir)
        print(f"  fields and summary written to {outdir}")
    return rep


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


if __name__ == "__main__":
    sys.exit(main())
