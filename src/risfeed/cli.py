"""Command-line front end.

Subcommands:
  analyze   single-scenario mode report (JSON)
  table     sweep over an (N_p, f) grid (CSV)
  pattern   feeder or surface radiation pattern (CSV)
  profile   surface excitation magnitudes (CSV)
  sweep-f   exhaustive feeder-distance optimization trace (CSV)

Flags may also come from a JSON config file via --config; explicit
command-line flags override file values. All distances are in
half-wavelength units.
"""

import argparse
import json
import math
import sys

from . import sweep as sweep_mod
from .modes import mode_report, write_mode_report, nonpem_vector
from .patterns import (amaf_pattern, ris_pattern, ris_excitation,
                       default_grid, write_pattern_csv, write_profile_csv,
                       DEFAULT_GRID_STEP_DEG)

# most angle or f samples one command may scan: 0.005 deg over [-90, 90]
MAX_GRID_POINTS = 36001
# most elements in either array; a pattern on the finest grid then needs
# a 36001 x 1024 complex steering matrix (590 MB)
MAX_ARRAY_SIZE = 1024


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _list_of(kind, what):
    """argparse type for a non-empty comma list; errors name the flag."""
    def parse(text):
        try:
            values = [kind(x) for x in text.split(",") if x]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} list: {text!r}")
        if not values:
            raise argparse.ArgumentTypeError(f"empty {what} list")
        return values
    return parse


_int_list = _list_of(int, "integer")
_float_list = _list_of(float, "number")


def _build_parser():
    p = _Parser(prog="risfeed",
                description="Near-field feeder-to-surface power transfer "
                            "simulator (distances in half-wavelengths)")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def scenario_flags(sp, multi=False):
        sp.add_argument("--na", type=int, default=4,
                        help="feeder array size (default 4)")
        if multi:
            sp.add_argument("--np", dest="np_list", type=_int_list,
                            help="surface sizes, comma list")
            sp.add_argument("--f", dest="f_list", type=_float_list,
                            help="feeder distances, comma list")
        else:
            sp.add_argument("--np", dest="np_", type=int,
                            help="surface array size")
            sp.add_argument("--f", type=float,
                            help="feeder-to-surface distance")
        sp.add_argument("--feed", choices=["center", "end"], default="center")
        sp.add_argument("--tilted", action="store_true",
                        help="tilt the end-feed feeder toward the "
                             "surface center")
        sp.add_argument("--config", default=None,
                        help="JSON file with flag defaults")
        sp.add_argument("--out", required=True, help="output file path")

    sp = sub.add_parser("analyze", help="single-scenario mode report (JSON)")
    scenario_flags(sp)

    sp = sub.add_parser("table", help="grid sweep table (CSV)")
    scenario_flags(sp, multi=True)

    sp = sub.add_parser("pattern", help="radiation pattern (CSV)")
    scenario_flags(sp)
    sp.add_argument("--beam", choices=["pem", "nonpem"], default="pem")
    sp.add_argument("--array", choices=["amaf", "ris"], default="amaf",
                    help="which array's pattern to emit")
    sp.add_argument("--grid-step", type=float,
                    default=DEFAULT_GRID_STEP_DEG,
                    help="angle grid step in degrees")

    sp = sub.add_parser("profile", help="surface excitation profile (CSV)")
    scenario_flags(sp)
    sp.add_argument("--beam", choices=["pem", "nonpem"], default="pem")

    sp = sub.add_parser("sweep-f", help="feeder-distance optimization (CSV)")
    sp.add_argument("--na", type=int, default=4)
    sp.add_argument("--np", dest="np_", type=int)
    sp.add_argument("--feed", choices=["center", "end"], default="end")
    sp.add_argument("--tilted", action="store_true")
    sp.add_argument("--beam", choices=["pem", "nonpem"], default="nonpem")
    sp.add_argument("--f-min", type=float)
    sp.add_argument("--f-max", type=float)
    sp.add_argument("--f-step", type=float, default=1.0)
    sp.add_argument("--objective", choices=list(sweep_mod.OBJECTIVES),
                    default="min_sll")
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", required=True)
    return p


def _config_tokens(path):
    """Flags from a JSON config file as --key=value argv tokens."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):     # a switch such as --tilted
            tokens += [flag] if value else []
        elif isinstance(value, list):   # a comma list such as table's --np
            tokens.append(f"{flag}={','.join(map(str, value))}")
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def _parse(parser, argv):
    """Parse argv; --config values go in ahead of the command-line flags,
    so they get the same conversion and the command line wins."""
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    i = argv.index(args.subcommand) + 1
    tokens = _config_tokens(args.config)
    try:
        return parser.parse_args(argv[:i] + tokens + argv[i:])
    except UsageError as exc:
        raise UsageError(f"config file {args.config}: {exc}")


def _validate(args):
    required = {"analyze": ["np_", "f"], "pattern": ["np_", "f"],
                "profile": ["np_", "f"], "table": ["np_list", "f_list"],
                "sweep-f": ["np_", "f_min", "f_max"]}
    flag = {"np_": "--np", "np_list": "--np", "f_list": "--f"}
    for name in required[args.subcommand]:
        if getattr(args, name, None) is None:
            raise UsageError(
                f"missing required parameter {flag.get(name, '--' + name.replace('_', '-'))}")
    for name in ("na", "np_", "np_list"):
        value = getattr(args, name, None)
        values = value if isinstance(value, list) else [value]
        if value is not None and not all(
                1 <= v <= MAX_ARRAY_SIZE for v in values):
            flag = name.replace("_list", "").rstrip("_")
            raise UsageError(f"--{flag} must be from 1 to {MAX_ARRAY_SIZE}")
    for name in ("f", "f_list", "f_min", "f_max", "f_step", "grid_step"):
        value = getattr(args, name, None)
        values = value if isinstance(value, list) else [value]
        if value is not None and not all(
                math.isfinite(v) and v > 0 for v in values):
            flag = name.replace("_list", "").replace("_", "-")
            raise UsageError(f"--{flag} must be positive and finite")
    if hasattr(args, "grid_step") and 180.0 / args.grid_step > (
            MAX_GRID_POINTS - 1):
        raise UsageError(f"--grid-step gives more than {MAX_GRID_POINTS} "
                         f"angles")
    if args.subcommand == "sweep-f" and args.f_min > args.f_max:
        raise UsageError("--f-min must not exceed --f-max")
    if args.subcommand == "sweep-f" and (
            args.f_max - args.f_min) / args.f_step > MAX_GRID_POINTS - 1:
        raise UsageError(f"--f-step gives more than {MAX_GRID_POINTS} "
                         f"distances")
    if getattr(args, "tilted", False) and args.feed != "end":
        raise UsageError("--tilted requires --feed end")


def _analysis(args):
    return sweep_mod.analyze_point(args.na, args.np_, args.f, args.feed,
                                   args.tilted)


def _beam(args):
    """Propagation matrix and the selected feeder excitation."""
    _, T, modes, _ = _analysis(args)
    pem = modes.beam(0)
    return T, pem if args.beam == "pem" else nonpem_vector(pem)


def run(args):
    cmd = args.subcommand
    if cmd == "analyze":
        scenario, _, modes, metrics = _analysis(args)
        write_mode_report(mode_report(modes, metrics, scenario), args.out)
    elif cmd == "table":
        records = sweep_mod.run_grid(args.na, args.np_list, args.f_list,
                                     args.feed, args.tilted)
        sweep_mod.write_table_csv(records, args.out)
    elif cmd == "pattern":
        T, beam = _beam(args)
        grid = default_grid(args.grid_step)
        if args.array == "amaf":
            curve = amaf_pattern(beam, grid)
        else:
            curve = ris_pattern(T, beam, grid)
        write_pattern_csv(curve, args.out)
    elif cmd == "profile":
        T, beam = _beam(args)
        write_profile_csv(ris_excitation(T, beam), args.out)
    elif cmd == "sweep-f":
        n_steps = int(round((args.f_max - args.f_min) / args.f_step))
        f_values = [args.f_min + i * args.f_step for i in range(n_steps + 1)]
        f_values = [f for f in f_values if f <= args.f_max + 1e-9]
        best_f, trace = sweep_mod.optimize_f(
            args.na, args.np_, args.feed, args.tilted, args.beam,
            f_values, args.objective)
        sweep_mod.write_trace_csv(trace, best_f, args.objective, args.out)
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = _parse(parser, argv)
        _validate(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
