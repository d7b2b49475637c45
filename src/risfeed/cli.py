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
from .modes import mode_report, write_mode_report
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


def _checked(kind, ok, rule):
    """argparse type: kind(text), which must pass ok; errors state rule
    and argparse prefixes the flag."""
    def parse(text):
        try:
            value = kind(text)
            if ok(value):
                return value
        except (ValueError, OverflowError):
            pass
        raise argparse.ArgumentTypeError(f"{text!r}: must be {rule}")
    return parse


def _list_of(kind):
    """argparse type for a non-empty comma list of kind."""
    def parse(text):
        values = [kind(x) for x in text.split(",") if x]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        return values
    return parse


_size = _checked(int, lambda n: 1 <= n <= MAX_ARRAY_SIZE,
                 f"an integer from 1 to {MAX_ARRAY_SIZE}")
_distance = _checked(float, lambda x: math.isfinite(x) and x > 0,
                     "positive and finite")
_grid_step = _checked(
    float, lambda x: math.isfinite(x) and x > 0
    and 2 <= round(180.0 / x) <= MAX_GRID_POINTS - 1,
    f"positive and, rounded to divide 180 evenly, give 3 to "
    f"{MAX_GRID_POINTS} angles")


def _build_parser():
    p = _Parser(prog="risfeed",
                description="Near-field feeder-to-surface power transfer "
                            "simulator (distances in half-wavelengths)")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def command(name, help, many=False, f=True, feed="center", beam=None):
        """A subcommand with the flags every command shares. `many` makes
        --np and --f comma lists; f=False leaves --f out, for sweep-f."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--na", type=_size, default=4,
                        help="feeder array size (default 4)")
        sp.add_argument("--np", type=_list_of(_size) if many else _size,
                        help="surface sizes, comma list" if many
                        else "surface array size")
        if f:
            sp.add_argument("--f", type=_list_of(_distance) if many
                            else _distance,
                            help="feeder distances, comma list" if many
                            else "feeder-to-surface distance")
        sp.add_argument("--feed", choices=["center", "end"], default=feed)
        sp.add_argument("--tilted", action="store_true",
                        help="tilt the end-feed feeder toward the "
                             "surface center")
        if beam:
            sp.add_argument("--beam", choices=["pem", "nonpem"],
                            default=beam)
        sp.add_argument("--config", default=None,
                        help="JSON file with flag defaults")
        sp.add_argument("--out", required=True, help="output file path")
        return sp

    command("analyze", "single-scenario mode report (JSON)")
    command("table", "grid sweep table (CSV)", many=True)
    sp = command("pattern", "radiation pattern (CSV)", beam="pem")
    sp.add_argument("--array", choices=["amaf", "ris"], default="amaf",
                    help="which array's pattern to emit")
    sp.add_argument("--grid-step", type=_grid_step,
                    default=DEFAULT_GRID_STEP_DEG,
                    help="angle grid step in degrees, rounded to "
                         "divide 180 evenly")
    command("profile", "surface excitation profile (CSV)", beam="pem")
    sp = command("sweep-f", "feeder-distance optimization (CSV)", f=False,
                 feed="end", beam="nonpem")
    sp.add_argument("--f-min", type=_distance)
    sp.add_argument("--f-max", type=_distance)
    sp.add_argument("--f-step", type=_distance, default=1.0)
    sp.add_argument("--objective", choices=list(sweep_mod.OBJECTIVES),
                    default="min_sll")
    return p


_PARSER = _build_parser()


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


def _parse(argv):
    """Parse argv; --config values go in ahead of the command-line flags,
    so they get the same conversion and the command line wins."""
    args = _PARSER.parse_args(argv)
    if not args.config:
        return args
    i = argv.index(args.subcommand) + 1
    tokens = _config_tokens(args.config)
    try:
        return _PARSER.parse_args(argv[:i] + tokens + argv[i:])
    except UsageError as exc:
        raise UsageError(f"config file {args.config}: {exc}")


def _validate(args):
    """Rules that span flags, or that a config file may satisfy."""
    sweep = args.subcommand == "sweep-f"
    for name in ("np", "f_min", "f_max") if sweep else ("np", "f"):
        if getattr(args, name) is None:
            raise UsageError("missing required parameter --"
                             + name.replace("_", "-"))
    if sweep and args.f_min > args.f_max:
        raise UsageError("--f-min must not exceed --f-max")
    if sweep and (args.f_max - args.f_min) / args.f_step > (
            MAX_GRID_POINTS - 1):
        raise UsageError(f"--f-step gives more than {MAX_GRID_POINTS} "
                         f"distances")
    if args.tilted and args.feed != "end":
        raise UsageError("--tilted requires --feed end")


def _analysis(args):
    return sweep_mod.analyze_point(args.na, args.np, args.f, args.feed,
                                   args.tilted)


def _beam(args):
    """Propagation matrix and the selected feeder excitation."""
    _, T, modes, _ = _analysis(args)
    return T, sweep_mod._beam_for(modes, args.beam)


def run(args):
    cmd = args.subcommand
    if cmd == "analyze":
        scenario, _, modes, metrics = _analysis(args)
        write_mode_report(mode_report(modes, metrics, scenario), args.out)
    elif cmd == "table":
        records = sweep_mod.run_grid(args.na, args.np, args.f, args.feed,
                                     args.tilted)
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
            args.na, args.np, args.feed, args.tilted, args.beam,
            f_values, args.objective)
        sweep_mod.write_trace_csv(trace, best_f, args.objective, args.out)
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
        _validate(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
