"""Command-line front end, and the one module that writes output files.

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
from fractions import Fraction
from itertools import chain

import numpy as np

from . import sweep as sweep_mod
from .modes import BeamVector
from .patterns import (amaf_pattern, ris_pattern, ris_excitation,
                       default_grid, DEFAULT_GRID_STEP_DEG)

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
    if sweep:
        args.f = _f_grid(args)      # sweep-f's distances, as table's --f
    if sweep and not np.diff(args.f).all():
        raise UsageError(f"--f-step {args.f_step!r} rounds two f to one float")
    if args.tilted and args.feed != "end":
        raise UsageError("--tilted requires --feed end")


def _f_grid(args):
    """sweep-f's n + 1 distances, each the float nearest f_min + i * f_step
    = (a + i*b) / d; an n over the cap is refused before the list is made."""
    lo, step = Fraction(repr(args.f_min)), Fraction(repr(args.f_step))
    n = math.floor((Fraction(repr(args.f_max)) - lo) / step)
    if n > MAX_GRID_POINTS - 1:
        raise UsageError(f"--f-step gives more than {MAX_GRID_POINTS} "
                         f"distances")
    d = math.lcm(lo.denominator, step.denominator)
    a, b = int(lo * d), int(step * d)
    return [(a + i * b) / d for i in range(n + 1)]


def _write_csv(path, header, row_format, columns):
    """Write a header line and one row per index of the columns.

    row_format is a %-template for one row; every cell is formatted by
    one % on the template repeated once per row, and the file is one
    write. Rows end in CRLF and no field is quoted, as csv.writer's
    defaults give for fields without commas, quotes or line breaks.
    """
    columns = [c.tolist() if isinstance(c, np.ndarray) else c
               for c in columns]
    cells = tuple(chain.from_iterable(zip(*columns)))
    rows = len(cells) // len(columns) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n"
                 + (row_format + "\r\n") * rows % cells)


def _finite_or_none(x):
    return x if math.isfinite(x) else None


def mode_report(modes, metrics, scenario):
    """JSON-ready report of one scenario's mode analysis; an undefined
    value (the dB of a zero sigma, the cond of a rank-deficient T) is
    None, so the file is strict JSON."""
    v1 = modes.right_vectors[:, 0]
    return {
        "scenario": {
            "n_a": scenario.n_a,
            "n_p": scenario.n_p,
            "f": scenario.f,
            "feed": scenario.feed_style,
            "tilted": scenario.tilted,
        },
        "sigma_sq_db": [_finite_or_none(x) for x in metrics.sigma_sq_db],
        "sum_db": metrics.sum_db,
        "cond": _finite_or_none(metrics.cond),
        "l_iso_db": metrics.l_iso_db,
        "f_over_d": metrics.f_over_d,
        "v1_re": v1.real.tolist(),
        "v1_im": v1.imag.tolist(),
    }


def write_mode_report(report, path):
    text = json.dumps(report, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# a '%.6f' cell of _fixed6_rows as three four-byte groups, each read as
# one little-endian uint32 from a 1000-row table: a sign byte (set later)
# and the integer part, its leading zeros 0 bytes; the point and the
# first three decimals; the last three decimals and the separator
_WHOLE = np.frombuffer((b"\0%3d" * 1000 % tuple(range(1000)))
                       .replace(b" ", b"\0"), "<u4")
_POINT = np.frombuffer(b".%03d" * 1000 % tuple(range(1000)), "<u4")
_LAST = np.frombuffer(b"%03d," * 1000 % tuple(range(1000)), "<u4")


def _fixed6_rows(x):
    """The CRLF-ended CSV rows of a (rows, columns) float array with each
    cell as '%.6f' gives it, as bytes; None if a cell is not finite
    or reaches 999.999999 in magnitude, where it may not fit its slot of
    a sign, three integer digits, a point and six decimals.

    y = |x| * 1e6 is the double nearest the exact product, and every
    half-integer below 2**52 is a double, so none lies strictly between
    the two: rint(y) rounds as % does unless y is itself a half-integer.
    % formats those cells, the exact ties among them. Zero bytes are
    dropped at the end.
    """
    with np.errstate(over="ignore"):
        y = np.abs(x) * 1e6
    if not np.all(y < 999999999.0):       # false for nan
        return None
    r = np.rint(y)
    k = r.astype(np.int32)
    thousands = k // 1000
    whole = thousands // 1000
    n, m = x.shape
    groups = np.empty((n, 3 * m + 1), "<u4")
    groups[:, 0:-1:3] = _WHOLE[whole]
    groups[:, 1:-1:3] = _POINT[thousands - 1000 * whole]
    groups[:, 2:-1:3] = _LAST[k - 1000 * thousands]
    groups[:, -1] = ord("\n")
    text = groups.view(np.uint8)          # (n, 12 m + 4)
    text[:, 0:-4:12] = np.where(np.signbit(x), ord("-"), 0)
    i, j = np.nonzero(np.abs(y - r) == 0.5)
    cells = b"".join((b"%.6f" % v).ljust(11, b"\0") + b"," for v in x[i, j])
    groups[i[:, None], 3 * j[:, None] + [0, 1, 2]] = np.frombuffer(
        cells, "<u4").reshape(-1, 3)
    text[:, -5] = ord("\r")
    return text.tobytes().translate(None, b"\0")


def write_pattern_csv(curve, path):
    """One row per angle, every cell '%.6f'; the body comes from
    _fixed6_rows in one write, or from _write_csv if it cannot format a
    cell."""
    header = ["angle_deg", "power_dbi", "power_norm_db"]
    columns = [curve.angles_deg, curve.power_dbi, curve.power_norm_db]
    body = _fixed6_rows(np.stack(columns, axis=1))
    if body is None:
        _write_csv(path, header, "%.6f,%.6f,%.6f", columns)
        return
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode() + body)


def write_profile_csv(magnitudes, path):
    """Surface excitation magnitudes, elements numbered from 1."""
    _write_csv(path, ["element_index", "magnitude", "magnitude_db"],
               "%d,%.12e,%.6f",
               [np.arange(1, magnitudes.size + 1), magnitudes,
                20.0 * np.log10(np.maximum(magnitudes, 1e-300))])


def write_table_csv(records, path):
    """Emit sweep records in the fixed table layout, f as its shortest
    round-trip repr, metrics to 6 decimal places; an undefined point has
    eight empty metric cells."""
    rows = []
    for i, rec in enumerate(records, start=1):
        m, cells = rec.metrics, [""] * 8
        if m is not None:
            sig = list(m.sigma_sq_db) + [float("nan")] * (4 - rec.n_a)
            # the sigma columns describe the PEM: sigma_1^2 is its power
            cells = ["%.6f" % x for x in sig[:4] + [
                m.sum_db, m.cond, m.l_iso_db, m.f_over_d]]
        rows.append([i, rec.n_a, rec.n_p, float(rec.f), rec.feed] + cells)
    _write_csv(path, ["sl_no", "n_a", "n_p", "f", "feed", "beam",
                      "sigma1_db", "sigma2_db", "sigma3_db", "sigma4_db",
                      "sum_db", "cond", "l_iso_db", "f_over_d"],
               "%s,%s,%s,%r,%s,pem" + ",%s" * 8, zip(*rows))


def write_trace_csv(trace, best_f, objective, path):
    """Emit an optimization trace for audit, f as its shortest
    round-trip repr."""
    _write_csv(path, ["f", objective, "is_best"], "%r,%s,%d",
               [[float(f) for f, _ in trace],
                ["" if val is None else "%.9e" % val for _, val in trace],
                [f == best_f for f, _ in trace]])


def _analysis(args):
    return sweep_mod.analyze_point(args.na, args.np, args.f, args.feed,
                                   args.tilted)


def _beam(args):
    """Propagation matrix and the selected feeder excitation."""
    _, T, modes, _ = _analysis(args)
    return T, BeamVector(sweep_mod._beam_for(modes.right_vectors[:, 0],
                                             args.beam))


def run(args):
    cmd = args.subcommand
    if cmd == "analyze":
        scenario, _, modes, metrics = _analysis(args)
        write_mode_report(mode_report(modes, metrics, scenario), args.out)
    elif cmd == "table":
        write_table_csv(sweep_mod.run_grid(args.na, args.np, args.f,
                                           args.feed, args.tilted), args.out)
    elif cmd == "pattern":
        T, beam = _beam(args)
        grid = default_grid(args.grid_step)
        curve = (amaf_pattern(beam, grid) if args.array == "amaf"
                 else ris_pattern(T, beam, grid))
        write_pattern_csv(curve, args.out)
    elif cmd == "profile":
        T, beam = _beam(args)
        write_profile_csv(ris_excitation(T, beam), args.out)
    elif cmd == "sweep-f":
        best_f, trace = sweep_mod.optimize_f(
            args.na, args.np, args.feed, args.tilted, args.beam, args.f,
            args.objective)
        write_trace_csv(trace, best_f, args.objective, args.out)
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
