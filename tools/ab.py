"""Paired in-process A/B of two risfeed checkouts on one benchmark workload.

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload report_files \\
        --ops 100 --rounds 4 [--seed 1] [--delay-ms 0]

Each checkout's ``src/risfeed`` is imported under its own package name,
so both run in this one process on the same numpy, with BLAS on one
thread. Ops come from ``bench/workloads.py`` of the checkout that holds
this script (imported, never changed). Every op runs once per side as a
warm-up, then ``--rounds`` times on each side in strict alternation: the
order flips from one op to the next and from one round to the next, so
each side runs first as often as second, for every op when the rounds
are even. (Measured on one checkout against itself on mode_table, the
second run of a pair reads about 2% faster than the first, so a fixed or
per-op-only order biases the ratio by about that much.) Each run writes into its own side's directory, from which the
op's outputs are deleted before the clock starts. After every run the two
sides' output files are compared byte for byte.

An op's ratio is the geometric mean over rounds of change / parent time,
its difference the mean of change - parent. The tool prints the median of
each over ops with a 95% bootstrap interval (ops resampled, seeded), and
the number of ops on which the change is faster. The last line of
standard output is one JSON object with the same figures.

Self-check: a checkout against itself (``DIR DIR``) must read a ratio
interval that holds 1 and a difference interval that holds 0; with
``--delay-ms D``, which adds a busy wait of D ms to every change-side
op, the difference interval must hold D.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP = 4000


def _load_module(name, path, package_dir=None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=package_dir)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(tree, name):
    """risfeed.cli of the checkout at tree, imported as package `name`."""
    pkg = Path(tree).resolve() / "src" / "risfeed"
    _load_module(name, pkg / "__init__.py", [str(pkg)])
    return importlib.import_module(name + ".cli")


class Side:
    """One checkout's CLI and the directory its runs write into."""

    def __init__(self, cli, out_dir, delay_s=0.0):
        self.cli, self.out_dir, self.delay_s = cli, out_dir, delay_s
        out_dir.mkdir(parents=True, exist_ok=True)

    def run(self, op, out_names):
        """Wall seconds of every command of op; raises if one fails."""
        paths = [self.out_dir / out_names[c.kind] for c in op.commands]
        argvs = [list(c.argv) + ["--out", str(p)]
                 for c, p in zip(op.commands, paths)]
        for p in paths:
            p.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with redirect_stderr(StringIO()) as err:
            codes = [self.cli.main(argv) for argv in argvs]
        if self.delay_s:
            end = time.perf_counter() + self.delay_s
            while time.perf_counter() < end:
                pass
        secs = time.perf_counter() - t0
        if any(codes):
            raise RuntimeError(f"op {op.index} exits {codes}: "
                               f"{err.getvalue().strip()}")
        return secs, [p.read_bytes() for p in paths]


def bootstrap_median(values, rng):
    """(median, 2.5th and 97.5th percentile of resampled medians)."""
    meds = sorted(statistics.median(rng.choices(values, k=len(values)))
                  for _ in range(BOOTSTRAP))
    return (statistics.median(values), meds[int(0.025 * BOOTSTRAP)],
            meds[int(0.975 * BOOTSTRAP) - 1])


def summarize(parent_s, change_s, seed=0):
    """Figures of paired times: parent_s[i][r] and change_s[i][r] are op
    i's seconds in round r on each side."""
    ratios = [math.exp(statistics.fmean(math.log(c / p)
                                        for p, c in zip(ps, cs)))
              for ps, cs in zip(parent_s, change_s)]
    diffs = [statistics.fmean(c - p for p, c in zip(ps, cs)) * 1e3
             for ps, cs in zip(parent_s, change_s)]
    rng = random.Random(seed)
    ratio, r_lo, r_hi = bootstrap_median(ratios, rng)
    diff, d_lo, d_hi = bootstrap_median(diffs, rng)
    return {
        "parent_median_ms": statistics.median(
            statistics.fmean(ps) for ps in parent_s) * 1e3,
        "change_median_ms": statistics.median(
            statistics.fmean(cs) for cs in change_s) * 1e3,
        "median_ratio": ratio, "ratio_ci95": [r_lo, r_hi],
        "median_diff_ms": diff, "diff_ci95": [d_lo, d_hi],
        "change_faster": sum(r < 1 for r in ratios),
    }


def compare(parent, change, ops, rounds, out_names):
    """Warm up, then time every op `rounds` times per side in alternating
    order; returns (parent seconds, change seconds, ops whose outputs
    differ), the seconds indexed [op][round]."""
    differ = set()

    def pair(op, change_first):
        first, second = (change, parent) if change_first else (parent, change)
        t1, out1 = first.run(op, out_names)
        t2, out2 = second.run(op, out_names)
        if out1 != out2:
            differ.add(op.index)
        return (t2, t1) if change_first else (t1, t2)

    for op in ops:
        pair(op, False)
    parent_s = [[] for _ in ops]
    change_s = [[] for _ in ops]
    for r in range(rounds):
        for i, op in enumerate(ops):
            tp, tc = pair(op, (i + r) % 2 == 1)
            parent_s[i].append(tp)
            change_s[i].append(tc)
    return parent_s, change_s, sorted(differ)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="parent checkout")
    p.add_argument("change", help="changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--delay-ms", type=float, default=0.0,
                   help="busy wait added to every change-side op "
                        "(self-check)")
    args = p.parse_args(argv)
    if args.ops < 1 or args.rounds < 1 or args.delay_ms < 0:
        p.error("--ops and --rounds must be positive, --delay-ms >= 0")
    workloads = _load_module("ab_workloads", ROOT / "bench" / "workloads.py")
    if args.workload not in workloads.GENERATORS:
        p.error(f"unknown workload {args.workload!r}")
    ops = [workloads.make_op(args.workload, args.seed, i)
           for i in range(args.ops)]
    with tempfile.TemporaryDirectory() as tmp:
        parent = Side(load_cli(args.parent, "risfeed_parent"),
                      Path(tmp) / "parent")
        change = Side(load_cli(args.change, "risfeed_change"),
                      Path(tmp) / "change", args.delay_ms / 1e3)
        parent_s, change_s, differ = compare(parent, change, ops,
                                             args.rounds,
                                             workloads.OUT_NAMES)
    result = {"workload": args.workload, "seed": args.seed,
              "ops": args.ops, "rounds": args.rounds,
              "delay_ms": args.delay_ms,
              **summarize(parent_s, change_s, args.seed),
              "ops_with_different_bytes": differ}
    r, d = result["ratio_ci95"], result["diff_ci95"]
    print(f"{args.workload}: {args.ops} ops x {args.rounds} rounds; "
          f"parent {result['parent_median_ms']:.3f} ms, change "
          f"{result['change_median_ms']:.3f} ms (medians)")
    print(f"  change / parent {result['median_ratio']:.4f} "
          f"[{r[0]:.4f}, {r[1]:.4f}]; change - parent "
          f"{result['median_diff_ms']:+.3f} ms [{d[0]:+.3f}, {d[1]:+.3f}]")
    print(f"  change faster on {result['change_faster']} of {args.ops} ops; "
          f"outputs differ on {len(differ)} ops {differ[:10]}")
    print(json.dumps(result))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
