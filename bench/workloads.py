"""Seeded operation generators for the benchmark workloads.

An op is one or more risfeed CLI commands. Each command carries the
scenario parameters the checker needs and the argv the program receives
(without the ``--out`` flag, which the runner appends). An op is a pure
function of (workload, seed, index), so any op of a run can be rebuilt
without replaying the ones before it.
"""

import math
import random
from dataclasses import dataclass

NP_CHOICES = (8, 16, 32, 64, 128, 256, 512, 1024)
SWEEP_FEEDS = ("end-tilted", "end", "center")
BEAMS = ("pem", "nonpem")
OUT_NAMES = {"analyze": "report.json", "table": "table.csv",
             "pattern_amaf": "pattern.csv", "pattern_ris": "ris_pattern.csv",
             "profile": "profile.csv", "sweep_f": "trace.csv"}


@dataclass(frozen=True)
class Command:
    kind: str       # analyze | table | pattern_amaf | pattern_ris | profile | sweep_f
    argv: tuple     # CLI arguments without --out
    params: dict    # scenario parameters for the checker
    points: int     # (N_a, N_p, f) points the command analyses


@dataclass(frozen=True)
class Op:
    index: int
    commands: tuple

    @property
    def points(self):
        return sum(c.points for c in self.commands)


def _feed_flags(feed, tilted):
    return ("--feed", feed) + (("--tilted",) if tilted else ())


def _sweep_f(rng, index):
    feed = rng.choice(SWEEP_FEEDS)
    tilted = feed == "end-tilted"
    feed = "end" if tilted else feed
    beam = rng.choice(BEAMS)
    cents = rng.randint(4000, 8000)
    f_min, f_max = cents / 100, (cents + 8000) / 100
    params = dict(na=4, np=128, feed=feed, tilted=tilted, beam=beam,
                  f_values=[f_min + i * 1.0 for i in range(81)],
                  spot=rng.sample(range(81), 2))
    argv = (("sweep-f", "--na", "4", "--np", "128") + _feed_flags(feed, tilted)
            + ("--beam", beam, "--f-min", repr(f_min), "--f-max", repr(f_max),
               "--f-step", "1", "--objective", "min_sll"))
    return (Command("sweep_f", argv, params, 81),)


def _mode_table(rng, index):
    # every fourth command uses the 16-element feeder
    na = 16 if index % 4 == 3 else 4
    nps = sorted(rng.sample(NP_CHOICES, 4))
    fs = [round(math.exp(rng.uniform(math.log(4), math.log(120))), 3)
          for _ in range(5)]
    params = dict(na=na, nps=nps, fs=fs, feed="center", tilted=False)
    argv = ("table", "--na", str(na),
            "--np", ",".join(map(str, nps)),
            "--f", ",".join(map(repr, fs)), "--feed", "center")
    return (Command("table", argv, params, len(nps) * len(fs)),)


def _report_files(rng, index):
    n_p = rng.randint(96, 160)
    f = round(rng.uniform(20.0, 160.0), 3)
    feed = rng.choice(("center", "end"))
    tilted = feed == "end" and rng.random() < 0.5
    beam = rng.choice(BEAMS)
    params = dict(na=4, np=n_p, f=f, feed=feed, tilted=tilted, beam=beam)
    scen = ("--na", "4", "--np", str(n_p), "--f", repr(f)) + _feed_flags(
        feed, tilted)
    return (
        Command("analyze", ("analyze",) + scen, params, 1),
        Command("pattern_amaf", ("pattern",) + scen + ("--beam", beam),
                params, 1),
        Command("pattern_ris",
                ("pattern", "--array", "ris") + scen + ("--beam", beam),
                params, 1),
        Command("profile", ("profile",) + scen + ("--beam", beam), params, 1),
    )


GENERATORS = {
    "sweep_f": _sweep_f,
    "mode_table": _mode_table,
    "report_files": _report_files,
}


def make_op(workload, seed, index):
    """Op number `index` of `workload` under `seed`."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return Op(index, GENERATORS[workload](rng, index))
