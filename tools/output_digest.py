"""Print a sha256 digest of the output file of every command in a fixed list.

    python3 tools/output_digest.py > digests.txt

Run from any directory; the package is imported from ``src/`` of the
checkout that holds this script, and every command runs in this one
process through ``risfeed.cli.main``. Each line reads
``<sha256>  <argv>``, ``exit <code>  <argv>`` for a command that
writes no file, or ``raise <exception>  <argv>`` for one that raises out
of ``main``. Two checkouts give the same outputs exactly when a
``diff`` of their two listings is empty.

The list holds the README commands, ``sweep-f`` for every objective and
beam (on scans with undefined and with tied rows, and on one in stacks
narrower than 64 f), edge cases (a fine and several coarse angle grids,
a 16-element feeder on an 8-element surface, a tilted table whose first
point is undefined, a table of 70 distances, surface patterns up to 1024
elements wide, a distance whose isotropic loss overflows, a scan on the
first rows of a wider steering matrix, 1024-element feeder patterns out
to +/-90 degrees, a tilted table at 16 x 1024, tables padded with
``nan`` sigma cells for N_a < 4, and a feeder wider than its surface,
whose zero sigma gives ``-inf``/``inf`` table cells and ``null`` report
values, tilted end feeds over a one-element surface, with a one-element
and an odd-sized feeder, and one whose feeder reaches the surface,
scans with a one-element feeder, a scan in stacks at the 2^20-entry
cap, an angle grid whose cells hold exact ``%.6f`` ties, and a 36,001-row
surface pattern) and the benchmark ops at seeds 701 and 702, which come from
``bench/workloads.py`` (imported, never changed).
"""

import hashlib
import importlib.util
import io
import shlex
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from risfeed.cli import main  # noqa: E402

README = [
    "analyze --na 4 --np 8 --f 8 --feed center",
    "table --na 4 --np 8,16,32 --f 4,8,40,80,120 --feed center",
    "pattern --na 4 --np 128 --f 110 --feed end --tilted --beam nonpem",
    "pattern --array ris --na 4 --np 128 --f 80 --feed center",
    "profile --na 4 --np 128 --f 110 --feed end --tilted --beam nonpem",
    "sweep-f --np 128 --feed end --tilted --beam nonpem --f-min 60 "
    "--f-max 140 --f-step 1 --objective min_sll",
]

# scans per objective and beam: a 16-element tilted feeder whose first
# four f reach the surface (undefined rows), once within one stack of
# optimize_f's scan and once over three; surfaces of one and
# two elements, whose profile variation is 0 at every f (tied rows) and
# whose patterns have no sidelobes; a plain end-feed scan; and 129 f
# at 20 x 1000, which optimize_f analyzes in stacks of 52, 52 and 25
SWEEPS = [
    "--na 16 --np 8 --feed end --tilted --f-min 1 --f-max 20 --f-step 1",
    "--na 16 --np 8 --feed end --tilted --f-min 1 --f-max 160 --f-step 1",
    "--np 1 --feed center --f-min 2 --f-max 12 --f-step 2",
    "--np 2 --feed center --f-min 2 --f-max 12 --f-step 2",
    "--np 32 --feed end --f-min 10 --f-max 40 --f-step 2.5",
    "--na 20 --np 1000 --feed center --f-min 5 --f-max 95 --f-step 0.7",
]

EDGE = [
    "pattern --na 4 --np 32 --f 16 --grid-step 0.013",
    "pattern --array ris --na 4 --np 32 --f 16 --grid-step 0.013",
    "analyze --na 16 --np 8 --f 8",
    "table --na 16 --np 8 --f 4,8,40",
    # the feeder reaches the surface at f = 1: an undefined row
    "table --na 16 --np 8 --f 1,8 --feed end --tilted",
    # more distances than one stack holds
    "table --np 8 --f " + ",".join(str(f) for f in range(1, 71)),
    "pattern --na 16 --np 8 --f 8",
    "pattern --array ris --na 16 --np 8 --f 8 --feed end --tilted",
    "profile --na 16 --np 8 --f 8 --beam nonpem",
] + [f"pattern --na 4 --np 8 --f 8 --grid-step {step}"
     for step in ("7", "90", "130", "1000")] + [
    f"{cmd} --na 4 --np 8 --f 3e153"
    for cmd in ("analyze", "table", "pattern", "profile")] + [
    f"pattern --array ris --np {n_p} --f 100" for n_p in (256, 512, 1024)
] + [
    # a 200-row steering matrix on the default grid, then a min_sll scan
    # whose real product reads its first 128 rows
    "pattern --array ris --np 200 --f 80",
    "sweep-f --np 128 --f-min 60 --f-max 140 --objective min_sll",
    # feeder patterns whose end cells at +/-90 degrees carry the element
    # gain's rounded cos(pi/2)
    "pattern --na 1024 --np 8 --f 8",
    "pattern --na 1024 --np 4 --f 2 --feed end",
    # the T kernel at the mode_table shape, tilted
    "table --na 16 --np 1024 --f 20,40,60,80,100 --feed end --tilted",
    # sigma columns padded with nan for N_a < 4
    "table --na 2 --np 8 --f 4,8",
    "table --na 1 --np 8 --f 8",
    # a 4-element feeder on a 2-element surface: zero sigma, so -inf
    # sigma and inf cond cells in the table, null ones in the report
    "table --na 4 --np 2 --f 8",
    "analyze --na 4 --np 2 --f 8",
    # a tilted feeder over a one-element surface, where sin(alpha) is -0.0
    "analyze --na 4 --np 1 --f 8 --feed end --tilted",
    "table --na 4 --np 1 --f 0.5,1,8 --feed end --tilted",
    # tilted one-element and odd-sized feeders; the three-element one
    # reaches the surface at f = 0.5
    "analyze --na 1 --np 8 --f 2 --feed end --tilted",
    "pattern --array ris --na 1 --np 32 --f 4 --feed end --tilted",
    "table --na 3 --np 8 --f 0.5,1,2,8 --feed end --tilted",
    "sweep-f --na 3 --np 8 --feed end --tilted --f-min 0.25 --f-max 4 "
    "--f-step 0.25 --objective max_power",
    # a tilted feeder that reaches the surface: no file, exit 2
    "analyze --na 16 --np 8 --f 1 --feed end --tilted"] + [
    # one-element feeders: each stack's principal vectors are (F, 1)
    f"sweep-f --na 1 --np 32 --feed end --tilted --f-min 2 --f-max 40 "
    f"--f-step 2 --beam {beam} --objective min_sll"
    for beam in ("pem", "nonpem")] + [
    # stacks of 64 f at 16 x 1024, each at the 2^20-entry cap
    "sweep-f --na 16 --np 1024 --feed center --f-min 100 --f-max 180 "
    "--f-step 1 --beam nonpem --objective max_power",
    # a 0.0078125-degree grid: 11,520 angle cells are exact %.6f ties,
    # which round half to even
    "pattern --np 8 --f 8 --grid-step 0.0078125",
    # 36,001 rows of a 1024-element surface pattern
    "pattern --array ris --na 16 --np 1024 --f 40 --grid-step 0.005",
    "pattern --array ris --na 4 --np 128 --f 110 --feed end --tilted "
    "--beam nonpem"]

BENCH_SEEDS = (701, 702)
BENCH_OPS = {"sweep_f": 4, "mode_table": 8, "report_files": 8}


def _bench_commands():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [list(c.argv) for seed in BENCH_SEEDS
            for workload, n_ops in BENCH_OPS.items()
            for i in range(n_ops)
            for c in workloads.make_op(workload, seed, i).commands]


def commands():
    sweeps = [f"sweep-f {scan} --beam {beam} --objective {objective}"
              for scan in SWEEPS for beam in ("pem", "nonpem")
              for objective in ("max_power", "min_sll",
                                "min_profile_variation")]
    return ([c.split() for c in README + sweeps + EDGE]
            + _bench_commands())


def digest(argv, out):
    """sha256 of the file argv writes to out, or its exit code if none,
    or the name of the exception it raises."""
    out.unlink(missing_ok=True)
    try:
        with redirect_stderr(io.StringIO()):
            code = main(argv + ["--out", str(out)])
    except Exception as exc:
        return f"raise {type(exc).__name__}"
    if code != 0 or not out.exists():
        return f"exit {code}"
    return hashlib.sha256(out.read_bytes()).hexdigest()


def run():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for argv in commands():
            print(f"{digest(argv, out)}  {shlex.join(argv)}")


if __name__ == "__main__":
    run()
