"""Print a sha256 digest of the output file of every command in a fixed list.

    python3 tools/output_digest.py > tools/output_digest.txt

Run from any directory; the package is imported from ``src/`` of the
checkout that holds this script, and every command runs in this one
process through ``risfeed.cli.main``, with BLAS on one thread (a
threaded product may round a pattern differently). The listing opens
with ``#`` lines naming what the bytes depend on beyond the source:
numpy's version, the BLAS library and its version, and the BLAS thread
count. Each further line reads ``<sha256>  <argv>``, ``exit <code>
<argv>`` for a command that writes no file, or ``raise <exception>
<argv>`` for one that raises out of ``main``. Two checkouts give the
same outputs exactly when a ``diff`` of their two listings is empty.
``tools/output_digest.txt`` is the listing of the checked-in source,
which ``tests/test_output_digest.py`` compares line by line; a change
that moves output bytes rewrites it, and its diff lists the moved
commands.

The list holds the README commands, ``sweep-f`` for every objective and
beam (on scans with undefined and with tied rows, and on one in stacks
narrower than 128 f), edge cases (a fine and several coarse angle grids,
a 16-element feeder on an 8-element surface, a tilted table whose first
point is undefined, a table of 70 distances, surface patterns up to 1024
elements wide, a distance whose isotropic loss overflows, a scan after
a wider surface pattern, 1024-element feeder patterns out
to +/-90 degrees, a tilted and a flat end-feed table at 16 x 1024, a
1024 x 1024 flat end-feed report (a flat T is copied from one entry per
feeder-surface offset), flat single-f reports and profiles at 4 x 96
and 4 x 160 and a flat one-element-feeder table, tables padded with
``nan`` sigma cells for N_a < 4, and a feeder wider than its surface,
whose zero sigma gives ``-inf``/``inf`` table cells and ``null`` report
values, tilted end feeds over a one-element surface, with a one-element
and an odd-sized feeder, and one whose feeder reaches the surface, a tilted
scan whose first chunk of the f list holds one clear f, a tilted table
of unsorted f whose middle f reach the surface, scans with a
one-element feeder, tilted and flat, a scan in stacks at the
2^20-entry cap, an angle grid whose cells hold exact ``%.6f`` ties, a
36,001-row surface pattern, a tilted 16-element scan of 64 f, scans of
one full stack of 128 f and of 129 f, whose last stack has one column, a
tilted table out to f = 1e6, center-feed tables and a scan at odd N_p,
tables on each side of LAPACK's QR threshold, one whose entries LAPACK
scales, one 16-element table of padded, R-factor and ill-conditioned
stacks, scans of one f, a 78-step grid whose broadside sample prints as
``0.000000``, scans whose first f gives an all-zero surface excitation
or one whose squares underflow, and distances so small that the pattern,
the report and the table overflow or underflow) and the benchmark ops at
seeds 701 and 702, which come from ``bench/workloads.py`` (imported,
never changed).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import shlex  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

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
# optimize_f's scan and once over two; surfaces of one and
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
    # a 200-element surface pattern on the default grid, then a min_sll
    # scan of a narrower surface, which has tables of its own
    "pattern --array ris --np 200 --f 80",
    "sweep-f --np 128 --f-min 60 --f-max 140 --objective min_sll",
    # feeder patterns whose end cells at +/-90 degrees carry the element
    # gain's rounded cos(pi/2)
    "pattern --na 1024 --np 8 --f 8",
    "pattern --na 1024 --np 4 --f 2 --feed end",
    # the T kernel at the mode_table shape, tilted (a build per pair) and
    # flat (a build per offset n - m, 1039 of them)
    "table --na 16 --np 1024 --f 20,40,60,80,100 --feed end --tilted",
    "table --na 16 --np 1024 --f 20,40,60,80,100 --feed end",
    # the widest T at the CLI caps, 1024 x 1024 from 2047 offsets
    "analyze --na 1024 --np 1024 --f 512 --feed end"] + [
    # single-f flat T of report_files' sizes, each built per offset
    f"{cmd} --na 4 --np {n_p} --f 60 --feed {feed}"
    for cmd in ("analyze", "profile") for n_p in (96, 160)
    for feed in ("center", "end")] + [
    # a flat one-element feeder, whose N_p offsets are its pairs
    "table --na 1 --np 8,1024 --f 4,40,120",
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
    "analyze --na 16 --np 8 --f 1 --feed end --tilted",
    # scans cut in chunks of the f list before the f that reach the
    # surface are dropped: the first chunk of 128 f holds one clear f,
    # f = 4.5704, whose stack's product has one column; and a table of
    # unsorted f whose middle f reach the surface
    "sweep-f --na 16 --np 8 --feed end --tilted --f-min 0.1 "
    "--f-max 5.028 --f-step 0.0352 --beam nonpem --objective min_sll",
    "table --na 16 --np 8 --f 8,1,16,2,4.6 --feed end --tilted"] + [
    # one-element feeders: each stack's principal vectors are (F, 1); a
    # flat one is built per offset, its N_p offsets being its pairs
    f"sweep-f --na 1 --np 32 --feed end {tilt}--f-min 2 --f-max 40 "
    f"--f-step 2 --beam {beam} --objective min_sll"
    for tilt in ("--tilted ", "") for beam in ("pem", "nonpem")] + [
    # stacks of 64 f at 16 x 1024, each at the 2^20-entry cap
    "sweep-f --na 16 --np 1024 --feed center --f-min 100 --f-max 180 "
    "--f-step 1 --beam nonpem --objective max_power",
    # a 0.0078125-degree grid: 11,520 angle cells are exact %.6f ties,
    # which round half to even
    "pattern --np 8 --f 8 --grid-step 0.0078125",
    # 36,001 rows of a 1024-element surface pattern
    "pattern --array ris --na 16 --np 1024 --f 40 --grid-step 0.005",
    "pattern --array ris --na 4 --np 128 --f 110 --feed end --tilted "
    "--beam nonpem",
    # the T kernel on tilted feeds: a 64-f stack at N_a 16, and a table
    # out to f = 1e6
    "sweep-f --na 16 --np 128 --feed end --tilted --f-min 20 --f-max 83 "
    "--f-step 1 --beam nonpem --objective min_sll",
    # one full stack of 128 f, and 129 f, whose last stack's product has
    # one column and so goes to a GEMV
    "sweep-f --np 128 --feed end --tilted --f-min 60 --f-max 187 "
    "--f-step 1 --beam nonpem --objective min_sll",
    "sweep-f --np 128 --feed end --tilted --f-min 60 --f-max 188 "
    "--f-step 1 --beam nonpem --objective min_sll",
    "table --na 16 --np 64 --f 40,1000,1e6 --feed end --tilted",
    # center feeds at odd N_p, at N_p 1 and 2 and at N_p 1023, each
    # built per offset
    "table --np 1,2,7,1023 --f 0.7,4,40,120,1e6",
    "table --na 16 --np 7,1023 --f 4,40,120",
    "sweep-f --np 127 --f-min 60 --f-max 140 --beam nonpem "
    "--objective min_sll",
    # each side of zgesdd's QR threshold, N_p >= floor(17 N_a / 9), where
    # sigma and V come from each R factor
    "table --na 16 --np 29,30,31 --f 4,40,120,1e6",
    "table --na 64 --np 119,120 --f 8,40,120 --feed end --tilted",
    "table --na 64 --np 119,120 --f 8,40,120",
    # entries so small or large that LAPACK scales them: no R factor
    "table --np 8,64 --f 1e-140,8,1e140",
    # one table of the three stack kinds: padded (N_p < N_a), R factor,
    # and ill-conditioned at f = 1e6
    "table --na 16 --np 8,64,1024 --f 4,40,120,1e6",
    # a one-f min_sll scan: its product has one column, as a CLI
    # pattern's does
    "sweep-f --np 128 --feed center --beam pem --f-min 50 --f-max 50",
    # a one-f scan at 4 x 1024 whose printed sidelobe reads the last bits
    # of its grid's angles, and a 78-step grid whose broadside sample
    # must print as 0.000000, never -0.000000
    "sweep-f --na 4 --np 1024 --feed center --beam pem --f-min 7 "
    "--f-max 7 --f-step 1 --objective min_sll",
    "pattern --na 4 --np 8 --f 8 --grid-step 2.3077"] + [
    # T underflows to zero at f = 1e-300: an all-zero surface excitation
    f"sweep-f --np 127 --feed center --f-min 1e-300 --f-max 120 "
    f"--f-step 60 --objective {objective}"
    for objective in ("max_power", "min_sll", "min_profile_variation")] + [
    # excitations near 1e-15 and 1e-120, whose pattern power lies far
    # below the absolute power floor: min_sll takes each excitation
    # scaled by the power of two of its peak
    f"sweep-f --np 127 --feed center --f-min {f} --f-max 120 --f-step 60 "
    "--objective min_sll" for f in ("3e-8", "1e-60")] + [
    # an excitation near 1e-164, whose squares underflow: its profile
    # variation is taken from the row scaled by a power of two
    "sweep-f --np 127 --feed center --f-min 1e-82 --f-max 120 --f-step 60 "
    "--objective min_profile_variation",
    # distances so small that sigma^2 and the pattern overflow, or that
    # sigma and the isotropic loss's log10 argument underflow to zero
    "pattern --array ris --na 1 --np 1 --f 1e-155",
    "analyze --na 4 --np 8 --f 1e-300 --feed end",
    "table --na 4 --np 8 --f 1e-300 --feed end"]

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


def provenance():
    """The listing's header: numpy, the BLAS library and version, and
    the BLAS thread count this tool pins."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# numpy {np.__version__}",
            f"# blas {blas['name']} {blas['version']}",
            f"# blas threads {os.environ['OPENBLAS_NUM_THREADS']}"]


def run():
    print("\n".join(provenance()))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for argv in commands():
            print(f"{digest(argv, out)}  {shlex.join(argv)}")


if __name__ == "__main__":
    run()
