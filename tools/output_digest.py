"""Print a sha256 digest of the output file of every command in a fixed list.

    python3 tools/output_digest.py > digests.txt

Run from any directory; the package is imported from ``src/`` of the
checkout that holds this script, and every command runs in this one
process through ``risfeed.cli.main``. Each line reads
``<sha256>  <argv>``, or ``exit <code>  <argv>`` for a command that
writes no file. Two checkouts give the same outputs exactly when a
``diff`` of their two listings is empty.

The list holds the README commands, ``sweep-f`` for every objective and
beam (on scans with undefined and with tied rows), edge cases (a fine
and several coarse angle grids, a 16-element feeder on an 8-element
surface) and the benchmark ops at seeds 701 and 702, which come from
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
# four f reach the surface (undefined rows), once within one chunk of
# optimize_f's min_sll scoring and once over three; surfaces of one and
# two elements, whose profile variation is 0 at every f (tied rows) and
# whose patterns have no sidelobes; and a plain end-feed scan
SWEEPS = [
    "--na 16 --np 8 --feed end --tilted --f-min 1 --f-max 20 --f-step 1",
    "--na 16 --np 8 --feed end --tilted --f-min 1 --f-max 160 --f-step 1",
    "--np 1 --feed center --f-min 2 --f-max 12 --f-step 2",
    "--np 2 --feed center --f-min 2 --f-max 12 --f-step 2",
    "--np 32 --feed end --f-min 10 --f-max 40 --f-step 2.5",
]

EDGE = [
    "pattern --na 4 --np 32 --f 16 --grid-step 0.013",
    "pattern --array ris --na 4 --np 32 --f 16 --grid-step 0.013",
    "analyze --na 16 --np 8 --f 8",
    "table --na 16 --np 8 --f 4,8,40",
    "pattern --na 16 --np 8 --f 8",
    "pattern --array ris --na 16 --np 8 --f 8 --feed end --tilted",
    "profile --na 16 --np 8 --f 8 --beam nonpem",
] + [f"pattern --na 4 --np 8 --f 8 --grid-step {step}"
     for step in ("7", "90", "130", "1000")]

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
    """sha256 of the file argv writes to out, or its exit code if none."""
    out.unlink(missing_ok=True)
    with redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", str(out)])
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
