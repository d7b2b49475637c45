"""Byte identity as a standing check: the output of every command in
tools/output_digest.py against the checked-in tools/output_digest.txt."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def entries(lines):
    """(digest, argv) of each command line of a listing."""
    return [tuple(line.split("  ", 1)) for line in lines
            if not line.startswith("#")]


def test_outputs_match_the_checked_in_listing():
    # the tool pins BLAS to one thread before numpy loads, so it runs in
    # a process of its own
    child = subprocess.run([sys.executable, str(TOOLS / "output_digest.py")],
                           check=True, capture_output=True, text=True)
    got = child.stdout.splitlines()
    want = (TOOLS / "output_digest.txt").read_text().splitlines()
    header = [line for line in want if line.startswith("#")]
    running = [line for line in got if line.startswith("#")]
    assert running == header, (
        "provenance differs from the listing's, so its bytes may differ "
        f"for that reason alone: listing {header}, this run {running}")
    got, want = entries(got), entries(want)
    assert [argv for _, argv in got] == [argv for _, argv in want], (
        "the command list differs from the listing's")
    moved = [argv for (g, argv), (w, _) in zip(got, want) if g != w]
    assert not moved, "outputs differ from the listing:\n" + "\n".join(moved)
