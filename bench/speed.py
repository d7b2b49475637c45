"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the same work takes up to 1.8x longer from one run to
the next (other tenants on the same cores and caches), and the slowdown
differs between large-array NumPy work, interpreter-bound Python, small
linear algebra and formatted file writes. The runner takes a snapshot of
this kernel's speed before every cold start and every op and once after
the last, and divides every time of the run by one divisor made from all
of them. One divisor per run, not one per op: a host stall during a
single snapshot would otherwise rescale the ops next to it, and with ops
of seconds each a few such ops move the median op. The kernel does not
touch risfeed, so a change to the program moves the numerator only.

A snapshot runs the kernel three times and discards the first pass,
which mostly measures the caches the preceding op left cold; it records
each part's mean time over the other two passes divided by the part's
reference time (``REF_S``, measured on a 2-core Xeon sandbox). The run's
index is the mean over the four parts of each part's median over the
snapshots, so each kind of work weighs the same, and one kind slowed in
many snapshots (file writes, say, on a workload that hardly writes)
moves the index by a quarter of its slowdown.

The divisor is the index to the power ``EXPONENT``, not the index
itself. Over 28 runs on that sandbox, the log of a metric's wall-clock
value rose with the log of the index with a slope from 0.24
(report_files' op_ms_tail) to 0.85 (report_files' op_ms_p50), and near
0.7 for sweep_f. Dividing by the index over-corrects the metrics with a
low slope (report_files' op_ms_tail spread 0.30 over ten runs, against
0.06 undivided); not dividing leaves the others spread by up to 0.28.
The square root kept every metric's spread at 0.13 or below in the same
runs. The divisor does not catch every slowdown: on sweep_f, runs with
the same index have been seen to differ by a fifth in op time.
"""

import statistics
import time

import numpy as np

REF_S = (1.5e-3, 1.35e-3, 1.3e-3, 0.9e-3)
EXPONENT = 0.5


class SpeedIndex:
    def __init__(self, scratch_file):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((300, 128))
        self._small = [rng.standard_normal((4, 4))
                       + 1j * rng.standard_normal((4, 4)) for _ in range(100)]
        self._vals = rng.standard_normal(600).tolist()
        self._file = scratch_file
        self.snaps = []         # per snapshot and part: 1.0 at reference
                                # speed, 2.0 at half

    def _parts(self):
        t0 = time.perf_counter()
        np.abs(np.exp(1j * self._x)).sum()
        t1 = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i * i % 7
        t2 = time.perf_counter()
        for a in self._small:
            np.linalg.eigh(a.conj().T @ a)
        t3 = time.perf_counter()
        with open(self._file, "w") as fh:
            for v in self._vals:
                fh.write(f"{v:.6f},{2 * v:.6f},{3 * v:.6f}\n")
        t4 = time.perf_counter()
        return t1 - t0, t2 - t1, t3 - t2, t4 - t3

    def snap(self):
        """Record the current speed of each part of the kernel."""
        self._parts()
        passes = zip(self._parts(), self._parts(), REF_S)
        self.snaps.append([(a + b) / 2 / r for a, b, r in passes])

    def part_medians(self):
        """Each part's median over the snapshots taken so far."""
        return [statistics.median(p) for p in zip(*self.snaps)]

    def index(self):
        """The run's index: the mean of the part medians."""
        return statistics.mean(self.part_medians())

    def divisor(self):
        """What the run's times are divided by."""
        return self.index() ** EXPONENT
