"""Element patterns and the feeder-to-surface propagation matrix.

Entry (n, m) couples feeder element m to surface element n through the
Friis magnitude with both element gains, plus the distance phase:

    T[n, m] = sqrt(E(theta) * E(phi)) * exp(j*pi*r) / (2*pi*r)

with r in lambda/2 units, theta the departure angle from the feeder
element boresight and phi the arrival angle from the surface element
boresight.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np


def element_gain(theta):
    """Patch-element power gain 4*cos^2(theta), zero in the rear hemisphere.

    Peak gain is 4 (6.02 dBi); half power at +/-45 degrees. Accepts
    scalars or arrays of angles in radians.
    """
    theta = np.asarray(theta, dtype=float)
    cos_t = np.cos(theta)
    gain = np.where(np.abs(np.remainder(theta + np.pi, 2 * np.pi) - np.pi)
                    < np.pi / 2, 4.0 * cos_t * cos_t, 0.0)
    return gain if gain.ndim else float(gain)


@dataclass(frozen=True)
class PropagationMatrix:
    """Complex coupling matrix, surface elements x feeder elements."""

    entries: np.ndarray   # (N_p, N_a)

    @property
    def n_p(self) -> int:
        return self.entries.shape[0]

    @property
    def n_a(self) -> int:
        return self.entries.shape[1]

    def apply(self, weights):
        """T w: the surface excitation of feeder weights w."""
        if weights.shape[0] != self.n_a:
            raise ValueError(
                f"beam length {weights.shape[0]} != feeder size {self.n_a}")
        return self.entries @ weights


def _pair_geometry(scenario):
    """Distances and unsigned angles between every surface element and
    every feeder element.

    Returns (r, theta, phi), each shaped (surface, feeder) elements.
    """
    apos = scenario.amaf.positions    # (N_a, 2)
    rpos = scenario.ris.positions     # (N_p, 2)
    d = rpos[:, None, :] - apos[None, :, :]     # feeder -> surface
    r = np.linalg.norm(d, axis=2)
    if np.any(r == 0.0):
        n, m = np.argwhere(r == 0.0)[0]
        raise ValueError(f"coincident elements: surface {n}, feeder {m}")
    cos_theta = (d @ scenario.amaf.boresight) / r
    cos_phi = (-d @ scenario.ris.boresight) / r
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    phi = np.arccos(np.clip(cos_phi, -1.0, 1.0))
    return r, theta, phi


def build_T(scenario):
    """Assemble the full propagation matrix for a scenario."""
    r, theta, phi = _pair_geometry(scenario)
    amp = np.sqrt(element_gain(theta) * element_gain(phi)) / (2.0 * np.pi * r)
    entries = amp * np.exp(1j * np.pi * r)
    return PropagationMatrix(entries=entries)


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
