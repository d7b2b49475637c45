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

from .geometry import Scenario


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
class CouplingTerms:
    """Geometry of one feeder-surface element pair."""

    r: float       # distance, lambda/2 units
    theta: float   # departure angle from feeder element boresight, rad
    phi: float     # arrival angle from surface element boresight, rad


@dataclass(frozen=True)
class PropagationMatrix:
    """Complex coupling matrix, surface elements x feeder elements."""

    entries: np.ndarray   # (N_p, N_a)
    scenario: Scenario

    @property
    def n_p(self) -> int:
        return self.entries.shape[0]

    @property
    def n_a(self) -> int:
        return self.entries.shape[1]


def _pair_geometry(scenario, ris=slice(None), amaf=slice(None)):
    """Distances and unsigned angles between the surface elements `ris`
    and the feeder elements `amaf` (slices; every pair by default).

    Returns (r, theta, phi), each shaped (surface, feeder) elements.
    """
    apos = scenario.amaf.positions[amaf]    # (N_a, 2)
    rpos = scenario.ris.positions[ris]      # (N_p, 2)
    d = rpos[:, None, :] - apos[None, :, :]     # feeder -> surface
    r = np.linalg.norm(d, axis=2)
    if np.any(r == 0.0):
        n, m = np.argwhere(r == 0.0)[0]
        raise ValueError(f"coincident elements: "
                         f"surface {range(scenario.n_p)[ris][n]}, "
                         f"feeder {range(scenario.n_a)[amaf][m]}")
    cos_theta = (d @ scenario.amaf.boresight) / r
    cos_phi = (-d @ scenario.ris.boresight) / r
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    phi = np.arccos(np.clip(cos_phi, -1.0, 1.0))
    return r, theta, phi


def coupling_terms(amaf_element, ris_element, scenario):
    """Distance and angles between one feeder and one surface element."""
    if not 0 <= amaf_element < scenario.n_a:
        raise IndexError(f"feeder element {amaf_element} out of range")
    if not 0 <= ris_element < scenario.n_p:
        raise IndexError(f"surface element {ris_element} out of range")
    n, m = ris_element, amaf_element
    r, theta, phi = _pair_geometry(scenario, slice(n, n + 1),
                                   slice(m, m + 1))
    return CouplingTerms(r=float(r[0, 0]), theta=float(theta[0, 0]),
                         phi=float(phi[0, 0]))


def build_T(scenario):
    """Assemble the full propagation matrix for a scenario."""
    r, theta, phi = _pair_geometry(scenario)
    amp = np.sqrt(element_gain(theta) * element_gain(phi)) / (2.0 * np.pi * r)
    entries = amp * np.exp(1j * np.pi * r)
    return PropagationMatrix(entries=entries, scenario=scenario)


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


def write_matrix_csv(T, path):
    """Dump matrix entries with their pair geometry, for regression use."""
    r, theta, phi = _pair_geometry(T.scenario)
    n, m = np.indices(T.entries.shape)
    _write_csv(path, ["n", "m", "re", "im", "r", "theta_deg", "phi_deg"],
               "%d,%d,%.12e,%.12e,%.12e,%.9f,%.9f",
               [n.ravel(), m.ravel(), T.entries.real.ravel(),
                T.entries.imag.ravel(), r.ravel(),
                np.degrees(theta).ravel(), np.degrees(phi).ravel()])
