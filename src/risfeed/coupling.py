"""Element patterns and the feeder-to-surface propagation matrix.

Entry (n, m) couples feeder element m to surface element n through the
Friis magnitude with both patch gains E = 4*cos+^2, cos+ = max(cos, 0),
plus the distance phase:

    T[n, m] = 4 * cos+(theta) * cos+(phi) * exp(j*pi*r) / (2*pi*r)

with r in lambda/2 units, theta the departure angle from the feeder
element boresight and phi the arrival angle from the surface element
boresight.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import _layout


def element_gain(theta):
    """Patch-element power gain 4*max(cos(theta), 0)^2.

    Peak gain is 4 (6.02 dBi); half power at +/-45 degrees; zero in the
    rear hemisphere. Accepts scalars or arrays of angles in radians.
    """
    cos_t = np.maximum(np.cos(theta), 0.0)
    return 4.0 * cos_t * cos_t


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


def _pair_geometry(surface, surface_boresight, feeders, feeder_boresights):
    """Distances and angle cosines between the (N_p, 2) surface positions,
    whose elements face surface_boresight, and the elements of each
    (F, N_a, 2) feeder, which face its row of feeder_boresights.

    Returns (r, cos_theta, cos_phi), each shaped (feeder, surface, feeder
    element).
    """
    d = surface[:, None, :] - feeders[:, None, :, :]    # feeder -> surface
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        _, n, m = np.argwhere(r == 0.0)[0]
        raise ValueError(f"coincident elements: surface {n}, feeder {m}")
    # a (2, 1) column per feeder: these bits match d @ boresight of one
    cos_theta = (np.matmul(d, feeder_boresights[..., None, :, None])[..., 0]
                 / r)
    cos_phi = (-d @ surface_boresight) / r
    return r, cos_theta, cos_phi


def _T_stack(surface, surface_boresight, feeders, feeder_boresights, f):
    """(F, N_p, N_a) propagation entries from the arrays _pair_geometry
    takes, feeder k at distance f[k]; the bits of entry [k] do not depend
    on the rest of the stack. A distance so large that r overflows
    raises a ValueError naming its f, in place of numpy warnings."""
    with np.errstate(all="ignore"):
        r, cos_theta, cos_phi = _pair_geometry(
            surface, surface_boresight, feeders, feeder_boresights)
        # sqrt(E(theta) * E(phi)) with E = 4*cos+^2
        amp = (4.0 * np.maximum(cos_theta, 0.0) * np.maximum(cos_phi, 0.0)
               / (2.0 * np.pi * r))
        entries = amp * np.exp(1j * np.pi * r)
    if not np.isfinite(entries).all():
        k = np.argmin(np.isfinite(entries).all(axis=(1, 2)))
        raise ValueError("propagation matrix is not finite at "
                         f"f={float(f[k])!r}")
    return entries


def build_T(scenario):
    """Assemble the full propagation matrix for a scenario."""
    f = np.array([float(scenario.f)])
    layout = _layout(scenario.n_a, scenario.n_p, f, scenario.feed_style,
                     scenario.tilted)
    return PropagationMatrix(entries=_T_stack(*layout, f)[0])
