"""Element patterns and the feeder-to-surface propagation matrix.

Entry (n, m) couples feeder element m to surface element n through the
Friis magnitude with both patch gains E = 4*cos+^2, cos+ = max(cos, 0),
plus the distance phase:

    T[n, m] = 4 * cos+(theta) * cos+(phi) * exp(j*pi*r) / (2*pi*r)

with r in lambda/2 units, theta the departure angle from the feeder
element boresight and phi the arrival angle from the surface element
boresight.

A layout that is its own mirror image about x = 0, as a center feed is,
has T[n, m] = T[N_p-1-n, N_a-1-m] bit for bit, so only the first
ceil(N_p/2) surface rows are computed and the rest are copied from them.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import _layout

_FLIP = np.array([-1.0, 1.0])     # reflection about x = 0


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
    (n_f, n_a, _), n_p = feeders.shape, len(surface)
    d = np.empty((n_f, n_p, n_a, 2))                    # feeder -> surface
    for k in (0, 1):    # one component at a time: longer inner loops
        np.subtract(surface[:, None, k], feeders[:, None, :, k], out=d[..., k])
    r, cos_theta, cos_phi = (np.empty(d.shape[:3]) for _ in range(3))
    # the bits of np.linalg.norm(d, axis=-1), with cos_phi as scratch
    np.add(np.square(d[..., 0], out=r), np.square(d[..., 1], out=cos_phi),
           out=r)
    np.sqrt(r, out=r)
    if not r.all():
        _, n, m = np.argwhere(r == 0.0)[0]
        raise ValueError(f"coincident elements: surface {n}, feeder {m}")
    # Each cosine's numerator is one BLAS product per feeder: a (2, 1)
    # boresight column against all of the feeder's rows gives the fused
    # multiply-add bits of a product per surface element (an elementwise
    # dx*s + dy*c would not), in one call, not one per element. A
    # one-element feeder keeps its product per element, because BLAS fuses
    # the other term in the dot of a single row.
    blocks = (n_f, n_p, 1) if n_a == 1 else (n_f, 1, n_p * n_a)
    rows = d.reshape(blocks + (2,))
    np.matmul(rows, feeder_boresights[:, None, :, None],
              out=cos_theta.reshape(blocks + (1,)))
    np.matmul(rows, -surface_boresight[:, None],
              out=cos_phi.reshape(blocks + (1,)))
    cos_theta /= r
    cos_phi /= r
    return r, cos_theta, cos_phi


def _mirrored(surface, surface_boresight, feeders, feeder_boresights):
    """Whether the arrays _pair_geometry takes are their own mirror image
    about x = 0: every boresight along z, the surface and each feeder
    row equal to itself reversed and reflected, and N_p > 1."""
    return (len(surface) > 1 and surface_boresight[0] == 0
            and not feeder_boresights[:, 0].any()
            and (feeders[:, ::-1] * _FLIP == feeders).all()
            and (surface[::-1] * _FLIP == surface).all())


def _T_stack(surface, surface_boresight, feeders, feeder_boresights, f):
    """(F, N_p, N_a) propagation entries from the arrays _pair_geometry
    takes, feeder k at distance f[k]; the bits of entry [k] do not depend
    on the rest of the stack. A distance so large that r overflows
    raises a ValueError naming its f, in place of numpy warnings.

    A _mirrored layout computes its first ceil(N_p/2) rows and copies the
    rest, T[n, m] = T[N_p-1-n, N_a-1-m], with the bits of computing them:
    a mirrored pair's differences are (-dx, dy) and (dx, dy), so r is
    equal, and with boresights along z each cosine numerator is dy times
    the boresight's z plus a zero, however BLAS fuses it; a zero
    numerator's sign is dropped by cos+.
    """
    n_p = len(surface)
    rows = (n_p + 1) // 2 if _mirrored(
        surface, surface_boresight, feeders, feeder_boresights) else n_p
    with np.errstate(all="ignore"):
        r, amp, cos_phi = _pair_geometry(
            surface[:rows], surface_boresight, feeders, feeder_boresights)
        # sqrt(E(theta) * E(phi)) / (2 pi r) with E = 4*cos+^2, in place
        np.maximum(amp, 0.0, out=amp)
        amp *= 4.0
        amp *= np.maximum(cos_phi, 0.0, out=cos_phi)
        amp /= np.multiply(r, 2.0 * np.pi, out=cos_phi)
        del cos_phi
        entries = np.empty((len(r), n_p, r.shape[2]), complex)
        top = entries[:, :rows]
        np.multiply(r, 1j * np.pi, out=top)
        np.exp(top, out=top)
        top *= amp
        del r, amp      # free before the mirror copy, which takes a temporary
    if not np.isfinite(top).all():
        k = np.argmin(np.isfinite(top).all(axis=(1, 2)))
        raise ValueError("propagation matrix is not finite at "
                         f"f={float(f[k])!r}")
    entries[:, rows:] = entries[:, :n_p - rows][:, ::-1, ::-1]
    return entries


def build_T(scenario):
    """Assemble the full propagation matrix for a scenario."""
    f = np.array([float(scenario.f)])
    layout = _layout(scenario.n_a, scenario.n_p, f, scenario.feed_style,
                     scenario.tilted)
    return PropagationMatrix(entries=_T_stack(*layout, f)[0])
