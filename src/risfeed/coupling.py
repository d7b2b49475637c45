"""Element patterns and the feeder-to-surface propagation matrix.

Entry (n, m) couples feeder element m to surface element n through the
Friis magnitude with both patch gains E = 4*cos+^2, cos+ = max(cos, 0),
plus the distance phase:

    T[n, m] = 4 * cos+(theta) * cos+(phi) * exp(j*pi*r) / (2*pi*r)

with r in lambda/2 units, theta the departure angle from the feeder
element boresight and phi the arrival angle from the surface element
boresight.

On a flat layout, a center feed or an untilted end feed, T[n, m] depends
on the offset n - m alone, bit for bit: each feeder's T is Toeplitz, so
its N_p + N_a - 1 distinct entries are computed once and T is copied
from them. A tilted feed over two or more surface elements computes every
pair.
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


def _offset_geometry(surface, surface_boresight, feeders, feeder_boresights):
    """_pair_geometry's (r, cos_theta, cos_phi) for a flat layout, each
    (feeder, offset): column j holds offset n - m = j - (N_a-1), from
    surface element 0 against feeder elements N_a-1 ... 1, then each
    surface element against feeder element 0.

    The bits are those of every pair with that offset. Every x is a
    multiple of 1/2 below 2**51 with one unit step along both arrays, so
    each pair's dx is x_0 - a_0 + n - m exactly (up to the sign of a
    zero, which is squared or multiplied into a zero). dz is one nonzero
    value per feeder, so r rounds from the offset alone. Each cosine
    numerator is dx times a zero x-component plus dz times +-1: exactly
    +-dz, however BLAS orders or fuses it.
    """
    dx = np.concatenate([surface[0, 0] - feeders[:, :0:-1, 0],
                         surface[:, 0] - feeders[:, :1, 0]], axis=1)
    dz = surface[0, 1] - feeders[:, :1, 1]
    r = np.square(dx)
    r += np.square(dz)
    np.sqrt(r, out=r)
    return (r, dz * feeder_boresights[:, 1:] / r,
            dz * -surface_boresight[1] / r)


def _T_stack(surface, surface_boresight, feeders, feeder_boresights, f):
    """(F, N_p, N_a) propagation entries, feeder k at distance f[k], from
    the arrays geometry._layout gives, or from those arrays with the
    roles swapped (one feeder as the surface, the surface as a stack of
    one); the bits of entry [k] do not depend on the rest of the stack.
    A distance so large that r overflows raises a ValueError naming its
    f, in place of numpy warnings.

    Where every boresight lies along z (a zero x-component, -0.0 included:
    a center or untilted end feed, or a tilted one over one surface
    element), the layout is flat: its N_p + N_a - 1 offsets' entries are
    computed once, from _offset_geometry, and T[n, m] is copied from
    offset n - m, with the bits of computing each pair.
    """
    (n_f, n_a, _), n_p = feeders.shape, len(surface)
    arrays = surface, surface_boresight, feeders, feeder_boresights
    with np.errstate(all="ignore"):
        flat = not surface_boresight[0] and not feeder_boresights[:, 0].any()
        r, amp, cos_phi = (_offset_geometry if flat
                           else _pair_geometry)(*arrays)
        if not r.all():     # the build per pair names the coincident pair
            _pair_geometry(*arrays)
        # sqrt(E(theta) * E(phi)) / (2 pi r) with E = 4*cos+^2, in place
        np.maximum(amp, 0.0, out=amp)
        amp *= 4.0
        amp *= np.maximum(cos_phi, 0.0, out=cos_phi)
        amp /= np.multiply(r, 2.0 * np.pi, out=cos_phi)
        del cos_phi
        entries = np.multiply(r, 1j * np.pi)
        np.exp(entries, out=entries)
        entries *= amp
        del r, amp      # free before the copy out of the offsets' entries
    if not np.isfinite(entries).all():
        k = np.argmin(np.isfinite(entries).reshape(n_f, -1).all(axis=1))
        raise ValueError("propagation matrix is not finite at "
                         f"f={float(f[k])!r}")
    if entries.ndim == 3:
        return entries
    # T[k, n, m] is entries[k, n - m + N_a - 1]
    step = entries.strides[1]
    return np.ndarray((n_f, n_p, n_a), complex, entries, (n_a - 1) * step,
                      (entries.strides[0], step, -step)).copy()


def build_T(scenario):
    """Assemble the full propagation matrix for a scenario."""
    f = np.array([float(scenario.f)])
    layout = _layout(scenario.n_a, scenario.n_p, f, scenario.feed_style,
                     scenario.tilted)
    return PropagationMatrix(entries=_T_stack(*layout, f)[0])
