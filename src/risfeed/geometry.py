"""Feed scenarios and their element positions in a 2-D plane.

All distances are in half-wavelength units. The surface (RIS) lies along
the x-axis, centered on the origin and facing +z; the feeder (AMAF) sits
at height z = f above it. Both are uniform linear arrays with elements a
fixed lambda/2 (one unit) apart. Geometry is strictly planar: linear
arrays with axisymmetric element patterns make the third dimension
redundant. A scenario is its parameters; _layout, the one placement
formula, lays out its arrays, one feeder for each f of an array of
distances, and a feeder clears the surface where every laid-out z is
positive.
"""

from dataclasses import dataclass

import numpy as np

_SURFACE_BORESIGHT = np.array([0.0, 1.0])


@dataclass(frozen=True)
class Scenario:
    """A feeder of n_a elements at height f over a surface of n_p: above
    the surface midpoint ("center") or its first element ("end"), an end
    feed optionally tilted toward the surface centroid."""

    n_a: int
    n_p: int
    f: float         # feeder-to-surface distance, lambda/2 units
    feed_style: str  # "center" or "end"
    tilted: bool = False

    def __post_init__(self):
        if self.n_a < 1 or self.n_p < 1:
            raise ValueError(f"n_a={self.n_a}, n_p={self.n_p}: must be >= 1")
        if self.feed_style != "end" and (self.feed_style != "center"
                                         or self.tilted):
            raise ValueError(f"feed {self.feed_style!r} (tilted={self.tilted})"
                             " is not 'end' or an untilted 'center'")
        if not (np.isfinite(self.f) and self.f > 0):
            raise ValueError(f"f={self.f!r} must be positive and finite")


def _layout(n_a, n_p, f, feed_style, tilted):
    """The arrays _pair_geometry takes for the feeders at the F distances
    of the float array f: (N_p, 2) surface positions, their boresight,
    and (F, N_a, 2) feeder positions with their (F, 2) boresights.

    Each array's elements sit one unit apart, element k at offset
    k - (n-1)/2 from its centroid. A feeder is a flat array (axis +x,
    facing -z) rotated by alpha about its centroid (x0, f), x0 the first
    surface element's x for an end feed (+0.0 at N_p = 1) and 0.0 for a
    center feed. Tilted, alpha = arctan2(-x0, f) aims its boresight ray
    at the surface centroid, like a feed horn aimed at the reflector
    center; flat, alpha is 0.
    """
    surface = np.zeros((n_p, 2))
    surface[:, 0] = np.arange(n_p) - (n_p - 1) / 2.0
    x0 = surface[0, 0] if feed_style == "end" else 0.0
    alpha = np.arctan2(-x0, f) if tilted else np.zeros_like(f)
    c, s = np.cos(alpha)[:, None], np.sin(alpha)[:, None]
    k = np.arange(n_a) - (n_a - 1) / 2.0
    feeders = np.stack([x0 + k * c, f[:, None] + k * s], axis=-1)
    return surface, _SURFACE_BORESIGHT, feeders, np.hstack([s, -c])


def make_center_feed(n_a, n_p, f):
    """Feeder centered over the surface midpoint, arrays facing each other."""
    return Scenario(n_a, n_p, f, "center")


def make_end_feed(n_a, n_p, f, tilted):
    """Feeder above the first (edge) surface element, optionally tilted
    toward the surface centroid. A tilt that puts any feeder element at
    or below the surface is an error."""
    scenario = Scenario(n_a, n_p, f, "end", tilted)
    z = _layout(n_a, n_p, np.array([float(f)]), "end", tilted)[2][0, :, 1]
    if not (z > 0).all():
        raise ValueError(
            f"tilted feeder reaches the surface: {np.count_nonzero(z <= 0)}"
            f" of {n_a} elements at z <= 0 (min z {z.min():.6g});"
            f" increase f or use fewer feeder elements")
    return scenario
