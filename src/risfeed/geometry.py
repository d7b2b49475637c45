"""Feed scenarios and their element positions in a 2-D plane.

All distances are in half-wavelength units. The surface (RIS) lies along
the x-axis, centered on the origin and facing +z; the feeder (AMAF) sits
at height z = f above it. Both are uniform linear arrays with elements a
fixed lambda/2 (one unit) apart. Geometry is strictly planar: linear
arrays with axisymmetric element patterns make the third dimension
redundant. A scenario is its parameters; the private helpers below lay
out its arrays, one feeder for each f of an array of distances.
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


def _line(n, centroid, axis):
    """Positions (..., n, 2) of n elements one unit apart, element k at
    centroid + (k - (n-1)/2) * axis, for centroids and axes (..., 2)."""
    offsets = np.arange(n) - (n - 1) / 2.0
    return centroid[..., None, :] + offsets[:, None] * axis[..., None, :]


def _surface(n_p):
    """(N_p, 2) surface element positions; each faces _SURFACE_BORESIGHT."""
    return _line(n_p, np.zeros(2), np.array([1.0, 0.0]))


def _rotation(n_p, f, feed_style, tilted):
    """The x of the feeder centroid, and cos and sin of its rotation
    alpha at each distance of the float array f.

    A feeder is a flat array (axis +x, facing -z) rotated by alpha about
    its centroid. Tilted, alpha = arctan2(-x0, f) aims its boresight ray
    at the surface centroid, like a feed horn aimed at the reflector
    center; flat, alpha is 0.
    """
    # _surface(n_p)[0, 0], the first surface element's x, +0.0 at N_p = 1
    x0 = 0.0 - (n_p - 1) / 2.0 if feed_style == "end" else 0.0
    alpha = np.arctan2(-x0, f) if tilted else np.zeros_like(f)
    return x0, np.cos(alpha), np.sin(alpha)


def _clears(n_a, n_p, f, feed_style, tilted):
    """Whether the feeder at each distance of f lies wholly above the
    surface. Its lowest element is an end one, at
    f - (N_a - 1)/2 * |sin alpha|, which rounds as its own z does."""
    _, _, s = _rotation(n_p, f, feed_style, tilted)
    return f - (n_a - 1) / 2.0 * np.abs(s) > 0


def _layout(n_a, n_p, f, feed_style, tilted):
    """The arrays _pair_geometry takes for the feeders at the F distances
    of the float array f: (N_p, 2) surface positions, their boresight,
    and (F, N_a, 2) feeder positions with their (F, 2) boresights."""
    x0, c, s = _rotation(n_p, f, feed_style, tilted)
    centroids = np.stack([np.full_like(f, x0), f], axis=-1)
    return (_surface(n_p), _SURFACE_BORESIGHT,
            _line(n_a, centroids, np.stack([c, s], axis=-1)),
            np.stack([s, -c], axis=-1))


def make_center_feed(n_a, n_p, f):
    """Feeder centered over the surface midpoint, arrays facing each other."""
    return Scenario(n_a, n_p, f, "center")


def make_end_feed(n_a, n_p, f, tilted):
    """Feeder above the first (edge) surface element, optionally tilted
    toward the surface centroid. A tilt that puts any feeder element at
    or below the surface is an error."""
    scenario = Scenario(n_a, n_p, f, "end", tilted)
    heights = np.array([float(f)])
    if not _clears(n_a, n_p, heights, "end", tilted)[0]:
        z = _layout(n_a, n_p, heights, "end", tilted)[2][0, :, 1]
        raise ValueError(
            f"tilted feeder reaches the surface: {np.count_nonzero(z <= 0)}"
            f" of {n_a} elements at z <= 0 (min z {z.min():.6g});"
            f" increase f or use fewer feeder elements")
    return scenario
