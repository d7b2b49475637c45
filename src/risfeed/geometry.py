"""Array layouts and feed scenarios in a 2-D plane.

All distances are in half-wavelength units. The surface (RIS) lies along
the x-axis; the feeder (AMAF) sits at height z = f above it. Both are
uniform linear arrays with elements a fixed lambda/2 (one unit) apart.
Geometry is strictly planar: linear arrays with axisymmetric element
patterns make the third dimension redundant.
"""

from dataclasses import dataclass, field

import numpy as np

_UNIT_TOL = 1e-12


class FeederBelowSurfaceError(ValueError):
    """A tilted end-feed feeder with an element at or below z = 0."""


@dataclass(frozen=True)
class ElementLayout:
    """A rigid uniform linear array of n elements, lambda/2 apart.

    Element k sits at centroid + (k - (n-1)/2) * axis, and every element
    faces `boresight`; `axis` and `boresight` are orthogonal unit
    2-vectors. positions is the (n, 2) array of element coordinates.
    """

    n: int
    centroid: np.ndarray
    axis: np.ndarray
    boresight: np.ndarray
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name in ("centroid", "axis", "boresight"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if abs(np.linalg.norm(self.axis) - 1.0) > _UNIT_TOL:
            raise ValueError("axis must be unit norm")
        if abs(np.linalg.norm(self.boresight) - 1.0) > _UNIT_TOL:
            raise ValueError("boresight vector must be unit norm")
        if abs(float(self.axis @ self.boresight)) > _UNIT_TOL:
            raise ValueError("axis must be orthogonal to boresight")
        offsets = np.arange(self.n) - (self.n - 1) / 2.0
        object.__setattr__(self, "positions", self.centroid[None, :]
                           + offsets[:, None] * self.axis[None, :])


@dataclass(frozen=True)
class Scenario:
    """A complete feeder + surface geometry."""

    amaf: ElementLayout
    ris: ElementLayout
    feed_style: str  # "center" or "end"
    f: float         # feeder-to-surface distance, lambda/2 units
    tilted: bool = False

    def __post_init__(self):
        if self.feed_style not in ("center", "end"):
            raise ValueError(f"unknown feed_style {self.feed_style!r}")
        if not (np.isfinite(self.f) and self.f > 0):
            raise ValueError(f"f={self.f!r} must be positive and finite")
        if self.tilted and self.feed_style != "end":
            raise ValueError("tilt applies to end feed only")

    @property
    def n_a(self) -> int:
        return self.amaf.n

    @property
    def n_p(self) -> int:
        return self.ris.n

    @property
    def f_over_d(self) -> float:
        """f over the surface size D = N_p elements lambda/2 apart."""
        return self.f / self.n_p


def make_center_feed(n_a, n_p, f):
    """Feeder centered over the surface midpoint, arrays facing each other."""
    ris = ElementLayout(n_p, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    amaf = ElementLayout(n_a, (0.0, f), (1.0, 0.0), (0.0, -1.0))
    return Scenario(amaf=amaf, ris=ris, feed_style="center", f=f)


def make_end_feed(n_a, n_p, f, tilted):
    """Feeder above the first (edge) surface element, optionally tilted.

    The feeder is one rotation by alpha of a flat array (axis +x, facing
    -z) about its centroid. Tilted, alpha aims its boresight ray at the
    surface centroid, like a feed horn aimed at the reflector center;
    flat, alpha is 0. A tilt that puts any feeder element at or below
    the surface is an error.
    """
    ris = ElementLayout(n_p, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    x0 = ris.positions[0, 0]
    alpha = np.arctan2(-x0, f) if tilted else 0.0
    c, s = np.cos(alpha), np.sin(alpha)
    amaf = ElementLayout(n_a, (x0, f), (c, s), (s, -c))
    scenario = Scenario(amaf=amaf, ris=ris, feed_style="end", f=f,
                        tilted=tilted)
    z = amaf.positions[:, 1]
    if np.any(z <= 0):
        raise FeederBelowSurfaceError(
            f"tilted feeder reaches the surface: {np.count_nonzero(z <= 0)}"
            f" of {n_a} elements at z <= 0 (min z {z.min():.6g});"
            f" increase f or use fewer feeder elements")
    return scenario
