"""Array layouts and feed scenarios in a 2-D plane.

All distances are in half-wavelength units. The surface (RIS) lies along
the x-axis; the feeder (AMAF) sits at height z = f above it. Geometry is
strictly planar: linear arrays with axisymmetric element patterns make
the third dimension redundant.
"""

from dataclasses import dataclass

import numpy as np

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class ElementLayout:
    """A rigid uniform linear array of antenna elements.

    positions:  (n, 2) element coordinates, lambda/2 units.
    boresight:  (2,) unit vector shared by every element.
    spacing:    inter-element distance, lambda/2 units.
    """

    positions: np.ndarray
    boresight: np.ndarray
    spacing: float = 1.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        bs = np.asarray(self.boresight, dtype=float)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "boresight", bs)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError("positions must have shape (n, 2) with n >= 1")
        if abs(np.linalg.norm(bs) - 1.0) > _UNIT_TOL:
            raise ValueError("boresight vector must be unit norm")
        n = pos.shape[0]
        if n > 1:
            steps = np.diff(pos, axis=0)
            if np.any(np.abs(steps - steps[0]) > 1e-9):
                raise ValueError("positions must be collinear and uniform")
            if abs(np.linalg.norm(steps[0]) - self.spacing) > 1e-9:
                raise ValueError("element step must equal spacing")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def centroid(self) -> np.ndarray:
        return self.positions.mean(axis=0)


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
            raise ValueError("f must be positive and finite")
        if self.tilted and self.feed_style != "end":
            raise ValueError("tilt applies to end feed only")

    @property
    def n_a(self) -> int:
        return self.amaf.n

    @property
    def n_p(self) -> int:
        return self.ris.n

    @property
    def aperture(self) -> float:
        """Surface size D = N_p * spacing."""
        return self.n_p * self.ris.spacing

    @property
    def f_over_d(self) -> float:
        return self.f / self.aperture


def build_linear_array(n, centroid, axis, boresight, spacing=1.0):
    """Place n elements symmetrically about `centroid` along `axis`.

    Element k sits at centroid + (k - (n-1)/2) * spacing * axis.
    `axis` and `boresight` must be orthogonal unit vectors.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    centroid = np.asarray(centroid, dtype=float)
    axis = np.asarray(axis, dtype=float)
    boresight = np.asarray(boresight, dtype=float)
    if abs(np.linalg.norm(axis) - 1.0) > _UNIT_TOL:
        raise ValueError("axis must be unit norm")
    if abs(float(axis @ boresight)) > _UNIT_TOL:
        raise ValueError("axis must be orthogonal to boresight")
    offsets = (np.arange(n) - (n - 1) / 2.0) * spacing
    positions = centroid[None, :] + offsets[:, None] * axis[None, :]
    return ElementLayout(positions, boresight, spacing)


def make_center_feed(n_a, n_p, f, spacing=1.0):
    """Feeder centered over the surface midpoint, arrays facing each other."""
    ris = build_linear_array(n_p, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), spacing)
    amaf = build_linear_array(n_a, (0.0, f), (1.0, 0.0), (0.0, -1.0), spacing)
    return Scenario(amaf=amaf, ris=ris, feed_style="center", f=f)


def make_end_feed(n_a, n_p, f, tilted, spacing=1.0):
    """Feeder above the first (edge) surface element, optionally tilted.

    The tilt rotates the whole feeder rigidly about its centroid so that
    its boresight ray passes through the surface centroid, like a feed
    horn aimed at the reflector center.
    """
    ris = build_linear_array(n_p, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), spacing)
    centroid = np.array([ris.positions[0, 0], f])
    if tilted:
        # rotate (0,-1) onto the direction feeder centroid -> surface centroid
        alpha = np.arctan2(-centroid[0], f)
        c, s = np.cos(alpha), np.sin(alpha)
        rot = np.array([[c, -s], [s, c]])
        axis = rot @ np.array([1.0, 0.0])
        boresight = rot @ np.array([0.0, -1.0])
    else:
        axis = np.array([1.0, 0.0])
        boresight = np.array([0.0, -1.0])
    amaf = build_linear_array(n_a, centroid, axis, boresight, spacing)
    return Scenario(amaf=amaf, ris=ris, feed_style="end", f=f, tilted=tilted)
