"""Far-field radiation patterns and surface excitation profiles.

Pattern angles are measured from the array boresight, positive toward
the array's +axis direction. The steering vector is stored conjugated so
that its plain dot product with an excitation gives the far-field sum
consistent with the exp(+j*pi*r) propagation phase used in the coupling
matrix; a beam focused on a target therefore peaks at the target's
physical angle.
"""

from dataclasses import dataclass

import numpy as np

from .coupling import PropagationMatrix, _write_csv, element_gain
from .modes import BeamVector

DEFAULT_GRID_STEP_DEG = 0.05
_POWER_FLOOR = 1e-30    # keeps dB values finite at pattern nulls


def default_grid(step_deg=DEFAULT_GRID_STEP_DEG):
    """Angle grid over [-90, +90] degrees, inclusive."""
    n = int(round(180.0 / step_deg))
    return np.linspace(-90.0, 90.0, n + 1)


@dataclass(frozen=True)
class PatternCurve:
    """Sampled power radiation pattern."""

    angles_deg: np.ndarray
    power_dbi: np.ndarray
    power_norm_db: np.ndarray
    peak_angle_deg: float
    peak_dbi: float


def steering_vector(n, theta):
    """Conjugated uniform-array steering vector for angle theta (radians).

    An array of angles gives one row per angle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.exp(-1j * np.pi * np.multiply.outer(np.sin(theta), np.arange(n)))


# (theta, steering rows, element gain) for the widest array drawn on the
# current grid. Column k of the steering rows depends on k and theta
# only, so an n-element array uses the first n columns (a view, no
# copy): feeder and surface curves on one grid share a single matrix.
# One matrix is held, at most 590 MB at the CLI caps (36001 angles x
# 1024 elements); the cell's tuple is replaced whole, never edited. The
# product with k weight columns peaks at about 25 * k bytes per angle
# (the complex field, then its power and dB arrays): 5.7 MB for a
# sweep-f chunk of 64 on the default 3601-angle grid.
_NO_ROWS = np.empty((0, 0), dtype=complex)
_steering = [(np.empty(0), _NO_ROWS, np.empty(0))]


def _patterns(W, angles_deg):
    """Curves of |sum_k W[k, j] exp(-j pi k sin(theta))|^2 * E(theta) over
    the given angles (default grid if None), one per column j of the
    (n, k) weight matrix W."""
    if not W.any(axis=0).all():
        raise ValueError("all-zero surface excitation")
    if angles_deg is None:
        angles_deg = default_grid()
    angles_deg = np.array(angles_deg, dtype=float)
    theta = np.radians(angles_deg)
    if theta.size == 0:
        raise ValueError("empty angle grid")
    n = W.shape[0]
    memo_theta, rows, gain = _steering[0]
    # keyed by value: theta is a fresh array, so no caller can mutate the
    # key, and array ids are reused after garbage collection
    if not np.array_equal(memo_theta, theta):
        rows, gain = _NO_ROWS, element_gain(theta)
    if n > rows.shape[1]:
        # free the old matrix before the wider one is built
        rows = _NO_ROWS
        _steering[0] = (theta, rows, gain)
        rows = steering_vector(n, theta)
        _steering[0] = (theta, rows, gain)
    # one column goes to the same GEMV as a vector product, so single
    # curves keep their bits; a column of a wider product may differ from
    # its GEMV curve in the last bits, whatever else is in the product
    power = np.maximum(np.abs(rows[:, :n] @ W) ** 2 * gain[:, None],
                       _POWER_FLOOR)
    return [_curve(angles_deg, p) for p in (10.0 * np.log10(power)).T]


def _curve(angles_deg, power_dbi):
    """One sampled pattern, normalized to its (first) peak."""
    k = int(np.argmax(power_dbi))
    peak = power_dbi[k]
    return PatternCurve(angles_deg=angles_deg,
                        power_dbi=power_dbi,
                        power_norm_db=power_dbi - peak,
                        peak_angle_deg=float(angles_deg[k]),
                        peak_dbi=float(peak))


def amaf_pattern(b: BeamVector, angles_deg=None) -> PatternCurve:
    """Feeder power pattern: array factor times the patch element factor."""
    return _patterns(b.weights[:, None], angles_deg)[0]


def ris_excitation(T: PropagationMatrix, b: BeamVector) -> np.ndarray:
    """Incident magnitude on each surface element for a feeder excitation."""
    return np.abs(T.apply(b.weights))


def ris_pattern(T: PropagationMatrix, b: BeamVector,
                angles_deg=None) -> PatternCurve:
    """Surface power pattern for a feeder excitation.

    Each surface element cancels the incident phase, so the effective
    surface weights are |T b| and the beam points broadside. The weights
    are not renormalized: dBi values include the feeder-to-surface
    propagation loss.
    """
    return _patterns(np.abs(T.apply(b.weights))[:, None], angles_deg)[0]


def sidelobe_level(curve: PatternCurve):
    """Highest sidelobe relative to the main peak, in dB.

    The main lobe spans the strict local minima flanking the global
    peak; the result is the largest local maximum outside it. Returns
    None when the curve has no sidelobe (monotone away from the peak).
    """
    y = curve.power_norm_db
    n = y.size
    if n < 3:
        raise ValueError("curve needs at least 3 samples")
    k = int(np.argmax(y))
    # the lobe runs down to the last j < k with y[j] > y[j+1] and up to
    # the first j >= k with y[j+1] > y[j]; ties (<=) stay in the lobe
    stops = np.flatnonzero(~(y[:k] <= y[1:k + 1]))
    lo = int(stops[-1]) + 1 if stops.size else 0
    stops = np.flatnonzero(~(y[k + 1:] <= y[k:-1]))
    hi = k + int(stops[0]) if stops.size else n - 1
    outside = np.concatenate([y[:lo], y[hi + 1:]])
    if outside.size == 0:
        return None
    return float(outside.max())


def write_pattern_csv(curve: PatternCurve, path):
    _write_csv(path, ["angle_deg", "power_dbi", "power_norm_db"],
               "%.6f,%.6f,%.6f",
               [curve.angles_deg, curve.power_dbi, curve.power_norm_db])


def write_profile_csv(magnitudes, path):
    """Surface excitation magnitudes, elements numbered from 1."""
    _write_csv(path, ["element_index", "magnitude", "magnitude_db"],
               "%d,%.12e,%.6f",
               [np.arange(1, magnitudes.size + 1), magnitudes,
                20.0 * np.log10(np.maximum(magnitudes, 1e-300))])
