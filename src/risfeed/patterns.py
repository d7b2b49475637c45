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


@dataclass(frozen=True)
class ExcitationProfile:
    """Per-element excitation magnitude across the surface (1-based)."""

    magnitudes: np.ndarray
    element_index: np.ndarray


def steering_vector(n, theta):
    """Conjugated uniform-array steering vector for angle theta (radians).

    An array of angles gives one row per angle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.exp(-1j * np.pi * np.multiply.outer(np.sin(theta), np.arange(n)))


def _curve_from_power(angles_deg, power_lin):
    power_lin = np.maximum(power_lin, _POWER_FLOOR)
    power_dbi = 10.0 * np.log10(power_lin)
    k = int(np.argmax(power_dbi))
    peak = power_dbi[k]
    return PatternCurve(angles_deg=angles_deg,
                        power_dbi=power_dbi,
                        power_norm_db=power_dbi - peak,
                        peak_angle_deg=float(angles_deg[k]),
                        peak_dbi=float(peak))


# The last (n, theta, steering rows, element gain) built: a sweep draws
# every curve on one grid, so each later curve costs one matrix-vector
# product. One entry bounds the memory (7.4 MB at n=128 on the default
# grid); the cell's tuple is replaced whole, never edited.
_steering = [(0, np.empty(0), np.empty((0, 0), dtype=complex), np.empty(0))]


def _array_pattern(weights, angles_deg):
    """|sum_k w_k exp(-j pi k sin(theta))|^2 * E(theta) per grid angle."""
    theta = np.radians(np.asarray(angles_deg, dtype=float))
    if theta.size == 0:
        raise ValueError("empty angle grid")
    n, memo_theta, rows, gain = _steering[0]
    # keyed by value: theta is a fresh array, so no caller can mutate the
    # key, and array ids are reused after garbage collection
    if n != len(weights) or not np.array_equal(memo_theta, theta):
        n = len(weights)
        rows, gain = steering_vector(n, theta), element_gain(theta)
        _steering[0] = (n, theta, rows, gain)
    return np.abs(rows @ weights) ** 2 * gain


def amaf_pattern(b: BeamVector, angles_deg=None) -> PatternCurve:
    """Feeder power pattern: array factor times the patch element factor."""
    if angles_deg is None:
        angles_deg = default_grid()
    power = _array_pattern(b.weights, angles_deg)
    return _curve_from_power(np.array(angles_deg, dtype=float), power)


def ris_excitation(T: PropagationMatrix, b: BeamVector) -> ExcitationProfile:
    """Incident magnitude on each surface element for a feeder excitation."""
    e = T.apply(b.weights)
    return ExcitationProfile(magnitudes=np.abs(e),
                             element_index=np.arange(1, T.n_p + 1))


def ris_pattern(T: PropagationMatrix, b: BeamVector,
                angles_deg=None) -> PatternCurve:
    """Surface power pattern for a feeder excitation.

    Each surface element cancels the incident phase, so the effective
    surface weights are |T b| and the beam points broadside. The weights
    are not renormalized: dBi values include the feeder-to-surface
    propagation loss.
    """
    x = np.abs(T.apply(b.weights))
    if not np.any(x > 0):
        raise ValueError("all-zero surface excitation")
    if angles_deg is None:
        angles_deg = default_grid()
    power = _array_pattern(x, angles_deg)
    return _curve_from_power(np.array(angles_deg, dtype=float), power)


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


def write_profile_csv(profile: ExcitationProfile, path):
    m = profile.magnitudes
    _write_csv(path, ["element_index", "magnitude", "magnitude_db"],
               "%d,%.12e,%.6f",
               [profile.element_index, m,
                20.0 * np.log10(np.maximum(m, 1e-300))])
