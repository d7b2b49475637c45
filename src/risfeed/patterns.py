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

from .coupling import PropagationMatrix, element_gain
from .modes import BeamVector

DEFAULT_GRID_STEP_DEG = 0.05
_POWER_FLOOR = 1e-30    # keeps dB values finite at pattern nulls


def default_grid(step_deg=DEFAULT_GRID_STEP_DEG):
    """Angle grid over [-90, +90] degrees, inclusive, and exactly
    antisymmetric: sample j is minus sample n - j bit for bit, so the
    endpoints are +/-90, an even n has broadside at 0.0, and sin of the
    grid is odd."""
    n = int(round(180.0 / step_deg))
    grid = np.linspace(-90.0, 90.0, n + 1)
    return (grid - grid[::-1]) / 2


@dataclass(frozen=True)
class PatternCurve:
    """Sampled power radiation pattern: the three columns of its file."""

    angles_deg: np.ndarray
    power_dbi: np.ndarray
    power_norm_db: np.ndarray


def steering_vector(n, theta):
    """Conjugated uniform-array steering vector for angle theta (radians).

    An array of angles gives one column per angle, element k in row k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.exp(-1j * np.pi * np.multiply.outer(np.arange(n), np.sin(theta)))


# (theta, steering matrix, element gain) for the widest array drawn on
# the current grid, element-major: row k depends on k and theta only,
# so an n-element array uses the first n rows (a contiguous view, no
# copy) and feeder and surface curves on one grid share a single
# matrix. One matrix is held, at most 590 MB at the CLI caps (1024
# elements x 36001 angles); the cell's tuple is replaced whole, never
# edited. The product with k weight columns peaks at 24 * k bytes per
# angle (the complex field and the dB buffer it fills; the dB rows and
# their peak-normalized copy hold 16 * k once it is freed): 5.5 MB for a
# sweep-f stack of 128 on the 1801-angle broadside half of the default
# grid, whose steering matrix is 3.7 MB at 128 elements.
_NO_ROWS = np.empty((0, 0), dtype=complex)
_steering = [(np.empty(0), _NO_ROWS, np.empty(0))]


def _steering_rows(n, theta):
    """The first n rows of the steering matrix at theta, and the element
    gain there, built only where the memo is narrower or on another
    grid."""
    memo_theta, rows, gain = _steering[0]
    # keyed by value: theta is a fresh array, so no caller can mutate the
    # key, and array ids are reused after garbage collection
    if not np.array_equal(memo_theta, theta):
        rows, gain = _NO_ROWS, element_gain(theta)
    if n > rows.shape[0]:
        # free the old matrix before the wider one is built
        rows = _NO_ROWS
        _steering[0] = (theta, rows, gain)
        rows = steering_vector(n, theta)
        _steering[0] = (theta, rows, gain)
    return rows[:n], gain


def _patterns(W, angles_deg):
    """(angles_deg, power_dbi, power_norm_db) of
    |sum_k W[k, j] exp(-j pi k sin(theta))|^2 * E(theta) over the given
    angles (default grid if None): one dB row per column j of the (n, k)
    weight matrix W, and each row less its peak."""
    if not W.any(axis=0).all():
        raise ValueError("all-zero surface excitation")
    if angles_deg is None:
        angles_deg = default_grid()
    angles_deg = np.array(angles_deg, dtype=float)
    theta = np.radians(angles_deg)
    if theta.size == 0:
        raise ValueError("empty angle grid")
    rows, gain = _steering_rows(W.shape[0], theta)
    # real weights (surface magnitudes) take one real product on the
    # interleaved real and imaginary parts, half the multiplies of a
    # complex one, with the same terms; complex weights (feeder beams)
    # take the complex product. One column goes to a GEMV, as a vector
    # product would; a row of a wider product may differ from its GEMV
    # curve in the last bits, whatever else is in the product
    if np.iscomplexobj(W):
        field = W.T @ rows
    else:
        field = (W.T @ rows.view(float)).view(complex)
    power = np.abs(field)
    del field
    np.square(power, out=power)
    power *= gain
    np.maximum(power, _POWER_FLOOR, out=power)
    np.log10(power, out=power)
    power *= 10.0
    return angles_deg, power, power - power.max(axis=1, keepdims=True)


def _curve(W, angles_deg):
    """The pattern of the one weight column W."""
    angles_deg, (power_dbi,), (power_norm_db,) = _patterns(W, angles_deg)
    return PatternCurve(angles_deg, power_dbi, power_norm_db)


def amaf_pattern(b: BeamVector, angles_deg=None) -> PatternCurve:
    """Feeder power pattern: array factor times the patch element factor."""
    return _curve(b.weights[:, None], angles_deg)


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
    return _curve(np.abs(T.apply(b.weights))[:, None], angles_deg)


def sidelobe_level(power_norm_db):
    """Highest sidelobe of one row of peak-normalized dB samples, in dB.

    The main lobe spans the strict local minima flanking the global
    peak; the result is the largest local maximum outside it. Returns
    None when the curve has no sidelobe (monotone away from the peak).
    """
    return _sidelobe_levels(np.asarray(power_norm_db, dtype=float)[None])[0]


def _sidelobe_levels(Y):
    """sidelobe_level of each row of the 2-D stack Y, in one walk."""
    n = Y.shape[1]
    if n < 3:
        raise ValueError("curve needs at least 3 samples")
    # 32-bit column indices: the index compares move half the bytes
    j = np.arange(n, dtype=np.int32)
    k = Y.argmax(axis=1).astype(np.int32)[:, None]
    # the lobe runs down to the last j < k with y[j] > y[j+1] and up to
    # the first j >= k with y[j+1] > y[j]; ties (<=) stay in the lobe.
    # The left flank is walked over the m columns before the farthest
    # peak, at least one (no stop where every row peaks at column 0), so
    # that argmax never takes an empty slice
    m = int(k.max(initial=1))
    stops = ~(Y[:, :m] <= Y[:, 1:m + 1]) & (j[:m] < k)
    lo = np.where(stops.any(axis=1), m - stops[:, ::-1].argmax(axis=1), 0)
    stops = ~(Y[:, 1:] <= Y[:, :-1]) & (j[:-1] >= k)
    hi = np.where(stops.any(axis=1), stops.argmax(axis=1), n - 1)
    outside = ((j < lo.astype(np.int32)[:, None])
               | (j > hi.astype(np.int32)[:, None]))
    peaks = np.max(Y, axis=1, where=outside, initial=-np.inf)
    lobe_only = (lo == 0) & (hi == n - 1)
    return [None if e else float(p) for p, e in zip(peaks, lobe_only)]
