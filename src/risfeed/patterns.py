"""Far-field radiation patterns and surface excitation profiles.

Pattern angles are measured from the array boresight, positive toward
the array's +axis direction. The far-field sum of an excitation w is
sum_k w_k exp(-j pi k sin(theta)), consistent with the exp(+j pi r)
propagation phase used in the coupling matrix, so a beam focused on a
target peaks at the target's physical angle; one stateless evaluator,
_field, sums it for any weights and angles.
"""

import functools
import math
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


def _field(W, theta):
    """sum_k W[k, j] exp(-j pi k sin(theta)) at each angle of theta
    (radians), one row per column j of the (n, k) weight matrix W, by
    Horner's rule over blocks of B = 2^ceil(bit_length(n) / 2) >= sqrt(n)
    elements, Q = ceil(n / B) of them: with z = exp(-j pi sin(theta)),
    the baby powers z^0 ... z^(B - 1) are repeated products in one
    (B, M) buffer, one product of the zero-padded weights with it gives
    each block's sum, and the blocks are summed from the last by the
    giant step z^B = exp(-j pi fmod(B sin(theta), 2)), whose phase is
    exact because B is a power of two. The phase error of a term grows
    with B + Q, not with n, and the buffers hold (B + Q k) M complex
    values (46 MB at 1024 elements x 36001 angles)."""
    n, k = W.shape
    B = 1 << (n.bit_length() + 1) // 2
    Q = -(-n // B)
    u = np.sin(theta)
    powers = np.empty((B, u.size), dtype=complex)
    powers[0] = 1.0
    np.exp(-1j * np.pi * u, out=powers[1])
    for b in range(2, B):
        np.multiply(powers[b - 1], powers[1], out=powers[b])
    blocks = np.zeros((Q, B, k), dtype=W.dtype)
    blocks.reshape(Q * B, k)[:n] = W
    sums = (blocks.transpose(0, 2, 1).reshape(Q * k, B) @ powers).reshape(
        Q, k, u.size)
    field = sums[-1]
    if Q > 1:
        giant = np.exp(-1j * np.pi * np.fmod(B * u, 2.0))
        for block in sums[-2::-1]:
            field *= giant
            field += block
    return field


def _patterns(W, angles_deg):
    """(angles_deg, power_dbi, power_norm_db) of |_field(W)|^2 * E(theta)
    over the given angles (default grid if None): one dB row per column j
    of the (n, k) weight matrix W, and each row less its peak."""
    if not W.any(axis=0).all():
        raise ValueError("all-zero surface excitation")
    if angles_deg is None:
        angles_deg = default_grid()
    angles_deg = np.array(angles_deg, dtype=float)
    theta = np.radians(angles_deg)
    if theta.size == 0:
        raise ValueError("empty angle grid")
    power = np.abs(_field(W, theta))
    np.square(power, out=power)
    power *= element_gain(theta)
    np.maximum(power, _POWER_FLOOR, out=power)
    np.log10(power, out=power)
    power *= 10.0
    return angles_deg, power, power - power.max(axis=1, keepdims=True)


@functools.lru_cache(maxsize=1)
def _half_grid_tables(n):
    """cos and sin(pi a u) * sqrt(E(theta)) over the broadside half of
    the default grid, u = sin(theta), at an n-element array's centred
    offsets a = k - (n - 1) / 2 >= 0: one cosine row for each
    k >= n // 2 (at an odd n the middle element first, a = 0) and one
    sine row for each k >= n - n // 2. Read-only; held for the last n
    (1.8 MB at 128 elements, 15 MB at 1024).

    a u is reduced mod 2 exactly before pi multiplies it, so each phase
    is off by a few eps, not eps |pi a u| (up to 1600 eps at 1024
    elements, enough to move a deep sidelobe by 1e-12 dB): u splits into
    a head of 52 - bit_length(n - 1) fraction bits, whose product with
    a, a multiple of 1/2 below n / 2, is exact and so is its fmod, and a
    tail of at most 2^-43 at 1024 elements, whose product rounds by eps
    of itself."""
    grid = default_grid()
    theta = np.radians(grid[grid.size // 2:])
    root_gain = np.sqrt(element_gain(theta))
    u = np.sin(theta)
    scale = 2.0 ** (52 - (n - 1).bit_length())
    head = np.round(u * scale) / scale
    a = np.arange(n // 2, n) - (n - 1) / 2
    phase = np.fmod(np.multiply.outer(a, head), 2.0)
    phase += np.multiply.outer(a, u - head)
    phase *= np.pi
    tables = np.cos(phase), np.sin(phase[n % 2:])
    for table in tables:
        table *= root_gain
        table.flags.writeable = False
    return tables


def _surface_sll(X):
    """sidelobe_level of the pattern of each real, nonnegative surface
    excitation, a row of X, on the broadside half of the default grid,
    from the excitation's centred form: with c = (n - 1) / 2, the
    mirrored sums s and differences d of elements k and n - 1 - k give
    |sum_k x_k exp(-j pi k u)|^2 = (sum s cos(pi a u))^2
    + (sum d sin(pi a u))^2 over a = k - c >= 0, the middle element of
    an odd n joining the cosine sum. Two real products of half the
    width give the power rows, floored at _POWER_FLOOR and walked as
    they are (log10 is monotone, so the lobes are the dB rows' lobes),
    and each value is 10 log10 of the sidelobe's power over the peak's.
    Rows scaled to a peak in [0.5, 1), which is exact, put the floor
    more than 300 dB below every pattern's peak at any f."""
    n = X.shape[1]
    h = n // 2
    lower, upper = X[:, :h][:, ::-1], X[:, n - h:]
    cos, sin = _half_grid_tables(n)
    # one buffer for both products: in the benchmark's op loop, two
    # separately allocated results of an 81-f stack at 128 elements took
    # 0.7 ms more, faulting in about 400 fresh pages per call; the one
    # buffer is reused from the heap
    power, im = np.empty((2, len(X), cos.shape[1]))
    np.matmul(np.concatenate([X[:, h:n - h], upper + lower], axis=1), cos,
              out=power)
    np.matmul(upper - lower, sin, out=im)
    power *= power
    im *= im
    power += im
    np.maximum(power, _POWER_FLOOR, out=power)
    peaks = power.max(axis=1).tolist()
    return [None if side is None else 10.0 * math.log10(side / peak)
            for side, peak in zip(_sidelobe_levels(power), peaks)]


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
