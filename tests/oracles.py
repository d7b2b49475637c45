"""Independent brute-force oracles used only by the tests.

These deliberately avoid the package's LAPACK call: the SVD oracle is a
one-sided Jacobi working directly on the rectangular matrix, the
one-element feeder's power is an exact sum over scalar geometry, which
needs neither T nor an SVD, and the sidelobe oracle walks the sampled
curve one sample at a time, the loop that the package's array
comparisons replaced; longdouble_half_grid_sll sums each surface
pattern directly in long double and walks it with that loop, and
longdouble_pattern_amplitude sums any weights' pattern so. The CSV
writers below are the package's former
per-row csv.writer bodies, the byte-for-byte reference for its
block-formatted writers, and reference_T_stack is the package's former
propagation kernel, the bit-for-bit reference for its in-place one.
Four helpers call the package instead: scenario_arrays lays out one
scenario, feeder_beam forms the feeder excitation the CLI draws from one
mode analysis, analyze_or_none analyzes one point where it is defined,
and assert_T_stack_bytes checks the package's T kernel against
reference_T_stack.
"""

import csv
import math
import re

import numpy as np
import pytest

from risfeed.coupling import _T_stack
from risfeed.geometry import _layout
from risfeed.modes import BeamVector
from risfeed.patterns import default_grid
from risfeed.sweep import _beam_for, analyze_point


def one_sided_jacobi_svd(A, tol=1e-15, max_sweeps=60):
    """SVD of a complex matrix by one-sided Jacobi column orthogonalization.

    Returns (U, s, V) with A ~ U @ diag(s) @ V.conj().T, singular values
    descending. Columns of A are rotated in pairs until all are mutually
    orthogonal relative to tol. A pair with a column at rounding level of
    ||A||_F is skipped: that column is numerically zero (as n - m columns
    of a wide A end up), and its pair's rotation phase gamma / |gamma|
    would overflow to NaN.
    """
    A = np.asarray(A, dtype=complex).copy()
    m, n = A.shape
    V = np.eye(n, dtype=complex)
    negligible = (np.finfo(float).eps * np.linalg.norm(A)) ** 2
    for _ in range(max_sweeps):
        converged = True
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap, aq = A[:, p], A[:, q]
                alpha = np.vdot(ap, ap).real
                beta = np.vdot(aq, aq).real
                gamma = np.vdot(ap, aq)
                if (min(alpha, beta) <= negligible
                        or abs(gamma) <= tol * np.sqrt(alpha * beta)):
                    continue
                converged = False
                phase = gamma / abs(gamma)
                tau = (beta - alpha) / (2.0 * abs(gamma))
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, s * phase],
                                [-s * np.conj(phase), c]])
                A[:, [p, q]] = A[:, [p, q]] @ rot
                V[:, [p, q]] = V[:, [p, q]] @ rot
        if converged:
            break
    sv = np.linalg.norm(A, axis=0)
    order = np.argsort(-sv, kind="stable")
    sv = sv[order]
    V = V[:, order]
    U = np.zeros((m, n), dtype=complex)
    for i, k in enumerate(order):
        if sv[i] > 0:
            U[:, i] = A[:, k] / sv[i]
    return U, sv, V


def scenario_arrays(scenario):
    """The arrays of one scenario from the package's layout: surface
    positions and boresight, then its feeder's (N_a, 2) positions and
    (2,) boresight."""
    surface, up, feeders, boresights = _layout(
        scenario.n_a, scenario.n_p, np.array([float(scenario.f)]),
        scenario.feed_style, scenario.tilted)
    return surface, up, feeders[0], boresights[0]


def feeder_beam(modes, beam):
    """The feeder excitation the CLI draws for one mode analysis: the
    _beam_for rule on its principal right vector, as a BeamVector."""
    return BeamVector(_beam_for(modes.right_vectors[:, 0], beam))


def analyze_or_none(n_a, n_p, f, feed, tilted):
    """analyze_point, or None where the tilted feeder reaches the surface."""
    try:
        return analyze_point(n_a, n_p, f, feed, tilted)
    except ValueError as exc:
        if "reaches the surface" not in str(exc):
            raise
        return None


def single_feeder_power(scenario):
    """sigma_1^2 of a one-element feeder, where T is one column: the
    math.fsum over the surface of 16 cos+^2(theta) cos+^2(phi) / (2 pi r)^2,
    with r from math.hypot and cos+ = max(cos, 0) from scalar products."""
    surface, up, feeder, boresight = scenario_arrays(scenario)
    (ax, az), = feeder.tolist()
    abx, abz = boresight.tolist()
    sbx, sbz = up.tolist()
    terms = []
    for px, pz in surface.tolist():
        dx, dz = px - ax, pz - az
        r = math.hypot(dx, dz)
        cos_theta = max((dx * abx + dz * abz) / r, 0.0)
        cos_phi = max(-(dx * sbx + dz * sbz) / r, 0.0)
        terms.append(16.0 * (cos_theta * cos_phi) ** 2
                     / (2.0 * math.pi * r) ** 2)
    return math.fsum(terms)


def reference_T_stack(surface, surface_boresight, feeders,
                      feeder_boresights, f):
    """The package's former _pair_geometry and _T_stack, statement for
    statement: d and r = np.linalg.norm(d) as new arrays, the cosines from
    one (2, 1) product per surface element, then amp and exp(j pi r) out
    of place."""
    with np.errstate(all="ignore"):
        d = surface[:, None, :] - feeders[:, None, :, :]    # feeder -> surface
        r = np.linalg.norm(d, axis=-1)
        if np.any(r == 0.0):
            _, n, m = np.argwhere(r == 0.0)[0]
            raise ValueError(f"coincident elements: surface {n}, feeder {m}")
        cos_theta = (
            np.matmul(d, feeder_boresights[..., None, :, None])[..., 0] / r)
        cos_phi = (-d @ surface_boresight) / r
        amp = (4.0 * np.maximum(cos_theta, 0.0) * np.maximum(cos_phi, 0.0)
               / (2.0 * np.pi * r))
        entries = amp * np.exp(1j * np.pi * r)
    if not np.isfinite(entries).all():
        k = np.argmin(np.isfinite(entries).all(axis=(1, 2)))
        raise ValueError("propagation matrix is not finite at "
                         f"f={float(f[k])!r}")
    return entries


def assert_T_stack_bytes(arrays, f):
    """_T_stack gives reference_T_stack's dtype, shape and bytes, signs of
    zero and NaN payloads included, or raises its ValueError with the
    identical message."""
    try:
        expected = reference_T_stack(*arrays, f)
    except ValueError as error:
        with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
            _T_stack(*arrays, f)
        return
    entries = _T_stack(*arrays, f)
    assert entries.dtype == expected.dtype
    assert entries.shape == expected.shape
    assert entries.tobytes() == expected.tobytes()


def brute_force_sidelobe(angles_deg, power_db, relative=True):
    """Scan a sampled curve for its highest sidelobe relative to the peak.

    Walks outward from the global maximum to the flanking local minima,
    then returns the largest sample beyond them, less the peak unless
    relative is False; None for a single lobe. A long double curve keeps
    its precision and gives a np.longdouble.
    """
    y = np.asarray(power_db)
    y = np.asarray(y, dtype=np.longdouble if y.dtype == np.longdouble
                   else float)
    k = int(np.argmax(y))
    lo = k
    while lo > 0 and y[lo - 1] <= y[lo]:
        lo -= 1
    hi = k
    while hi < y.size - 1 and y[hi + 1] <= y[hi]:
        hi += 1
    outside = np.concatenate([y[:lo], y[hi + 1:]])
    if outside.size == 0:
        return None
    value = outside.max() - (y[k] if relative else 0)
    return value if y.dtype == np.longdouble else float(value)


LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


def longdouble_half_grid_sll(X):
    """min_sll of each real excitation, a row of X, as a long double
    reference: the power |sum_k x_k exp(-j pi (k - c) u)|^2 * 4 cos^2(theta),
    c = (n - 1) / 2, summed directly in np.longdouble over the broadside
    half of the default grid (theta the package's float radians of each
    angle, u its long double sine; the centring phase leaves the power
    unchanged and halves the largest phase), walked by
    brute_force_sidelobe; 10 log10 of the sidelobe's power over the
    peak's, or None for a single lobe."""
    X = np.asarray(X, dtype=float)
    grid = default_grid()
    theta = np.radians(grid[grid.size // 2:]).astype(np.longdouble)
    offsets = np.arange(X.shape[1], dtype=np.longdouble) - (
        np.longdouble(X.shape[1] - 1) / 2)
    phase = LONG_PI * np.multiply.outer(offsets, np.sin(theta))
    rows = X.astype(np.longdouble)
    power = (rows @ np.cos(phase)) ** 2 + (rows @ np.sin(phase)) ** 2
    power *= 4 * np.cos(theta) ** 2
    values = []
    for row in power:
        side = brute_force_sidelobe(theta, row, relative=False)
        values.append(None if side is None
                      else 10 * np.log10(side / row.max()))
    return values


def longdouble_pattern_amplitude(W, theta):
    """sqrt(max(|sum_k W[k, j] exp(-j pi k u)|^2 * 4 cos^2(theta), 1e-30))
    for each weight column j of W, one row of the float radians theta
    each, as a long double reference for _patterns' dB rows: u is the
    package's float sine of each angle, and k u, exact in long double for
    k < 2^11, is reduced mod 2 exactly before pi multiplies it, so each
    phase is off by a long double eps of itself; the 1e-30 floor is the
    package's power floor."""
    theta = np.asarray(theta, dtype=float)
    u = np.sin(theta).astype(np.longdouble)
    k = np.arange(W.shape[0], dtype=np.longdouble)
    phase = LONG_PI * np.fmod(np.multiply.outer(k, u), 2)
    cos, sin = np.cos(phase), np.sin(phase)
    re, im = (np.asarray(part, dtype=np.longdouble).T for part in
              (np.real(W), np.imag(W)))
    power = (re @ cos + im @ sin) ** 2 + (im @ cos - re @ sin) ** 2
    gain = np.maximum(np.cos(theta.astype(np.longdouble)), 0)
    power *= 4 * gain * gain
    return np.sqrt(np.maximum(power, np.longdouble(1e-30)))


def csv_write_pattern(curve, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["angle_deg", "power_dbi", "power_norm_db"])
        for a, p, pn in zip(curve.angles_deg, curve.power_dbi,
                            curve.power_norm_db):
            w.writerow([f"{a:.6f}", f"{p:.6f}", f"{pn:.6f}"])


def csv_write_profile(magnitudes, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["element_index", "magnitude", "magnitude_db"])
        for i, m in enumerate(magnitudes, start=1):
            m_db = 20.0 * np.log10(max(m, 1e-300))
            w.writerow([int(i), f"{m:.12e}", f"{m_db:.6f}"])


def csv_write_table(records, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sl_no", "n_a", "n_p", "f", "feed", "beam",
                    "sigma1_db", "sigma2_db", "sigma3_db", "sigma4_db",
                    "sum_db", "cond", "l_iso_db", "f_over_d"])
        for i, rec in enumerate(records, start=1):
            m = rec.metrics
            head = [i, rec.n_a, rec.n_p, repr(float(rec.f)), rec.feed, "pem"]
            if m is None:
                w.writerow(head + [""] * 8)
                continue
            sig = list(m.sigma_sq_db) + [float("nan")] * (4 - rec.n_a)
            w.writerow(head + [f"{s:.6f}" for s in sig[:4]]
                       + [f"{m.sum_db:.6f}", f"{m.cond:.6f}",
                          f"{m.l_iso_db:.6f}", f"{m.f_over_d:.6f}"])


def csv_write_trace(trace, best_f, objective, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["f", objective, "is_best"])
        for f, val in trace:
            w.writerow([repr(float(f)),
                        "" if val is None else f"{val:.9e}",
                        int(f == best_f)])

