"""Independent oracles and output checkers.

Nothing here imports risfeed: the propagation matrix is rebuilt from the
geometry, singular values come from LAPACK (``numpy.linalg.svd``), and
patterns are a direct sum over elements rather than a matrix product.

A checker reads the files one command wrote and returns a ``Check``:
``errors`` fail the op; ``defects`` are known program defects that are
counted but do not fail it (see ``KNOWN_DEFECTS``); ``nonfinite`` counts
inf/nan cells in the files.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

DB_TOL = 2e-6           # files carry 6 decimals
SLL_TOL = 1e-5          # sidelobe scanned on the 6-decimal file values
TRACE_TOL = 1e-6        # sweep trace carries 10 significant digits
REL_TOL = 1e-9
GRID_STEP_DEG = 0.05
POWER_FLOOR = 1e-30

# Defects of the program at the benchmark's first commit that the
# workloads reach. Each is counted per op and reported by name.
KNOWN_DEFECTS = {
    "inf_cond": "table reports cond=inf for a full-rank T: the Gram-matrix "
                "eigensolver loses the smallest singular value "
                "(ROADMAP open item 3)",
}


@dataclass
class Check:
    errors: list = field(default_factory=list)
    defects: dict = field(default_factory=dict)
    nonfinite: int = 0

    def error(self, msg):
        self.errors.append(msg)

    def defect(self, name):
        self.defects[name] = self.defects.get(name, 0) + 1


# ---------------------------------------------------------------- model

def _positions(n, centroid, axis):
    offsets = np.arange(n) - (n - 1) / 2.0
    return np.asarray(centroid, float) + offsets[:, None] * np.asarray(axis)


def propagation_matrix(na, n_p, f, feed, tilted):
    """T[n, m] = sqrt(E(theta) E(phi)) exp(j pi r) / (2 pi r)."""
    ris = _positions(n_p, (0.0, 0.0), (1.0, 0.0))
    ris_bs = np.array([0.0, 1.0])
    if feed == "center":
        centroid, alpha = (0.0, f), 0.0
    else:
        centroid = (ris[0, 0], f)
        alpha = math.atan2(-ris[0, 0], f) if tilted else 0.0
    axis = np.array([math.cos(alpha), math.sin(alpha)])
    amaf_bs = np.array([math.sin(alpha), -math.cos(alpha)])
    amaf = _positions(na, centroid, axis)
    d = ris[:, None, :] - amaf[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1])
    cos_t = (d @ amaf_bs) / r
    cos_p = -(d @ ris_bs) / r
    gain = (np.where(cos_t > 0, 4 * cos_t ** 2, 0.0)
            * np.where(cos_p > 0, 4 * cos_p ** 2, 0.0))
    return np.sqrt(gain) / (2 * np.pi * r) * np.exp(1j * np.pi * r)


def singular_values(T, na):
    """LAPACK singular values, zero-padded to N_a."""
    s = np.linalg.svd(T, compute_uv=False)
    return np.concatenate([s, np.zeros(na - s.size)])


def beam(T, name):
    """Principal right singular vector, or its magnitudes for nonpem."""
    v1 = np.linalg.svd(T)[2][0].conj()
    return np.abs(v1) if name == "nonpem" else v1


def grid(step=GRID_STEP_DEG):
    return np.linspace(-90.0, 90.0, int(round(180.0 / step)) + 1)


def pattern_dbi(weights, angles_deg):
    """Direct sum of element contributions times the 4 cos^2 patch gain."""
    theta = np.radians(angles_deg)
    s = np.sin(theta)
    af = np.zeros(theta.size, complex)
    for k, w in enumerate(weights):
        af += w * np.exp(-1j * np.pi * k * s)
    gain = np.where(np.abs(angles_deg) < 90.0, 4 * np.cos(theta) ** 2, 0.0)
    power = np.abs(af) ** 2 * gain
    return 10 * np.log10(np.maximum(power, POWER_FLOOR))


def sidelobe(y):
    """Highest sample outside the main lobe, relative to the peak (dB).

    The main lobe runs from the global peak down to the nearest sample on
    each side where the curve starts rising again. None without sidelobes.
    """
    y = np.asarray(y, float)
    k = int(np.argmax(y))
    d = np.diff(y)
    rising_left = np.nonzero(d[:k] < 0)[0]
    lo = rising_left[-1] + 1 if rising_left.size else 0
    rising_right = np.nonzero(d[k:] > 0)[0]
    hi = k + rising_right[0] if rising_right.size else y.size - 1
    outside = np.concatenate([y[:lo], y[hi + 1:]])
    return float(outside.max() - y[k]) if outside.size else None


def surface_weights(T, b):
    """Broadside-cophased surface aperture |T b|."""
    return np.abs(T @ b)


# --------------------------------------------------------------- files

def _reject_constant(name):
    raise ValueError(f"non-RFC-8259 constant {name}")


def _read_csv(path, check, header):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        check.error(f"missing output: {exc}")
        return None
    if not rows or rows[0] != header:
        check.error(f"{path}: bad header {rows[:1]}")
        return None
    return rows[1:]


def _floats(rows, check, path):
    try:
        values = np.array([[float(c) for c in row] for row in rows])
    except ValueError as exc:
        check.error(f"{path}: unparseable cell: {exc}")
        return None
    check.nonfinite += int(np.count_nonzero(~np.isfinite(values)))
    return values


def _close(check, what, got, want, tol):
    if not (abs(got - want) <= tol):
        check.error(f"{what}: {got!r} vs oracle {want!r}")


def check_analyze(path, p, check):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        return check.error(f"missing output: {exc}")
    try:
        rep = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        check.nonfinite += sum(text.count(t) for t in
                               ("Infinity", "NaN"))
        return check.error(f"{path}: invalid JSON: {exc}")
    T = propagation_matrix(p["na"], p["np"], p["f"], p["feed"], p["tilted"])
    s = singular_values(T, p["na"])
    scen = rep.get("scenario", {})
    if (scen.get("n_a"), scen.get("n_p"), scen.get("feed")) != (
            p["na"], p["np"], p["feed"]):
        check.error(f"{path}: wrong scenario {scen}")
    sig = rep.get("sigma_sq_db") or [math.nan]
    _close(check, "sigma1_db", sig[0], 20 * math.log10(s[0]), DB_TOL)
    _close(check, "sum_db", rep.get("sum_db", math.nan),
           10 * math.log10(np.sum(s ** 2)), DB_TOL)


def _check_pattern(path, weights, check):
    rows = _read_csv(path, check, ["angle_deg", "power_dbi",
                                   "power_norm_db"])
    if rows is None:
        return
    v = _floats(rows, check, path)
    if v is None:
        return
    angles = grid()
    if v.shape != (angles.size, 3) or np.max(np.abs(v[:, 0] - angles)) > 1e-6:
        return check.error(f"{path}: wrong angle grid")
    want = pattern_dbi(weights, angles)
    if not np.all(np.isfinite(v[:, 1:])):
        return check.error(f"{path}: non-finite pattern cell")
    _close(check, "pattern peak", v[:, 1].max(), want.max(), DB_TOL)
    got_sll, want_sll = sidelobe(v[:, 2]), sidelobe(want)
    if (got_sll is None) != (want_sll is None):
        return check.error(f"sidelobe: {got_sll} vs oracle {want_sll}")
    if got_sll is not None:
        _close(check, "sidelobe", got_sll, want_sll, SLL_TOL)


def check_pattern_amaf(path, p, check):
    T = propagation_matrix(p["na"], p["np"], p["f"], p["feed"], p["tilted"])
    _check_pattern(path, beam(T, p["beam"]), check)


def check_pattern_ris(path, p, check):
    T = propagation_matrix(p["na"], p["np"], p["f"], p["feed"], p["tilted"])
    _check_pattern(path, surface_weights(T, beam(T, p["beam"])), check)


def check_profile(path, p, check):
    rows = _read_csv(path, check, ["element_index", "magnitude",
                                   "magnitude_db"])
    if rows is None:
        return
    v = _floats(rows, check, path)
    if v is None:
        return
    T = propagation_matrix(p["na"], p["np"], p["f"], p["feed"], p["tilted"])
    want = surface_weights(T, beam(T, p["beam"]))
    if v.shape != (p["np"], 3) or not np.array_equal(
            v[:, 0], np.arange(1, p["np"] + 1)):
        return check.error(f"{path}: wrong element rows")
    err = np.max(np.abs(v[:, 1] - want)) / want.max()
    if not err <= REL_TOL:
        check.error(f"profile magnitudes: relative error {err:.3g}")


TABLE_HEADER = ["sl_no", "n_a", "n_p", "f", "feed", "beam", "sigma1_db",
                "sigma2_db", "sigma3_db", "sigma4_db", "sum_db", "cond",
                "l_iso_db", "f_over_d"]


def check_table(path, p, check):
    rows = _read_csv(path, check, TABLE_HEADER)
    if rows is None:
        return
    points = sorted((n, f) for n in p["nps"] for f in p["fs"])
    if len(rows) != len(points):
        return check.error(f"{path}: {len(rows)} rows, want {len(points)}")
    v = _floats([r[1:4] + r[6:] for r in rows], check, path)
    if v is None:
        return
    na = p["na"]
    for row, (n_p, f) in zip(v, points):
        if (row[0], row[1]) != (na, n_p) or abs(row[2] - f) > 1e-6:
            return check.error(f"{path}: row {row[:3]} out of order")
        s = singular_values(propagation_matrix(na, n_p, f, "center", False),
                            na)
        _close(check, "sigma1_db", row[3], 20 * math.log10(s[0]), DB_TOL)
        _close(check, "sum_db", row[7], 10 * math.log10(np.sum(s ** 2)),
               DB_TOL)
        for i in range(min(na, 4)):
            if s[i] > 0 and not math.isfinite(row[3 + i]):
                check.error(f"sigma{i + 1}_db non-finite at n_p={n_p} f={f}")
        if s[-1] > 0 and not math.isfinite(row[8]):
            check.defect("inf_cond")
        if not all(map(math.isfinite, row[9:])):
            check.error(f"l_iso/f_over_d non-finite at n_p={n_p} f={f}")


def check_sweep_f(path, p, check):
    """Trace rows, best-row consistency, and the oracle sidelobe level at
    the best f and at the two trace rows the generator drew."""
    rows = _read_csv(path, check, ["f", "min_sll", "is_best"])
    if rows is None:
        return
    fs = p["f_values"]
    if len(rows) != len(fs):
        return check.error(f"{path}: {len(rows)} rows, want {len(fs)}")
    try:
        got_f = [float(r[0]) for r in rows]
        vals = [float(r[1]) if r[1] else None for r in rows]
        best = [int(r[2]) for r in rows]
    except ValueError as exc:
        return check.error(f"{path}: unparseable cell: {exc}")
    check.nonfinite += sum(1 for x in vals
                           if x is not None and not math.isfinite(x))
    if max(abs(a - b) for a, b in zip(got_f, fs)) > 1e-6:
        return check.error(f"{path}: wrong f column")
    defined = [i for i, x in enumerate(vals) if x is not None]
    if not defined:
        return check.error(f"{path}: no defined objective value")
    want_best = min(defined, key=lambda i: (vals[i], i))
    if best != [int(i == want_best) for i in range(len(rows))]:
        return check.error(f"{path}: is_best column does not mark the "
                           f"first minimum")
    angles = grid()
    for i in sorted({want_best, *p["spot"]}):
        T = propagation_matrix(p["na"], p["np"], fs[i], p["feed"],
                               p["tilted"])
        want = sidelobe(pattern_dbi(
            surface_weights(T, beam(T, p["beam"])), angles))
        if (vals[i] is None) != (want is None):
            check.error(f"sidelobe at f={fs[i]}: {vals[i]} vs {want}")
        elif want is not None:
            _close(check, f"sidelobe at f={fs[i]}", vals[i], want, TRACE_TOL)


CHECKERS = {"analyze": check_analyze, "table": check_table,
            "pattern_amaf": check_pattern_amaf,
            "pattern_ris": check_pattern_ris, "profile": check_profile,
            "sweep_f": check_sweep_f}
