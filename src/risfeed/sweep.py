"""Grid sweeps over feed scenarios: power-transfer tables and exhaustive
scans for the best feeder distance."""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .geometry import (FeederBelowSurfaceError, make_center_feed,
                       make_end_feed)
from .coupling import _write_csv, build_T
from .modes import (svd_modes, mode_metrics, power_transfer, nonpem_vector,
                    ModeMetrics)
# ris_pattern is not called here, but bench/selftest.py wraps this binding
from .patterns import (_patterns, ris_pattern,  # noqa: F401
                       ris_excitation, sidelobe_level)

OBJECTIVES = ("max_power", "min_sll", "min_profile_variation")
# surface excitations a min_sll scan scores with one product; a scan
# holds one chunk, never the whole scan: 0.5 MB of excitations at
# N_p = 1024 and a 5.7 MB product on the default grid. Per column on
# that grid (2-core Xeon, numpy 2.4.6, BLAS on one thread), one product
# costs 120-150 us at widths 16-128 against 430 us alone at N_p = 128,
# and 0.84 ms at 64, 0.76 ms at 128 against 3.1 ms alone at N_p = 1024
_CHUNK = 64


@dataclass(frozen=True)
class SweepRecord:
    """Mode metrics for one scenario grid point."""

    n_a: int
    n_p: int
    f: float
    feed: str
    metrics: ModeMetrics


def analyze_point(n_a, n_p, f, feed_style, tilted=False):
    """Mode analysis plus metrics for one grid point: an "end" feed,
    tilted or not, or an untilted "center" feed."""
    if feed_style == "end":
        scenario = make_end_feed(n_a, n_p, f, tilted)
    elif feed_style == "center" and not tilted:
        scenario = make_center_feed(n_a, n_p, f)
    else:
        raise ValueError(f"feed {feed_style!r} (tilted={tilted}) is not "
                         f"'end' or an untilted 'center'")
    T = build_T(scenario)
    modes = svd_modes(T)
    metrics = mode_metrics(modes, scenario)
    return scenario, T, modes, metrics


def run_grid(n_a, n_p_list, f_list, feed_style, tilted=False):
    """Evaluate the Cartesian (n_p, f) grid; records sorted by (n_p, f)."""
    if not n_p_list or not f_list:
        raise ValueError("n_p_list and f_list must be non-empty")
    records = []
    for n_p in n_p_list:
        for f in f_list:
            try:
                _, _, _, metrics = analyze_point(n_a, n_p, f, feed_style,
                                                 tilted)
            except Exception as exc:
                raise RuntimeError(
                    f"grid point n_p={n_p} f={f} failed: {exc}") from exc
            records.append(SweepRecord(n_a=n_a, n_p=n_p, f=f,
                                       feed=feed_style, metrics=metrics))
    records.sort(key=lambda rec: (rec.n_p, rec.f))
    return records


def _beam_for(modes, beam):
    if beam == "pem":
        return modes.beam(0)
    if beam == "nonpem":
        return nonpem_vector(modes.beam(0))
    raise ValueError(f"unknown beam {beam!r}")


def _scores(objective, points):
    """(i, objective value) for each (i, T, b) feeder excitation, in
    order; the value is None where undefined. min_sll takes the surface
    patterns of _CHUNK excitations from one steering-matrix product."""
    if objective == "max_power":
        return [(i, power_transfer(T, b)) for i, T, b in points]
    mags = ((i, ris_excitation(T, b)) for i, T, b in points)
    if objective == "min_profile_variation":
        return [(i, float(np.std(x) / np.mean(x))) for i, x in mags]
    scores = []
    while chunk := list(islice(mags, _CHUNK)):
        index, columns = zip(*chunk)
        curves = _patterns(np.column_stack(columns), None)
        scores += zip(index, map(sidelobe_level, curves))
    return scores


def _defined_points(n_a, n_p, feed_style, tilted, beam, f_values):
    """(index, T, b) for each f whose feeder clears the surface."""
    for i, f in enumerate(f_values):
        try:
            _, T, modes, _ = analyze_point(n_a, n_p, f, feed_style, tilted)
        except FeederBelowSurfaceError:
            continue
        yield i, T, _beam_for(modes, beam)


def optimize_f(n_a, n_p, feed_style, tilted, beam, f_values,
               objective="min_sll"):
    """Exhaustive scan of feeder distances under one objective.

    Returns (best_f, trace) where trace is a list of (f, objective value)
    in scan order. Where the objective is undefined (a pattern without
    sidelobes, or a tilted feeder reaching the surface) the value is
    None and the point cannot win. Ties go to the smaller f.
    """
    f_values = sorted(f_values)
    if not f_values:
        raise ValueError("f range must be non-empty")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    values = [None] * len(f_values)
    points = _defined_points(n_a, n_p, feed_style, tilted, beam, f_values)
    for i, val in _scores(objective, points):
        values[i] = val
    trace = list(zip(f_values, values))
    sign = -1 if objective == "max_power" else 1
    defined = [(f, val) for f, val in trace if val is not None]
    if not defined:
        raise RuntimeError("objective undefined at every grid point")
    # min keeps the first of equal keys: ties go to the smaller f
    best_f, _ = min(defined, key=lambda row: sign * row[1])
    return best_f, trace


def write_table_csv(records, path):
    """Emit sweep records in the fixed table layout, 6 decimal places."""
    rows = []
    for i, rec in enumerate(records, start=1):
        m = rec.metrics
        sig = list(m.sigma_sq_db) + [float("nan")] * (4 - rec.n_a)
        # the sigma columns describe the PEM: sigma_1^2 is its power
        rows.append([i, rec.n_a, rec.n_p, rec.f, rec.feed] + sig[:4]
                    + [m.sum_db, m.cond, m.l_iso_db, m.f_over_d])
    _write_csv(path, ["sl_no", "n_a", "n_p", "f", "feed", "beam",
                      "sigma1_db", "sigma2_db", "sigma3_db", "sigma4_db",
                      "sum_db", "cond", "l_iso_db", "f_over_d"],
               "%s,%s,%s,%g,%s,pem" + ",%.6f" * 8, zip(*rows))


def write_trace_csv(trace, best_f, objective, path):
    """Emit an optimization trace for audit."""
    _write_csv(path, ["f", objective, "is_best"], "%g,%s,%d",
               [[f for f, _ in trace],
                ["" if val is None else "%.9e" % val for _, val in trace],
                [f == best_f for f, _ in trace]])
