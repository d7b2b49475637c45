"""Grid sweeps over feed scenarios: power-transfer tables, convergence
with surface size, and exhaustive scans for the best feeder distance."""

from dataclasses import dataclass

import numpy as np

from .geometry import (FeederBelowSurfaceError, make_center_feed,
                       make_end_feed)
from .coupling import _write_csv, build_T
from .modes import (svd_modes, mode_metrics, power_transfer, nonpem_vector,
                    ModeMetrics)
from .patterns import ris_pattern, ris_excitation, sidelobe_level

OBJECTIVES = ("max_power", "min_sll", "min_profile_variation")


@dataclass(frozen=True)
class SweepRecord:
    """Mode metrics for one scenario grid point."""

    n_a: int
    n_p: int
    f: float
    feed: str
    metrics: ModeMetrics


def _make_scenario(n_a, n_p, f, feed_style, tilted):
    if feed_style == "center":
        return make_center_feed(n_a, n_p, f)
    return make_end_feed(n_a, n_p, f, tilted)


def analyze_point(n_a, n_p, f, feed_style, tilted=False):
    """Mode analysis plus metrics for one grid point."""
    scenario = _make_scenario(n_a, n_p, f, feed_style, tilted)
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


def convergence_study(n_a, f, n_p_list):
    """Total eigenmode power (dB) vs surface size, center feed."""
    if not n_p_list:
        raise ValueError("n_p_list must be non-empty")
    out = []
    for n_p in n_p_list:
        _, _, _, metrics = analyze_point(n_a, n_p, f, "center")
        out.append((n_p, metrics.sum_db))
    return out


def _beam_for(modes, beam):
    if beam == "pem":
        return modes.beam(0)
    if beam == "nonpem":
        return nonpem_vector(modes.beam(0))
    raise ValueError(f"unknown beam {beam!r}")


def optimize_f(n_a, n_p, feed_style, tilted, beam, f_values,
               objective="min_sll"):
    """Exhaustive scan of feeder distances under one objective.

    Returns (best_f, trace) where trace is a list of (f, objective value)
    in scan order. Where the objective is undefined (a pattern without
    sidelobes, or a tilted feeder reaching the surface) the value is
    None and the point cannot win. Ties go to the smaller f.
    """
    f_values = list(f_values)
    if not f_values:
        raise ValueError("f range must be non-empty")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    best_f, best_val = None, None
    trace = []
    for f in sorted(f_values):
        try:
            _, T, modes, _ = analyze_point(n_a, n_p, f, feed_style, tilted)
        except FeederBelowSurfaceError:
            trace.append((f, None))
            continue
        b = _beam_for(modes, beam)
        if objective == "max_power":
            val = power_transfer(T, b)
            better = best_val is None or val > best_val
        elif objective == "min_sll":
            sll = sidelobe_level(ris_pattern(T, b))
            if sll is None:
                trace.append((f, None))
                continue
            val = sll
            better = best_val is None or val < best_val
        else:
            mags = ris_excitation(T, b).magnitudes
            val = float(np.std(mags) / np.mean(mags))
            better = best_val is None or val < best_val
        trace.append((f, val))
        if better:
            best_f, best_val = f, val
    if best_f is None:
        raise RuntimeError("objective undefined at every grid point")
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
