"""Grid sweeps over feed scenarios: power-transfer tables and exhaustive
scans for the best feeder distance."""

from dataclasses import dataclass

import numpy as np

from .geometry import (Scenario, _clears, _layout, make_center_feed,
                       make_end_feed)
from .coupling import _T_stack, build_T
from .modes import ModeMetrics, _svd_stack, mode_metrics, svd_modes
# ris_pattern is not called here, but bench/selftest.py wraps this binding
from .patterns import _patterns, ris_pattern, sidelobe_level  # noqa: F401

OBJECTIVES = ("max_power", "min_sll", "min_profile_variation")
# the most distances a scan analyzes in one stack: one T build, one SVD,
# then table metrics or one excitation product and, for min_sll, one
# steering-matrix product. A stack is narrower where it would hold more
# than 2**20 T entries, as one T at the CLI caps does: one f at
# 1024 x 1024. A scan holds one stack, never the whole scan: a min_sll
# product on the default grid is 5.5 MB. Per column on that grid (2-core
# Xeon, numpy 2.4.6, BLAS on one thread), one real product with its dB
# curves costs 90-120 us at widths 16-128 against 480-500 us alone at
# N_p = 128, and 0.42-0.44 ms at 64, 0.35-0.38 ms at 128 against
# 4.5-5.1 ms alone at N_p = 1024
_CHUNK = 64


@dataclass(frozen=True)
class SweepRecord:
    """One grid point's metrics; None where its feeder reaches the surface."""

    n_a: int
    n_p: int
    f: float
    feed: str
    metrics: ModeMetrics | None


def analyze_point(n_a, n_p, f, feed_style, tilted=False):
    """Mode analysis plus metrics for one grid point: an "end" feed,
    tilted or not, or an untilted "center" feed."""
    Scenario(n_a, n_p, f, feed_style, tilted)    # rejects any other feed
    scenario = (make_end_feed(n_a, n_p, f, tilted) if feed_style == "end"
                else make_center_feed(n_a, n_p, f))
    T = build_T(scenario)
    modes = svd_modes(T)
    return scenario, T, modes, mode_metrics(modes.sigma, f, n_p)


def run_grid(n_a, n_p_list, f_list, feed_style, tilted=False):
    """Evaluate the Cartesian (n_p, f) grid, one stacked scan per N_p with
    the bits of analyze_point; records sorted by (n_p, f), metrics None
    where the tilted feeder reaches the surface."""
    if not n_p_list or not f_list:
        raise ValueError("n_p_list and f_list must be non-empty")
    records = []
    for n_p in n_p_list:
        metrics = [None] * len(f_list)
        for index, _, sigma, _ in _stacks(n_a, n_p, feed_style, tilted,
                                          f_list):
            for i, s in zip(index, sigma):
                metrics[i] = mode_metrics(s, f_list[i], n_p)
        records += [SweepRecord(n_a=n_a, n_p=n_p, f=f, feed=feed_style,
                                metrics=m) for f, m in zip(f_list, metrics)]
    records.sort(key=lambda rec: (rec.n_p, rec.f))
    return records


def _beam_for(v1, beam):
    """Feeder weights of the principal right vectors, the rows of v1: v1
    for "pem", its magnitudes for "nonpem" (phases removed, norm kept)."""
    if beam == "pem":
        return v1
    if beam == "nonpem":
        return np.abs(v1)
    raise ValueError(f"unknown beam {beam!r}")


def _stacks(n_a, n_p, feed_style, tilted, f_values):
    """(indices, M, sigma, right) for each stack of up to _CHUNK f whose
    feeder clears the surface, each no larger than one T at the caps: M is
    the _T_stack at f_values[indices], sigma and right its _svd_stack's,
    each matrix with the bits of analyze_point at its f."""
    f = np.array([Scenario(n_a, n_p, x, feed_style, tilted).f  # names a bad f
                  for x in f_values], dtype=float)
    clear = np.flatnonzero(_clears(n_a, n_p, f, feed_style, tilted))
    width = max(1, min(_CHUNK, 2 ** 20 // (n_p * n_a)))
    for start in range(0, clear.size, width):
        index = clear[start:start + width].tolist()
        M = _T_stack(*_layout(n_a, n_p, f[index], feed_style, tilted),
                     f[index])
        sigma, right, _, _ = _svd_stack(M)
        yield index, M, sigma, right


def _score(objective, X):
    """The objective value of each surface excitation, a row of X; None
    where undefined. min_sll takes the surface patterns of the stack
    from one steering-matrix product."""
    if objective == "max_power":
        return [float(np.linalg.norm(x) ** 2) for x in X]
    mags = [np.abs(x) for x in X]
    if objective == "min_profile_variation":
        return [float(np.std(m) / np.mean(m)) for m in mags]
    return list(map(sidelobe_level, _patterns(np.column_stack(mags), None)))


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
    for index, M, _, right in _stacks(n_a, n_p, feed_style, tilted,
                                      f_values):
        W = _beam_for(right[:, :, 0], beam)
        X = np.matmul(M, W[..., None])[..., 0]
        for i, val in zip(index, _score(objective, X)):
            values[i] = val
    trace = list(zip(f_values, values))
    sign = -1 if objective == "max_power" else 1
    defined = [(f, val) for f, val in trace if val is not None]
    if not defined:
        raise RuntimeError("objective undefined at every grid point")
    # min keeps the first of equal keys: ties go to the smaller f
    best_f, _ = min(defined, key=lambda row: sign * row[1])
    return best_f, trace
