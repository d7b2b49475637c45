"""Grid sweeps over feed scenarios: power-transfer tables and exhaustive
scans for the best feeder distance."""

from dataclasses import dataclass

import numpy as np

from .geometry import Scenario, _layout, make_center_feed, make_end_feed
from .coupling import _T_stack, build_T
from .modes import (ModeMetrics, _fix_phase, _svd_stack, mode_metrics,
                    svd_modes)
# ris_pattern is not called here, but bench/selftest.py wraps this binding
from .patterns import _surface_sll, ris_pattern  # noqa: F401

OBJECTIVES = ("max_power", "min_sll", "min_profile_variation")
# the most consecutive f of a scan's f list in one chunk, whose f that
# clear the surface it analyzes as one stack: one T build, one SVD, then
# table metrics or one excitation product and, for min_sll, one pair of
# half-width cosine and sine products and one sidelobe walk. A chunk is
# narrower where it would hold more than 2**20 T entries, as one T at
# the CLI caps does: one f at 1024 x 1024. A scan holds one stack, never
# the whole scan: the min_sll products on the broadside half of the
# default grid, 1801 angles, hold 3.7 MB of power rows (2.3 MB at 81 f)
# beside tables of 1.8 MB at N_p = 128. Per column on that half (2-core
# Xeon, numpy 2.4.6, BLAS on one thread), the products with their walk
# cost 22-32 us at widths 16-128 against 130 us alone at N_p = 128, and
# 155-175 us at 16 and 95-115 us at 64-128 against 800-850 us alone at
# N_p = 1024
_CHUNK = 128


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
    return scenario, T, modes, mode_metrics(modes.sigma[None], [f], n_p)[0]


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
            f_at = [f_list[i] for i in index]
            for i, m in zip(index, mode_metrics(sigma, f_at, n_p)):
                metrics[i] = m
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
    """(indices, M, sigma, Vh) for each chunk of up to _CHUNK consecutive
    f_values, no larger than one T at the caps, over its f whose laid-out
    feeder clears the surface (a chunk with none yields nothing): M is the
    _T_stack at f_values[indices], sigma and Vh its _svd_stack's (no U is
    formed, no phase rule run), each matrix with the bits of analyze_point
    at its f. f is checked in one pass; one Scenario checks the sizes, the
    feed and then the first bad f, if any, and names it."""
    f = np.array(f_values, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(f) & (f > 0)))
    Scenario(n_a, n_p, f_values[bad[0] if bad.size else 0], feed_style, tilted)
    width = max(1, min(_CHUNK, 2 ** 20 // (n_p * n_a)))
    for start in range(0, f.size, width):
        at = f[start:start + width]
        surface, up, feeders, bores = _layout(n_a, n_p, at, feed_style, tilted)
        clear = (feeders[..., 1] > 0).all(axis=1)
        if clear.any():
            M = _T_stack(surface, up, feeders[clear], bores[clear], at[clear])
            yield (start + np.flatnonzero(clear)).tolist(), M, *_svd_stack(M)


def _score(objective, X):
    """The objective value of each surface excitation, a row of X; None
    where undefined. min_sll and profile variation take each row scaled
    by the power of two of its peak, which is exact, so neither the
    squares in std nor the pattern's power floor reach a row at a tiny
    f; a row whose peak is zero (T underflows to zero at a tiny f) or
    subnormal has too few digits, and no profile variation or sidelobe,
    though it has a power. min_sll scores the stack's surface patterns
    on the broadside half of the default grid (_surface_sll): the grid
    is antisymmetric and the weights real and nonnegative, so each
    pattern is even and peaks at broadside, and the walk down one flank
    finds the full row's sidelobe."""
    if objective == "max_power":
        return [float(np.linalg.norm(x) ** 2) for x in X]
    mags = np.abs(X)
    peak = mags.max(axis=1)
    live = np.flatnonzero(peak >= np.finfo(float).tiny)
    values = [None] * len(mags)
    if live.size:
        _, exponent = np.frexp(peak[live])
        rows = np.ldexp(mags[live], -exponent[:, None])
        scores = (_surface_sll(rows) if objective == "min_sll"
                  else [float(np.std(row) / np.mean(row)) for row in rows])
        for i, value in zip(live, scores):
            values[i] = value
    return values


def optimize_f(n_a, n_p, feed_style, tilted, beam, f_values,
               objective="min_sll"):
    """Exhaustive scan of feeder distances under one objective.

    Returns (best_f, trace) where trace is a list of (f, objective value)
    in scan order. Where the objective is undefined (a pattern without
    sidelobes, an all-zero surface excitation, or a tilted feeder
    reaching the surface) the value is None and the point cannot win.
    Ties go to the smaller f.
    """
    f_values = sorted(f_values)
    if not f_values:
        raise ValueError("f range must be non-empty")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    values = [None] * len(f_values)
    for index, M, _, Vh in _stacks(n_a, n_p, feed_style, tilted, f_values):
        W = _beam_for(_fix_phase(Vh[:, :1])[0][:, :, 0], beam)
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
