import filecmp
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risfeed
from risfeed.cli import write_table_csv, write_trace_csv
from risfeed.geometry import Scenario
from risfeed.modes import _fix_phase
from risfeed.patterns import (_patterns, default_grid, ris_pattern,
                              sidelobe_level)
from risfeed.sweep import (OBJECTIVES, _CHUNK, run_grid, optimize_f,
                           analyze_point, _beam_for, _stacks)

from oracles import analyze_or_none, feeder_beam

# feed styles analyze_point does not know: it builds only "end" (tilted
# or not) and untilted "center"
BAD_FEEDS = [("side", False), ("Center", False), ("center", True)]


class TestRunGrid:
    def test_table_first_block(self):
        records = run_grid(4, [8], [4, 8, 40, 80, 120], "center")
        assert len(records) == 5
        expected_s1 = [-7.32, -10.34, -21.14, -26.99, -30.48]
        for rec, s1 in zip(records, expected_s1):
            assert rec.metrics.sigma_sq_db[0] == pytest.approx(s1, abs=0.05)

    def test_single_point(self):
        (rec,) = run_grid(4, [32], [8], "center")
        assert rec.metrics.sigma_sq_db[0] == pytest.approx(-10.25, abs=0.05)

    def test_sorted_by_np_then_f(self):
        records = run_grid(4, [16, 8], [8.0, 4.0], "center")
        keys = [(r.n_p, r.f) for r in records]
        assert keys == sorted(keys)

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            run_grid(4, [8], [], "center")
        with pytest.raises(ValueError):
            run_grid(4, [], [8], "center")

    def test_grid_error_annotated(self):
        with pytest.raises(ValueError, match="f=-1"):
            run_grid(4, [8], [-1.0], "center")

    @pytest.mark.parametrize("n_a,n_p_list,f_list,feed,tilted", [
        (4, [8, 32], [4.0, 8.0, 120.0], "center", False),
        (4, [8, 32], [4.0, 8.0, 120.0], "end", False),
        (4, [8, 32], [4.0, 8.0, 120.0], "end", True),
        # N_p < N_a: the SVD pads T with zero rows
        (16, [8], [8.0, 40.0], "center", False),
        # stacks of 128 and 12 f
        (4, [8], [1.0 + 0.5 * i for i in range(140)], "center", False),
        # the feeder reaches the surface at f < 5
        (16, [8, 16], [float(f) for f in range(1, 11)], "end", True),
    ], ids=["center", "end", "end-tilted", "np8-padded", "two-stacks",
            "end-tilted-undefined"])
    def test_metrics_match_analyze_point(self, n_a, n_p_list, f_list, feed,
                                         tilted):
        records = run_grid(n_a, n_p_list, f_list, feed, tilted)
        assert [(r.n_p, r.f) for r in records] == [
            (n_p, f) for n_p in n_p_list for f in f_list]
        for rec in records:
            point = analyze_or_none(n_a, rec.n_p, rec.f, feed, tilted)
            if point is None:
                assert rec.metrics is None
                continue
            want = point[3]
            # every field, bit for bit
            assert vars(rec.metrics) == vars(want)
        assert any(r.metrics is None for r in records) == (n_a == 16
                                                           and tilted)

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table_csv(run_grid(4, [8, 16], [4, 8], "center"), a)
        write_table_csv(run_grid(4, [8, 16], [4, 8], "center"), b)
        assert filecmp.cmp(a, b, shallow=False)
        header = a.read_text().splitlines()[0]
        assert header == ("sl_no,n_a,n_p,f,feed,beam,sigma1_db,sigma2_db,"
                          "sigma3_db,sigma4_db,sum_db,cond,l_iso_db,f_over_d")


def sum_db_by_np(n_a, f, n_p_list):
    """Total eigenmode power (dB) per surface size, center feed."""
    return {rec.n_p: rec.metrics.sum_db
            for rec in run_grid(n_a, n_p_list, [f], "center")}


class TestFeedDispatch:
    @pytest.mark.parametrize("feed,tilted", BAD_FEEDS)
    def test_analyze_point_rejects_unknown_feed(self, feed, tilted):
        with pytest.raises(ValueError, match=f"feed {feed!r}"):
            analyze_point(4, 8, 8.0, feed, tilted)

    @pytest.mark.parametrize("feed,tilted", BAD_FEEDS)
    def test_run_grid_names_the_point(self, feed, tilted):
        # the table's scan raises the same error as optimize_f's
        with pytest.raises(ValueError, match=f"feed {feed!r}"):
            run_grid(4, [8], [8.0, 16.0], feed, tilted)

    @pytest.mark.parametrize("feed,tilted", BAD_FEEDS)
    def test_optimize_f_raises_instead_of_undefined_row(self, feed, tilted):
        for objective in OBJECTIVES:
            with pytest.raises(ValueError, match=f"feed {feed!r}"):
                optimize_f(4, 8, feed, tilted, "pem", [8.0, 16.0],
                           objective)


class TestBadF:
    """A scan checks its sizes and feed, then every f in one pass, and
    raises Scenario's own error for the first bad f in scan order."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0, -1.0])
    def test_first_bad_f_named(self, bad):
        with pytest.raises(ValueError) as want:
            Scenario(4, 8, bad, "center")
        with pytest.raises(ValueError) as got:
            run_grid(4, [8], [8.0, 16.0, bad, -5.0], "center")
        assert str(got.value) == str(want.value)
        assert str(want.value) == f"f={bad!r} must be positive and finite"
        for objective in OBJECTIVES:
            with pytest.raises(ValueError) as got:
                optimize_f(4, 8, "end", True, "pem", [8.0, bad, 16.0],
                           objective)
            assert str(got.value) == str(want.value)

    def test_sizes_and_feed_checked_before_f(self):
        with pytest.raises(ValueError, match="n_a=0"):
            run_grid(0, [8], [8.0, np.nan], "center")
        with pytest.raises(ValueError, match="feed 'side'"):
            optimize_f(4, 8, "side", False, "pem", [8.0, np.nan])


class TestConvergenceStudy:
    def test_large_surface_limit(self):
        got = sum_db_by_np(4, 8.0, [16, 32, 64, 128])
        assert got[16] == pytest.approx(-6.6, abs=0.05)
        assert got[32] == pytest.approx(-6.3, abs=0.05)
        assert got[64] == pytest.approx(-6.22, abs=0.05)
        assert got[128] == pytest.approx(-6.22, abs=0.05)

    def test_small_surface_values(self):
        got = sum_db_by_np(4, 8.0, [4, 8])
        assert got[4] == pytest.approx(-10.40, abs=0.05)
        assert got[8] == pytest.approx(-7.98, abs=0.05)


class TestDoublingBehavior:
    def test_3db_per_halving_below_fd_1(self):
        # within the f/D < 1 regime, halving f gains close to 3 dB
        pairs = [(8, 4, 8), (16, 8, 16), (32, 16, 32)]
        for n_p, f_small, f_large in pairs:
            _, _, _, m_small = analyze_point(4, n_p, f_small, "center")
            _, _, _, m_large = analyze_point(4, n_p, f_large, "center")
            gain = m_small.sigma_sq_db[0] - m_large.sigma_sq_db[0]
            assert gain == pytest.approx(3.0, abs=0.1)

    def test_6db_trend_far_field(self):
        # f/D >> 1 at N_p = 8: doubling approaches the inverse-square law
        _, _, _, m80 = analyze_point(4, 8, 80, "center")
        _, _, _, m160 = analyze_point(4, 8, 160, "center")
        drop = m160.sigma_sq_db[0] - m80.sigma_sq_db[0]
        assert -6.2 <= drop <= -5.0

    def test_fixed_fd_half_invariants(self):
        # rows at f/D = 0.5 share condition number and sum offset
        expected = {8: (3.54, 3.65), 16: (3.57, 3.67), 32: (3.58, 3.67)}
        for n_p, (cond, offset) in expected.items():
            _, _, _, mm = analyze_point(4, n_p, n_p / 2, "center")
            assert mm.cond == pytest.approx(cond, rel=0.005)
            assert mm.sum_db - mm.sigma_sq_db[0] == pytest.approx(offset,
                                                                  abs=0.05)


class TestOptimizeF:
    def test_max_power_prefers_smallest_f(self):
        best, trace = optimize_f(4, 8, "center", False, "pem",
                                 [4, 8, 16, 40, 80, 120],
                                 objective="max_power")
        assert best == 4
        assert len(trace) == 6

    def test_single_point_range(self):
        best, trace = optimize_f(4, 8, "center", False, "pem", [16.0],
                                 objective="max_power")
        assert best == 16.0
        assert trace == [(16.0, pytest.approx(trace[0][1]))]

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_tie_goes_to_smaller_f(self, objective, monkeypatch):
        # every f scores alike, so each objective's rule must keep the
        # first (smallest) f
        monkeypatch.setattr("risfeed.sweep._score",
                            lambda objective, X: [-3.5] * len(X))
        best, trace = optimize_f(4, 8, "center", False, "pem",
                                 [16.0, 4.0, 8.0, 8.0], objective=objective)
        assert best == 4.0
        assert trace == [(4.0, -3.5), (8.0, -3.5), (8.0, -3.5), (16.0, -3.5)]

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_best_is_first_extreme_of_defined_rows(self, objective):
        # a 16-element tilted feeder reaches the surface at f < 5
        f_values = [float(f) for f in range(1, 21)]
        best, trace = optimize_f(16, 8, "end", True, "nonpem", f_values,
                                 objective)
        vals = [v for _, v in trace if v is not None]
        assert 0 < len(vals) < len(trace)
        extreme = max(vals) if objective == "max_power" else min(vals)
        assert best == next(f for f, v in trace if v == extreme)

    def test_min_profile_variation_runs(self):
        best, trace = optimize_f(4, 32, "end", True, "nonpem",
                                 [12.0, 16.0, 24.0],
                                 objective="min_profile_variation")
        vals = dict(trace)
        assert best == min(vals, key=vals.get)

    def test_min_sll_trace_and_regression(self):
        # frozen scan over the end-feed non-PEM family
        best, trace = optimize_f(4, 128, "end", True, "nonpem",
                                 list(range(60, 141, 10)),
                                 objective="min_sll")
        vals = {f: v for f, v in trace if v is not None}
        assert best == min(vals, key=vals.get)
        assert best == 90

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            optimize_f(4, 8, "center", False, "pem", [],
                       objective="max_power")

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            optimize_f(4, 8, "center", False, "pem", [8.0],
                       objective="min_beamwidth")

    def test_trace_csv(self, tmp_path):
        best, trace = optimize_f(4, 8, "center", False, "pem", [4.0, 8.0],
                                 objective="max_power")
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, best, "max_power", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "f,max_power,is_best"
        assert lines[1].endswith(",1")      # best at the smaller f
        assert lines[2].endswith(",0")

    def test_infeasible_tilted_points_are_undefined(self):
        # a 16-element feeder tilted at f < 5 reaches the surface
        f_values = [float(f) for f in range(1, 21)]
        best, trace = optimize_f(16, 8, "end", True, "nonpem", f_values)
        assert [f for f, _ in trace] == f_values
        assert [v for _, v in trace[:4]] == [None] * 4
        _, defined = optimize_f(16, 8, "end", True, "nonpem", f_values[4:])
        assert trace[4:] == defined
        vals = [v for _, v in trace[4:]]
        assert best == f_values[4 + vals.index(min(vals))]

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_all_zero_excitation(self, objective):
        # T underflows to zero at f = 1e-300: the excitation's power is 0,
        # its profile variation and pattern undefined, and the other rows
        # keep the bits of a scan without it
        f_values = [1e-300, 60.0, 61.0, 62.0]
        best, trace = optimize_f(4, 127, "center", False, "pem", f_values,
                                 objective)
        rest_best, rest = optimize_f(4, 127, "center", False, "pem",
                                     f_values[1:], objective)
        zero = 0.0 if objective == "max_power" else None
        assert trace == [(1e-300, zero)] + rest
        assert best == rest_best

    def test_profile_variation_at_tiny_f(self):
        # the excitation scales as f^2 at a tiny f, so its profile
        # variation tends to one value; its squares would underflow, and
        # the scan once scored 0 at f = 1e-82, a false best. A subnormal
        # peak (6e-320 at f = 1e-160) scores None
        f_values = [1e-160, 1e-82, 1e-80, 1e-60, 60.0]
        best, trace = optimize_f(4, 127, "center", False, "pem", f_values,
                                 "min_profile_variation")
        tiny = [value for _, value in trace[1:4]]
        assert tiny == pytest.approx([tiny[2]] * 3, rel=1e-12, abs=0)
        assert trace[0] == (1e-160, None)
        assert best == 60.0

    def test_no_feasible_point_raises(self):
        with pytest.raises(RuntimeError, match="undefined at every grid"):
            optimize_f(16, 8, "end", True, "nonpem", [1.0, 2.0, 3.0])

    def test_other_errors_stop_the_scan(self, monkeypatch):
        def broken(*arrays):
            raise ValueError("coincident elements")
        monkeypatch.setattr("risfeed.sweep._T_stack", broken)
        with pytest.raises(ValueError, match="coincident elements"):
            optimize_f(4, 8, "end", True, "nonpem", [8.0, 16.0])


def single_curve_sll(n_a, n_p, feed, tilted, beam, f):
    """min_sll at one f from its own ris_pattern; None where undefined."""
    point = analyze_or_none(n_a, n_p, f, feed, tilted)
    if point is None:
        return None
    _, T, modes, _ = point
    return sidelobe_level(
        ris_pattern(T, feeder_beam(modes, beam)).power_norm_db)


def half_grid_mismatches():
    """The scans whose min_sll values from optimize_f differ from
    sidelobe_level of the full-grid _patterns rows of the same _stacks
    weights: center, end and tilted-end feeds, both beams, N_a 1, 4 and
    16 and N_p 1, 2, 127 and 1024, each over 8 f in one stack and over
    one f, a one-column product."""
    scans = list(itertools.product(
        (1, 4, 16), (1, 2, 127, 1024),
        [("center", False), ("end", False), ("end", True)],
        ("pem", "nonpem"), ([2.0 * 1.8 ** i for i in range(8)], [60.0])))
    # every half-grid scan first: the steering memo holds one grid
    got = []
    for n_a, n_p, (feed, tilted), beam, f_values in scans:
        try:
            _, trace = optimize_f(n_a, n_p, feed, tilted, beam, f_values)
            got.append([val for _, val in trace])
        except RuntimeError:     # no f has a sidelobe
            got.append([None] * len(f_values))
    grid = default_grid()
    mismatches = []
    for scan, values in zip(scans, got):
        n_a, n_p, (feed, tilted), beam, f_values = scan
        want = [None] * len(f_values)
        for index, M, _, Vh in _stacks(n_a, n_p, feed, tilted, f_values):
            v1 = _fix_phase(Vh)[0][:, :, 0]
            X = np.matmul(M, _beam_for(v1, beam)[..., None])
            _, _, rows = _patterns(np.abs(X[..., 0]).T, grid)
            for i, row in zip(index, rows):
                want[i] = sidelobe_level(row)
        if values != want:
            mismatches.append(scan)
    return mismatches


class TestBatchedMinSll:
    """min_sll scores a chunk of distances with one steering-matrix
    product, whose columns may differ from one-column products in the
    last bits."""

    @pytest.mark.parametrize("beam", ["pem", "nonpem"])
    @pytest.mark.parametrize("n_a,n_p,feed,tilted,f_values", [
        (4, 32, "center", False, [4.0 + 0.5 * i for i in range(160)]),
        (4, 32, "end", False, [4.0 + 0.5 * i for i in range(160)]),
        (4, 32, "end", True, [4.0 + 0.5 * i for i in range(160)]),
        # first four rows undefined: the feeder reaches the surface
        (16, 8, "end", True, [float(f) for f in range(1, 161)]),
    ], ids=["center", "end", "end-tilted", "end-tilted-undefined"])
    def test_values_match_single_curves(self, n_a, n_p, feed, tilted,
                                        f_values, beam):
        assert len(f_values) > _CHUNK
        best, trace = optimize_f(n_a, n_p, feed, tilted, beam, f_values)
        ref = [(f, single_curve_sll(n_a, n_p, feed, tilted, beam, f))
               for f in f_values]
        assert [f for f, v in trace if v is None] == [
            f for f, v in ref if v is None]
        eps = np.finfo(float).eps
        for (f, val), (_, want) in zip(trace, ref):
            if want is not None:
                # the field's rounding is a few eps of the peak field, so
                # a sidelobe sll dB down carries eps * 10^(-sll/20) of it;
                # the measured worst is 5.7 times that
                assert abs(val - want) <= 32 * eps * 10 ** (-want / 20), f
        defined = [(f, v) for f, v in ref if v is not None]
        assert best == min(defined, key=lambda row: row[1])[0]

    def test_half_grid_equals_full_grid(self):
        # min_sll scans the broadside half of the grid and must score
        # what the full grid scores. BLAS runs on one thread, as the
        # bench harness runs it: a threaded one-column product splits the
        # half and the full grid at other angles and may round the
        # broadside sample, and with it every normalized sample,
        # differently
        tests = Path(__file__).resolve().parent
        src = str(Path(risfeed.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run(
            [sys.executable, "-c",
             "import test_sweep; print(test_sweep.half_grid_mismatches())"],
            cwd=tests, env=env, check=True, capture_output=True, text=True)
        assert child.stdout == "[]\n"

    def test_value_does_not_depend_on_chunk_boundaries(self):
        # starting at f = 60 moves 8 defined points from the second
        # chunk into the first, and gives every point other neighbours
        _, full = optimize_f(16, 8, "end", True, "nonpem",
                             [float(f) for f in range(1, 141)])
        _, late = optimize_f(16, 8, "end", True, "nonpem",
                             [float(f) for f in range(60, 190)])
        full, late = dict(full), dict(late)
        shared = [f for f in late if f in full]
        assert len(shared) == 81 and None not in late.values()
        assert [late[f] for f in shared] == [full[f] for f in shared]

    def test_chunks_follow_the_f_list(self):
        # chunks are cut from the f list, then the f that do not clear
        # are dropped: the first chunk's one clear f is a stack of its own
        f_values = [0.1 + 0.0352 * i for i in range(141)]
        assert [index for index, *_ in _stacks(16, 8, "end", True, f_values)
                ] == [[127], list(range(128, 141))]


def stacked_scan(monkeypatch, n_a, n_p, feed, tilted, beam, f_values):
    """The (index, T entries, sigma, V) points of a scan's stacks, and the
    feeder weights and surface excitations that optimize_f forms from
    them, one per point."""
    points = [(i, entries, s, V)
              for index, M, sigma, Vh in _stacks(n_a, n_p, feed, tilted,
                                                 f_values)
              for i, entries, s, V in zip(index, M, sigma,
                                          _fix_phase(Vh)[0], strict=True)]
    weights, excitations = [], []

    def beam_spy(v1, name):
        W = _beam_for(v1, name)
        weights.extend(W)
        return W

    def score_spy(objective, X):
        excitations.extend(X)
        return [0.0] * len(X)
    monkeypatch.setattr("risfeed.sweep._beam_for", beam_spy)
    monkeypatch.setattr("risfeed.sweep._score", score_spy)
    optimize_f(n_a, n_p, feed, tilted, beam, f_values, "max_power")
    return points, weights, excitations


F160 = [4.0 + 0.5 * i for i in range(160)]


class TestStackedScan:
    """The scan analyzes its distances in stacks; every point keeps the
    bits of its own analyze_point and of the beam the CLI draws there."""

    @pytest.mark.parametrize("beam", ["pem", "nonpem"])
    @pytest.mark.parametrize("n_a,n_p,feed,tilted,f_values", [
        (4, 32, "center", False, F160),
        (4, 32, "end", False, F160),
        (4, 32, "end", True, F160),
        # first four rows undefined: the feeder reaches the surface
        (16, 8, "end", True, [float(f) for f in range(1, 161)]),
        (4, 1, "center", False, F160),
        # N_p < N_a: the SVD pads T with zero rows
        (4, 2, "center", False, [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]),
        (3, 5, "end", True, F160),
        # stacks of 52 f, narrower than _CHUNK, and a last one of 4
        (20, 1000, "center", False, F160),
    ], ids=["center", "end", "end-tilted", "end-tilted-undefined", "np1",
            "np2-padded", "odd-sizes", "narrow-stacks"])
    def test_points_match_analyze_point(self, monkeypatch, n_a, n_p, feed,
                                        tilted, f_values, beam):
        points, weights, excitations = stacked_scan(
            monkeypatch, n_a, n_p, feed, tilted, beam, f_values)
        ref = []
        for i, f in enumerate(f_values):
            point = analyze_or_none(n_a, n_p, f, feed, tilted)
            if point is not None:
                ref.append((i, *point[:3]))
        assert [p[0] for p in points] == [r[0] for r in ref]
        assert len(weights) == len(excitations) == len(ref)
        for (i, M, sigma, V), w, x, (_, s_ref, T, m_ref) in zip(
                points, weights, excitations, ref):
            assert Scenario(n_a, n_p, f_values[i], feed, tilted) == s_ref
            assert np.array_equal(M, T.entries)
            assert np.array_equal(sigma, m_ref.sigma)
            assert np.array_equal(V, m_ref.right_vectors)
            b_ref = feeder_beam(m_ref, beam)
            assert np.array_equal(w, b_ref.weights)
            assert np.array_equal(x, T.apply(b_ref.weights))

    def test_scan_longer_than_one_stack(self, monkeypatch):
        points, weights, excitations = stacked_scan(
            monkeypatch, 4, 32, "end", True, "nonpem", F160)
        assert len(points) == len(weights) == len(excitations) == len(F160)
        assert len(F160) > _CHUNK

    def test_phase_rule_rounds_like_scalar_abs(self):
        # at (4, 2, 8) center the pivot of v_1 has magnitude
        # 0.5201632027331891 from Python's abs, while np.abs over an
        # array gives ...892 (numpy 2.4.6 on an AVX-512 Xeon); the rule
        # rotates by the scalar magnitude, stacked or not
        _, T, modes, _ = analyze_point(4, 2, 8.0, "center")
        padded = np.vstack([T.entries, np.zeros((2, 4))])
        v = np.linalg.svd(padded, full_matrices=False)[2][0].conj()
        k = int(np.argmax(np.abs(v)))
        v = v * (v[k].conjugate() / abs(v[k]))
        v[k] = abs(v[k])
        assert np.array_equal(modes.right_vectors[:, 0], v)

    @pytest.mark.parametrize("n_a,n_p,width", [
        (1024, 1024, 1), (32, 1024, 32), (4, 128, _CHUNK)])
    def test_stack_holds_at_most_one_capped_T(self, monkeypatch, n_a, n_p,
                                              width):
        # the spy raises before any entry is built, so no SVD runs
        shapes = []

        def spy(surface, surface_boresight, feeders, feeder_boresights, f):
            shapes.append((len(feeders), len(surface), feeders.shape[1]))
            raise ValueError("stack recorded")
        monkeypatch.setattr("risfeed.sweep._T_stack", spy)
        with pytest.raises(ValueError, match="stack recorded"):
            optimize_f(n_a, n_p, "center", False, "pem",
                       [float(f) for f in range(100, 300)])
        assert shapes == [(width, n_p, n_a)]
        assert width * n_p * n_a <= 2 ** 20


class TestBeamFor:
    """One PEM/non-PEM rule for a point and a stack: each row of a
    stacked result keeps the bits of the rule on that row alone."""

    @pytest.mark.parametrize("beam", ["pem", "nonpem"])
    @pytest.mark.parametrize("n_a", [1, 4, 16])
    def test_stack_matches_rows(self, n_a, beam):
        # 160 f at N_p = 32: stacks of 128 and 32
        f_values = [20.0 + 0.75 * i for i in range(160)]
        rows = 0
        for _, _, _, Vh in _stacks(n_a, 32, "end", True, f_values):
            v1 = _fix_phase(Vh)[0][:, :, 0]
            W = _beam_for(v1, beam)
            assert W.shape == v1.shape
            for k, w in enumerate(W):
                assert np.array_equal(w, _beam_for(v1[k], beam))
                assert np.array_equal(w, _beam_for(v1[k].copy(), beam))
            rows += len(W)
        assert rows == len(f_values)

    def test_unknown_beam(self):
        with pytest.raises(ValueError, match="unknown beam 'pem2'"):
            _beam_for(np.ones(2), "pem2")
