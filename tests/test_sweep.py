import filecmp

import numpy as np
import pytest

from risfeed.geometry import FeederBelowSurfaceError
from risfeed.modes import nonpem_vector
from risfeed.patterns import ris_pattern, sidelobe_level
from risfeed.sweep import (OBJECTIVES, _CHUNK, run_grid, optimize_f,
                           write_table_csv, write_trace_csv, analyze_point)

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
        with pytest.raises(RuntimeError, match="f=-1"):
            run_grid(4, [8], [-1.0], "center")

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
        with pytest.raises(RuntimeError,
                           match="grid point n_p=8 f=8.0 failed: feed"):
            run_grid(4, [8], [8.0], feed, tilted)

    @pytest.mark.parametrize("feed,tilted", BAD_FEEDS)
    def test_optimize_f_raises_instead_of_undefined_row(self, feed, tilted):
        for objective in OBJECTIVES:
            with pytest.raises(ValueError, match=f"feed {feed!r}"):
                optimize_f(4, 8, feed, tilted, "pem", [8.0, 16.0],
                           objective)


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
        monkeypatch.setattr("risfeed.sweep._scores",
                            lambda objective, points: [
                                (i, -3.5) for i, _, _ in points])
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

    def test_no_feasible_point_raises(self):
        with pytest.raises(RuntimeError, match="undefined at every grid"):
            optimize_f(16, 8, "end", True, "nonpem", [1.0, 2.0, 3.0])

    def test_other_errors_stop_the_scan(self, monkeypatch):
        def broken(scenario):
            raise ValueError("coincident elements")
        monkeypatch.setattr("risfeed.sweep.build_T", broken)
        with pytest.raises(ValueError, match="coincident elements"):
            optimize_f(4, 8, "end", True, "nonpem", [8.0, 16.0])


def single_curve_sll(n_a, n_p, feed, tilted, beam, f):
    """min_sll at one f from its own ris_pattern; None where undefined."""
    try:
        _, T, modes, _ = analyze_point(n_a, n_p, f, feed, tilted)
    except FeederBelowSurfaceError:
        return None
    b = modes.beam(0) if beam == "pem" else nonpem_vector(modes.beam(0))
    return sidelobe_level(ris_pattern(T, b))


class TestBatchedMinSll:
    """min_sll scores a chunk of distances with one steering-matrix
    product, whose columns may differ from one-column products in the
    last bits."""

    @pytest.mark.parametrize("beam", ["pem", "nonpem"])
    @pytest.mark.parametrize("n_a,n_p,feed,tilted,f_values", [
        (4, 32, "center", False, [4.0 + 0.5 * i for i in range(80)]),
        (4, 32, "end", False, [4.0 + 0.5 * i for i in range(80)]),
        (4, 32, "end", True, [4.0 + 0.5 * i for i in range(80)]),
        # first four rows undefined: the feeder reaches the surface
        (16, 8, "end", True, [float(f) for f in range(1, 81)]),
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
                # the measured worst is 7.5 times that
                assert abs(val - want) <= 32 * eps * 10 ** (-want / 20), f
        defined = [(f, v) for f, v in ref if v is not None]
        assert best == min(defined, key=lambda row: row[1])[0]

    def test_value_does_not_depend_on_chunk_boundaries(self):
        # starting at f = 20 moves 15 defined points from the second
        # chunk into the first, and gives every point other neighbours
        _, full = optimize_f(16, 8, "end", True, "nonpem",
                             [float(f) for f in range(1, 101)])
        _, late = optimize_f(16, 8, "end", True, "nonpem",
                             [float(f) for f in range(20, 103)])
        full, late = dict(full), dict(late)
        shared = [f for f in late if f in full]
        assert len(shared) == 81 and None not in late.values()
        assert [late[f] for f in shared] == [full[f] for f in shared]
