"""Every CSV writer writes exactly the bytes of its former csv.writer
body (tests/oracles.py), on inputs chosen to break a formatter: signed
zeros, infinities, NaN, padding and dropped columns, empty cells,
undefined rows, ties, the magnitude floor, and the finest angle grid."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risfeed import cli, coupling, modes, patterns, sweep
from risfeed.cli import (write_pattern_csv, write_profile_csv,
                         write_table_csv, write_trace_csv)
from risfeed.geometry import make_center_feed
from risfeed.coupling import build_T
from risfeed.modes import ModeMetrics, svd_modes
from risfeed.patterns import (PatternCurve, amaf_pattern, default_grid,
                              ris_excitation, ris_pattern)
from risfeed.sweep import SweepRecord, optimize_f, run_grid

import oracles

INF, NAN = float("inf"), float("nan")
SPECIALS = [0.0, -0.0, INF, -INF, NAN, 5e-7, -5e-7, 4.9999995e-7, 1e-300,
            5e-324, 1.7976931348623157e308, -123456.7890125, 0.5, 1.5, 2.5]


def random_floats(n, seed):
    """Signed values spread over the whole float64 exponent range."""
    rng = np.random.default_rng(seed)
    return (rng.choice([-1.0, 1.0], n)
            * 10.0 ** rng.uniform(-320, 307, n) * rng.uniform(1, 10, n))


def assert_same_bytes(tmp_path, write, reference, *args):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write(*args, new)
    reference(*args, ref)
    assert new.read_bytes() == ref.read_bytes()


def curve_of(values):
    values = np.asarray(values, dtype=float)
    return PatternCurve(angles_deg=values, power_dbi=values[::-1].copy(),
                        power_norm_db=-values, peak_angle_deg=0.0,
                        peak_dbi=0.0)


def record(n_a, n_p, f, sigma_sq_db, *rest, feed="center"):
    return SweepRecord(n_a=n_a, n_p=n_p, f=f, feed=feed,
                       metrics=ModeMetrics(tuple(sigma_sq_db), *rest))


class TestPatternCsv:
    def test_special_values(self, tmp_path):
        assert_same_bytes(tmp_path, write_pattern_csv,
                          oracles.csv_write_pattern, curve_of(SPECIALS))

    def test_random_values(self, tmp_path):
        assert_same_bytes(tmp_path, write_pattern_csv,
                          oracles.csv_write_pattern,
                          curve_of(random_floats(20000, 1)))

    def test_finest_grid(self, tmp_path):
        b = svd_modes(build_T(make_center_feed(4, 16, 8))).beam(0)
        curve = amaf_pattern(b, default_grid(0.005))
        assert curve.angles_deg.size == 36001
        assert_same_bytes(tmp_path, write_pattern_csv,
                          oracles.csv_write_pattern, curve)

    def test_surface_pattern(self, tmp_path):
        T = build_T(make_center_feed(4, 128, 80))
        curve = ris_pattern(T, svd_modes(T).beam(0))
        assert_same_bytes(tmp_path, write_pattern_csv,
                          oracles.csv_write_pattern, curve)

    def test_tie_grid(self, tmp_path):
        """Angles k/128 - 90: 11,520 cells are exact %.6f ties, which
        round half to even."""
        b = svd_modes(build_T(make_center_feed(4, 8, 8))).beam(0)
        curve = amaf_pattern(b, default_grid(0.0078125))
        y = np.abs(curve.angles_deg) * 1e6
        assert np.count_nonzero(y - np.floor(y) == 0.5) == 11520
        assert_same_bytes(tmp_path, write_pattern_csv,
                          oracles.csv_write_pattern, curve)


def percent_rows(rows):
    return b"".join(b",".join(b"%.6f" % v for v in row) + b"\r\n"
                    for row in rows)


def near_half(m, steps):
    """The float `steps` nextafter steps from (m + 0.5) * 1e-6."""
    x = (m + 0.5) * 1e-6
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.copysign(INF, steps))
    return float(x)


# cells a pattern holds: below 999.999998 in magnitude, with ties k/128,
# floats within two steps of a half-unit in the sixth decimal, and
# negatives that print as -0.000000
FIXED6 = st.one_of(
    st.floats(-999.999998, 999.999998),
    st.integers(-999 * 128, 999 * 128).map(lambda k: k / 128),
    st.builds(near_half, st.integers(-999999999, 999999998),
              st.integers(-2, 2)),
    st.floats(-5e-7, 0.0, exclude_min=True, exclude_max=True),
)
# and any double, including nan, infinities, signed zeros and subnormals,
# and cells at the slot's edge
CELLS = st.one_of(
    st.floats(), FIXED6,
    st.sampled_from([s * v for s in (1.0, -1.0) for v in (
        999.999998, 999.999999, np.nextafter(999.999999, 0.0),
        999.9999995, np.nextafter(999.9999995, 0.0),
        np.nextafter(1000.0, 0.0), 1000.0)]),
)


class TestFixed6Rows:
    """cli._fixed6_rows gives each cell's '%.6f' bytes, or refuses the
    array (write_pattern_csv then takes _write_csv)."""

    @settings(derandomize=True, deadline=None, max_examples=1500)
    @given(CELLS)
    def test_cell_is_percent_or_refused(self, v):
        body = cli._fixed6_rows(np.array([[v]]))
        if body is None:
            assert not abs(v) < 999.999998
        else:
            assert body == percent_rows([[v]])

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.tuples(FIXED6, FIXED6, FIXED6), min_size=1,
                    max_size=12))
    def test_rows_are_percent(self, rows):
        assert cli._fixed6_rows(np.array(rows)) == percent_rows(rows)


class TestProfileCsv:
    def test_zero_and_special_magnitudes(self, tmp_path):
        mags = np.array([0.0, -0.0, 1e-300, 1e-310, 5e-324, INF, NAN, 1.0,
                         0.1, 3.0e-7])
        assert_same_bytes(tmp_path, write_profile_csv,
                          oracles.csv_write_profile, mags)

    def test_random_magnitudes(self, tmp_path):
        mags = np.abs(random_floats(5000, 2))
        assert_same_bytes(tmp_path, write_profile_csv,
                          oracles.csv_write_profile, mags)

    def test_computed_profile(self, tmp_path):
        T = build_T(make_center_feed(4, 1024, 40))
        mags = ris_excitation(T, svd_modes(T).beam(0))
        assert_same_bytes(tmp_path, write_profile_csv,
                          oracles.csv_write_profile, mags)


class TestTableCsv:
    @pytest.mark.parametrize("n_a,n_p_list,f_list,feed,tilted", [
        (2, [4, 8], [4.0, 8.0], "center", False),       # nan padding
        (1, [1], [8.0], "center", False),
        (16, [8, 32], [8.0, 120.0], "end", True),       # N_p < N_a: inf cond
        (4, [2, 8], [4.0], "center", False),            # sigma3, 4: -inf
        (4, [8, 16, 32], [4.0, 8.0, 40.0, 80.0, 120.0], "center", False),
        (16, [8], [1.0, 8.0], "end", True),             # f = 1 undefined
    ])
    def test_computed_grids(self, tmp_path, n_a, n_p_list, f_list, feed,
                            tilted):
        records = run_grid(n_a, n_p_list, f_list, feed, tilted)
        assert_same_bytes(tmp_path, write_table_csv,
                          oracles.csv_write_table, records)

    def test_special_cells(self, tmp_path):
        records = [
            record(2, 8, 0.1, [-0.0, NAN], -INF, INF, NAN, -0.0),
            record(4, 2, 1e-7, [1.0, -INF, -INF, -INF], 0.0, INF, -1.5,
                   2.5e-7, feed="end"),
            record(6, 9, 123456789.0, [-1.25, -2.5, -5e-7, 5e-7, -9.0, -9.5],
                   -1.0, 1e300, 7.0, 1.0),
            SweepRecord(n_a=16, n_p=8, f=2.5, feed="end", metrics=None),
        ]
        assert_same_bytes(tmp_path, write_table_csv,
                          oracles.csv_write_table, records)

    def test_no_records(self, tmp_path):
        assert_same_bytes(tmp_path, write_table_csv,
                          oracles.csv_write_table, [])


class TestTraceCsv:
    def test_none_values_and_tie_for_best(self, tmp_path):
        trace = [(60.0, None), (61.0, -12.5), (62.0, -12.5), (63.5, -0.0),
                 (64.25, None), (1e-5, INF), (1e6, NAN)]
        for best_f in (61.0, 62.0, None):
            assert_same_bytes(tmp_path, write_trace_csv,
                              oracles.csv_write_trace, trace, best_f,
                              "min_sll")

    def test_computed_trace(self, tmp_path):
        best_f, trace = optimize_f(4, 32, "end", True, "nonpem",
                                   [4.0, 8.0, 12.0, 16.0], "min_sll")
        assert_same_bytes(tmp_path, write_trace_csv,
                          oracles.csv_write_trace, trace, best_f, "min_sll")

    def test_empty_trace(self, tmp_path):
        assert_same_bytes(tmp_path, write_trace_csv,
                          oracles.csv_write_trace, [], None, "max_power")


WRITERS = ("_write_csv", "mode_report", "write_mode_report",
           "write_pattern_csv", "write_profile_csv", "write_table_csv",
           "write_trace_csv")


@pytest.mark.parametrize("module", [coupling, modes, patterns, sweep],
                         ids=lambda m: m.__name__)
def test_only_cli_knows_a_file_format(module):
    """coupling, modes, patterns and sweep only compute: none of them
    binds a writer, the report builder or json; cli.py holds them all."""
    bound = [name for name in vars(module)
             if name.startswith("write_") or name in WRITERS + ("json",)]
    assert bound == []
    assert all(callable(getattr(cli, name)) for name in WRITERS)
