"""Whole-range model properties, drawn with hypothesis over N_a 1-16,
N_p 1-1024, f log-uniform over 0.1-1e4 and every feed, and over the
angle grids the CLI accepts.

Examples are derandomized, so every run checks the same scenarios. The
largest draw is a stack of 4 T at 1024 x 16, about 1 MB, or the pattern
of 1024 elements on the default grid, whose blocks take about 5 MB.

The T kernel is drawn on flat layouts, which it builds per offset, and
on tilted ones, which it builds per pair; both give the reference
kernel's bytes.
"""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from risfeed.coupling import _T_stack, build_T
from risfeed.geometry import _layout, make_center_feed
from risfeed.modes import _fix_phase
from risfeed.patterns import _patterns, _sidelobe_levels, default_grid
from risfeed.sweep import _stacks, run_grid

from oracles import (analyze_or_none, assert_T_stack_bytes,
                     brute_force_sidelobe, single_feeder_power)

FLAT = [("center", False), ("end", False)]
FEEDS = FLAT + [("end", True)]

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)

n_as = st.integers(1, 16)
n_ps = st.integers(1, 1024)
fs = st.floats(-1.0, 4.0).map(lambda e: 10.0 ** e)
feeds = st.sampled_from(FEEDS)
f_lists = st.lists(fs, min_size=1, max_size=4, unique=True)
# positions on the half-unit lattice, out to about +/-1e6
half_units = st.integers(-2 ** 21, 2 ** 21).map(lambda k: k / 2.0)
UP, DOWN = np.array([0.0, 1.0]), np.array([0.0, -1.0])


@PROPERTY
@given(n_as, n_ps, feeds, f_lists)
# the corners of the range; a 16-element tilted feeder at f = 0.1
# reaches the surface
@example(16, 1024, ("end", True), [0.1, 1e4])
@example(16, 1, ("end", False), [0.1, 1e4])
@example(1, 1, ("center", False), [0.1, 1e4])
@example(1, 1024, ("end", True), [0.1, 1e4])
def test_stack_points_equal_analyze_point(n_a, n_p, feed, f_values):
    feed_style, tilted = feed
    stacked = {}
    for index, M, sigma, Vh in _stacks(n_a, n_p, feed_style, tilted,
                                       f_values):
        for i, entries, s, V in zip(index, M, sigma, _fix_phase(Vh)[0],
                                    strict=True):
            stacked[i] = entries, s, V
    for i, f in enumerate(f_values):
        point = analyze_or_none(n_a, n_p, f, feed_style, tilted)
        if point is None:
            assert i not in stacked
            continue
        _, T, modes, _ = point
        entries, sigma, right = stacked[i]
        assert np.array_equal(entries, T.entries)
        assert np.array_equal(sigma, modes.sigma)
        assert np.array_equal(right, modes.right_vectors)


@PROPERTY
@given(n_as, n_ps, feeds, f_lists)
# a center feed's mirror tie: |v_1| peaks one ulp above its pivot's
# magnitude
@example(16, 35, ("center", False), [424.03613505212957])
@example(4, 2, ("center", False), [8.0])
@example(16, 1024, ("end", True), [0.1, 1e4])
def test_one_column_phase_rule_gives_v1_of_the_full_rule(n_a, n_p, feed,
                                                         f_values):
    for _, _, _, Vh in _stacks(n_a, n_p, *feed, f_values):
        v1 = _fix_phase(Vh[:, :1])[0][:, :, 0]
        assert v1.tobytes() == _fix_phase(Vh)[0][:, :, 0].tobytes()


def assert_same_metrics(got, want):
    """Every ModeMetrics field of got has the type and bytes of want's."""
    for name, value in vars(want).items():
        other = getattr(got, name)
        assert type(other) is type(value), name
        assert ([type(x) for x in np.atleast_1d(other)]
                == [type(x) for x in np.atleast_1d(value)]), name
        assert np.array(other).tobytes() == np.array(value).tobytes(), name


def table_sizes(n_a):
    """N_p lists at n_a: below it (a padded SVD), on each side of
    zgesdd's QR threshold floor(17 N_a / 9), and anywhere up to 1024."""
    threshold = 17 * n_a // 9
    return st.lists(st.one_of(st.integers(1, max(1, n_a - 1)),
                              st.integers(max(1, threshold - 1),
                                          threshold),
                              n_ps),
                    min_size=1, max_size=3, unique=True)


@PROPERTY
@given(n_as.flatmap(lambda n_a: st.tuples(st.just(n_a), table_sizes(n_a))),
       feeds, st.lists(st.one_of(fs, st.floats(0.1, 8.0)), min_size=1,
                       max_size=4, unique=True))
# a 16-element tilted feeder reaches the surface at f = 1 and 4
@example((16, [8, 29, 30]), ("end", True), [1.0, 4.0, 40.0, 1e4])
@example((1, [1, 1024]), ("center", False), [0.1, 1e4])
@example((16, [1024]), ("end", False), [4.0, 40.0, 120.0])
def test_run_grid_records_equal_analyze_point(sizes, feed, f_values):
    n_a, n_p_list = sizes
    records = run_grid(n_a, n_p_list, f_values, *feed)
    assert [(r.n_p, r.f) for r in records] == sorted(
        (n_p, f) for n_p in n_p_list for f in f_values)
    for rec in records:
        point = analyze_or_none(n_a, rec.n_p, rec.f, *feed)
        if point is None:
            assert rec.metrics is None
        else:
            assert_same_metrics(rec.metrics, point[3])


@PROPERTY
@given(n_as, n_ps, fs)
@example(16, 1024, 1e4)
@example(16, 1024, 0.1)
@example(1, 1, 0.1)
def test_center_feed_T_is_its_own_mirror(n_a, n_p, f):
    T = build_T(make_center_feed(n_a, n_p, f)).entries
    assert np.array_equal(T, T[::-1, ::-1])


def flat_lines(n_a, n_p, x_feeder, x_surface, step, f_values, swapped):
    """A feeder line at each height of f_values over a surface line at
    z = 0, facing each other, element k of each at its x plus k*step;
    the feeder lines as the surface and the surface as the feeder where
    swapped."""
    surface = np.column_stack([x_surface + step * np.arange(n_p),
                               np.zeros(n_p)])
    feeders = np.stack([np.column_stack([x_feeder + step * np.arange(n_a),
                                         np.full(n_a, f)])
                        for f in f_values])
    if swapped:
        return feeders[0], DOWN, surface[None], UP[None]
    return surface, UP, feeders, np.tile(DOWN, (len(f_values), 1))


@PROPERTY
@given(n_as, n_ps, st.sampled_from(FLAT), f_lists)
@example(16, 1024, ("end", False), [0.1, 1e4])
@example(16, 1024, ("center", False), [0.1, 1e4])
@example(1, 1, ("center", False), [0.1])
@example(16, 1, ("end", False), [1e4])
def test_flat_feeds_build_T_per_offset(n_a, n_p, feed, f_values):
    f = np.array(f_values)
    arrays = _layout(n_a, n_p, f, *feed)
    assert_T_stack_bytes(arrays, f)


@PROPERTY
@given(n_as, n_ps, half_units, half_units,
       st.sampled_from([0.5, 1.0, -1.0, 2.0]), f_lists, st.booleans())
@example(16, 1024, -1048576.0, 1048576.0, 1.0, [0.1], False)
@example(16, 1024, 0.5, 0.0, -1.0, [1e4], True)
def test_hand_built_flat_lines_build_T_per_offset(n_a, n_p, x_feeder,
                                                 x_surface, step, f_values,
                                                 swapped):
    arrays = flat_lines(n_a, n_p, x_feeder, x_surface, step, f_values,
                        swapped)
    f = f_values[:1] if swapped else f_values
    assert_T_stack_bytes(arrays, f)


@PROPERTY
@given(n_as, st.integers(3, 1024), fs, st.booleans())
@example(16, 1024, 1e4, False)
@example(1, 3, 0.1, True)
def test_other_layouts_build_T_per_pair(n_a, n_p, f, swapped):
    # tilted end feeds, with the roles swapped or not
    arrays = _layout(n_a, n_p, np.array([f]), "end", True)
    assume(arrays[2][0, :, 1].min() > 0)    # clear of the surface
    if swapped:
        surface, up, feeders, boresights = arrays
        arrays = feeders[0], boresights[0], surface[None], up[None]
    assert_T_stack_bytes(arrays, [f])


@PROPERTY
@given(n_as, n_ps, feeds, fs)
@example(16, 1024, ("end", True), 1e4)
@example(16, 1, ("end", True), 0.1)
@example(16, 8, ("center", False), 8.0)
def test_reciprocity_under_role_swap(n_a, n_p, feed, f):
    point = analyze_or_none(n_a, n_p, f, *feed)
    assume(point is not None)
    _, T, modes, _ = point
    surface, up, feeders, boresights = _layout(n_a, n_p, np.array([f]),
                                               *feed)
    # the feeder as the surface and the surface as the feeder
    swapped = feeders[0], boresights[0], surface[None], up[None]
    T_swap = _T_stack(*swapped, [f])[0]
    assert np.allclose(T_swap, T.entries.T, atol=1e-15)
    # the swapped link's own sigma, min(N_a, N_p) of them
    s2 = np.linalg.svd(T_swap, compute_uv=False)
    assert np.allclose(modes.sigma[:len(s2)], s2, rtol=1e-12)


# Each rounding bound below is the worst measured over 30,000 random
# draws of this range (N_a 1 in four draws), in units of eps.
EPS = np.finfo(float).eps


def modes_at(n_a, n_p, feed, f):
    """analyze_point's scenario, T entries and modes, where defined."""
    point = analyze_or_none(n_a, n_p, f, *feed)
    assume(point is not None)
    scenario, T, modes, _ = point
    return scenario, T.entries, modes


@PROPERTY
@given(n_as, n_ps, feeds, fs)
@example(16, 1024, ("end", False), 1e4)
@example(16, 1024, ("center", False), 0.1)
def test_frobenius_identity(n_a, n_p, feed, f):
    _, T, modes = modes_at(n_a, n_p, feed, f)
    frobenius = np.linalg.norm(T) ** 2
    # measured worst: 69.9 eps, at (8, 951, 1.49) end
    assert abs(np.sum(modes.sigma ** 2) - frobenius) <= 70 * EPS * frobenius


@PROPERTY
@given(n_as, n_ps, feeds, fs)
@example(16, 1024, ("end", True), 1e4)
# a mirror tie: |v_1| peaks one ulp above its pivot's magnitude
@example(16, 35, ("center", False), 424.03613505212957)
def test_sigma_descending_and_v1_unit_with_real_pivot(n_a, n_p, feed, f):
    _, _, modes = modes_at(n_a, n_p, feed, f)
    assert np.all(np.diff(modes.sigma) <= 0) and modes.sigma[-1] >= 0
    v1 = modes.right_vectors[:, 0]
    # measured worst: 6 eps
    assert abs(np.linalg.norm(v1) - 1.0) <= 6 * EPS
    # the pivot, the largest-magnitude entry, is real and positive; where
    # a center feed's mirror makes two magnitudes equal, the phase factor
    # may leave the other one a last bit larger
    magnitude = np.abs(v1)
    pivot = magnitude[(v1.imag == 0) & (v1.real > 0)].max(initial=0.0)
    assert magnitude.max() <= pivot + np.spacing(pivot)


@PROPERTY
@given(n_as, n_ps, feeds, fs, st.data())
def test_variational_bound(n_a, n_p, feed, f, data):
    _, T, modes = modes_at(n_a, n_p, feed, f)
    power_1 = modes.sigma[0] ** 2
    # measured worst: 43.4 eps, at (3, 754, 0.889) end
    v1 = modes.right_vectors[:, 0]
    assert abs(np.linalg.norm(T @ v1) ** 2 - power_1) <= 44 * EPS * power_1
    b = np.array(data.draw(st.lists(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
        min_size=n_a, max_size=n_a)))
    b /= np.linalg.norm(b)
    # measured worst: 10.3 eps, where N_a = 1 makes every b a v_1
    assert np.linalg.norm(T @ b) ** 2 <= power_1 * (1 + 11 * EPS)


@PROPERTY
@given(n_ps, feeds, fs)
@example(1024, ("end", True), 0.1)
@example(1, ("center", False), 1e4)
def test_single_feeder_power(n_p, feed, f):
    scenario, _, modes = modes_at(1, n_p, feed, f)
    exact = single_feeder_power(scenario)
    # measured worst: 10.2 eps, at (1, 704, 0.158) center
    assert abs(modes.sigma[0] ** 2 - exact) <= 11 * EPS * exact


@PROPERTY
@given(st.integers(2, 36000), st.floats(-0.49, 0.49))
@example(2, 0.0)
@example(78, 0.0)       # linspace's broadside is -1.4e-14 here
@example(36000, 0.0)
def test_default_grid_is_antisymmetric(n, shift):
    grid = default_grid(180.0 / (n + shift))
    assert grid.size == n + 1
    assert grid[0] == -90.0 and grid[-1] == 90.0
    assert np.array_equal(grid, -grid[::-1])
    sin = np.sin(np.radians(grid))
    assert np.array_equal(sin, -sin[::-1])


@PROPERTY
@given(n_ps, st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
@example(1, 0, 0.0)
@example(1024, 0, 0.0)
@example(1024, 0, 0.99)
def test_real_weight_pattern_is_even_and_peaks_at_broadside(n, seed, zeros):
    # surface magnitudes over six decades, a drawn share of them zero
    rng = np.random.default_rng(seed)
    w = rng.random(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    w[rng.random(n) < zeros] = 0.0
    assume(w.any())
    grid = default_grid()
    _, (row,), _ = _patterns(w[:, None], grid)
    # BLAS may round the first and last field of a product differently,
    # so the +/-90 degree samples, where the element gain is 4 cos^2 of
    # 90 degrees (1.5e-32), mirror each other only to rounding
    assert np.array_equal(row[1:-1], row[-2:0:-1])
    assert abs(row[0] - row[-1]) <= 1e-12 * abs(row[0])
    assert np.argmax(row) == grid.size // 2


def _db_rows(n):
    """Rows of n samples on a 1 dB raster: ties and plateaus with peaks
    anywhere, monotone rows, single lobes, and rows with NaN cells."""
    cells = st.lists(st.integers(-4, 0).map(float), min_size=n, max_size=n)
    return st.one_of(
        cells,
        cells.map(sorted),
        cells.map(lambda c: sorted(c, reverse=True)),
        cells.map(lambda c: sorted(c[:n // 2]) + sorted(c[n // 2:],
                                                        reverse=True)),
        cells.map(lambda c: [np.nan if x == -4.0 else x for x in c]))


@PROPERTY
@given(st.integers(3, 40).flatmap(
    lambda n: st.lists(_db_rows(n), min_size=1, max_size=8)))
@example([[0.0, -1.0, -2.0], [-2.0, -1.0, 0.0], [-1.0, 0.0, -1.0],
          [0.0, -1.0, 0.0], [-1.0, -1.0, -1.0], [np.nan, -1.0, 0.0],
          [0.0, np.nan, -1.0], [-1.0, 0.0, np.nan]])
# every row peaking at column 0 (no left flank to walk), every row
# peaking at the last column, and a mix
@example([[0.0, -1.0, -2.0, -1.0, -3.0], [0.0, -2.0, -1.0, -1.0, -4.0],
          [0.0, -1.0, -1.0, -2.0, -3.0]])
@example([[-3.0, -1.0, -2.0, -1.0, 0.0], [-4.0, -4.0, -3.0, -2.0, 0.0]])
@example([[0.0, -1.0, -2.0, -1.0, -3.0], [-3.0, -1.0, -2.0, -1.0, 0.0],
          [-2.0, -1.0, 0.0, -1.0, -2.0], [0.0, -2.0, -1.0, -2.0, 0.0]])
def test_stacked_sidelobe_walk_matches_brute_force(rows):
    Y = np.array(rows)
    levels = _sidelobe_levels(Y)
    assert len(levels) == len(rows)
    angles = np.arange(Y.shape[1], dtype=float)
    for y, level in zip(Y, levels):
        want = brute_force_sidelobe(angles, y, relative=False)
        assert level is None or type(level) is float
        np.testing.assert_equal(level, want)
        steps = np.diff(y)
        if (steps <= 0).all() or (steps >= 0).all():
            assert level is None
