"""Whole-range model properties, drawn with hypothesis over N_a 1-16,
N_p 1-1024, f log-uniform over 0.1-1e4 and every feed.

Examples are derandomized, so every run checks the same scenarios. The
largest draw is a stack of 4 T at 1024 x 16, about 1 MB.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from risfeed.coupling import build_T
from risfeed.geometry import make_center_feed
from risfeed.sweep import _stacks

from oracles import analyze_or_none

FEEDS = [("center", False), ("end", False), ("end", True)]

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)

n_as = st.integers(1, 16)
n_ps = st.integers(1, 1024)
fs = st.floats(-1.0, 4.0).map(lambda e: 10.0 ** e)
feeds = st.sampled_from(FEEDS)


@PROPERTY
@given(n_as, n_ps, feeds, st.lists(fs, min_size=1, max_size=4, unique=True))
# the corners of the range; a 16-element tilted feeder at f = 0.1
# reaches the surface
@example(16, 1024, ("end", True), [0.1, 1e4])
@example(16, 1, ("end", False), [0.1, 1e4])
@example(1, 1, ("center", False), [0.1, 1e4])
@example(1, 1024, ("end", True), [0.1, 1e4])
def test_stack_points_equal_analyze_point(n_a, n_p, feed, f_values):
    feed_style, tilted = feed
    stacked = {}
    for index, M, sigma, right in _stacks(n_a, n_p, feed_style, tilted,
                                          f_values):
        for i, entries, s, V in zip(index, M, sigma, right, strict=True):
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
@given(n_as, n_ps, fs)
@example(16, 1024, 1e4)
@example(16, 1024, 0.1)
@example(1, 1, 0.1)
def test_center_feed_T_is_its_own_mirror(n_a, n_p, f):
    T = build_T(make_center_feed(n_a, n_p, f)).entries
    assert np.array_equal(T, T[::-1, ::-1])

