import numpy as np
import pytest

from risfeed.geometry import (Scenario, _layout, make_center_feed,
                              make_end_feed)
from risfeed.sweep import _stacks

from oracles import scenario_arrays


class TestElementLines:
    def test_eight_elements_symmetric(self):
        surface, *_ = scenario_arrays(make_center_feed(1, 8, 4))
        assert np.allclose(surface[:, 0],
                           [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5])
        assert np.allclose(surface[:, 1], 0.0)

    def test_four_elements_offset_centroid(self):
        _, _, feeder, _ = scenario_arrays(make_center_feed(4, 8, 8))
        assert np.allclose(feeder[:, 0], [-1.5, -0.5, 0.5, 1.5])
        assert np.allclose(feeder[:, 1], 8.0)

    def test_rejects_zero_elements(self):
        for n_a, n_p in ((0, 8), (4, 0)):
            with pytest.raises(ValueError, match="must be >= 1"):
                Scenario(n_a, n_p, 8.0, "center")


class TestCenterFeed:
    def test_table_row_1_geometry(self):
        sc = make_center_feed(4, 8, 4)
        assert (sc.n_a, sc.n_p, sc.f) == (4, 8, 4)
        surface, _, feeder, _ = scenario_arrays(sc)
        assert np.allclose(feeder.mean(axis=0), [0, 4])
        assert np.allclose(surface.mean(axis=0), [0, 0])

    def test_single_elements_facing(self):
        surface, up, feeder, down = scenario_arrays(make_center_feed(1, 1, 8))
        assert np.allclose(feeder, [[0, 8]])
        assert np.allclose(down, [0, -1])
        assert np.allclose(up, [0, 1])

    def test_half_f_over_d_large(self):
        sc = make_center_feed(4, 32, 16)
        assert sc.f / sc.n_p == pytest.approx(0.5)
        assert np.allclose(scenario_arrays(sc)[2].mean(axis=0), [0, 16])

    def test_mirror_symmetry(self):
        surface, _, feeder, _ = scenario_arrays(make_center_feed(4, 8, 4))
        for positions in (feeder, surface):
            mirrored = positions * np.array([-1.0, 1.0])
            assert np.allclose(np.sort(mirrored[:, 0]),
                               np.sort(positions[:, 0]))

    def test_rejects_nonpositive_f(self):
        for f in (0, -1, np.nan, np.inf):
            with pytest.raises(ValueError):
                make_center_feed(4, 8, f)


class TestEndFeed:
    def test_untilted_anchor_and_boresight(self):
        sc = make_end_feed(4, 128, 80, tilted=False)
        _, _, feeder, bore = scenario_arrays(sc)
        assert np.allclose(feeder.mean(axis=0), [-63.5, 80])
        assert np.allclose(bore, [0, -1])

    def test_tilt_angle(self):
        _, _, _, bore = scenario_arrays(make_end_feed(4, 128, 80, tilted=True))
        alpha = np.arccos(float(bore @ np.array([0.0, -1.0])))
        assert np.degrees(alpha) == pytest.approx(
            np.degrees(np.arctan2(63.5, 80)), abs=1e-9)
        assert np.degrees(alpha) == pytest.approx(38.44, abs=0.01)

    def test_tilted_boresight_hits_ris_centroid(self):
        for n_p, f in [(32, 16), (128, 80), (128, 110)]:
            sc = make_end_feed(4, n_p, f, tilted=True)
            _, _, feeder, d = scenario_arrays(sc)
            c = feeder.mean(axis=0)
            # distance from the RIS centroid (origin) to the boresight ray
            t = -(c @ d)
            assert t > 0
            miss = np.linalg.norm(c + t * d)
            assert miss < 1e-9

    def test_tilt_preserves_pairwise_distances(self):
        flat = scenario_arrays(make_end_feed(4, 128, 80, tilted=False))[2]
        tilt = scenario_arrays(make_end_feed(4, 128, 80, tilted=True))[2]
        for pts in (flat, tilt):
            d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            assert np.allclose(d, 1.0, atol=1e-12)

    def test_small_tilted_end_feed(self):
        sc = make_end_feed(4, 32, 16, tilted=True)
        assert sc.feed_style == "end"
        assert sc.tilted
        assert np.allclose(scenario_arrays(sc)[2].mean(axis=0), [-15.5, 16])

    def test_rejects_nonpositive_f(self):
        for f in (0, np.nan, np.inf):
            for tilted in (False, True):
                with pytest.raises(ValueError):
                    make_end_feed(4, 32, f, tilted)

    def test_rejects_tilted_feeder_below_surface(self):
        # 7 of 16 elements rotate to z < 0 (min z -6.21)
        with pytest.raises(ValueError, match=r"7 of 16 elements at z <= 0"):
            make_end_feed(16, 8, 1, tilted=True)
        # the same feeder flat, or tilted at a larger f, stays above it
        assert make_end_feed(16, 8, 1, tilted=False).n_a == 16
        feeder = scenario_arrays(make_end_feed(16, 32, 8, tilted=True))[2]
        assert 0 < feeder[:, 1].min() < 2


class TestLayout:
    @pytest.mark.parametrize("feed, tilted", [("center", False),
                                              ("end", False),
                                              ("end", True)])
    def test_feeders_are_rigid_unit_lines(self, feed, tilted):
        # every feeder is a line of unit spacing centered at (x0, f),
        # facing a unit boresight orthogonal to the line
        for n_a, n_p in ((2, 1), (3, 8), (4, 128), (16, 5)):
            f = np.geomspace(0.5, 4000.0, 97) + n_a
            x0 = -(n_p - 1) / 2.0 if feed == "end" else 0.0
            _, up, feeders, bores = _layout(n_a, n_p, f, feed, tilted)
            assert np.array_equal(up, [0.0, 1.0])
            assert feeders.shape == (f.size, n_a, 2)
            axis = np.diff(feeders, axis=1).mean(axis=1)
            assert np.allclose(np.linalg.norm(axis, axis=1), 1.0, atol=1e-12)
            assert np.allclose(np.linalg.norm(bores, axis=1), 1.0,
                               atol=1e-15)
            assert np.allclose(np.sum(axis * bores, axis=1), 0.0, atol=1e-12)
            centroids = feeders.mean(axis=1)
            assert np.allclose(centroids[:, 0], x0, rtol=0, atol=1e-12)
            assert np.allclose(centroids[:, 1], f, rtol=1e-12)
            # a one-element feeder sits at its centroid exactly
            one = _layout(1, n_p, f, feed, tilted)[2]
            assert one.shape == (f.size, 1, 2)
            assert np.array_equal(one[:, 0], np.column_stack(
                [np.full_like(f, x0), f]))

    @pytest.mark.parametrize("feed, tilted", [("center", False),
                                              ("end", False),
                                              ("end", True)])
    @pytest.mark.parametrize("n_a", [1, 2, 3, 128, 1024])
    @pytest.mark.parametrize("n_p", [1, 2, 3, 128, 1024])
    def test_flat_layouts_hold_the_offset_build_premises(self, n_a, n_p,
                                                         feed, tilted):
        # exactly what coupling._offset_geometry assumes of a flat layout
        f = np.array([1e-300, 0.5, 8.0, 1e6])
        surface, up, feeders, bores = _layout(n_a, n_p, f, feed, tilted)
        flat = not tilted or n_p == 1
        assert up[0] == 0.0 and bores[:, 0].any() != flat
        if not flat:
            return
        for x in (surface[:, 0], feeders[..., 0]):
            # a multiple of 1/2 below 2**51, one unit step along the array
            assert (np.floor(2.0 * x) == 2.0 * x).all()
            assert (np.abs(x) < 2.0 ** 51).all()
            assert (np.diff(x, axis=-1) == 1.0).all()
        assert (surface[:, 1] == 0.0).all()
        assert (feeders[..., 1] == f[:, None]).all()
        # a zero x-component, -0.0 for a tilted feed over one element
        assert (bores[:, 0] == 0.0).all()
        assert (np.signbit(bores[:, 0]) == tilted).all()


def per_element_clear(n_a, n_p, f):
    """Whether every element of the tilted end feed at each f lies above
    z = 0: z_k = f + (k - (n_a-1)/2) sin(alpha), alpha = arctan2(-x0, f),
    x0 = -(n_p-1)/2, one element at a time in Python floats."""
    x0 = -(n_p - 1) / 2.0
    return [all(float(fi) + (k - (n_a - 1) / 2.0)
                * float(np.sin(np.arctan2(-x0, fi))) > 0 for k in range(n_a))
            for fi in f]


def straddling_f(n_a, n_p):
    """Distances around the one where the tilted end feed's lowest element
    reaches z = 0: a coarse grid and the 40 floats on each side of the
    boundary found by bisection."""
    x0 = -(n_p - 1) / 2.0

    def lowest(f):
        return f - (n_a - 1) / 2.0 * abs(np.sin(np.arctan2(-x0, f)))
    lo, hi = 1e-9, float(n_a)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if lowest(mid) <= 0 else (lo, mid)
    near = [hi]
    for _ in range(40):
        near = [np.nextafter(near[0], 0.0)] + near + [
            np.nextafter(near[-1], np.inf)]
    return np.array(sorted(set(near) | set(np.linspace(0.05, 2.0 * n_a,
                                                       61))))


class TestClearance:
    @pytest.mark.parametrize("n_a", [2, 3, 4, 7, 16, 33])
    @pytest.mark.parametrize("n_p", [1, 2, 8, 31, 128])
    def test_rule_scan_and_end_feed_agree_per_element(self, n_a, n_p):
        f = straddling_f(n_a, n_p)
        want = per_element_clear(n_a, n_p, f)
        z = _layout(n_a, n_p, f, "end", True)[2][..., 1]
        assert (z > 0).all(axis=1).tolist() == want
        scanned = {i for index, *_ in _stacks(n_a, n_p, "end", True,
                                              f.tolist())
                   for i in index}
        assert [i in scanned for i in range(f.size)] == want
        for fi, ok in zip(f.tolist(), want):
            if ok:
                assert make_end_feed(n_a, n_p, fi, True).f == fi
            else:
                with pytest.raises(ValueError,
                                   match="tilted feeder reaches the surface"):
                    make_end_feed(n_a, n_p, fi, True)
        if n_p > 1:
            # the boundary lies inside the grid: both sides are present
            assert any(want) and not all(want)

    def test_end_feed_x0_is_the_first_surface_element(self):
        # a one-element tilted end feeder sits at the first surface
        # element's x, bit for bit, sign of zero included: +0.0 at N_p = 1
        for n_p in range(1, 1025):
            surface, _, feeders, _ = _layout(1, n_p, np.array([8.0]), "end",
                                             True)
            assert feeders[0, 0, 0].tobytes() == surface[0, 0].tobytes(), n_p

    def test_untilted_feeders_always_clear(self):
        f = np.array([1e-300, 1e-9, 0.5, 8.0, 1e300])
        for feed in ("center", "end"):
            assert (_layout(1024, 1024, f, feed, False)[2][..., 1] > 0).all()


class TestScenario:
    def test_rejects_unknown_feed_style(self):
        with pytest.raises(ValueError, match="feed 'corner'"):
            Scenario(2, 2, 4, "corner")

    def test_rejects_tilted_center(self):
        with pytest.raises(ValueError, match="feed 'center'"):
            Scenario(2, 2, 4, "center", tilted=True)

    def test_is_its_parameters(self):
        sc = Scenario(4, 8, 2.5, "end", True)
        assert vars(sc) == {"n_a": 4, "n_p": 8, "f": 2.5,
                            "feed_style": "end", "tilted": True}
        assert sc == make_end_feed(4, 8, 2.5, True)
        with pytest.raises(AttributeError):
            sc.f = 3.0
