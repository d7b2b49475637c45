import numpy as np
import pytest

from risfeed.geometry import (ElementLayout, Scenario, build_linear_array,
                              make_center_feed, make_end_feed)


class TestBuildLinearArray:
    def test_single_element_at_centroid(self):
        arr = build_linear_array(1, (0, 0), (1, 0), (0, 1))
        assert arr.n == 1
        assert np.allclose(arr.positions, [[0, 0]])

    def test_eight_elements_symmetric(self):
        arr = build_linear_array(8, (0, 0), (1, 0), (0, 1))
        assert np.allclose(arr.positions[:, 0],
                           [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5])
        assert np.allclose(arr.positions[:, 1], 0.0)

    def test_four_elements_offset_centroid(self):
        arr = build_linear_array(4, (0, 8), (1, 0), (0, -1))
        assert np.allclose(arr.positions[:, 0], [-1.5, -0.5, 0.5, 1.5])
        assert np.allclose(arr.positions[:, 1], 8.0)

    def test_centroid_property(self):
        arr = build_linear_array(5, (2, 3), (0, 1), (1, 0))
        assert np.allclose(arr.centroid, [2, 3])

    def test_rejects_zero_elements(self):
        with pytest.raises(ValueError):
            build_linear_array(0, (0, 0), (1, 0), (0, 1))

    def test_rejects_non_orthogonal_axis(self):
        with pytest.raises(ValueError):
            build_linear_array(4, (0, 0), (1, 0), (1, 0))

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            build_linear_array(4, (0, 0), (2, 0), (0, 1))


class TestElementLayout:
    def test_rejects_non_unit_boresight(self):
        with pytest.raises(ValueError):
            ElementLayout(np.array([[0.0, 0.0]]), np.array([0.0, 2.0]))

    def test_rejects_nonuniform_spacing(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]])
        with pytest.raises(ValueError):
            ElementLayout(pos, np.array([0.0, 1.0]))


class TestCenterFeed:
    def test_table_row_1_geometry(self):
        sc = make_center_feed(4, 8, 4)
        assert sc.f_over_d == pytest.approx(0.5)
        assert np.allclose(sc.amaf.centroid, [0, 4])
        assert np.allclose(sc.ris.centroid, [0, 0])

    def test_single_elements_facing(self):
        sc = make_center_feed(1, 1, 8)
        assert np.allclose(sc.amaf.positions, [[0, 8]])
        assert np.allclose(sc.amaf.boresight, [0, -1])
        assert np.allclose(sc.ris.boresight, [0, 1])

    def test_half_f_over_d_large(self):
        sc = make_center_feed(4, 32, 16)
        assert sc.f_over_d == pytest.approx(0.5)
        assert np.allclose(sc.amaf.centroid, [0, 16])

    def test_mirror_symmetry(self):
        sc = make_center_feed(4, 8, 4)
        for layout in (sc.amaf, sc.ris):
            mirrored = layout.positions * np.array([-1.0, 1.0])
            assert np.allclose(np.sort(mirrored[:, 0]),
                               np.sort(layout.positions[:, 0]))

    def test_rejects_nonpositive_f(self):
        for f in (0, -1, np.nan, np.inf):
            with pytest.raises(ValueError):
                make_center_feed(4, 8, f)


class TestEndFeed:
    def test_untilted_anchor_and_boresight(self):
        sc = make_end_feed(4, 128, 80, tilted=False)
        assert np.allclose(sc.amaf.centroid, [-63.5, 80])
        assert np.allclose(sc.amaf.boresight, [0, -1])

    def test_tilt_angle(self):
        sc = make_end_feed(4, 128, 80, tilted=True)
        alpha = np.arccos(float(sc.amaf.boresight @ np.array([0.0, -1.0])))
        assert np.degrees(alpha) == pytest.approx(
            np.degrees(np.arctan2(63.5, 80)), abs=1e-9)
        assert np.degrees(alpha) == pytest.approx(38.44, abs=0.01)

    def test_tilted_boresight_hits_ris_centroid(self):
        for n_p, f in [(32, 16), (128, 80), (128, 110)]:
            sc = make_end_feed(4, n_p, f, tilted=True)
            c = sc.amaf.centroid
            d = sc.amaf.boresight
            # distance from the RIS centroid (origin) to the boresight ray
            t = -(c @ d)
            assert t > 0
            miss = np.linalg.norm(c + t * d)
            assert miss < 1e-9

    def test_tilt_preserves_pairwise_distances(self):
        flat = make_end_feed(4, 128, 80, tilted=False).amaf.positions
        tilt = make_end_feed(4, 128, 80, tilted=True).amaf.positions
        for pts in (flat, tilt):
            d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            assert np.allclose(d, 1.0, atol=1e-12)

    def test_small_tilted_end_feed(self):
        sc = make_end_feed(4, 32, 16, tilted=True)
        assert sc.feed_style == "end"
        assert sc.tilted
        assert np.allclose(sc.amaf.centroid, [-15.5, 16])

    def test_rejects_nonpositive_f(self):
        for f in (0, np.nan, np.inf):
            for tilted in (False, True):
                with pytest.raises(ValueError):
                    make_end_feed(4, 32, f, tilted)


class TestScenario:
    def test_rejects_unknown_feed_style(self):
        sc = make_center_feed(2, 2, 4)
        with pytest.raises(ValueError):
            Scenario(amaf=sc.amaf, ris=sc.ris, feed_style="corner", f=4)

    def test_rejects_tilted_center(self):
        sc = make_center_feed(2, 2, 4)
        with pytest.raises(ValueError):
            Scenario(amaf=sc.amaf, ris=sc.ris, feed_style="center", f=4,
                     tilted=True)
