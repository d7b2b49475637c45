import numpy as np
import pytest

from risfeed.geometry import (ElementLayout, Scenario, make_center_feed,
                              make_end_feed)
from risfeed.coupling import element_gain, _pair_geometry, build_T
from risfeed.modes import svd_modes


class TestElementGain:
    def test_boresight_gain_is_4(self):
        assert element_gain(0.0) == pytest.approx(4.0)

    def test_half_power_at_45_deg(self):
        assert element_gain(np.pi / 4) == pytest.approx(2.0)

    def test_rear_hemisphere_clamped(self):
        assert element_gain(2 * np.pi / 3) == 0.0
        assert element_gain(np.pi) == 0.0

    def test_even_symmetry(self):
        thetas = np.linspace(0, np.pi, 181)
        assert np.allclose(element_gain(thetas), element_gain(-thetas))

    def test_vectorized(self):
        out = element_gain(np.array([0.0, np.pi / 4, np.pi]))
        assert np.allclose(out, [4.0, 2.0, 0.0])


class TestCouplingTerms:
    def test_facing_single_elements(self):
        r, theta, phi = _pair_geometry(make_center_feed(1, 1, 8))
        assert r[0, 0] == pytest.approx(8.0)
        assert theta[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert phi[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_pair_closed_form(self):
        # feeder element 0 at (-1.5, 4), surface element 7 at (3.5, 0)
        r, theta, phi = _pair_geometry(make_center_feed(4, 8, 4))
        assert r[7, 0] == pytest.approx(np.sqrt(41.0))
        assert theta[7, 0] == pytest.approx(np.arctan2(5.0, 4.0))
        assert phi[7, 0] == pytest.approx(np.arctan2(5.0, 4.0))

    def test_tilted_angles_from_rotated_boresight(self):
        sc = make_end_feed(4, 32, 16, tilted=True)
        # the surface centroid lies on the tilted boresight ray, so the
        # departure angle to a central element is nearly zero
        _, mid, _ = _pair_geometry(sc)
        assert mid[15, 1] < np.radians(3.0)
        _, flat, _ = _pair_geometry(make_end_feed(4, 32, 16, False))
        assert flat[15, 1] > np.radians(30.0)


class TestBuildT:
    def test_single_pair_magnitude(self):
        T = build_T(make_center_feed(1, 1, 8))
        power_db = 20 * np.log10(abs(T.entries[0, 0]))
        assert power_db == pytest.approx(10 * np.log10(1 / (16 * np.pi**2)),
                                         abs=1e-9)
        assert power_db == pytest.approx(-21.98, abs=0.01)

    def test_single_pair_phase_wraps_to_zero(self):
        T = build_T(make_center_feed(1, 1, 8))
        assert np.angle(T.entries[0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_friis_identity_for_facing_elements(self):
        for f in (1.0, 3.7, 8.0, 250.0):
            T = build_T(make_center_feed(1, 1, f))
            assert abs(T.entries[0, 0])**2 * (2 * np.pi * f)**2 == \
                pytest.approx(16.0, rel=1e-12)

    def test_magnitude_bound(self):
        sc = make_end_feed(4, 32, 16, tilted=True)
        T = build_T(sc)
        r_min = min(np.linalg.norm(p - q)
                    for p in sc.amaf.positions for q in sc.ris.positions)
        assert np.all(np.abs(T.entries) <= 4 / (2 * np.pi * r_min) + 1e-15)

    def test_center_feed_mirror_symmetry_exact(self):
        T = build_T(make_center_feed(4, 8, 4)).entries
        assert np.array_equal(T, T[::-1, ::-1])

    def test_reciprocity_swapped_roles(self):
        sc = make_center_feed(4, 8, 8)
        T = build_T(sc)
        swapped = Scenario(amaf=sc.ris, ris=sc.amaf, feed_style="center",
                           f=sc.f)
        T_swap = build_T(swapped)
        assert np.allclose(T_swap.entries, T.entries.T, atol=1e-15)
        s1 = svd_modes(T).sigma
        s2 = svd_modes(T_swap).sigma[:len(s1)]
        assert np.allclose(s1, s2, rtol=1e-12)

    def test_back_to_back_entries_are_zero(self):
        # both arrays facing away from each other: every pair has both
        # angles past 90 degrees
        amaf = ElementLayout(2, (0, 8), (1, 0), (0, 1))
        ris = ElementLayout(4, (0, 0), (1, 0), (0, -1))
        sc = Scenario(amaf=amaf, ris=ris, feed_style="center", f=8)
        T = build_T(sc)
        assert np.all(T.entries == 0)

    def test_downstream_sigma_matches_table(self):
        T = build_T(make_center_feed(4, 8, 8))
        s1_db = 20 * np.log10(svd_modes(T).sigma[0])
        assert s1_db == pytest.approx(-10.34, abs=0.05)

    def test_coincident_elements_rejected(self):
        amaf = ElementLayout(1, (0, 0), (1, 0), (0, -1))
        ris = ElementLayout(3, (0, 0), (1, 0), (0, 1))
        sc = Scenario(amaf=amaf, ris=ris, feed_style="center", f=1)
        with pytest.raises(ValueError,
                           match="coincident elements: surface 1, feeder 0"):
            build_T(sc)

