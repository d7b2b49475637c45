import math
import tracemalloc

import numpy as np
import pytest

from risfeed import coupling
from risfeed.geometry import (Scenario, _layout, make_center_feed,
                              make_end_feed)
from risfeed.coupling import (PropagationMatrix, element_gain,
                              _pair_geometry, _T_stack, build_T)
from risfeed.modes import svd_modes
from risfeed.sweep import _stacks

from oracles import (assert_T_stack_bytes, reference_T_stack,
                     scenario_arrays, single_feeder_power)


def pair_geometry(scenario):
    """_pair_geometry of one scenario's arrays."""
    surface, up, feeder, boresight = scenario_arrays(scenario)
    return _pair_geometry(surface, up, feeder[None], boresight[None])


def line(n, z, boresight):
    """A hand-built n-element line along x at height z, centered on x = 0,
    with its boresight."""
    x = np.arange(n) - (n - 1) / 2.0
    return np.column_stack([x, np.full(n, float(z))]), np.array(boresight,
                                                                dtype=float)


class TestElementGain:
    def test_boresight_gain_is_4(self):
        assert element_gain(0.0) == pytest.approx(4.0)

    def test_half_power_at_45_deg(self):
        assert element_gain(np.pi / 4) == pytest.approx(2.0)

    def test_rear_hemisphere_clamped(self):
        assert element_gain(2 * np.pi / 3) == 0.0
        assert element_gain(np.pi) == 0.0

    def test_rounded_cosine_at_90_deg(self):
        # cos(pi/2) rounds to 6.1e-17, not 0, so the gain is 1.5e-32
        assert element_gain(np.pi / 2) < 1e-31
        assert element_gain(-np.pi / 2) < 1e-31

    def test_even_symmetry(self):
        thetas = np.linspace(0, np.pi, 181)
        assert np.allclose(element_gain(thetas), element_gain(-thetas))

    def test_vectorized(self):
        out = element_gain(np.array([0.0, np.pi / 4, np.pi]))
        assert np.allclose(out, [4.0, 2.0, 0.0])


class TestCouplingTerms:
    def test_facing_single_elements(self):
        r, cos_theta, cos_phi = pair_geometry(make_center_feed(1, 1, 8))
        assert r[0, 0, 0] == pytest.approx(8.0)
        assert cos_theta[0, 0, 0] == 1.0
        assert cos_phi[0, 0, 0] == 1.0

    def test_diagonal_pair_closed_form(self):
        # feeder element 0 at (-1.5, 4), surface element 7 at (3.5, 0)
        r, cos_theta, cos_phi = pair_geometry(make_center_feed(4, 8, 4))
        assert r[0, 7, 0] == pytest.approx(np.sqrt(41.0))
        assert cos_theta[0, 7, 0] == pytest.approx(4.0 / np.sqrt(41.0))
        assert cos_phi[0, 7, 0] == pytest.approx(4.0 / np.sqrt(41.0))

    def test_tilted_angles_from_rotated_boresight(self):
        sc = make_end_feed(4, 32, 16, tilted=True)
        # the surface centroid lies on the tilted boresight ray, so the
        # departure angle to a central element is nearly zero
        _, mid, _ = pair_geometry(sc)
        assert mid[0, 15, 1] > np.cos(np.radians(3.0))
        _, flat, _ = pair_geometry(make_end_feed(4, 32, 16, False))
        assert flat[0, 15, 1] < np.cos(np.radians(30.0))


class TestSingleFeederOracle:
    """At N_a = 1, T is one column and sigma_1^2 = ||T||^2, an exact sum
    over the surface that starts from neither the rounded T nor an SVD."""

    @pytest.mark.parametrize("feed, tilted", [("center", False),
                                              ("end", False),
                                              ("end", True)])
    def test_sigma1_is_the_exact_friis_sum(self, feed, tilted):
        worst = 0.0
        for n_p in (8, 32, 128, 512, 1024):
            f_values = [q * n_p for q in (0.05, 0.1, 0.2, 0.5, 1, 2, 5, 20)]
            for index, _, sigma, _ in _stacks(1, n_p, feed, tilted,
                                              f_values):
                for i, s in zip(index, sigma, strict=True):
                    exact = single_feeder_power(
                        Scenario(1, n_p, f_values[i], feed, tilted))
                    ratio = float(s[0]) ** 2 / exact
                    worst = max(worst, abs(10.0 * math.log10(ratio)))
        # measured: at most 2.9e-15 dB
        assert worst <= 1e-14


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
        surface, _, feeder, _ = scenario_arrays(sc)
        r_min = min(np.linalg.norm(p - q) for p in feeder for q in surface)
        assert np.all(np.abs(T.entries) <= 4 / (2 * np.pi * r_min) + 1e-15)

    def test_center_feed_mirror_symmetry_exact(self):
        T = build_T(make_center_feed(4, 8, 4)).entries
        assert np.array_equal(T, T[::-1, ::-1])

    def test_reciprocity_swapped_roles(self):
        T = build_T(make_center_feed(4, 8, 8))
        # the feeder as the surface and the surface as the feeder
        surface, up = line(8, 0, (0, 1))
        feeder, down = line(4, 8, (0, -1))
        T_swap = _T_stack(feeder, down, surface[None], up[None], [8.0])[0]
        assert np.allclose(T_swap, T.entries.T, atol=1e-15)
        s1 = svd_modes(T).sigma
        s2 = svd_modes(PropagationMatrix(T_swap)).sigma[:len(s1)]
        assert np.allclose(s1, s2, rtol=1e-12)

    def test_back_to_back_entries_are_zero(self):
        # both arrays facing away from each other: every pair has both
        # angles past 90 degrees
        feeder, up = line(2, 8, (0, 1))
        surface, down = line(4, 0, (0, -1))
        assert np.all(_T_stack(surface, down, feeder[None], up[None],
                               [8.0]) == 0)

    def test_downstream_sigma_matches_table(self):
        T = build_T(make_center_feed(4, 8, 8))
        s1_db = 20 * np.log10(svd_modes(T).sigma[0])
        assert s1_db == pytest.approx(-10.34, abs=0.05)

    def test_coincident_elements_rejected(self):
        feeder, down = line(1, 0, (0, -1))
        surface, up = line(3, 0, (0, 1))
        with pytest.raises(ValueError,
                           match="coincident elements: surface 1, feeder 0"):
            _T_stack(surface, up, feeder[None], down[None], [1.0])


class TestLeanKernel:
    """The in-place _T_stack against reference_T_stack, the former
    out-of-place kernel. Tilted feeds are the cases where the order of the
    fused multiply-add in the cosine numerators shows; center and untilted
    end feeds are built per offset n - m."""

    F = np.array([0.7, 1.0, 2.5, 8.0, 37.3, 120.0, 1e3, 12345.678, 1e6,
                  1e7])

    @pytest.mark.parametrize("feed, tilted", [("center", False),
                                              ("end", False),
                                              ("end", True)])
    @pytest.mark.parametrize("n_a", [1, 3, 4, 16])
    def test_bits_match_former_kernel(self, feed, tilted, n_a):
        # N_p + N_a - 1 offsets on flat feeds, from 1 to 1039
        for n_p in (1, 2, 3, 7, 8, 127, 128, 1023, 1024):
            assert_T_stack_bytes(_layout(n_a, n_p, self.F, feed, tilted),
                                 self.F)
            # one distance at a time: a stack of one feeder
            assert_T_stack_bytes(
                _layout(n_a, n_p, self.F[3:4], feed, tilted), self.F[3:4])

    def test_bits_match_with_roles_swapped(self):
        surface, up = line(8, 0, (0, 1))
        feeder, down = line(4, 8, (0, -1))
        assert_T_stack_bytes((feeder, down, surface[None], up[None]), [8.0])
        surface, up, feeders, boresights = _layout(
            4, 32, np.array([16.0]), "end", True)
        assert_T_stack_bytes((feeders[0], boresights[0], surface[None],
                              up[None]), [16.0])

    def test_only_flat_feeds_are_shift_invariant(self):
        # the premise of the build per offset: the build per pair gives a
        # flat layout's T[n, m] from n - m alone, bit for bit
        def toeplitz(arrays):
            T = reference_T_stack(*arrays, self.F)
            return T[:, 1:, 1:].tobytes() == T[:, :-1, :-1].tobytes()

        for n_p in (2, 3, 8):
            assert toeplitz(_layout(4, n_p, self.F, "center", False))
            assert toeplitz(_layout(4, n_p, self.F, "end", False))
            assert not toeplitz(_layout(4, n_p, self.F, "end", True))

    @pytest.fixture
    def build(self, monkeypatch):
        """_T_stack, returning the name of the geometry it built T from."""
        built = []
        for name in ("_offset_geometry", "_pair_geometry"):
            def spy(*arrays, name=name, geometry=getattr(coupling, name)):
                built.append(name)
                return geometry(*arrays)
            monkeypatch.setattr(coupling, name, spy)

        def build(arrays, f):
            built.clear()
            _T_stack(*arrays, f)
            return built[0]
        return build

    def test_flat_stacks_build_per_offset_where_it_saves_pairs(self, build):
        # N_p + N_a - 1 offsets against N_p N_a pairs, at any size: small
        # stacks and single-f reports included
        one = self.F[3:4]
        flat = ([(4, n_p, self.F, feed) for n_p in (2, 3, 8, 128)
                 for feed in ("center", "end")]
                + [(4, n_p, one, feed) for n_p in (96, 160)
                   for feed in ("center", "end")]
                + [(16, 1024, self.F[:5], "center")])
        for n_a, n_p, f, feed in flat:
            assert build(_layout(n_a, n_p, f, feed, False), f) == \
                "_offset_geometry", (n_a, n_p, len(f), feed)

    def test_boresights_pick_the_build(self, build):
        one = self.F[3:4]
        # a flat layout with one element on either side saves no pairs and
        # is built per offset all the same; a tilted one over two or more
        # surface elements per pair
        flat = ([(4, 1, self.F, feed, False) for feed in ("center", "end")]
                + [(4, 1, self.F, "end", True), (1, 8, one, "center", False),
                   (1, 1024, self.F, "end", False)])
        tilted = [(n_a, n_p, f, "end", True)
                  for n_a, n_p, f in [(4, 2, self.F), (4, 8, self.F),
                                      (4, 128, self.F), (1, 1024, self.F),
                                      (16, 3, one), (4, 96, one)]]
        for layouts, geometry in [(flat, "_offset_geometry"),
                                  (tilted, "_pair_geometry")]:
            for n_a, n_p, f, feed, tilt in layouts:
                assert build(_layout(n_a, n_p, f, feed, tilt), f) == \
                    geometry, (n_a, n_p, len(f), feed, tilt)
        # roles swapped: one feeder as the surface, the surface as the
        # feeder; flat unless tilted over two or more surface elements
        for n_a, n_p in [(4, 1), (4, 2), (1, 8), (16, 160)]:
            for feed, tilted in [("center", False), ("end", False),
                                 ("end", True)]:
                surface, up, feeders, boresights = _layout(
                    n_a, n_p, one, feed, tilted)
                swapped = feeders[0], boresights[0], surface[None], up[None]
                flat = not tilted or n_p == 1
                assert build(swapped, one) == (
                    "_offset_geometry" if flat else "_pair_geometry"), (
                        n_a, n_p, feed, tilted)

    @pytest.mark.parametrize("n_s, n_f", [(8, 4), (7, 3), (3, 7), (2, 1)])
    def test_bits_match_on_hand_built_mirrored_layouts(self, n_s, n_f):
        # lines centered on x = 0: the first two layouts are their own
        # mirror images
        surface, up = line(n_s, 0, (0, 1))
        feeder, down = line(n_f, 8, (0, -1))
        layouts = [
            # roles swapped: the feeder line is the surface
            (feeder, down, surface[None], up[None]),
            # back to back: every entry is zero
            (surface, down, feeder[None], up[None]),
            # a feeder shifted half a unit along x
            (surface, up, feeder[None] + [0.5, 0.0], down[None])]
        for arrays in layouts:
            assert_T_stack_bytes(arrays, [8.0])
        # a stack of two feeders, the second so far that r overflows
        f = np.array([8.0, 1e308])
        swapped = np.stack([surface, surface + [0.0, 1e308 - 8.0]])
        arrays = (feeder, down, swapped, np.stack([up, up]))
        assert_T_stack_bytes(arrays, f)
        # a feeder shifted a quarter unit along x, or either boresight
        # turned off z
        tilt = np.array([0.6, -0.8])
        for arrays in [(surface, up, feeder[None] + [0.25, 0.0], down[None]),
                       (surface, up, feeder[None], tilt[None]),
                       (surface, -tilt, feeder[None], down[None])]:
            assert_T_stack_bytes(arrays, [8.0])

    def test_bits_match_back_to_back(self):
        feeder, up = line(2, 8, (0, 1))
        surface, down = line(4, 0, (0, -1))
        assert_T_stack_bytes((surface, down, feeder[None], up[None]), [8.0])

    def test_errors_match_former_kernel(self):
        feeder, down = line(1, 0, (0, -1))
        surface, up = line(3, 0, (0, 1))
        assert_T_stack_bytes((surface, up, feeder[None], down[None]), [1.0])
        # a flat feeder so low that r underflows to zero: the build per
        # pair names the pair
        arrays = (surface, up, feeder[None] + [0.0, 1e-200], down[None])
        with pytest.raises(ValueError,
                           match="^coincident elements: surface 1, feeder 0$"):
            _T_stack(*arrays, [1e-200])
        assert_T_stack_bytes(arrays, [1e-200])
        f = np.array([8.0, 1e308])
        assert_T_stack_bytes(_layout(4, 8, f, "center", False), f)

    def test_traced_peak_at_widest_table_stack(self):
        # 5 f at N_a 16 x N_p 1024, mode_table's widest stack: the result
        # is 1.31 MB; the former kernel peaked at 5,243,920 B, the build
        # per pair at 3,286,870 B and with a mirror copy at 2,100,622 B.
        # Measured 1,395,316 B: the result and its 5 x 1039 offsets'
        # entries, from which it is copied.
        f = np.array([4.0, 8.0, 16.0, 40.0, 120.0])
        arrays = _layout(16, 1024, f, "center", False)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _T_stack(*arrays, f)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1_396_000
