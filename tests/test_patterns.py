import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import risfeed
from risfeed import patterns
from risfeed.cli import main
from risfeed.geometry import make_center_feed, make_end_feed
from risfeed.coupling import build_T, element_gain
from risfeed.modes import BeamVector, svd_modes, nonpem_vector, power_transfer
from risfeed.patterns import (PatternCurve, steering_vector, amaf_pattern,
                              ris_excitation, ris_pattern, sidelobe_level,
                              default_grid, write_pattern_csv,
                              write_profile_csv)
from risfeed.sweep import optimize_f

from oracles import brute_force_sidelobe


def end_feed_setup(n_p=128, f=110.0, tilted=True):
    sc = make_end_feed(4, n_p, f, tilted=tilted)
    T = build_T(sc)
    m = svd_modes(T)
    return T, m


class TestSteeringVector:
    def test_broadside_all_ones(self):
        assert np.allclose(steering_vector(6, 0.0), np.ones(6))

    def test_endfire_two_elements(self):
        assert np.allclose(steering_vector(2, np.pi / 2), [1.0, -1.0])

    def test_30_deg_phases(self):
        a = steering_vector(4, np.pi / 6)
        expected = np.exp(-1j * np.pi * np.arange(4) * 0.5)
        assert np.allclose(a, expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            steering_vector(0, 0.0)

    def test_angle_array_gives_one_row_per_angle(self):
        theta = np.radians(default_grid(0.5))
        rows = steering_vector(16, theta)
        assert rows.shape == (theta.size, 16)
        assert np.array_equal(rows,
                              np.stack([steering_vector(16, t)
                                        for t in theta]))


class TestSteeringReuse:
    """Patterns reuse the last steering matrix built; every curve must be
    bit for bit the one a fresh build gives."""

    def test_interleaved_calls_match_first_calls(self):
        T, m = end_feed_setup(32, 16.0)
        b = m.beam(0)
        grid = default_grid(0.5)
        shifted = grid + 0.25    # same length, other angles
        first = {}
        calls = [("amaf", grid), ("ris", grid), ("amaf", shifted),
                 ("ris", shifted), ("amaf", grid), ("ris", grid)]
        for _ in range(2):
            for kind, g in calls:
                curve = (amaf_pattern(b, g) if kind == "amaf"
                         else ris_pattern(T, b, g))
                key = (kind, g[0])
                first.setdefault(key, curve.power_dbi)
                assert np.array_equal(curve.power_dbi, first[key]), key

    def test_caller_mutating_its_grid(self):
        b = BeamVector(np.array([0.6, 0.0, 0.8j, 0.0], dtype=complex))
        grid = default_grid(0.5)
        expected = amaf_pattern(b, grid + 1.0).power_dbi
        before = amaf_pattern(b, grid).power_dbi
        grid += 1.0      # in place, after the call
        assert np.array_equal(amaf_pattern(b, grid).power_dbi, expected)
        grid -= 1.0
        assert np.array_equal(amaf_pattern(b, grid).power_dbi, before)

    def test_curve_owns_its_angles(self):
        T, m = end_feed_setup(32, 16.0)
        b = m.beam(0)
        for pattern in (lambda g: amaf_pattern(b, g),
                        lambda g: ris_pattern(T, b, g)):
            grid = default_grid(1.0)
            curve = pattern(grid)
            angles, peak = curve.angles_deg.copy(), curve.peak_angle_deg
            grid += 5.0      # in place, after the call
            assert np.array_equal(curve.angles_deg, angles)
            k = int(np.argmax(curve.power_dbi))
            assert curve.angles_deg[k] == peak

    def test_optimize_f_trace_matches_fresh_patterns(self):
        f_values = [100.0, 110.0, 120.0]
        _, trace = optimize_f(4, 128, "end", True, "nonpem", f_values)
        mags = []
        for f in f_values:
            T, m = end_feed_setup(128, f)
            b = nonpem_vector(m.beam(0))
            mags.append(ris_excitation(T, b))
        amaf_pattern(b, default_grid(1.0))     # leave another grid behind
        curves = patterns._patterns(np.column_stack(mags), None)
        assert trace == [(f, sidelobe_level(c))
                         for f, c in zip(f_values, curves)]


    # the widest-matrix memo: one steering matrix per grid, narrower
    # arrays use its first n columns

    @staticmethod
    def reset_memo():
        patterns._steering[0] = (np.empty(0), patterns._NO_ROWS, np.empty(0))

    @staticmethod
    def surface(n_p):
        T = build_T(make_center_feed(4, n_p, 80.0))
        return T, svd_modes(T).beam(0)

    def test_growing_memo_matches_cold_builds(self):
        grid = default_grid()
        shifted = grid + 0.025   # same length, other angles
        _, b4 = self.surface(8)
        surfaces = {n: self.surface(n) for n in (96, 160, 200)}

        def ris(n):
            return lambda: ris_pattern(*surfaces[n], grid)

        calls = [("ris 160", ris(160)),
                 ("amaf 4", lambda: amaf_pattern(b4, grid)),
                 ("ris 96", ris(96)), ("ris 160", ris(160)),
                 ("ris 200", ris(200)),
                 ("amaf 4 shifted", lambda: amaf_pattern(b4, shifted))]
        self.reset_memo()
        warm = [call().power_dbi for _, call in calls]
        assert patterns._steering[0][1].shape[1] == 4
        for (name, call), got in zip(calls, warm):
            self.reset_memo()
            assert np.array_equal(got, call().power_dbi), name

    def test_narrower_and_equal_arrays_reuse_widest_matrix(self):
        grid = default_grid(0.5)
        T, b = self.surface(200)
        self.reset_memo()
        ris_pattern(T, b, grid)
        rows = patterns._steering[0][1]
        assert rows.shape == (grid.size, 200)
        ris_pattern(T, b, grid)
        ris_pattern(*self.surface(96), grid)
        amaf_pattern(b, grid)
        assert patterns._steering[0][1] is rows

    def test_grid_change_frees_widest_matrix(self):
        T, b = self.surface(200)
        self.reset_memo()
        ris_pattern(T, b)
        widest = weakref.ref(patterns._steering[0][1])
        assert widest() is not None
        amaf_pattern(b, default_grid(0.5))
        assert widest() is None
        assert patterns._steering[0][1].shape[1] == 4

    def test_growth_frees_old_matrix_before_build(self, monkeypatch):
        grid = default_grid(0.5)
        self.reset_memo()
        ris_pattern(*self.surface(96), grid)
        old = weakref.ref(patterns._steering[0][1])
        alive, gains = [], []
        build, gain = patterns.steering_vector, patterns.element_gain

        def spy_build(n, theta):
            alive.append(old() is not None)
            return build(n, theta)

        def spy_gain(theta):
            gains.append(theta)
            return gain(theta)

        monkeypatch.setattr(patterns, "steering_vector", spy_build)
        monkeypatch.setattr(patterns, "element_gain", spy_gain)
        ris_pattern(*self.surface(160), grid)
        assert alive == [False]
        assert gains == []     # same grid: the gain is kept
        assert patterns._steering[0][1].shape == (grid.size, 160)

    def test_cli_patterns_match_fresh_interpreters(self, tmp_path):
        commands = ["pattern --array ris --np 160 --f 80",
                    "pattern --np 128 --f 80",
                    "pattern --array ris --np 128 --f 80"]
        self.reset_memo()
        for i, command in enumerate(commands):
            warm = tmp_path / f"w{i}"
            assert main(command.split() + ["--out", str(warm)]) == 0
        src = str(Path(risfeed.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for i, command in enumerate(commands):
            cold = tmp_path / f"c{i}"
            subprocess.run([sys.executable, "-m", "risfeed.cli"]
                           + command.split() + ["--out", str(cold)],
                           env=env, check=True)
            assert (tmp_path / f"w{i}").read_bytes() == cold.read_bytes(), \
                command


class TestAmafPattern:
    def test_uniform_broadside_peak(self):
        b = BeamVector(np.full(4, 0.5, dtype=complex))
        curve = amaf_pattern(b)
        assert curve.peak_angle_deg == pytest.approx(0.0)
        assert curve.peak_dbi == pytest.approx(10 * np.log10(4) + 6.0206,
                                               abs=1e-3)

    def test_single_element_is_element_pattern(self):
        b = BeamVector(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        grid = np.array([-60.0, -30.0, 0.0, 30.0, 60.0])
        curve = amaf_pattern(b, grid)
        expected = 10 * np.log10(element_gain(np.radians(grid)))
        assert np.allclose(curve.power_dbi, expected, atol=1e-9)
        assert curve.peak_dbi == pytest.approx(6.0206, abs=1e-3)

    def test_nonpem_peak_split(self):
        # untilted end feed: array factor and element factor at broadside
        T, m = end_feed_setup(tilted=False)
        b = nonpem_vector(m.beam(0))
        curve = amaf_pattern(b)
        af_db = 10 * np.log10(abs(np.sum(b.weights.real)) ** 2)
        assert curve.peak_angle_deg == pytest.approx(0.0)
        assert curve.peak_dbi == pytest.approx(af_db + 6.0206, abs=1e-6)
        assert curve.peak_dbi == pytest.approx(11.95, abs=0.05)

    def test_even_symmetry_for_real_weights(self):
        b = BeamVector(np.array([0.3, 0.5, 0.7, np.sqrt(1 - 0.83)],
                                dtype=complex))
        grid = np.linspace(-80, 80, 321)
        curve = amaf_pattern(b, grid)
        assert np.allclose(curve.power_dbi, curve.power_dbi[::-1], atol=1e-9)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w /= np.linalg.norm(w)
        grid = np.linspace(-90, 90, 361)
        p1 = amaf_pattern(BeamVector(w), grid)
        p2 = amaf_pattern(BeamVector(w * np.exp(1j * 0.77)), grid)
        assert np.allclose(p1.power_dbi, p2.power_dbi, atol=1e-9)

    def test_norm_and_peak_consistency(self):
        T, m = end_feed_setup()
        curve = amaf_pattern(m.beam(0))
        assert np.max(curve.power_norm_db) == 0.0
        assert np.allclose(curve.power_dbi - curve.power_norm_db,
                           curve.peak_dbi)

    def test_rejects_empty_grid(self):
        b = BeamVector(np.array([1.0], dtype=complex))
        with pytest.raises(ValueError):
            amaf_pattern(b, np.array([]))

    def test_pem_untilted_points_toward_surface_center(self):
        # surface center sits on the positive-angle side of the feeder
        T, m = end_feed_setup(tilted=False)
        curve = amaf_pattern(m.beam(0))
        assert curve.peak_angle_deg > 5.0

    def test_pem_tilted_steers_to_other_side(self):
        T, m = end_feed_setup(tilted=True)
        curve = amaf_pattern(m.beam(0))
        assert curve.peak_angle_deg < -2.0


class TestRisExcitation:
    def test_parseval(self):
        T, m = end_feed_setup(32, 16.0)
        b = m.beam(0)
        mags = ris_excitation(T, b)
        assert np.sum(mags**2) == pytest.approx(
            power_transfer(T, b), rel=1e-12)

    def test_center_feed_palindromic(self):
        sc = make_center_feed(4, 16, 8)
        T = build_T(sc)
        mags = ris_excitation(T, svd_modes(T).beam(0))
        assert np.allclose(mags, mags[::-1], atol=1e-9)

    def test_nonpem_flatter_than_pem(self):
        T, m = end_feed_setup()
        cv = lambda x: np.std(x) / np.mean(x)
        pem = ris_excitation(T, m.beam(0))
        nonpem = ris_excitation(T, nonpem_vector(m.beam(0)))
        assert cv(nonpem) < cv(pem)

    def test_frozen_profile_shape(self):
        # regression: peak element indices for the f=110 end feed
        T, m = end_feed_setup()
        pem = ris_excitation(T, m.beam(0))
        nonpem = ris_excitation(T, nonpem_vector(m.beam(0)))
        assert int(np.argmax(pem)) + 1 == 36
        assert int(np.argmax(nonpem)) + 1 == 53

    def test_element_index_one_based(self, tmp_path):
        T, _ = end_feed_setup(8, 4.0)
        mags = ris_excitation(T, BeamVector(np.eye(4)[0].astype(complex)))
        path = tmp_path / "e.csv"
        write_profile_csv(mags, path)
        rows = path.read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(1, 9))

    def test_dimension_mismatch(self):
        T, _ = end_feed_setup(8, 4.0)
        for fn in (ris_excitation, ris_pattern):
            with pytest.raises(ValueError,
                               match="beam length 2 != feeder size 4"):
                fn(T, BeamVector(np.array([1.0, 0.0])))


class TestRisPattern:
    def test_uniform_aperture_first_sidelobe(self):
        grid = default_grid()
        x = np.ones(128, dtype=complex) / np.sqrt(128)
        curve = amaf_pattern(BeamVector(x), grid)
        sll = sidelobe_level(curve)
        assert sll == pytest.approx(-13.26, abs=0.1)

    def test_broadside_cophase_peaks_at_zero(self):
        for feed, tilted in (("center", False), ("end", True)):
            if feed == "center":
                sc = make_center_feed(4, 32, 16)
            else:
                sc = make_end_feed(4, 32, 16, tilted=tilted)
            T = build_T(sc)
            m = svd_modes(T)
            curve = ris_pattern(T, m.beam(0), np.linspace(-90, 90, 1801))
            assert curve.peak_angle_deg == pytest.approx(0.0, abs=0.2)

    def test_center_feed_low_sidelobes(self):
        sc = make_center_feed(4, 128, 80)
        T = build_T(sc)
        curve = ris_pattern(T, svd_modes(T).beam(0))
        assert sidelobe_level(curve) < -50.0

    def test_rejects_all_zero_excitation(self):
        T, _ = end_feed_setup(8, 4.0)
        from risfeed.coupling import PropagationMatrix
        Tz = PropagationMatrix(entries=np.zeros_like(T.entries))
        with pytest.raises(ValueError, match="all-zero surface excitation"):
            ris_pattern(Tz, BeamVector(np.eye(4)[0].astype(complex)))
        # one all-zero column fails the whole batch
        x = ris_excitation(T, svd_modes(T).beam(0))
        with pytest.raises(ValueError, match="all-zero surface excitation"):
            patterns._patterns(np.column_stack([x, np.zeros_like(x), x]),
                               None)

    def test_grid_refinement_stability(self):
        T, m = end_feed_setup(32, 16.0)
        c1 = ris_pattern(T, m.beam(0), default_grid(0.05))
        c2 = ris_pattern(T, m.beam(0), default_grid(0.025))
        assert abs(c1.peak_dbi - c2.peak_dbi) < 0.01


class TestSidelobeLevel:
    def test_matches_brute_force_scan(self):
        T, m = end_feed_setup(32, 16.0)
        curve = ris_pattern(T, nonpem_vector(m.beam(0)))
        got = sidelobe_level(curve)
        ref = brute_force_sidelobe(curve.angles_deg, curve.power_dbi)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_single_lobe_returns_none(self):
        b = BeamVector(np.array([1.0], dtype=complex))
        curve = amaf_pattern(b)
        assert sidelobe_level(curve) is None

    def test_two_element_cos_weighted_vs_dense_scan(self):
        w = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
        coarse = amaf_pattern(BeamVector(w), default_grid(0.05))
        dense = amaf_pattern(BeamVector(w), default_grid(0.005))
        got = sidelobe_level(coarse)
        ref = brute_force_sidelobe(dense.angles_deg, dense.power_dbi)
        if got is None:
            assert ref is None
        else:
            assert got == pytest.approx(ref, abs=0.05)

    def test_matches_walk_on_plateaus_and_ties(self):
        rng = np.random.default_rng(17)
        nones = 0
        for trial in range(3000):
            n = int(rng.integers(3, 40))
            if trial % 2:
                y = rng.integers(0, 4, n).astype(float)   # plateaus, ties
            else:
                y = np.round(rng.standard_normal(n), 1)
            y -= y.max()
            curve = PatternCurve(angles_deg=np.arange(n, dtype=float),
                                 power_dbi=y, power_norm_db=y,
                                 peak_angle_deg=0.0, peak_dbi=0.0)
            got = sidelobe_level(curve)
            ref = brute_force_sidelobe(curve.angles_deg, y)
            assert got == ref, (y, got, ref)
            nones += got is None
        assert 0 < nones < 3000

    def test_requires_three_samples(self):
        curve = PatternCurve(angles_deg=np.array([0.0, 1.0]),
                             power_dbi=np.array([0.0, -1.0]),
                             power_norm_db=np.array([0.0, -1.0]),
                             peak_angle_deg=0.0, peak_dbi=0.0)
        with pytest.raises(ValueError):
            sidelobe_level(curve)


class TestCsvOutput:
    def test_pattern_csv(self, tmp_path):
        T, m = end_feed_setup(8, 4.0)
        curve = amaf_pattern(m.beam(0), np.linspace(-90, 90, 19))
        path = tmp_path / "p.csv"
        write_pattern_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "angle_deg,power_dbi,power_norm_db"
        assert len(lines) == 20
        angles = [float(line.split(",")[0]) for line in lines[1:]]
        assert angles == sorted(angles)

    def test_profile_csv(self, tmp_path):
        T, m = end_feed_setup(8, 4.0)
        mags = ris_excitation(T, m.beam(0))
        path = tmp_path / "e.csv"
        write_profile_csv(mags, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "element_index,magnitude,magnitude_db"
        assert len(lines) == 9
        idx, mag, mag_db = lines[1].split(",")
        assert float(mag_db) == pytest.approx(20 * np.log10(float(mag)),
                                              abs=1e-5)
