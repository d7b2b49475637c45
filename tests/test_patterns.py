import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import risfeed
from risfeed import patterns
from risfeed.cli import (_fixed6_rows, main, write_pattern_csv,
                         write_profile_csv)
from risfeed.geometry import make_center_feed, make_end_feed
from risfeed.coupling import build_T, element_gain
from risfeed.modes import BeamVector, svd_modes
from risfeed.patterns import (PatternCurve, _field, amaf_pattern,
                              ris_excitation, ris_pattern, sidelobe_level,
                              default_grid)
from risfeed.sweep import optimize_f

from oracles import (brute_force_sidelobe, feeder_beam,
                     longdouble_pattern_amplitude)


def end_feed_setup(n_p=128, f=110.0, tilted=True):
    sc = make_end_feed(4, n_p, f, tilted=tilted)
    T = build_T(sc)
    m = svd_modes(T)
    return T, m


class TestSteeringVector:
    """At identity weights the evaluator's row k is the conjugated
    steering vector exp(-j pi k sin(theta)) of element k."""

    def test_broadside_all_ones(self):
        assert np.array_equal(_field(np.eye(6), np.zeros(1)), np.ones((6, 1)))

    def test_endfire_two_elements(self):
        assert np.allclose(_field(np.eye(2), np.array([np.pi / 2])),
                           [[1.0], [-1.0]])

    def test_30_deg_phases(self):
        a = _field(np.eye(4), np.array([np.pi / 6]))
        expected = np.exp(-1j * np.pi * np.arange(4) * 0.5)
        assert np.allclose(a[:, 0], expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            patterns._patterns(np.empty((0, 1)), None)

    def test_angle_array_gives_one_column_per_angle(self):
        theta = np.radians(default_grid(0.5))
        rows = _field(np.eye(16), theta)
        assert rows.shape == (16, theta.size)
        assert np.array_equal(rows,
                              np.hstack([_field(np.eye(16), theta[i:i + 1])
                                         for i in range(theta.size)]))


def accuracy_weights(n, kind):
    """Real: the pem and nonpem surface excitations of a 4 x n center
    feed at f = 80, a column each. Complex: one column of seeded standard
    normal parts."""
    if kind == "real":
        T = build_T(make_center_feed(4, n, 80.0))
        m = svd_modes(T)
        return np.column_stack([ris_excitation(T, feeder_beam(m, beam))
                                for beam in ("pem", "nonpem")])
    rng = np.random.default_rng(n)
    return rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))


class TestFieldEvaluator:
    """Pattern rows against a long double direct sum, and the memory the
    evaluator takes at the CLI caps."""

    @pytest.mark.parametrize("grid", ["default", "shifted"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 16, 17, 127, 128, 1024])
    def test_patterns_match_long_double_sum(self, n, kind, grid):
        # n reaches each side of the block widths 2, 4, 8, 16 and 64 and
        # their zero padding; the shifted grid is not antisymmetric
        angles = default_grid()
        if grid == "shifted":
            angles = angles[:-1] + 0.025
        W = accuracy_weights(n, kind)
        _, dbi, _ = patterns._patterns(W, angles)
        want = longdouble_pattern_amplitude(W, np.radians(angles))
        err = np.abs(10 ** (dbi / 20) - want) / want.max(axis=1,
                                                         keepdims=True)
        # amplitude error in eps of the row's peak amplitude: the measured
        # worst is 14.2, on complex weights at n = 1024; phases pi k u
        # rounded by eps of themselves, without reduction, read up to 286
        assert err.max() <= 15 * np.finfo(float).eps

    def test_traced_peak_at_the_cli_caps(self, tmp_path):
        # 1024 elements on 36001 angles, the widest pattern the CLI
        # draws; an N x M steering matrix alone would take 590 MB
        tracemalloc.start()
        try:
            assert main(["pattern", "--array", "ris", "--np", "1024",
                         "--f", "100", "--grid-step", "0.005",
                         "--out", str(tmp_path / "p.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestDefaultGrid:
    """The grid is linspace's, made exactly antisymmetric."""

    def test_angle_strings_match_linspace(self):
        # equal samples print equally, so only the samples the mirror
        # moved are formatted, by the pattern file's own '%.6f'
        # formatter; linspace's broadside may print -0.000000
        for n in [*range(2, 3601), 36000]:
            grid = default_grid(180.0 / n)
            lin = np.linspace(-90.0, 90.0, n + 1)
            assert grid.size == n + 1
            moved = grid != lin
            got, want = (_fixed6_rows(x[moved, None]).split()
                         for x in (grid, lin))
            assert got == [b"0.000000" if cell == b"-0.000000" else cell
                           for cell in want], n

    def test_cli_broadside_is_unsigned_zero(self, tmp_path):
        # n = 78: linspace's broadside sample is -1.4e-14
        assert "%.6f" % np.linspace(-90.0, 90.0, 79)[39] == "-0.000000"
        out = tmp_path / "p.csv"
        assert main(["pattern", "--na", "4", "--np", "8", "--f", "8",
                     "--grid-step", "2.3077", "--out", str(out)]) == 0
        angles = [line.split(",")[0]
                  for line in out.read_text().splitlines()[1:]]
        assert len(angles) == 79
        assert angles[39] == "0.000000"
        assert angles == ["%.6f" % -float(a) if a != "0.000000" else a
                          for a in reversed(angles)]


class TestSteeringReuse:
    """A curve depends on its weights and angles alone: calls in any
    order, and a caller's later edits to its grid, leave every curve bit
    for bit the one a fresh interpreter draws."""

    def test_interleaved_calls_match_first_calls(self):
        T, m = end_feed_setup(32, 16.0)
        b = feeder_beam(m, "pem")
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
        b = feeder_beam(m, "pem")
        for pattern in (lambda g: amaf_pattern(b, g),
                        lambda g: ris_pattern(T, b, g)):
            grid = default_grid(1.0)
            curve = pattern(grid)
            angles = curve.angles_deg.copy()
            grid += 5.0      # in place, after the call
            assert np.array_equal(curve.angles_deg, angles)

    def test_optimize_f_trace_matches_fresh_patterns(self):
        f_values = [100.0, 110.0, 120.0]
        mags = []
        for f in f_values:
            T, m = end_feed_setup(128, f)
            b = feeder_beam(m, "nonpem")
            mags.append(ris_excitation(T, b))
        _, trace = optimize_f(4, 128, "end", True, "nonpem", f_values)
        _, _, rows = patterns._patterns(np.column_stack(mags), None)
        eps = np.finfo(float).eps
        for (f, val), y in zip(trace, rows):
            want = sidelobe_level(y)
            # both products round the field by a few eps of its peak, a
            # sidelobe sll dB down by eps * 10^(-sll/20) of itself
            assert want is not None
            assert abs(val - want) <= 32 * eps * 10 ** (-want / 20), f

    def test_cli_patterns_match_fresh_interpreters(self, tmp_path):
        commands = ["pattern --array ris --np 160 --f 80",
                    "pattern --np 128 --f 80",
                    "pattern --array ris --np 128 --f 80"]
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
        assert curve.angles_deg[curve.power_dbi.argmax()] == pytest.approx(0.0)
        assert curve.power_dbi.max() == pytest.approx(
            10 * np.log10(4) + 6.0206, abs=1e-3)

    def test_single_element_is_element_pattern(self):
        b = BeamVector(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        grid = np.array([-60.0, -30.0, 0.0, 30.0, 60.0])
        curve = amaf_pattern(b, grid)
        expected = 10 * np.log10(element_gain(np.radians(grid)))
        assert np.allclose(curve.power_dbi, expected, atol=1e-9)
        assert curve.power_dbi.max() == pytest.approx(6.0206, abs=1e-3)

    def test_nonpem_peak_split(self):
        # untilted end feed: array factor and element factor at broadside
        T, m = end_feed_setup(tilted=False)
        b = feeder_beam(m, "nonpem")
        curve = amaf_pattern(b)
        af_db = 10 * np.log10(abs(np.sum(b.weights.real)) ** 2)
        assert curve.angles_deg[curve.power_dbi.argmax()] == pytest.approx(0.0)
        assert curve.power_dbi.max() == pytest.approx(af_db + 6.0206, abs=1e-6)
        assert curve.power_dbi.max() == pytest.approx(11.95, abs=0.05)

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
        curve = amaf_pattern(feeder_beam(m, "pem"))
        assert np.max(curve.power_norm_db) == 0.0
        assert np.allclose(curve.power_dbi - curve.power_norm_db,
                           curve.power_dbi.max())

    def test_rejects_empty_grid(self):
        b = BeamVector(np.array([1.0], dtype=complex))
        with pytest.raises(ValueError):
            amaf_pattern(b, np.array([]))

    def test_pem_untilted_points_toward_surface_center(self):
        # surface center sits on the positive-angle side of the feeder
        T, m = end_feed_setup(tilted=False)
        curve = amaf_pattern(feeder_beam(m, "pem"))
        assert curve.angles_deg[curve.power_dbi.argmax()] > 5.0

    def test_pem_tilted_steers_to_other_side(self):
        T, m = end_feed_setup(tilted=True)
        curve = amaf_pattern(feeder_beam(m, "pem"))
        assert curve.angles_deg[curve.power_dbi.argmax()] < -2.0


class TestRisExcitation:
    def test_parseval(self):
        T, m = end_feed_setup(32, 16.0)
        b = feeder_beam(m, "pem")
        mags = ris_excitation(T, b)
        assert np.sum(mags**2) == pytest.approx(
            np.linalg.norm(T.apply(b.weights)) ** 2, rel=1e-12)

    def test_center_feed_palindromic(self):
        sc = make_center_feed(4, 16, 8)
        T = build_T(sc)
        mags = ris_excitation(T, feeder_beam(svd_modes(T), "pem"))
        assert np.allclose(mags, mags[::-1], atol=1e-9)

    def test_nonpem_flatter_than_pem(self):
        T, m = end_feed_setup()
        cv = lambda x: np.std(x) / np.mean(x)
        pem = ris_excitation(T, feeder_beam(m, "pem"))
        nonpem = ris_excitation(T, feeder_beam(m, "nonpem"))
        assert cv(nonpem) < cv(pem)

    def test_frozen_profile_shape(self):
        # regression: peak element indices for the f=110 end feed
        T, m = end_feed_setup()
        pem = ris_excitation(T, feeder_beam(m, "pem"))
        nonpem = ris_excitation(T, feeder_beam(m, "nonpem"))
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
        sll = sidelobe_level(curve.power_norm_db)
        assert sll == pytest.approx(-13.26, abs=0.1)

    def test_broadside_cophase_peaks_at_zero(self):
        for feed, tilted in (("center", False), ("end", True)):
            if feed == "center":
                sc = make_center_feed(4, 32, 16)
            else:
                sc = make_end_feed(4, 32, 16, tilted=tilted)
            T = build_T(sc)
            m = svd_modes(T)
            curve = ris_pattern(T, feeder_beam(m, "pem"),
                                np.linspace(-90, 90, 1801))
            assert curve.angles_deg[curve.power_dbi.argmax()] == \
                pytest.approx(0.0, abs=0.2)

    def test_center_feed_low_sidelobes(self):
        sc = make_center_feed(4, 128, 80)
        T = build_T(sc)
        curve = ris_pattern(T, feeder_beam(svd_modes(T), "pem"))
        assert sidelobe_level(curve.power_norm_db) < -50.0

    def test_rejects_all_zero_excitation(self):
        T, _ = end_feed_setup(8, 4.0)
        from risfeed.coupling import PropagationMatrix
        Tz = PropagationMatrix(entries=np.zeros_like(T.entries))
        with pytest.raises(ValueError, match="all-zero surface excitation"):
            ris_pattern(Tz, BeamVector(np.eye(4)[0].astype(complex)))
        # one all-zero column fails the whole batch
        x = ris_excitation(T, feeder_beam(svd_modes(T), "pem"))
        with pytest.raises(ValueError, match="all-zero surface excitation"):
            patterns._patterns(np.column_stack([x, np.zeros_like(x), x]),
                               None)

    def test_grid_refinement_stability(self):
        T, m = end_feed_setup(32, 16.0)
        c1 = ris_pattern(T, feeder_beam(m, "pem"), default_grid(0.05))
        c2 = ris_pattern(T, feeder_beam(m, "pem"), default_grid(0.025))
        assert abs(c1.power_dbi.max() - c2.power_dbi.max()) < 0.01


class TestRealWeights:
    """Real weights and the same weights stored as complex numbers hold
    the same terms and take the same product."""

    @pytest.mark.parametrize("beam", ["pem", "nonpem"])
    @pytest.mark.parametrize("feed,tilted", [("center", False),
                                             ("end", False), ("end", True)],
                             ids=["center", "end", "end-tilted"])
    @pytest.mark.parametrize("n_p,f0,step", [(32, 4.0, 0.5),
                                             (128, 40.0, 1.0),
                                             (512, 100.0, 4.0)])
    def test_real_product_matches_complex(self, monkeypatch, n_p, f0, step,
                                          feed, tilted, beam):
        # the surface excitations of each stack of a scan, as scored
        stacks = []
        monkeypatch.setattr("risfeed.sweep._score", lambda objective, X:
                            stacks.append(X) or [0.0] * len(X))
        optimize_f(4, n_p, feed, tilted, beam,
                   [f0 + step * i for i in range(80)], "max_power")
        eps = np.finfo(float).eps
        for X in stacks:
            W = np.abs(X).T
            _, real, _ = patterns._patterns(W, None)
            _, cplx, _ = patterns._patterns(W.astype(complex), None)
            assert len(real) == len(cplx) == W.shape[1]
            for r, z in zip(real, cplx):
                p_real = 10 ** (r / 10)
                p_cplx = 10 ** (z / 10)
                # the measured worst is 13.6 eps of the peak, at N_p = 512
                assert np.max(np.abs(p_real - p_cplx)) <= \
                    24 * eps * p_cplx.max()


class TestPatternRows:
    """_patterns returns dB rows; curves are built only for the public
    pattern functions."""

    def test_normalized_rows_are_rows_less_their_max(self):
        T, m = end_feed_setup(32, 16.0)
        x = ris_excitation(T, feeder_beam(m, "pem"))
        for W in (np.column_stack([x, x[::-1], np.ones_like(x)]),
                  np.column_stack([feeder_beam(m, "pem").weights,
                                   feeder_beam(m, "nonpem").weights])):
            _, dbi, norm = patterns._patterns(W, None)
            assert np.array_equal(norm,
                                  np.array([y - y.max() for y in dbi]))
            assert np.all(norm.max(axis=1) == 0.0)

    def test_min_sll_scan_builds_no_curves(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return PatternCurve(*args, **kwargs)
        monkeypatch.setattr("risfeed.patterns.PatternCurve", counting)
        # 160 f at 4 x 32: stacks of 128 and 32
        f_values = [4.0 + 0.5 * i for i in range(160)]
        _, trace = optimize_f(4, 32, "center", False, "pem", f_values)
        assert len(trace) == 160 and built == []
        amaf_pattern(BeamVector(np.ones(4, dtype=complex) / 2))
        assert len(built) == 1


class TestSidelobeLevel:
    def test_matches_brute_force_scan(self):
        T, m = end_feed_setup(32, 16.0)
        curve = ris_pattern(T, feeder_beam(m, "nonpem"))
        got = sidelobe_level(curve.power_norm_db)
        ref = brute_force_sidelobe(curve.angles_deg, curve.power_dbi)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_single_lobe_returns_none(self):
        b = BeamVector(np.array([1.0], dtype=complex))
        curve = amaf_pattern(b)
        assert sidelobe_level(curve.power_norm_db) is None

    def test_two_element_cos_weighted_vs_dense_scan(self):
        w = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
        coarse = amaf_pattern(BeamVector(w), default_grid(0.05))
        dense = amaf_pattern(BeamVector(w), default_grid(0.005))
        got = sidelobe_level(coarse.power_norm_db)
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
            got = sidelobe_level(y)
            ref = brute_force_sidelobe(np.arange(n, dtype=float), y)
            assert got == ref, (y, got, ref)
            nones += got is None
        assert 0 < nones < 3000

    def test_integer_row(self):
        assert sidelobe_level(np.array([0, -3, -1, -2])) == -1.0

    def test_requires_three_samples(self):
        with pytest.raises(ValueError):
            sidelobe_level(np.array([0.0, -1.0]))


class TestCsvOutput:
    def test_pattern_csv(self, tmp_path):
        T, m = end_feed_setup(8, 4.0)
        curve = amaf_pattern(feeder_beam(m, "pem"), np.linspace(-90, 90, 19))
        path = tmp_path / "p.csv"
        write_pattern_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "angle_deg,power_dbi,power_norm_db"
        assert len(lines) == 20
        angles = [float(line.split(",")[0]) for line in lines[1:]]
        assert angles == sorted(angles)

    def test_profile_csv(self, tmp_path):
        T, m = end_feed_setup(8, 4.0)
        mags = ris_excitation(T, feeder_beam(m, "pem"))
        path = tmp_path / "e.csv"
        write_profile_csv(mags, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "element_index,magnitude,magnitude_db"
        assert len(lines) == 9
        idx, mag, mag_db = lines[1].split(",")
        assert float(mag_db) == pytest.approx(20 * np.log10(float(mag)),
                                              abs=1e-5)
