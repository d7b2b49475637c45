import argparse
import filecmp
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from risfeed import sweep
from risfeed.cli import _f_grid, main
from risfeed.sweep import optimize_f


def run_cli(*argv):
    return main(list(argv))


class TestUsageErrors:
    def test_unknown_flag(self, capsys, tmp_path):
        rc = run_cli("analyze", "--na", "4", "--np", "8", "--f", "8",
                     "--out", str(tmp_path / "o.json"), "--frobnicate")
        assert rc == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_missing_required(self, capsys, tmp_path):
        rc = run_cli("analyze", "--na", "4", "--out", str(tmp_path / "o"))
        assert rc == 1

    def test_out_of_range_value(self, capsys, tmp_path):
        scen = ("--na", "4", "--np", "8", "--f", "8")
        sweep = ("sweep-f", "--np", "8", "--f-min", "4", "--f-max", "16")
        cases = [
            (("analyze", "--na", "0", "--np", "8", "--f", "8"), "--na"),
            (("analyze", "--na", "4", "--np", "8", "--f", "nan"), "--f"),
            (("table", "--np", "8", "--f", "4,inf"), "--f"),
            (("pattern",) + scen + ("--grid-step", "0"), "--grid-step"),
            (("pattern",) + scen + ("--grid-step", "-0.5"), "--grid-step"),
            (("pattern",) + scen + ("--grid-step", "nan"), "--grid-step"),
            # 1.8e11 angles: rejected before any grid is allocated
            (("pattern",) + scen + ("--grid-step", "1e-9"), "--grid-step"),
            # 180/step rounds to 1 and 0 intervals: no pattern to scan
            (("pattern",) + scen + ("--grid-step", "130"), "--grid-step"),
            (("pattern",) + scen + ("--grid-step", "1000"), "--grid-step"),
            # 180/step overflows to inf
            (("pattern",) + scen + ("--grid-step", "5e-324"), "--grid-step"),
            (sweep + ("--f-step", "0"), "--f-step"),
            (sweep + ("--f-step", "-1"), "--f-step"),
            (sweep + ("--f-step", "inf"), "--f-step"),
            (sweep + ("--f-step", "1e-12"), "--f-step"),
            (("sweep-f", "--np", "8", "--f-min", "nan", "--f-max", "16"),
             "--f-min"),
            # a 2e6-element surface pattern would allocate 53.7 GiB
            (("pattern", "--array", "ris", "--na", "4", "--np", "2000000",
              "--f", "8"), "--np"),
            (("analyze", "--na", "1025", "--np", "8", "--f", "8"), "--na"),
            (("table", "--np", "8,1025", "--f", "4"), "--np"),
            (("table", "--np", "0,8", "--f", "4"), "--np"),
            (("sweep-f", "--np", "5000", "--f-min", "4", "--f-max", "16"),
             "--np"),
            (("table", "--np", ",", "--f", "4"), "--np"),
            (("table", "--np", "8", "--f", ","), "--f"),
            (("sweep-f", "--np", "16", "--f-min", "10", "--f-max", "5"),
             "--f-min"),
        ]
        out = tmp_path / "o"
        for argv, flag in cases:
            assert run_cli(*argv, "--out", str(out)) == 1, argv
            assert flag in capsys.readouterr().err
            assert not out.exists()

    def test_tilted_requires_end_feed(self, capsys, tmp_path):
        rc = run_cli("analyze", "--na", "4", "--np", "8", "--f", "8",
                     "--feed", "center", "--tilted",
                     "--out", str(tmp_path / "o.json"))
        assert rc == 1

    def test_negative_f_is_usage_error(self, capsys, tmp_path):
        rc = run_cli("analyze", "--na", "4", "--np", "8", "--f", "-3",
                     "--out", str(tmp_path / "o.json"))
        assert rc == 1
        assert "--f" in capsys.readouterr().err
        assert (tmp_path / "o.json").exists() is False


# the CLI examples of the README
README_COMMANDS = [
    "analyze --na 4 --np 8 --f 8 --feed center",
    "table --na 4 --np 8,16,32 --f 4,8,40,80,120 --feed center",
    "pattern --na 4 --np 128 --f 110 --feed end --tilted --beam nonpem",
    "pattern --array ris --na 4 --np 128 --f 80 --feed center",
    "profile --na 4 --np 128 --f 110 --feed end --tilted --beam nonpem",
    "sweep-f --np 128 --feed end --tilted --beam nonpem --f-min 60 "
    "--f-max 140 --f-step 1 --objective min_sll",
]


@pytest.mark.parametrize("command", README_COMMANDS,
                         ids=[c.split()[0] + str(i)
                              for i, c in enumerate(README_COMMANDS)])
def test_readme_command_reruns_byte_identical(tmp_path, command):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*command.split(), "--out", str(a)) == 0
    assert run_cli(*command.split(), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parser_built_once_and_reused(tmp_path, monkeypatch):
    def rebuilt():
        raise AssertionError("parser rebuilt per command")
    monkeypatch.setattr("risfeed.cli._build_parser", rebuilt)
    first = []
    for i, command in enumerate(README_COMMANDS):
        assert run_cli(*command.split(), "--out", str(tmp_path / f"a{i}")) == 0
        first.append((tmp_path / f"a{i}").read_bytes())
    for i, command in reversed(list(enumerate(README_COMMANDS))):
        assert run_cli(*command.split(), "--out", str(tmp_path / f"b{i}")) == 0
        assert (tmp_path / f"b{i}").read_bytes() == first[i], command


class TestSubcommandDefaults:
    def same_output(self, tmp_path, short, explicit):
        a, b = tmp_path / "short", tmp_path / "explicit"
        assert run_cli(*short.split(), "--out", str(a)) == 0
        assert run_cli(*explicit.split(), "--out", str(b)) == 0
        return a.read_bytes() == b.read_bytes()

    def test_sweep_f_defaults_to_end_feed_nonpem(self, tmp_path):
        short = "sweep-f --np 32 --tilted --f-min 10 --f-max 20 --f-step 2"
        assert self.same_output(tmp_path, short,
                                short + " --feed end --beam nonpem")

    def test_pattern_and_profile_default_to_pem(self, tmp_path):
        for short in ("pattern --np 32 --f 16 --feed end --grid-step 0.5",
                      "profile --np 32 --f 16 --feed end"):
            assert self.same_output(tmp_path, short, short + " --beam pem")
            assert not self.same_output(tmp_path, short,
                                        short + " --beam nonpem")


class TestAnalyze:
    def test_single_element_anchor(self, tmp_path):
        out = tmp_path / "report.json"
        rc = run_cli("analyze", "--na", "1", "--np", "1", "--f", "8",
                     "--out", str(out))
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["sigma_sq_db"][0] == pytest.approx(-21.99, abs=0.01)
        # no --feed given: analyze defaults to the center feed
        assert rep["scenario"]["feed"] == "center"

    def test_end_feed_scenario(self, tmp_path):
        out = tmp_path / "report.json"
        rc = run_cli("analyze", "--na", "4", "--np", "128", "--f", "80",
                     "--feed", "end", "--tilted", "--out", str(out))
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["scenario"]["tilted"] is True
        assert len(rep["v1_re"]) == 4

    def test_tilted_feeder_below_surface(self, capsys, tmp_path):
        out = tmp_path / "o"
        for cmd in ("analyze", "profile"):
            rc = run_cli(cmd, "--na", "16", "--np", "8", "--f", "1",
                         "--feed", "end", "--tilted", "--out", str(out))
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: tilted feeder reaches the surface")
            assert "Traceback" not in err
            assert not out.exists()


    @pytest.mark.parametrize("cmd", [
        ("analyze", "--f", "1e308"),
        ("sweep-f", "--f-min", "1e308", "--f-max", "1e308"),
    ], ids=["analyze", "sweep-f"])
    def test_overflowing_distance_is_one_error_line(self, cmd, capsys,
                                                    tmp_path):
        # r overflows to inf: one error naming f, not numpy warnings and
        # "SVD did not converge"
        out = tmp_path / "o"
        rc = run_cli(*cmd, "--na", "4", "--np", "8", "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: propagation matrix is not finite at f=1e+308\n")
        assert not out.exists()
        assert run_cli("analyze", "--na", "4", "--np", "8", "--f", "1e16",
                       "--out", str(out)) == 0

    @pytest.mark.parametrize("cmd", ["analyze", "pattern", "profile",
                                     "table"])
    def test_overflowing_isotropic_loss_is_one_error_line(self, cmd, capsys,
                                                          tmp_path):
        # (2 pi f)^2 overflows a float above f = 2.2e153, where T is
        # still finite: one error naming f as repr, not an OverflowError
        out = tmp_path / "o"
        for f in ("3e153", "2.5000001e153"):
            rc = run_cli(cmd, "--na", "4", "--np", "8", "--f", f,
                         "--out", str(out))
            err = capsys.readouterr().err
            assert rc == 2
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert err.endswith(
                f"isotropic loss overflows at f={float(f)!r}\n")
            assert not out.exists()

    def test_rank_deficient_report_is_strict_json(self, tmp_path):
        # N_p=2 < N_a=4: sigma_3 = sigma_4 = 0, so their dB and cond are
        # undefined
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--na", "4", "--np", "2", "--f", "8",
                       "--out", str(out)) == 0
        text = out.read_text()

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")
        rep = json.loads(text, parse_constant=reject)
        assert text.count("null") == 3
        assert rep["sigma_sq_db"][2:] == [None, None]
        assert rep["cond"] is None
        assert all(isinstance(x, float) for x in rep["sigma_sq_db"][:2])


class TestTable:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["table", "--na", "4", "--np", "8,16", "--f", "4,8",
                "--feed", "center"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert filecmp.cmp(a, b, shallow=False)

    def test_round_trip_cond_consistency(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("table", "--na", "4", "--np", "8,32", "--f", "4,8,40",
                "--feed", "center", "--out", str(out))
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 6
        for row in rows:
            cells = row.split(",")
            s1, s4, cond = float(cells[6]), float(cells[9]), float(cells[11])
            # consistency limited by the 6-decimal file rounding
            assert cond == pytest.approx(10 ** ((s1 - s4) / 20), rel=1e-6)


    def test_tilted_feeder_below_surface_is_an_undefined_row(self, capsys,
                                                           tmp_path):
        # a 16-element feeder tilted at f = 1 reaches the surface; f = 8 is
        # valid and reads as it does in a table of its own, but for sl_no
        both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
        args = ("table", "--na", "16", "--np", "8", "--feed", "end",
                "--tilted")
        assert run_cli(*args, "--f", "1,8", "--out", str(both)) == 0
        assert capsys.readouterr().err == ""
        assert run_cli(*args, "--f", "8", "--out", str(alone)) == 0
        header, undefined, row = both.read_text().splitlines()
        assert undefined == "1,16,8,1.0,end,pem" + "," * 8
        assert [header, "1" + row[1:]] == alone.read_text().splitlines()
        assert row.startswith("2,")

    def test_table_without_a_defined_point_is_written(self, capsys,
                                                      tmp_path):
        # unlike sweep-f, a table has no best point to pick
        out = tmp_path / "t.csv"
        assert run_cli("table", "--na", "16", "--np", "8", "--f", "1,2",
                       "--feed", "end", "--tilted", "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[1:] == [
            f"{i},16,8,{i}.0,end,pem" + "," * 8 for i in (1, 2)]


class TestPatternAndProfile:
    def test_pattern_csv(self, tmp_path):
        out = tmp_path / "pat.csv"
        rc = run_cli("pattern", "--beam", "nonpem", "--na", "4",
                     "--np", "128", "--f", "110", "--feed", "end",
                     "--tilted", "--grid-step", "0.5", "--out", str(out))
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "angle_deg,power_dbi,power_norm_db"
        assert len(lines) == 362
        norm = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(norm) == 0.0

    @pytest.mark.parametrize("step,n_angles", [("90", 3), ("7", 27)])
    def test_grid_step_rounded_to_divide_180(self, tmp_path, step, n_angles):
        out = tmp_path / "pat.csv"
        rc = run_cli("pattern", "--na", "4", "--np", "8", "--f", "8",
                     "--grid-step", step, "--out", str(out))
        assert rc == 0
        rows = out.read_text().strip().splitlines()[1:]
        angles = [float(r.split(",")[0]) for r in rows]
        assert len(angles) == n_angles
        assert angles == pytest.approx(
            np.linspace(-90.0, 90.0, n_angles).tolist(), abs=1e-6)

    def test_ris_pattern_variant(self, tmp_path):
        out = tmp_path / "ris.csv"
        rc = run_cli("pattern", "--array", "ris", "--na", "4", "--np", "32",
                     "--f", "16", "--feed", "end", "--tilted",
                     "--grid-step", "0.5", "--out", str(out))
        assert rc == 0

    def test_profiles_pem_vs_nonpem(self, tmp_path):
        mags = {}
        for beam in ("pem", "nonpem"):
            out = tmp_path / f"{beam}.csv"
            rc = run_cli("profile", "--na", "4", "--np", "128", "--f", "110",
                         "--feed", "end", "--tilted", "--beam", beam,
                         "--out", str(out))
            assert rc == 0
            rows = out.read_text().strip().splitlines()[1:]
            mags[beam] = np.array([float(r.split(",")[1]) for r in rows])
        cv = lambda x: np.std(x) / np.mean(x)
        assert cv(mags["nonpem"]) < cv(mags["pem"])


class TestSweepF:
    def test_trace_emitted(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = run_cli("sweep-f", "--na", "4", "--np", "8", "--feed", "center",
                     "--beam", "pem", "--f-min", "4", "--f-max", "16",
                     "--f-step", "4", "--objective", "max_power",
                     "--out", str(out))
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "f,max_power,is_best"
        assert len(lines) == 5
        assert lines[1].endswith(",1")


    def test_infeasible_tilted_points_are_empty_rows(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = run_cli("sweep-f", "--na", "16", "--np", "8", "--feed", "end",
                     "--tilted", "--f-min", "1", "--f-max", "20",
                     "--f-step", "1", "--out", str(out))
        assert rc == 0
        rows = [line.split(",") for line in
                out.read_text().strip().splitlines()[1:]]
        assert [float(f) for f, _, _ in rows] == list(range(1, 21))
        assert [(v, best) for _, v, best in rows[:4]] == [("", "0")] * 4
        vals = []
        for f, v, _ in rows[4:]:
            _, trace = optimize_f(16, 8, "end", True, "nonpem", [float(f)])
            assert v == "%.9e" % trace[0][1]
            vals.append(trace[0][1])
        first_min = 4 + vals.index(min(vals))
        assert [best for _, _, best in rows] == [
            "1" if i == first_min else "0" for i in range(20)]

    @pytest.mark.parametrize("objective",
                             ["min_sll", "min_profile_variation"])
    def test_all_zero_excitation_is_an_undefined_row(self, objective,
                                                     capsys, tmp_path):
        # T underflows to zero at f = 1e-300: an all-zero surface
        # excitation, which has no pattern and no profile variation
        out = tmp_path / "trace.csv"
        assert run_cli("sweep-f", "--np", "127", "--feed", "center",
                       "--f-min", "1e-300", "--f-max", "120", "--f-step",
                       "60", "--objective", objective,
                       "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        _, alone = optimize_f(4, 127, "center", False, "nonpem", [60.0],
                              objective)
        assert out.read_text().splitlines()[1:] == [
            "1e-300,,0", "60.0,%.9e,1" % alone[0][1]]

    def test_f_on_the_decimal_grid(self, tmp_path):
        # in floats, 5 + 7 * 0.7 is 9.899999999999999
        out = tmp_path / "trace.csv"
        assert run_cli("sweep-f", "--np", "8", "--f-min", "5", "--f-max",
                       "95", "--f-step", "0.7", "--objective", "max_power",
                       "--out", str(out)) == 0
        f = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert len(f) == 129 and f[7] == "9.9"
        assert f == [repr(round(5 + i * 0.7, 1)) for i in range(129)]

    def test_step_that_repeats_a_distance_is_a_usage_error(self, capsys,
                                                           tmp_path):
        # below the float spacing near 1, the 41 decimal distances round
        # to three floats: a row for each, and each copy of the best f
        # marked best
        out = tmp_path / "trace.csv"
        sweep_f = ("sweep-f", "--np", "8", "--f-min", "1", "--f-max",
                   "1.0000000000000004", "--objective", "max_power",
                   "--out", str(out))
        assert run_cli(*sweep_f, "--f-step", "1e-17") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --f-step 1e-17 ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()
        # a step just under the spacing of floats above 1 keeps two
        assert run_cli(*sweep_f, "--f-step", "2.220446049250313e-16") == 0
        f = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert f == ["1.0", "1.0000000000000002"]


def fraction_grid(f_min, f_max, f_step):
    """sweep-f's distances as Fraction sums, each rounded once."""
    lo, step = Fraction(repr(f_min)), Fraction(repr(f_step))
    n = math.floor((Fraction(repr(f_max)) - lo) / step)
    return [float(lo + i * step) for i in range(n + 1)]


def test_f_grid_matches_fraction_sums():
    rng = np.random.default_rng(23)
    grids = [(5.0, 95.0, 0.7), (60.0, 140.0, 1.0), (100.1234, 100.1236, 1e-4),
             (1.0, 1.0000000000000004, 1e-17), (1e-300, 2e-300, 1e-302),
             (0.1, 1e6, 333.3), (1e300, 1.5e300, 1e298), (3.0, 3.0, 0.25),
             (7.0, 1e308, 1e306)]
    for _ in range(400):
        f_min = float(f"{rng.integers(1, 10**6)}e{rng.integers(-9, 5)}")
        f_step = float(f"{rng.integers(1, 10**5)}e{rng.integers(-12, 3)}")
        f_max = float(repr(f_min + f_step * rng.uniform(0, 300)))
        grids.append((f_min, f_max, f_step))
    for f_min, f_max, f_step in grids:
        grid = _f_grid(argparse.Namespace(f_min=f_min, f_max=f_max,
                                          f_step=f_step))
        want = fraction_grid(f_min, f_max, f_step)
        assert grid == want, (f_min, f_max, f_step)


@pytest.mark.parametrize("argv, column", [
    (("table", "--na", "6", "--np", "4", "--f", "100.1234,100.1236"), 3),
    (("sweep-f", "--np", "8", "--feed", "center", "--beam", "pem",
      "--f-min", "100.1234", "--f-max", "100.1236", "--f-step", "1e-4",
      "--objective", "max_power"), 0),
])
def test_f_column_reads_back_as_the_analyzed_f(argv, column, tmp_path,
                                               monkeypatch):
    # 6 significant digits printed 100.1235 and 100.1236 alike
    analyzed = []
    run_grid, optimize_f = sweep.run_grid, sweep.optimize_f

    def grid_spy(*args):
        records = run_grid(*args)
        analyzed.extend(rec.f for rec in records)
        return records

    def scan_spy(*args):
        best_f, trace = optimize_f(*args)
        analyzed.extend(f for f, _ in trace)
        return best_f, trace

    monkeypatch.setattr(sweep, "run_grid", grid_spy)
    monkeypatch.setattr(sweep, "optimize_f", scan_spy)
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    read_back = [float(line.split(",")[column])
                 for line in out.read_text().splitlines()[1:]]
    assert len(set(analyzed)) == len(analyzed) >= 2
    assert read_back == analyzed


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"na": 1, "np": 1, "f": 8}))
        out = tmp_path / "o.json"
        rc = run_cli("analyze", "--config", str(cfg), "--out", str(out))
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["scenario"]["n_a"] == 1

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"na": 1, "np": 1, "f": 8}))
        out = tmp_path / "o.json"
        rc = run_cli("analyze", "--config", str(cfg), "--na", "2",
                     "--np", "4", "--f", "8", "--out", str(out))
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["scenario"]["n_a"] == 2
        assert rep["scenario"]["n_p"] == 4

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"na": 1, "np": 1, "f": 8, "mode": "x"}))
        rc = run_cli("analyze", "--config", str(cfg),
                     "--out", str(tmp_path / "o.json"))
        assert rc == 1
        assert "mode" in capsys.readouterr().err

    def test_config_values_typed_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.json"
        cfg.write_text(json.dumps({"na": 4, "np": 8, "f": "8"}))
        assert run_cli("analyze", "--config", str(cfg),
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["scenario"]["f"] == 8.0
        out.unlink()
        for bad, key in [({"na": 4, "np": 8, "f": "eight"}, "--f"),
                         ({"na": "four", "np": 8, "f": 8}, "--na"),
                         ({"na": 4, "np": 8.5, "f": 8}, "--np"),
                         ({"na": 4, "np": 8, "f": -3}, "--f"),
                         ({"na": 2000, "np": 8, "f": 8}, "--na"),
                         ({"na": 4, "np": 8, "f": 8, "feed": "side"},
                          "--feed"),
                         ({"na": 4, "np": 8, "f": 8, "tilted": "yes"},
                          "--tilted")]:
            cfg.write_text(json.dumps(bad))
            assert run_cli("analyze", "--config", str(cfg),
                           "--out", str(out)) == 1, bad
            assert key in capsys.readouterr().err
            assert not out.exists()

    def test_config_lists_and_switches(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"na": 4, "np": [8, 16], "f": "4,8",
                                   "feed": "end", "tilted": True}))
        via_cfg, via_flags = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("table", "--config", str(cfg),
                       "--out", str(via_cfg)) == 0
        assert run_cli("table", "--na", "4", "--np", "8,16", "--f", "4,8",
                       "--feed", "end", "--tilted",
                       "--out", str(via_flags)) == 0
        assert filecmp.cmp(via_cfg, via_flags, shallow=False)

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        rc = run_cli("analyze", "--config", str(cfg), "--na", "1",
                     "--np", "1", "--f", "8",
                     "--out", str(tmp_path / "o.json"))
        assert rc == 1


class TestOutputHygiene:
    def test_only_declared_file_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "only.json"
        rc = run_cli("analyze", "--na", "1", "--np", "1", "--f", "8",
                     "--out", str(out))
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == ["only.json"]

    def test_unwritable_output_path(self, capsys, tmp_path):
        rc = run_cli("analyze", "--na", "1", "--np", "1", "--f", "8",
                     "--out", str(tmp_path / "missing" / "o.json"))
        assert rc == 2
