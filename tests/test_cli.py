import filecmp
import json

import numpy as np
import pytest

from risfeed.cli import main


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
