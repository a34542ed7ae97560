import argparse
import json
import platform

import numpy as np
import pytest

from nlvtest import __version__
from nlvtest.cli import ConfigError, _phi_grid_deg, load_config, main, read_manifest


def data_section(path) -> str:
    lines = path.read_text().splitlines()
    return "\n".join(line for line in lines if not line.startswith("#"))


def run(*argv) -> int:
    return main(list(argv))


def assert_one_line_error(code, capsys, *named):
    """Exit 1 with exactly one ``error:`` line on stderr, naming each of
    ``named``, and no traceback."""
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1
    assert all(word in lines[0] for word in named)


class TestBounds:
    def test_table_values(self, tmp_path, capsys):
        code = run(
            "bounds", "--n-list", "2,3,4", "--phi-range", "12.5:20", "--step", "2.5"
        )
        assert code == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows[0] == "phi_deg,bound_n2,bound_n3,bound_n4,singlet_l"
        table = {row.split(",")[0]: row.split(",") for row in rows[1:]}
        assert table["12.50"][1] == "3.8911"
        assert table["15.00"][2] == "3.8493"
        assert table["20.00"][2] == "3.7995"
        assert table["17.50"][3] == "3.8164"

    def test_phi_zero_gives_four(self, capsys):
        assert run("bounds", "--n-list", "1,2,5", "--phi", "0") == 0
        out = capsys.readouterr().out
        row = [line for line in out.splitlines() if not line.startswith("#")][1]
        assert row.split(",")[1:4] == ["4.0000", "4.0000", "4.0000"]

    def test_empty_n_list_is_usage_error(self, capsys):
        assert run("bounds", "--n-list", "", "--phi", "0") == 1

    def test_missing_step_is_config_error(self, capsys):
        assert run("bounds", "--n-list", "2", "--phi-range", "0:45") == 1

    def test_grid_holds_at_most_a_million_angles(self):
        def grid(lo, hi, step):
            return _phi_grid_deg(argparse.Namespace(phi=None, phi_range=(lo, hi), step=step))

        assert grid(0.0, 0.3, 0.1) == [0.0, 0.1, 0.2, 0.1 * 3]
        assert grid(10.0, 10.0, 5.0) == [10.0]
        assert len(grid(0.0, 90.0, 1e-4)) == 900_001
        assert len(grid(0.0, 999_999.0, 1.0)) == 1_000_000
        with pytest.raises(ConfigError, match="1000001 angles"):
            grid(0.0, 1_000_000.0, 1.0)


class TestPredict:
    def test_singlet_three_settings(self, capsys):
        assert run("predict", "--state", "singlet", "--n", "3", "--phi", "15") == 0
        out = capsys.readouterr().out
        row = [line for line in out.splitlines() if not line.startswith("#")][1]
        cells = row.split(",")
        assert cells[2] == "3.9319"
        assert cells[3] == "3.8493"

    def test_low_visibility_reports_no_violation_window(self, capsys):
        assert run("predict", "--state", "werner:0.96", "--n", "2", "--phi", "5") == 0
        out = capsys.readouterr().out
        row = [line for line in out.splitlines() if not line.startswith("#")][1]
        best_violation = float(row.split(",")[6])
        assert best_violation < 0.0

    def test_mixed_state(self, capsys):
        assert run("predict", "--state", "mixed", "--n", "2", "--phi", "15") == 0
        out = capsys.readouterr().out
        row = [line for line in out.splitlines() if not line.startswith("#")][1]
        assert row.split(",")[2] == "0.0000"

    def test_invalid_state_is_config_error(self, capsys):
        assert run("predict", "--state", "wat:1", "--n", "2", "--phi", "15") == 1
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_fixed_seed_reproducible_data_section(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code = run(
                "simulate", "--n", "2", "--phi", "15", "--runs", "3",
                "--seed", "99", "--output", str(out),
            )
            assert code == 0
        assert data_section(out1) == data_section(out2)
        assert out1.read_bytes() != b""

    def test_different_seeds_differ(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run("simulate", "--n", "2", "--phi", "15", "--runs", "2", "--seed", "1",
            "--output", str(out1))
        run("simulate", "--n", "2", "--phi", "15", "--runs", "2", "--seed", "2",
            "--output", str(out2))
        assert data_section(out1) != data_section(out2)

    def test_summary_row_present(self, tmp_path):
        out = tmp_path / "runs.csv"
        run("simulate", "--n", "2", "--phi", "15", "--runs", "4", "--seed", "5",
            "--output", str(out))
        rows = data_section(out).splitlines()
        assert len(rows) == 1 + 4 + 1  # header, runs, summary
        assert rows[-1].startswith("summary,")

    def test_one_run_summary_has_blank_spread(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run("simulate", "--n", "2", "--phi", "15", "--runs", "1",
                   "--output", str(out)) == 0
        header, run_row, summary = (r.split(",") for r in data_section(out).splitlines())
        assert summary[0] == "summary"
        assert summary[3:7] == run_row[3:7]  # mean of one run is that run
        assert summary[header.index("std_l")] == ""
        assert summary[header.index("std_over_sigma")] == ""

    def test_degenerate_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "dead.cfg"
        cfg.write_text("pair_rate = 1e-9\naccidental_rate = 0\nstate = singlet\n")
        code = run(
            "simulate", "--config", str(cfg), "--n", "2", "--phi", "15",
            "--runs", "2", "--seed", "3", "--output", str(tmp_path / "out.csv"),
        )
        assert code == 3
        rows = data_section(tmp_path / "out.csv").splitlines()
        assert all("degenerate-data" in row for row in rows[1:])

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "runs.json"
        run("simulate", "--n", "2", "--phi", "15", "--runs", "2", "--seed", "5",
            "--format", "json", "--output", str(out))
        payload = json.loads(out.read_text())
        assert payload["manifest"]["tool"] == "nlvtest"
        assert payload["manifest"]["version"] == __version__
        assert payload["manifest"]["python"] == platform.python_version()
        assert payload["manifest"]["numpy"] == np.__version__
        assert len(payload["records"]) == 3
        assert payload["records"][0]["status"] == "ok"

    def test_reproducible_from_manifest(self, tmp_path):
        out = tmp_path / "orig.csv"
        run("simulate", "--n", "2", "--phi", "17.5", "--runs", "2", "--seed", "41",
            "--output", str(out))
        manifest = read_manifest(out)
        # rebuild the run purely from what the manifest recorded
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(
            f"pair_rate = {manifest['config.pair_rate']}\n"
            f"accidental_rate = {manifest['config.accidental_rate']}\n"
            f"integration_time = {manifest['config.integration_time']}\n"
            f"state = {manifest['config.state']}\n"
            f"seed = {manifest['seed']}\n"
            f"subtract_accidentals = {manifest['config.subtract_accidentals']}\n"
            f"plane1_normal = {manifest['config.plane1_normal']}\n"
            f"plane1_seed = {manifest['config.plane1_seed']}\n"
            f"plane2_normal = {manifest['config.plane2_normal']}\n"
            f"plane2_seed = {manifest['config.plane2_seed']}\n"
        )
        replay = tmp_path / "replay.csv"
        run(
            "simulate", "--config", str(cfg), "--n", manifest["n"],
            "--phi", manifest["phi_deg"], "--runs", manifest["runs"],
            "--output", str(replay),
        )
        assert data_section(replay) == data_section(out)


class TestManifest:
    @pytest.mark.parametrize("argv", [
        ("bounds", "--n-list", "2", "--phi", "15"),
        ("predict", "--n", "2", "--phi", "15"),
        ("simulate", "--n", "2", "--phi", "15", "--runs", "2"),
        ("sweep", "--n-list", "2", "--phi-range", "15:15", "--step", "1", "--runs", "2"),
    ], ids=lambda argv: argv[0])
    def test_records_python_and_numpy_versions(self, tmp_path, argv):
        # seeded draws rest on numpy's Poisson algorithm
        out = tmp_path / "out.csv"
        assert run(*argv, "--output", str(out)) == 0
        manifest = read_manifest(out)
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__


class TestSweep:
    def test_ideal_sweep_peaks_near_optimum(self, tmp_path):
        cfg = tmp_path / "ideal.cfg"
        cfg.write_text("state = singlet\naccidental_rate = 0\n")
        out = tmp_path / "sweep.csv"
        code = run(
            "sweep", "--config", str(cfg), "--n-list", "2",
            "--phi-range", "10:20", "--step", "0.5", "--runs", "2",
            "--seed", "11", "--output", str(out),
        )
        assert code == 0
        rows = [r.split(",") for r in data_section(out).splitlines()[1:]]
        margins = {float(r[1]): float(r[3]) - float(r[2]) for r in rows}
        best_phi = max(margins, key=margins.get)
        assert abs(best_phi - 14.36) <= 0.5

    def test_columns_and_counts(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run("sweep", "--n-list", "2,3", "--phi-range", "10:15", "--step", "5",
            "--runs", "2", "--seed", "1", "--output", str(out))
        rows = data_section(out).splitlines()
        assert rows[0].split(",")[:5] == ["n", "phi_deg", "bound", "analytic_l", "singlet_l"]
        assert len(rows) == 1 + 2 * 2  # two N values, two angles each


class TestCheck:
    def test_quick_suites_pass(self, capsys):
        assert run("check", "all", "--trials", "500", "--ensembles", "5") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS lemma-lower-bound" in out
        assert "PASS single-setting-model-feasible" in out


class TestConfigParsing:
    def test_full_round_trip(self, tmp_path):
        cfg = tmp_path / "full.cfg"
        cfg.write_text(
            "# comment line\n"
            "pair_rate = 900\n"
            "accidental_rate = 0.2\n"
            "integration_time = 2\n"
            "visibilities = 0.99,0.98,0.97\n"
            "seed = 77\n"
            "subtract_accidentals = true\n"
            "plane1_normal = 0,0,1\n"
            "plane1_seed = 0,1,0\n"
        )
        parsed = load_config(cfg)
        assert parsed.pair_rate == 900.0
        assert parsed.accidental_rate == 0.2
        assert parsed.integration_time == 2.0
        assert parsed.state == "visibilities:0.99,0.98,0.97"
        assert parsed.rng_seed == 77
        assert parsed.subtract_accidentals is True
        assert np.asarray(parsed.frames[0].seed).tolist() == [0.0, 1.0, 0.0]

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("pair_rate = 900\npair_rte = 1\n")
        with pytest.raises(ConfigError, match=":2"):
            load_config(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(cfg)

    def test_state_and_visibilities_conflict(self, tmp_path):
        cfg = tmp_path / "conflict.cfg"
        cfg.write_text("state = singlet\nvisibilities = 0.9,0.9,0.9\n")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            load_config(cfg)

    def test_bad_value_wrapped(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("pair_rate = fast\n")
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_cli_reports_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense\n")
        code = run("simulate", "--config", str(cfg), "--n", "2", "--phi", "15")
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "pair_rate = nan", "pair_rate = inf", "accidental_rate = nan",
        "integration_time = inf", "seed = -2",
    ])
    def test_non_finite_rate_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "rates.cfg"
        cfg.write_text(line + "\n")
        code = run("simulate", "--config", str(cfg), "--n", "2", "--phi", "15")
        key, _, value = line.partition(" = ")
        assert_one_line_error(code, capsys, key, f"got {value}")


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ("predict", "--state", "singlet", "--n", "2", "--phi", "nan"),
        ("simulate", "--n", "4", "--phi", "nan", "--runs", "2"),
        ("simulate", "--n", "4", "--phi", "inf"),
        ("bounds", "--n-list", "2", "--phi-range", "nan:10", "--step", "1"),
        ("bounds", "--n-list", "2", "--phi-range", "0:10", "--step", "nan"),
        ("predict", "--state", "bell_diagonal:nan,0,0", "--n", "2", "--phi", "15"),
    ], ids=["predict-phi-nan", "simulate-phi-nan", "simulate-phi-inf",
            "bounds-range-nan", "bounds-step-nan", "state-nan"])
    def test_non_finite_number(self, capsys, argv):
        assert_one_line_error(run(*argv), capsys)

    @pytest.mark.parametrize("argv, flag, value", [
        (("simulate", "--n", "0", "--phi", "15"), "--n", "0"),
        (("predict", "--state", "singlet", "--n", "0", "--phi", "15"), "--n", "0"),
        (("simulate", "--n", "2", "--phi", "15", "--runs", "0"), "--runs", "0"),
        (("sweep", "--n-list", "2", "--phi-range", "10:15", "--step", "5", "--runs", "-1"),
         "--runs", "-1"),
        (("check", "lemma", "--trials", "0"), "--trials", "0"),
        (("check", "leggett", "--ensembles", "-3"), "--ensembles", "-3"),
        (("bounds", "--n-list", "2,0", "--phi", "15"), "--n-list", "0"),
        (("simulate", "--n", "2", "--phi", "15", "--seed", "-1"), "--seed", "-1"),
        (("sweep", "--n-list", "2", "--phi-range", "10:15", "--step", "5", "--seed", "-1"),
         "--seed", "-1"),
        (("check", "lemma", "--seed", "-1"), "--seed", "-1"),
        (("check", "leggett", "--grid-deg", "-1"), "--grid-deg", "-1"),
    ], ids=["simulate-n-0", "predict-n-0", "simulate-runs-0", "sweep-runs-neg",
            "check-trials-0", "check-ensembles-neg", "bounds-n-list-0",
            "simulate-seed-neg", "sweep-seed-neg", "check-seed-neg", "check-grid-deg-neg"])
    def test_non_positive_count(self, capsys, argv, flag, value):
        assert_one_line_error(run(*argv), capsys, flag, repr(value))

    def test_scan_resolution_above_180(self, capsys):
        # argparse rejects a negative --grid-deg; the scan rejects one above 180
        code = run("check", "leggett", "--trials", "100", "--ensembles", "1", "--grid-deg", "200")
        assert_one_line_error(code, capsys, "resolution", "200")

    def test_scan_resolution_not_dividing_180(self, capsys):
        code = run("check", "leggett", "--trials", "100", "--ensembles", "1", "--grid-deg", "7")
        assert_one_line_error(code, capsys, "resolution", "7.0")

    def test_scan_grid_above_a_million_points(self, capsys):
        # refused from the point count alone: the 0.01-degree grid is never built,
        # and a subnormal resolution, 180/r = inf, counts as too many points
        for grid_deg, named in (("0.01", "647964002 points"), ("1e-320", "1e-320")):
            code = run("check", "leggett", "--trials", "10", "--ensembles", "1",
                       "--grid-deg", grid_deg)
            assert_one_line_error(code, capsys, named, "1000000")

    def test_phi_grid_above_a_million_angles(self, capsys):
        # refused from the angle count alone: the 5e12-angle grid is never built,
        # and a step so small against the range that the count is inf is refused too
        for argv in (("bounds", "--n-list", "2", "--phi-range", "10:15", "--step", "1e-12"),
                     ("bounds", "--n-list", "2", "--phi-range", "0:1", "--step", "1e-320"),
                     ("sweep", "--n-list", "2", "--phi-range", "0:1", "--step", "1e-320"),
                     ("bounds", "--n-list", "2", "--phi-range", "0:1e308", "--step", "1e-10")):
            assert_one_line_error(run(*argv), capsys, "angles", "1000000")

    def test_library_value_error_is_one_line(self, tmp_path, capsys):
        # the bound holds only for orthogonal planes, so both commands refuse others
        cfg = tmp_path / "planes.cfg"
        cfg.write_text("plane2_normal = 0.6,0,0.8\nplane2_seed = 0,1,0\n")
        for argv in (("predict", "--n", "2", "--phi", "15"),
                     ("simulate", "--n", "2", "--phi", "15", "--runs", "2", "--seed", "1")):
            code = run(argv[0], "--config", str(cfg), *argv[1:])
            assert_one_line_error(code, capsys, "orthogonal")


# Pinned data sections: seeded output stays byte-identical unless the manifest
# version is bumped.  Config "sparse" (one pair per second, no accidentals)
# mixes ok rows, degenerate-data rows and sigma-0 runs with a blank violation
# in one cell, and its sweep cells exercise the (seed, N, phi index, run) seeds.
# Config "noisy" (20 pairs and 1 accidental per second) floors 38 of the 192
# accidental-corrected counts of its subtraction run at zero.
CONFIGS = {
    "SPARSE": "pair_rate = 1\naccidental_rate = 0\n",
    "NOISY": "pair_rate = 20\naccidental_rate = 1\n",
}
GOLDEN = {
    "predict-visibilities": (
        ("predict", "--state", "visibilities:0.995,0.990,0.982", "--n", "32", "--phi", "15"),
        """\
n,phi_deg,l_value,bound,violation,best_phi_deg,best_violation
32,15.00,3.8945,3.8339,0.0606,18.48,0.0641""",
    ),
    "predict-werner": (
        ("predict", "--state", "werner:0.96", "--n", "3", "--phi", "25"),
        """\
n,phi_deg,l_value,bound,violation,best_phi_deg,best_violation
3,25.00,3.6601,3.7501,-0.0900,17.30,-0.0732""",
    ),
    "simulate-default": (
        ("simulate", "--n", "3", "--phi", "15", "--runs", "3", "--seed", "1234"),
        """\
run,n,phi_deg,l_exp,sigma,bound,violation_sigmas,seed,status,std_l,std_over_sigma
0,3,15.00,3.8920,0.0031,3.8493,13.91,1234-0,ok,,
1,3,15.00,3.8934,0.0031,3.8493,14.38,1234-1,ok,,
2,3,15.00,3.8910,0.0031,3.8493,13.48,1234-2,ok,,
summary,3,15.00,3.8922,0.0031,3.8493,13.93,,summary,0.0012,0.380""",
    ),
    "simulate-sparse-mixed": (
        ("simulate", "--config", "SPARSE", "--n", "2", "--phi", "15", "--runs", "10",
         "--seed", "3"),
        """\
run,n,phi_deg,l_exp,sigma,bound,violation_sigmas,seed,status,std_l,std_over_sigma
0,2,15.00,4.0000,0.0000,3.8695,,3-0,ok,,
1,2,15.00,4.0000,0.0000,3.8695,,3-1,ok,,
2,2,15.00,3.8000,0.1789,3.8695,-0.39,3-2,ok,,
3,2,15.00,4.0000,0.0000,3.8695,,3-3,ok,,
4,2,15.00,,,,,3-4,degenerate-data (no counts at plane 1, setting 0, theta=0),,
5,2,15.00,4.0000,0.0000,3.8695,,3-5,ok,,
6,2,15.00,3.8889,0.1048,3.8695,0.19,3-6,ok,,
7,2,15.00,,,,,3-7,degenerate-data (no counts at plane 1, setting 1, theta=0),,
8,2,15.00,3.6000,0.2191,3.8695,-1.23,3-8,ok,,
9,2,15.00,3.7321,0.1765,3.8695,-0.78,3-9,ok,,
summary,2,15.00,3.8776,0.0849,3.8695,-0.55,,summary,0.1532,1.804""",
    ),
    "sweep-sparse-mixed": (
        ("sweep", "--config", "SPARSE", "--n-list", "2", "--phi-range", "10:15",
         "--step", "5", "--runs", "10", "--seed", "3"),
        """\
n,phi_deg,bound,analytic_l,singlet_l,mean_l_exp,std_l,mean_sigma,mean_violation,runs,status
2,10.00,3.9128,3.9319,3.9696,3.9500,0.1000,0.0439,-0.69,9,degenerate-data x1
2,15.00,3.8695,3.8945,3.9319,3.9306,0.1667,0.0523,-0.50,9,degenerate-data x1""",
    ),
    "simulate-subtract": (
        ("simulate", "--config", "NOISY", "--n", "2", "--phi", "15", "--runs", "6",
         "--seed", "7", "--subtract-accidentals"),
        """\
run,n,phi_deg,l_exp,sigma,bound,violation_sigmas,seed,status,std_l,std_over_sigma
0,2,15.00,3.7978,0.0972,3.8695,-0.74,7-0,ok,,
1,2,15.00,3.8049,0.1053,3.8695,-0.61,7-1,ok,,
2,2,15.00,3.8702,0.1042,3.8695,0.01,7-2,ok,,
3,2,15.00,3.8341,0.1070,3.8695,-0.33,7-3,ok,,
4,2,15.00,3.9038,0.1000,3.8695,0.34,7-4,ok,,
5,2,15.00,3.7465,0.0996,3.8695,-1.23,7-5,ok,,
summary,2,15.00,3.8262,0.1022,3.8695,-0.43,,summary,0.0559,0.547""",
    ),
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_data_section_unchanged(self, tmp_path, name):
        argv, expected = GOLDEN[name]
        for key, text in CONFIGS.items():
            (tmp_path / f"{key}.cfg").write_text(text)
        out = tmp_path / "out.csv"
        argv = [str(tmp_path / f"{arg}.cfg") if arg in CONFIGS else arg for arg in argv]
        assert run(*argv, "--output", str(out)) == 0
        assert data_section(out) == expected
