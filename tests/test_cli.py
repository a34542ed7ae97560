import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlvtest
from nlvtest import __version__
from nlvtest.cli import (
    _DECIMALS, ConfigError, _cell, _phi_grid_deg, build_parser, load_config, main, read_manifest,
)
from nlvtest.inequality import nlv_bound
from nlvtest.quantum import singlet_L
from nlvtest.simulate import ExperimentConfig, replicate


def data_section(path) -> str:
    lines = path.read_text().splitlines()
    return "\n".join(line for line in lines if not line.startswith("#"))


def run(*argv) -> int:
    return main(list(argv))


def replay_config(manifest: dict[str, str], path: Path) -> Path:
    """Write the manifest's ``config.*`` lines, prefix stripped, as the
    config file ``path``."""
    path.write_text("".join(f"{key[len('config.'):]} = {value}\n"
                            for key, value in manifest.items() if key.startswith("config.")))
    return path


def assert_one_line_error(code, capsys, *named):
    """Exit 1 with exactly one ``error:`` line on stderr, naming each of
    ``named``, and no traceback."""
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1
    assert all(word in lines[0] for word in named)
    return lines[0]


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

    def test_step_without_phi_range_is_refused(self, capsys):
        # a single --phi has no grid, so the step would be ignored
        code = run("bounds", "--n-list", "2", "--phi", "15", "--step", "5")
        assert_one_line_error(code, capsys, "--step", "--phi-range")

    def test_data_section_equals_per_angle_cells(self, tmp_path):
        # one nlv_bound call per N over the grid prints what one call per
        # (angle, N) printed
        n_list = (1, 2, 3, 7, 32)
        out = tmp_path / "bounds.csv"
        assert run("bounds", "--n-list", ",".join(map(str, n_list)), "--phi-range=-190:370",
                   "--step", "0.37", "--output", str(out)) == 0
        grid = _phi_grid_deg(argparse.Namespace(phi=None, phi_range=(-190.0, 370.0), step=0.37))
        lines = ["phi_deg," + ",".join(f"bound_n{n}" for n in n_list) + ",singlet_l"]
        for deg in grid:
            phi = math.radians(deg)
            cells = [nlv_bound(n, phi) for n in n_list] + [singlet_L(phi)]
            lines.append(",".join([f"{round(deg, 2) + 0.0:.2f}"]
                                  + [f"{round(x, 4) + 0.0:.4f}" for x in cells]))
        assert len(lines) == 1515
        assert data_section(out) == "\n".join(lines)

    def test_grid_holds_at_most_a_million_angles(self):
        def grid(lo, hi, step):
            return _phi_grid_deg(argparse.Namespace(phi=None, phi_range=(lo, hi), step=step))

        assert grid(0.0, 0.3, 0.1) == [0.0, 0.1, 0.2, 0.1 * 3]
        assert grid(10.0, 10.0, 5.0) == [10.0]
        assert len(grid(0.0, 90.0, 1e-4)) == 900_001
        assert len(grid(0.0, 999_999.0, 1.0)) == 1_000_000
        with pytest.raises(ConfigError, match="--step 1.0 gives over 1000000 angles"):
            grid(0.0, 1_000_000.0, 1.0)


# predict's data rows for the benchmark's states, N = 2, 3, 4, 8, 16 and 32,
# phi = 15 degrees
PREDICT_GRID = {
    "singlet": """
2,15.00,3.9319,3.8695,0.0624,14.36,0.0625
3,15.00,3.9319,3.8493,0.0826,16.60,0.0833
4,15.00,3.9319,3.8424,0.0894,17.36,0.0911
8,15.00,3.9319,3.8360,0.0959,18.08,0.0987
16,15.00,3.9319,3.8343,0.0975,18.26,0.1007
32,15.00,3.9319,3.8339,0.0979,18.30,0.1012""",
    "werner:0.96": """
2,15.00,3.7746,3.8695,-0.0949,14.96,-0.0949
3,15.00,3.7746,3.8493,-0.0747,17.29,-0.0732
4,15.00,3.7746,3.8424,-0.0679,18.09,-0.0651
8,15.00,3.7746,3.8360,-0.0614,18.84,-0.0572
16,15.00,3.7746,3.8343,-0.0598,19.02,-0.0551
32,15.00,3.7746,3.8339,-0.0594,19.07,-0.0546""",
    "colored:0.98": """
2,15.00,3.8925,3.8695,0.0231,14.51,0.0231
3,15.00,3.8925,3.8493,0.0433,16.77,0.0442
4,15.00,3.8925,3.8424,0.0501,17.53,0.0520
8,15.00,3.8925,3.8360,0.0566,18.26,0.0597
16,15.00,3.8925,3.8343,0.0582,18.44,0.0617
32,15.00,3.8925,3.8339,0.0586,18.49,0.0622""",
    "visibilities:0.995,0.990,0.982": """
2,15.00,3.8945,3.8695,0.0250,14.50,0.0251
3,15.00,3.8945,3.8493,0.0452,16.76,0.0461
4,15.00,3.8945,3.8424,0.0521,17.52,0.0539
8,15.00,3.8945,3.8360,0.0585,18.25,0.0617
16,15.00,3.8945,3.8343,0.0602,18.43,0.0636
32,15.00,3.8945,3.8339,0.0606,18.48,0.0641""",
}


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

    def test_zero_cells_print_unsigned(self, capsys):
        # the violation at 0.01 degrees is -3.0e-8, which rounds to a zero
        # cell; the single-setting search ends exactly at its end phi = 0
        assert run("predict", "--state", "singlet", "--n", "1", "--phi", "0.01") == 0
        out = capsys.readouterr().out
        row = [line for line in out.splitlines() if not line.startswith("#")][1]
        assert row.split(",")[4:] == ["0.0000", "0.00", "0.0000"]

    # one predict builds its setting rows once, for both the search and L, and
    # finds the search's stationary points with no eigensolver
    @pytest.mark.parametrize("spec, n", [
        *((spec, 4) for spec in PREDICT_GRID), ("mixed", 1), ("singlet", 1),
    ])
    def test_one_setting_build_and_no_eigensolver(self, monkeypatch, capsys, spec, n):
        built, real = [], nlvtest.sphere.plane_settings

        def counting(frames, count):
            built.append(count)
            return real(frames, count)

        def refused(*args, **kwargs):
            raise AssertionError("eigensolver called")

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "nlvtest"]:
            if getattr(module, "plane_settings", None) is real:
                monkeypatch.setattr(module, "plane_settings", counting)
        monkeypatch.setattr(np, "roots", refused)
        monkeypatch.setattr(np.linalg, "eigvals", refused)
        assert run("predict", "--state", spec, "--n", str(n), "--phi", "15") == 0
        assert built == [n]

    @pytest.mark.parametrize("spec", sorted(PREDICT_GRID))
    def test_benchmark_grid_unchanged(self, capsys, spec):
        # the predict-scan states at phi = 15 degrees, recorded from the
        # np.roots search that the eigensolver-free one replaced
        rows = []
        for n in (2, 3, 4, 8, 16, 32):
            assert run("predict", "--state", spec, "--n", str(n), "--phi", "15") == 0
            lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
            assert lines[0] == "n,phi_deg,l_value,bound,violation,best_phi_deg,best_violation"
            rows += lines[1:]
        assert rows == PREDICT_GRID[spec].split()

    def test_invalid_state_is_config_error(self, capsys):
        assert run("predict", "--state", "wat:1", "--n", "2", "--phi", "15") == 1
        assert "error" in capsys.readouterr().err

    # the four predict-scan benchmark states, and custom planes with the state
    # in the config file; the plane-2 seed is 1e-12 off unit, so it is stored
    # rescaled
    @pytest.mark.parametrize("argv", [
        *(("--state", spec) for spec in
          ("singlet", "werner:0.96", "colored:0.98", "visibilities:0.995,0.990,0.982")),
        ("--config", "PLANES"),
    ])
    def test_reproducible_from_manifest(self, tmp_path, argv):
        (tmp_path / "planes.cfg").write_text(
            "state = visibilities:0.995,0.990,0.982\nplane1_seed = 0.6,0.8,0\n"
            "plane2_normal = 0.8,-0.6,0\nplane2_seed = 0.6000000000006,0.8000000000008,0\n"
        )
        argv = [str(tmp_path / "planes.cfg") if arg == "PLANES" else arg for arg in argv]
        out = tmp_path / "orig.csv"
        assert run("predict", *argv, "--n", "3", "--phi", "17.5", "--output", str(out)) == 0
        manifest = read_manifest(out)
        # rebuild the run purely from what the manifest recorded
        cfg = replay_config(manifest, tmp_path / "replay.cfg")
        replay = tmp_path / "replay.csv"
        assert run("predict", "--config", str(cfg), "--n", manifest["n"],
                   "--phi", manifest["phi_deg"], "--output", str(replay)) == 0
        assert data_section(replay) == data_section(out)


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

    @pytest.mark.parametrize("command", [
        ("simulate", "--n", "2", "--phi", "15"),
        ("sweep", "--n-list", "2", "--phi-range", "10:20", "--step", "5"),
    ], ids=["simulate", "sweep"])
    def test_degenerate_config_exits_3(self, tmp_path, capsys, command):
        # every run degenerate: the rows print, then one error: line says why
        cfg = tmp_path / "dead.cfg"
        cfg.write_text("pair_rate = 1e-9\naccidental_rate = 0\nstate = singlet\n")
        code = run(*command, "--config", str(cfg), "--runs", "2", "--seed", "3",
                   "--output", str(tmp_path / "out.csv"))
        assert code == 3
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "error: every run produced degenerate data"]
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
        assert payload["manifest"]["format"] == "5"
        assert len(payload["records"]) == 3
        assert payload["records"][0]["status"] == "ok"

    # the plane lines as the manifest prints them; the custom plane-2 seed is
    # 1e-12 off unit, so it is stored rescaled
    @pytest.mark.parametrize("planes, printed", [
        ("", ("0.0,0.0,1.0", "1.0,0.0,0.0", "0.0,-1.0,0.0", "1.0,0.0,0.0")),
        ("plane1_normal = 0,0,1\nplane1_seed = 0.6,0.8,0\n"
         "plane2_normal = 0.8,-0.6,0\nplane2_seed = 0.6000000000006,0.8000000000008,0\n",
         ("0.0,0.0,1.0", "0.6,0.8,0.0", "0.8,-0.6,0.0", "0.6,0.7999999999999999,0.0")),
    ], ids=["default", "custom"])
    def test_reproducible_from_manifest(self, tmp_path, planes, printed):
        config = ()
        if planes:
            (tmp_path / "planes.cfg").write_text(planes)
            config = ("--config", str(tmp_path / "planes.cfg"))
        out = tmp_path / "orig.csv"
        run("simulate", *config, "--n", "2", "--phi", "17.5", "--runs", "2", "--seed", "41",
            "--output", str(out))
        manifest = read_manifest(out)
        keys = [f"config.plane{i}_{row}" for i in (1, 2) for row in ("normal", "seed")]
        assert tuple(manifest[key] for key in keys) == printed
        # rebuild the run purely from what the manifest recorded
        cfg = replay_config(manifest, tmp_path / "replay.cfg")
        replay = tmp_path / "replay.csv"
        run(
            "simulate", "--config", str(cfg), "--n", manifest["n"],
            "--phi", manifest["phi_deg"], "--runs", manifest["runs"],
            "--output", str(replay),
        )
        assert data_section(replay) == data_section(out)


# One argv per command form, recorded before the shared flags moved to argparse
# parent parsers: its parsed namespace (without func), and its manifest's
# command lines in order, then the config keys it sets apart from the defaults
# (None for check, which prints no manifest).
COMMAND_PINS = {
    "bounds-phi": (
        ("bounds", "--n-list", "2,3", "--phi", "15"),
        {"subcommand": "bounds", "n_list": [2, 3], "phi": 15.0, "phi_range": None,
         "step": None, "format": "csv", "output": None},
        ([("command", "bounds"), ("n_list", "2,3"), ("phi_deg", "15.0")], None),
    ),
    "bounds-phi-range": (
        ("bounds", "--n-list", "4", "--phi-range", "0:10", "--step", "5"),
        {"subcommand": "bounds", "n_list": [4], "phi": None, "phi_range": (0.0, 10.0),
         "step": 5.0, "format": "csv", "output": None},
        ([("command", "bounds"), ("n_list", "4"), ("phi_range_deg", "0.0:10.0"),
          ("step_deg", "5.0")], None),
    ),
    "predict-state": (
        ("predict", "--state", "werner:0.9", "--n", "3", "--phi", "20"),
        {"subcommand": "predict", "state": "werner:0.9", "config": None, "n": 3, "phi": 20.0,
         "format": "csv", "output": None},
        ([("command", "predict"), ("n", "3"), ("phi_deg", "20.0")], {"state": "werner:0.9"}),
    ),
    "simulate-subtract-seed": (
        ("simulate", "--n", "2", "--phi", "15", "--runs", "2", "--subtract-accidentals",
         "--seed", "4"),
        {"subcommand": "simulate", "config": None, "n": 2, "phi": 15.0, "runs": 2, "seed": 4,
         "subtract_accidentals": True, "format": "csv", "output": None},
        ([("command", "simulate"), ("n", "2"), ("runs", "2"), ("phi_deg", "15.0")],
         {"seed": "4", "subtract_accidentals": "true"}),
    ),
    "sweep": (
        ("sweep", "--n-list", "2,3", "--phi-range", "10:15", "--step", "5", "--runs", "2"),
        {"subcommand": "sweep", "config": None, "n_list": [2, 3], "phi_range": (10.0, 15.0),
         "step": 5.0, "runs": 2, "seed": None, "subtract_accidentals": None, "format": "csv",
         "output": None},
        ([("command", "sweep"), ("runs", "2"), ("n_list", "2,3"), ("phi_range_deg", "10.0:15.0"),
          ("step_deg", "5.0")], {}),
    ),
    "check-leggett": (
        ("check", "leggett", "--ensembles", "3", "--grid-deg", "30"),
        {"subcommand": "check", "suite": "leggett", "trials": 100000, "ensembles": 3,
         "grid_deg": 30.0, "seed": 0},
        None,
    ),
}
# the manifest's config lines of the default config, in order
DEFAULT_CONFIG_LINES = {
    "pair_rate": "1860.0", "accidental_rate": "0.41", "integration_time": "4.0",
    "state": "visibilities:0.995,0.990,0.982", "seed": "0", "subtract_accidentals": "false",
    "plane1_normal": "0.0,0.0,1.0", "plane1_seed": "1.0,0.0,0.0",
    "plane2_normal": "0.0,-1.0,0.0", "plane2_seed": "1.0,0.0,0.0",
}


class TestCommandPins:
    @pytest.mark.parametrize("name", sorted(COMMAND_PINS))
    def test_parsed_flags_unchanged(self, name):
        argv, namespace, _ = COMMAND_PINS[name]
        parsed = vars(build_parser().parse_args(list(argv)))
        del parsed["func"]
        assert parsed == namespace

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(name for name, pin in COMMAND_PINS.items() if pin[2]))
    def test_manifest_lines_unchanged(self, tmp_path, name, fmt):
        argv, _, (command, config) = COMMAND_PINS[name]
        out = tmp_path / f"out.{fmt}"
        assert run(*argv, "--format", fmt, "--output", str(out)) == 0
        manifest = read_manifest(out) if fmt == "csv" else json.loads(out.read_text())["manifest"]
        expected = [("tool", "nlvtest"), ("version", __version__), ("format", "5"), *command]
        if config is not None:
            expected += [("config." + key, value)
                         for key, value in {**DEFAULT_CONFIG_LINES, **config}.items()]
        assert [(key, value) for key, value in manifest.items()
                if key not in ("timestamp", "python", "numpy")] == expected


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

    def test_records_the_output_format(self, tmp_path):
        out = tmp_path / "out.csv"
        assert run("bounds", "--n-list", "2", "--phi", "15", "--output", str(out)) == 0
        assert read_manifest(out)["format"] == "5"


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

    def test_reproducible_from_manifest(self, tmp_path):
        # a sparse source with custom planes, so the cells mix ok and degenerate runs
        (tmp_path / "sweep.cfg").write_text(
            "pair_rate = 0.6\naccidental_rate = 0.05\nstate = werner:0.95\n"
            "subtract_accidentals = true\nplane1_seed = 0.6,0.8,0\n"
            "plane2_normal = 0.8,-0.6,0\nplane2_seed = 0.6000000000006,0.8000000000008,0\n"
        )
        out = tmp_path / "orig.csv"
        assert run("sweep", "--config", str(tmp_path / "sweep.cfg"), "--n-list", "3,1",
                   "--phi-range=-5:12.5", "--step", "8.75", "--runs", "4", "--seed", "23",
                   "--output", str(out)) == 0
        manifest = read_manifest(out)
        # rebuild the sweep purely from what the manifest recorded
        cfg = replay_config(manifest, tmp_path / "replay.cfg")
        replay = tmp_path / "replay.csv"
        assert run("sweep", "--config", str(cfg), "--n-list", manifest["n_list"],
                   f"--phi-range={manifest['phi_range_deg']}", "--step", manifest["step_deg"],
                   "--runs", manifest["runs"], "--output", str(replay)) == 0
        assert data_section(replay) == data_section(out)
        assert "degenerate-data" in data_section(out) and ",ok" in data_section(out)


class TestCheck:
    def test_quick_suites_pass(self, capsys):
        assert run("check", "all", "--trials", "500", "--ensembles", "5") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS lemma-lower-bound" in out
        assert "PASS single-setting-model-feasible" in out

    def test_leggett_scan_passes(self, capsys):
        # the benchmark's 3-degree scan of the two-setting schedule, run through
        assert run("check", "leggett", "--trials", "100", "--ensembles", "1", "--grid-deg", "3") == 0
        out = capsys.readouterr().out
        assert "PASS two-setting-scan-infeasible: grid 7082 points" in out
        assert "74178 candidates checked" in out
        assert out.splitlines()[-1] == "6/6 properties passed"

    def test_failing_property_exits_2(self, capsys, monkeypatch):
        failing = nlvtest._checks.CheckResult("made-up", False, "fails on purpose")
        monkeypatch.setattr(nlvtest._checks, "lemma_suite", lambda **kwargs: [failing])
        assert run("check", "lemma") == 2
        assert capsys.readouterr().out.splitlines() == [
            "FAIL made-up: fails on purpose", "0/1 properties passed"]


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
        assert parsed.frames[0, 1].tolist() == [0.0, 1.0, 0.0]

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

    @pytest.mark.parametrize("lines", [
        ("state = singlet", "visibilities = 0.9,0.9,0.9"),
        ("visibilities = 0.9,0.9,0.9", "state = singlet"),
    ], ids=["state-first", "visibilities-first"])
    def test_state_and_visibilities_conflict(self, tmp_path, lines):
        cfg = tmp_path / "conflict.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        # refused at the second of the two lines, which it names
        with pytest.raises(ConfigError,
                           match=r"conflict\.cfg:2: 'state' and 'visibilities' are mutually exclusive"):
            load_config(cfg)

    def test_first_bad_line_wins(self, tmp_path):
        # the file is read in one pass, each line refused where it stands
        cfg = tmp_path / "two.cfg"
        cfg.write_text("seed = 1\npair_rate = fast\n\npair_rte = 1\n")
        with pytest.raises(ConfigError, match=r"two\.cfg:2: pair_rate: "):
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

    def test_bad_state_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("state = wat:1\n")
        code = run("simulate", "--config", str(cfg), "--n", "2", "--phi", "15")
        line = assert_one_line_error(code, capsys)
        assert line == f"error: {cfg}:1: state: unknown state spec 'wat:1'"

    def test_bool_that_does_not_parse(self, tmp_path, capsys):
        cfg = tmp_path / "bool.cfg"
        cfg.write_text("subtract_accidentals = maybe\n")
        code = run("simulate", "--config", str(cfg), "--n", "2", "--phi", "15")
        assert_one_line_error(code, capsys, "bool.cfg", "not a boolean: 'maybe'")

    # a value that does not parse is named by file, line and key
    @pytest.mark.parametrize("text, message", [
        ("pair_rate = fast\n", "1: pair_rate: could not convert string to float: 'fast'"),
        ("# planes\nplane1_normal = 0,0,x\n",
         "2: plane1_normal: could not convert string to float: 'x'"),
        ("seed = 4\n\nsubtract_accidentals = maybe\n", "3: subtract_accidentals: not a boolean: 'maybe'"),
        ("visibilities = 0.9,x\n",
         "1: visibilities: invalid state spec 'visibilities:0.9,x': could not convert string to float: 'x'"),
    ], ids=["float", "vector", "bool", "visibilities"])
    def test_value_that_does_not_parse_names_line_and_key(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "f.cfg"
        cfg.write_text(text)
        code = run("simulate", "--config", str(cfg), "--n", "2", "--phi", "15")
        assert assert_one_line_error(code, capsys) == f"error: {cfg}:{message}"

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

    @pytest.mark.parametrize("argv", [
        ("bounds", "--n-list", "2,3,2", "--phi", "15"),
        ("bounds", "--n-list", "2,2", "--phi", "15", "--format", "json"),
        ("sweep", "--n-list", "3,2,2", "--phi-range", "10:15", "--step", "5", "--runs", "2"),
    ], ids=["bounds", "bounds-json", "sweep"])
    def test_repeated_setting_count(self, capsys, argv):
        assert_one_line_error(run(*argv), capsys, "--n-list", "setting count 2 repeated")

    @pytest.mark.parametrize("argv, named", [
        (("predict", "--n", "abc", "--phi", "15"), ("--n", "need a positive integer, got 'abc'")),
        (("bounds", "--n-list", "2", "--phi-range", "5", "--step", "1"),
         ("--phi-range", "bad angle range '5', expected LO:HI")),
        (("bounds", "--n-list", "2", "--phi-range", "5:1", "--step", "1"),
         ("--phi-range", "empty angle range '5:1'")),
    ], ids=["n-not-a-number", "phi-range-without-colon", "phi-range-reversed"])
    def test_flag_value_that_does_not_parse(self, capsys, argv, named):
        assert_one_line_error(run(*argv), capsys, *named)

    def test_empty_state_spec(self, capsys):
        code = run("predict", "--state", "", "--n", "2", "--phi", "15")
        assert_one_line_error(code, capsys, "unknown state spec ''")

    @pytest.mark.parametrize("flag, value", [("--grid-deg", "3"), ("--ensembles", "5")])
    def test_lemma_refuses_the_leggett_suite_flags(self, capsys, flag, value):
        # check lemma runs no scan and draws no ensembles, so it would ignore them
        code = run("check", "lemma", "--trials", "10", flag, value)
        assert_one_line_error(code, capsys, flag, "leggett suite")

    @pytest.mark.parametrize("suite", ["lemma", "leggett", "all"])
    def test_trials_over_the_ceiling(self, capsys, suite):
        # refused before anything is drawn: 1e15 trials would ask for petabytes
        for trials in ("1000001", "1000000000000000"):
            code = run("check", suite, "--trials", trials)
            assert_one_line_error(code, capsys, "at most 1000000 trials", trials)

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output(self, tmp_path, capsys, target):
        path = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        code = run("bounds", "--n-list", "2", "--phi", "15", "--output", str(path))
        assert_one_line_error(code, capsys, f"cannot write output {path}")

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
        for grid_deg, named in (("0.01", "0.01 degree grid"), ("1e-320", "1e-320")):
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

    @pytest.mark.parametrize("argv", [
        ("predict", "--n", "1001", "--phi", "15"),
        ("sweep", "--n-list", "2,1001", "--phi-range", "10:20", "--step", "5", "--runs", "1"),
    ], ids=["predict", "sweep"])
    def test_settings_over_the_ceiling(self, capsys, argv):
        # refused in sphere.plane_settings before any setting row is built
        assert_one_line_error(run(*argv), capsys, "at most 1000 settings per plane", "1001")

    @pytest.mark.parametrize("argv, named", [
        (("check", "leggett", "--trials", "10", "--ensembles", "1", "--grid-deg", "1e-300"),
         "1e-300 degree grid"),
        (("bounds", "--n-list", "2", "--phi-range", "0:1e300", "--step", "1e-5"), "--step 1e-05"),
    ], ids=["scan-1e-300", "bounds-range-1e300"])
    def test_refusal_over_the_ceiling_is_short(self, capsys, argv, named):
        # the exact counts (605 and 305 digits) would say no more than the ceiling
        line = assert_one_line_error(run(*argv), capsys, "over 1000000", named)
        assert len(line) < 200

    @pytest.mark.parametrize("text, named", [
        ("pair_rate = 1e300\n", "got 4e+300"),
        ("accidental_rate = 1e200\nintegration_time = 1e200\n", "got inf"),
    ], ids=["pair-rate", "accidental-times-time"])
    def test_rates_whose_poisson_means_overflow_are_one_line(self, tmp_path, capsys, text, named):
        # numpy's Poisson draw refuses such means with "lam value too large"
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text)
        code = run("simulate", "--config", str(cfg), "--n", "2", "--phi", "15")
        assert_one_line_error(code, capsys, str(cfg), "pair_rate", "accidental_rate",
                              "integration_time", named)

    def test_runs_over_the_count_ceiling_are_one_line(self, capsys):
        # 1,000,000 runs of 64 counts each are refused before anything is drawn
        code = run("simulate", "--n", "4", "--phi", "15", "--runs", "1000000")
        assert_one_line_error(code, capsys, "1000000 runs", "N = 4", "10000000")

    @pytest.mark.parametrize("vector, named", [
        ("nan,0,1", "not a unit vector: |v| = nan"),
        ("0,0,2", "not a unit vector: |v| = 2.0"),
        ("0,0,1,0", "expected three components, got 4"),
    ])
    def test_bad_plane_vector_is_one_line(self, tmp_path, capsys, vector, named):
        cfg = tmp_path / "planes.cfg"
        cfg.write_text(f"plane1_normal = {vector}\n")
        code = run("predict", "--config", str(cfg), "--n", "2", "--phi", "15")
        assert_one_line_error(code, capsys, "planes.cfg", named)

    def test_library_value_error_is_one_line(self, tmp_path, capsys):
        # the bound holds only for orthogonal planes, so both commands refuse others
        cfg = tmp_path / "planes.cfg"
        cfg.write_text("plane2_normal = 0.6,0,0.8\nplane2_seed = 0,1,0\n")
        for argv in (("predict", "--n", "2", "--phi", "15"),
                     ("simulate", "--n", "2", "--phi", "15", "--runs", "2", "--seed", "1")):
            code = run(argv[0], "--config", str(cfg), *argv[1:])
            assert_one_line_error(code, capsys, "orthogonal")


class TestConfigFromArgs:
    @pytest.mark.parametrize("argv", [
        ("predict", "--state", "singlet", "--n", "2", "--phi", "15"),
        ("simulate", "--n", "2", "--phi", "15", "--seed", "3", "--subtract-accidentals"),
    ], ids=["predict", "simulate"])
    def test_one_config_per_command(self, tmp_path, monkeypatch, argv):
        built = []
        post_init = ExperimentConfig.__post_init__

        def counted(config):
            built.append(config)
            post_init(config)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
        assert run(*argv, "--output", str(tmp_path / "out.csv")) == 0
        assert len(built) == 1

    def test_flags_override_the_file(self, tmp_path):
        cfg = tmp_path / "file.cfg"
        cfg.write_text("seed = 5\nsubtract_accidentals = true\nstate = werner:0.9\n")
        out = tmp_path / "out.csv"

        def manifest(*argv):
            assert run(*argv, "--config", str(cfg), "--n", "2", "--phi", "15",
                       "--output", str(out)) == 0
            recorded = read_manifest(out)
            return (recorded["config.seed"], recorded["config.subtract_accidentals"],
                    recorded["config.state"])

        assert manifest("simulate", "--seed", "6") == ("6", "true", "werner:0.9")
        assert manifest("simulate") == ("5", "true", "werner:0.9")
        assert manifest("predict", "--state", "singlet") == ("5", "true", "singlet")
        assert manifest("predict") == ("5", "true", "werner:0.9")


# In-process calls share one parser; each must print what the same argv
# prints as the first call of a fresh interpreter.
REUSE_SEQUENCE = (
    ("simulate", "--n", "2", "--phi", "15", "--runs", "3", "--seed", "5"),
    ("predict", "--state", "singlet", "--n", "3", "--phi", "15"),
    ("simulate", "--n", "0", "--phi", "15"),
    ("check", "lemma", "--trials", "50"),
    ("--version",),
    ("simulate", "--n", "2", "--phi", "15", "--runs", "3", "--seed", "5"),
)


def printed(code: int, out: str, err: str) -> tuple[int, str, str]:
    """Exit code, stdout without manifest lines, and stderr."""
    return code, "".join(line for line in out.splitlines(keepends=True)
                         if not line.startswith("#")), err


FRESH_MAIN = "import sys; from nlvtest.cli import main; sys.exit(main(sys.argv[1:]))"


def fresh_call(argv) -> tuple[int, str, str]:
    """What ``argv`` prints as the first call of a new interpreter."""
    src = str(Path(nlvtest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    return printed(proc.returncode, proc.stdout, proc.stderr)


class TestParserReuse:
    def test_sequence_matches_fresh_interpreters(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike here and there
        fresh = {argv: fresh_call(argv) for argv in set(REUSE_SEQUENCE)}
        for argv in REUSE_SEQUENCE:
            code = run(*argv)
            assert printed(code, *capsys.readouterr()) == fresh[argv]
        assert [fresh[argv][0] for argv in REUSE_SEQUENCE] == [0, 0, 1, 0, 0, 0]
        assert build_parser.cache_info().misses == 1  # built once per process


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
3,25.00,3.6601,3.7501,-0.0900,17.29,-0.0732""",
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


# Every config key as the manifest prints it, in its order
CONFIG_KEYS = [
    "pair_rate", "accidental_rate", "integration_time", "state", "seed", "subtract_accidentals",
    "plane1_normal", "plane1_seed", "plane2_normal", "plane2_seed",
]
_PREDICT = ("predict", "--n", "2", "--phi", "15")
_SIMULATE = ("simulate", "--n", "2", "--phi", "15", "--runs", "3")
# a command, and the flags that override config keys
ROUND_TRIPS = {
    "predict": (_PREDICT, ()),
    "predict-state": (_PREDICT, ("--state", "werner:0.9")),
    "simulate": (_SIMULATE, ()),
    "simulate-seed-subtract": (_SIMULATE, ("--seed", "9", "--subtract-accidentals")),
    "sweep-seed": (("sweep", "--n-list", "2", "--phi-range", "10:15", "--step", "5",
                    "--runs", "2"), ("--seed", "9")),
}


class TestManifestRoundTrip:
    @pytest.mark.parametrize("config", [None, *CONFIGS])
    @pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
    def test_config_lines_are_a_config_file(self, tmp_path, config, name):
        # the config lines, prefix stripped, load into a config with the same
        # config lines, and re-run the data section byte for byte
        command, flags = ROUND_TRIPS[name]
        given = ()
        if config is not None:
            (tmp_path / "given.cfg").write_text(CONFIGS[config])
            given = ("--config", str(tmp_path / "given.cfg"))
        out, replay = tmp_path / "orig.csv", tmp_path / "replay.csv"
        code = run(*command, *given, *flags, "--output", str(out))
        cfg = replay_config(read_manifest(out), tmp_path / "replay.cfg")
        assert run(*command, "--config", str(cfg), "--output", str(replay)) == code

        def config_lines(path):
            return {k: v for k, v in read_manifest(path).items() if k.startswith("config.")}

        assert list(config_lines(out)) == ["config." + key for key in CONFIG_KEYS]
        assert config_lines(replay) == config_lines(out)
        assert data_section(replay) == data_section(out)


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
        # _emit gives both formats their cells: each JSON record holds the
        # CSV header's columns, and its cells joined are the CSV row
        assert run(*argv, "--format", "json", "--output", str(tmp_path / "out.json")) == 0
        records = json.loads((tmp_path / "out.json").read_text())["records"]
        header, *rows = expected.splitlines()
        assert [list(record) for record in records] == [header.split(",")] * len(rows)
        assert [",".join(record.values()) for record in records] == rows

    def test_sweep_cells_are_replicates_seeded_by_cell(self):
        # each sweep-sparse-mixed cell summarises replicate(..., cell=(N, phi
        # index)), whose run r is seeded (3, N, phi index, r); without the
        # cell, run r is seeded (3, r) and the cell's numbers change
        _, expected = GOLDEN["sweep-sparse-mixed"]
        config = ExperimentConfig(pair_rate=1.0, accidental_rate=0.0, rng_seed=3)
        for phi_idx, line in enumerate(expected.splitlines()[1:]):
            cells = line.split(",")
            phi = math.radians(float(cells[1]))
            summary = replicate(config, 2, phi, 10, cell=(2, phi_idx))
            values = (summary.mean_l, summary.std_l, summary.mean_sigma, summary.mean_violation,
                      int(np.count_nonzero(summary.empty_rows < 0)))
            columns = ("mean_l_exp", "std_l", "mean_sigma", "mean_violation", "runs")
            assert [_cell(value, column) for value, column in zip(values, columns)] == cells[5:10]
            assert replicate(config, 2, phi, 10).mean_l != summary.mean_l

    def test_every_decimals_entry_is_a_printed_column(self):
        printed_columns = {column for _, expected in GOLDEN.values()
                           for column in expected.splitlines()[0].split(",")}
        assert set(_DECIMALS) <= printed_columns
