import json
import math
import os
import subprocess
import sys

import pytest
from numpy.testing import assert_allclose

from polybergman import cli, unit_ball_volume

CLI = [sys.executable, "-m", "polybergman.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kwargs)


class TestEval:
    def test_bergman_at_origin(self):
        res = run_cli(
            "eval", "--kernel", "bergman", "--n", "3", "--p", "1",
            "--x", "0,0,0", "--y", "0,0,0",
        )
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert_allclose(rec["re"], 1.0 / unit_ball_volume(3), rtol=1e-12)
        assert rec["im"] == 0.0
        assert rec["truncation"] is None
        assert rec["regime"] == "standard"

    def test_poisson_hand_value(self):
        res = run_cli(
            "eval", "--kernel", "poisson", "--n", "3", "--p", "2",
            "--x", "0.5,0,0", "--y", "0.5,0,0",
        )
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert_allclose(rec["re"], 255.0 / 108.0, rtol=1e-12)

    def test_sector_flag_sets_phase(self):
        res = run_cli(
            "eval", "--kernel", "zonal", "--m", "2", "--n", "3", "--p", "2",
            "--x", "0.5,0,0", "--x-sector", "1", "--y", "0.5,0,0",
        )
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert_allclose(rec["x"]["phase"], math.pi / 2)

    def test_wbergman_reports_truncation(self):
        res = run_cli(
            "eval", "--kernel", "wbergman", "--n", "3", "--p", "2",
            "--alpha", "1.0", "--beta", "0.5",
            "--x", "0.4,0,0", "--y", "0.4,0,0",
        )
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert isinstance(rec["truncation"], int) and rec["truncation"] > 0

    def test_near_singular_exits_3(self):
        res = run_cli(
            "eval", "--kernel", "poisson", "--n", "3", "--p", "1",
            "--x", "0.99999999,0,0", "--y", "0.99999999,0,0",
        )
        assert res.returncode == 3
        err = json.loads(res.stderr)
        assert err["error"] == "near_singular"

    def test_csv_format(self):
        res = run_cli(
            "eval", "--kernel", "poisson", "--n", "3", "--p", "2",
            "--x", "0.5,0,0", "--y", "0.5,0,0", "--format", "csv",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0].startswith("n,p,alpha,beta,phase_x,phase_y,ax1")
        assert_allclose(float(lines[1].split(",")[-3]), 255.0 / 108.0, rtol=1e-12)

    def test_usage_errors_exit_2(self):
        assert run_cli("eval", "--kernel", "zonal", "--x", "0.1,0,0", "--y", "0,0,0").returncode == 2
        assert run_cli("eval", "--x", "0.1,0", "--y", "0,0,0").returncode == 2
        assert run_cli("eval", "--kernel", "nosuch", "--x", "0,0,0", "--y", "0,0,0").returncode == 2
        res = run_cli(
            "eval", "--x", "0.1,0,0", "--x-phase", "0.3", "--x-sector", "1", "--y", "0,0,0"
        )
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--kernel", "bergman", "--beta", "nan"),
            ("--kernel", "bergman", "--alpha", "inf"),
            ("--kernel", "wbergman", "--alpha", "nan"),
            ("--kernel", "wbergman", "--tol", "nan"),
            ("--kernel", "wbergman", "--tol", "inf"),
        ],
    )
    def test_non_finite_parameters_exit_2(self, capsys, flags):
        code = cli.main(["eval", *flags, "--x", "0.4,0,0", "--y", "0.4,0,0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] in ("usage", "validation")


class TestGrid:
    def test_row_count_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = [
            "grid", "--kernel", "bergman", "--n", "3", "--p", "2",
            "--radial-steps", "10", "--angle-steps", "10",
        ]
        assert run_cli(*args, "--output", str(out1)).returncode == 0
        assert run_cli(*args, "--output", str(out2)).returncode == 0
        lines = out1.read_text().splitlines()
        assert len(lines) == 101  # header + 10*10 rows
        header = lines[0].split(",")
        assert header[:6] == ["n", "p", "alpha", "beta", "phase_x", "phase_y"]
        assert header[6:12] == ["ax1", "ax2", "ax3", "ay1", "ay2", "ay3"]
        assert header[12:] == ["re", "im", "regime"]
        assert out1.read_bytes() == out2.read_bytes()

    def test_extension_regime_rows(self, tmp_path):
        out = tmp_path / "g.csv"
        res = run_cli(
            "grid", "--kernel", "bergman", "--n", "2", "--p", "1",
            "--radial-steps", "6", "--angle-steps", "2",
            "--r-max", "0.5", "--r-hi", "0.9", "--output", str(out),
        )
        assert res.returncode == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        regimes = {row[-1] for row in rows}
        assert regimes == {"standard", "extension"}

    def test_json_format(self):
        res = run_cli(
            "grid", "--kernel", "bergman", "--n", "2", "--p", "1",
            "--radial-steps", "2", "--angle-steps", "3", "--format", "json",
        )
        assert res.returncode == 0
        rows = json.loads(res.stdout)
        assert len(rows) == 6
        assert set(rows[0]) == {
            "n", "p", "alpha", "beta", "phase_x", "phase_y",
            "ax1", "ax2", "ay1", "ay2", "re", "im", "regime",
        }

    def test_unwritable_path_exits_4(self, tmp_path):
        res = run_cli(
            "grid", "--kernel", "bergman", "--n", "2", "--p", "1",
            "--radial-steps", "2", "--angle-steps", "2",
            "--output", str(tmp_path / "missing_dir" / "out.csv"),
        )
        assert res.returncode == 4
        assert json.loads(res.stderr)["error"] == "io"


class TestVerify:
    def test_decomposition_suite_passes(self):
        res = run_cli("verify", "--suite", "decomposition", "--cases", "20")
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["suite"] == "decomposition"
        assert rep["pass"] is True
        assert rep["max_rel_err"] <= rep["tolerance"]

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli(
            "verify", "--suite", "growth", "--output", str(out)
        )
        assert res.returncode == 0
        rep = json.loads(out.read_text())
        assert rep["suite"] == "growth"

    def test_unknown_suite_exits_2(self):
        assert run_cli("verify", "--suite", "nonsense").returncode == 2


def test_flags_a_command_does_not_read_exit_2():
    for argv in (
        ("verify", "--suite", "growth", "--n", "9"),
        ("verify", "--suite", "growth", "--format", "csv"),
        ("verify", "--suite", "growth", "--max-degree", "2"),
        ("eval", "--x", "0,0,0", "--y", "0,0,0", "--seed", "1"),
        ("eval", "--x", "0,0,0", "--y", "0,0,0", "--max-degree", "5"),
        ("eval", "--kernel", "poisson", "--m", "2", "--x", "0,0,0", "--y", "0,0,0"),
        ("grid", "--radial-steps", "1", "--angle-steps", "1", "--max-degree", "5"),
        ("grid", "--radial-steps", "1", "--angle-steps", "1", "--kernel", "bergman", "--m", "2"),
        ("grid", "--radial-steps", "1", "--angle-steps", "1", "--seed", "1"),
        ("info", "--max-degree", "2"),
        ("info", "--format", "csv"),
    ):
        assert run_cli(*argv).returncode == 2, argv


class TestConfigPrecedence:
    def test_config_file_supplies_defaults_flags_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 2, "p": 1, "alpha": 0.0}))
        res = run_cli(
            "--config", str(cfgfile),
            "eval", "--kernel", "poisson", "--x", "0.1,0.2", "--y", "0.0,0.0",
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["n"] == 2
        res2 = run_cli(
            "--config", str(cfgfile),
            "eval", "--kernel", "poisson", "--n", "3",
            "--x", "0.1,0.2,0.0", "--y", "0,0,0",
        )
        assert res2.returncode == 0
        assert json.loads(res2.stdout)["n"] == 3

    def test_missing_config_exits_2(self, tmp_path):
        res = run_cli(
            "--config", str(tmp_path / "none.json"),
            "eval", "--x", "0,0,0", "--y", "0,0,0",
        )
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]", "null", '"n=3"', "7",  # not a JSON object
            '{"n": null}', '{"tol": [1]}', '{"p": "2"}', '{"seed": true}',
            '{"alpha": Infinity}', '{"r_max": NaN}',  # a known key not a finite number
            '{"n": 2.5}', '{"seed": 1e3}',  # a float where the flag takes an integer
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        code = cli.main(["--config", str(cfgfile), "eval", "--x", "0.5,0,0", "--y", "0.5,0,0"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"


class TestInfo:
    def test_reports_backend_and_defaults(self):
        res = run_cli("info")
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert rec["backend"] == "numpy"
        assert rec["config"]["n"] == 3 and rec["config"]["p"] == 2
        assert rec["config"]["tol"] == 1e-10 and rec["config"]["seed"] == 42
        assert len(rec["suites"]) == 10


def test_console_script_entry_point():
    import shutil

    exe = shutil.which("polybergman")
    if exe is None:
        pytest.skip("console script not on PATH")
    res = subprocess.run([exe, "info"], capture_output=True, text=True)
    assert res.returncode == 0
    assert json.loads(res.stdout)["config"]["n"] == 3
