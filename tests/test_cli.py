import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from polybergman import cli, make_rotated_point, unit_ball_volume
from polybergman.core import sphere_area
from polybergman.kernels import weighted_coefficient
from polybergman.verify import run_suite

CLI = [sys.executable, "-m", "polybergman.cli"]


def run_process(*args):
    """`python -m polybergman.cli` in a child process: kept for one case of
    each exit code 0, 2, 3 and 4, so that the module's entry point runs."""
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


@pytest.fixture
def run_cli(capsys):
    """cli.main in this process, its exit code and output returned in the
    shape that run_process returns them."""

    def run(*args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    return run


class TestEval:
    def test_bergman_at_origin(self):
        res = run_process(
            "eval", "--kernel", "bergman", "--n", "3", "--p", "1",
            "--x", "0,0,0", "--y", "0,0,0",
        )
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert_allclose(rec["re"], 1.0 / unit_ball_volume(3), rtol=1e-12)
        assert rec["im"] == 0.0
        assert rec["truncation"] is None
        assert rec["regime"] == "standard"

    def test_poisson_hand_value(self, run_cli):
        res = run_cli(
            "eval", "--kernel", "poisson", "--n", "3", "--p", "2",
            "--x", "0.5,0,0", "--y", "0.5,0,0",
        )
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert_allclose(rec["re"], 255.0 / 108.0, rtol=1e-12)

    def test_sector_flag_sets_phase(self, run_cli):
        res = run_cli(
            "eval", "--kernel", "zonal", "--m", "2", "--n", "3", "--p", "2",
            "--x", "0.5,0,0", "--x-sector", "1", "--y", "0.5,0,0",
        )
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert_allclose(rec["x"]["phase"], math.pi / 2)

    def test_wbergman_reports_truncation(self, run_cli):
        res = run_cli(
            "eval", "--kernel", "wbergman", "--n", "3", "--p", "2",
            "--alpha", "1.0", "--beta", "0.5",
            "--x", "0.4,0,0", "--y", "0.4,0,0",
        )
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert isinstance(rec["truncation"], int) and rec["truncation"] > 0

    def test_near_singular_exits_3(self):
        res = run_process(
            "eval", "--kernel", "poisson", "--n", "3", "--p", "1",
            "--x", "0.99999999,0,0", "--y", "0.99999999,0,0",
        )
        assert res.returncode == 3
        err = json.loads(res.stderr)
        assert err["error"] == "near_singular"

    def test_csv_format(self, run_cli):
        res = run_cli(
            "eval", "--kernel", "poisson", "--n", "3", "--p", "2",
            "--x", "0.5,0,0", "--y", "0.5,0,0", "--format", "csv",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0].startswith("n,p,alpha,beta,phase_x,phase_y,ax1")
        assert_allclose(float(lines[1].split(",")[-3]), 255.0 / 108.0, rtol=1e-12)

    def test_zonal_degree_beyond_a_list_length_exits_2(self, run_cli):
        # 10^21 is beyond any list length: a ValueError before the degree's
        # list of weights is built, where it raised OverflowError (exit 1)
        res = run_cli("eval", "--kernel", "zonal", "--m", "1000000000000000000000", "--x", "0.1,0,0", "--y", "0,0.2,0")
        assert res.returncode == 2 and res.stdout == ""
        err = json.loads(res.stderr)
        assert err["error"] == "validation" and "degree 1000000000000000000000" in err["message"]

    def test_usage_errors_exit_2(self, run_cli):
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


    def test_bergman_value_with_explicit_zero_weights(self, capsys):
        # the unweighted kernels take --alpha 0 --beta 0 as their defaults
        code = cli.main([
            "eval", "--kernel", "bergman", "--alpha", "0", "--beta", "0",
            "--x", "0.5,0,0", "--y", "0.4,0.1,0",
        ])
        rec = json.loads(capsys.readouterr().out)
        assert code == 0 and (rec["alpha"], rec["beta"]) == (0.0, 0.0)
        assert rec["re"] == 0.6873432900304872

    def test_an_overflowing_coordinate_exits_2(self, run_cli):
        # |x|^2 overflowed with numpy's RuntimeWarning, and the radius inf
        # then exited 3 as "radius product inf too close to 1"
        res = run_cli("eval", "--kernel", "poisson", "--x=1e308,1e308,0", "--y=0.5,0,0")
        assert res.returncode == 2 and res.stdout == ""
        err = json.loads(res.stderr)
        assert err["error"] == "usage" and "squared norm" in err["message"]

    @pytest.mark.parametrize("c", ["1e-150", "1e-160", "3e-162"])
    def test_wbergman_at_a_subnormal_radius_product(self, run_cli, c):
        # the radius products 1e-320 and 1e-323 ran the truncation scan to
        # its cap and exited 3 with convergence_domain; 1e-300 did not
        res = run_cli("eval", "--kernel", "wbergman", f"--x={c},0,0", f"--y={c},0,0")
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert rec["truncation"] == 0
        assert_allclose(rec["re"], 1.0 / unit_ball_volume(3), rtol=1e-14)

    @pytest.mark.parametrize("c", ["1e-150", "2.2e-162", "3e-162"])
    def test_wbergman_where_the_first_tail_term_underflows(self, run_cli, c):
        # at beta = -0.999 the least tail factor is 0.006, so at the radius
        # products 5e-324 and 1e-323 the first tail term rounded to 0,
        # the truncation scan ran to its cap and exited 3; 1e-300 did not
        res = run_cli("eval", "--kernel", "wbergman", "--beta", "-0.999", f"--x={c},0,0", f"--y={c},0,0")
        assert res.returncode == 0, res.stderr
        rec = json.loads(res.stdout)
        assert rec["truncation"] == 0
        assert_allclose(rec["re"], weighted_coefficient(3, 0.0, -0.999, 0) / sphere_area(3), rtol=1e-14)


@pytest.mark.parametrize("command", ["eval", "grid"])
@pytest.mark.parametrize(
    "flags",
    [
        ("--kernel", "bergman", "--alpha", "1", "--beta", "2"),
        ("--kernel", "poisson", "--alpha", "1"),
        ("--kernel", "zonal", "--m", "2", "--beta", "0.5"),
    ],
)
def test_weights_on_an_unweighted_kernel_exit_2(capsys, command, flags):
    # poisson, bergman and zonal have no weight: a nonzero one would be
    # printed beside the unweighted value
    where = ("--x", "0.5,0,0", "--y", "0.4,0.1,0") if command == "eval" else ("--radial-steps", "2")
    code = cli.main([command, *flags, *where])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


class TestSectorIndex:
    """A sector index k is reduced modulo 2p before its phase k*pi/p is
    formed: 10**400 raised an OverflowError traceback (exit 1) in the float
    product, and 10**17, which is 0 modulo 4, printed phase 1.9169."""

    EVAL = ("eval", "--kernel", "poisson", "--p", "2", "--x", "0.1,0,0", "--y", "0.2,0,0")
    GRID = ("grid", "--kernel", "poisson", "--p", "2", "--radial-steps", "2", "--angle-steps", "2")

    @pytest.mark.parametrize("k", [10**400, 10**17], ids=["10**400", "10**17"])
    def test_a_large_index_prints_the_row_of_its_residue(self, run_cli, k):
        for command in (self.EVAL, self.GRID):
            residue = run_cli(*command, "--x-sector", "0", "--y-sector", "1")
            res = run_cli(*command, "--x-sector", str(k), "--y-sector", str(k + 1))
            assert res.returncode == 0 and res.stderr == ""
            assert res.stdout == residue.stdout
        rec = json.loads(run_cli(*self.EVAL, "--x-sector", str(k)).stdout)
        assert rec["x"]["phase"] == 0.0 and rec["regime"] == "standard"

    @pytest.mark.parametrize("k", [-5, -1, 0, 1, 3, 7])
    def test_k_and_k_plus_2p_print_the_same_row(self, run_cli, k):
        for command in (self.EVAL, self.GRID):
            outs = [run_cli(*command, "--x-sector", str(j), "--y-sector", str(j)).stdout for j in (k, k + 4)]
            assert outs[0] == outs[1] and outs[0]

    def test_indices_below_2p_keep_the_product_bits(self, run_cli):
        for k in range(4):
            rec = json.loads(run_cli(*self.EVAL, "--x-sector", str(k)).stdout)
            assert rec["x"]["phase"] == make_rotated_point(math.pi * k / 2, (0.1, 0.0, 0.0)).phase


class TestGrid:
    def test_row_count_and_determinism(self, tmp_path, run_cli):
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

    def test_extension_regime_rows(self, tmp_path, run_cli):
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

    def test_json_format(self, run_cli):
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

    def test_dimension_beyond_a_list_length_exits_2(self, run_cli):
        # 10^21 is beyond any list length, so the check allocates nothing
        res = run_cli("grid", "--radial-steps", "1", "--angle-steps", "1", "--n", "1000000000000000000000")
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"] == "usage" and "--n" in err["message"]

    def test_unwritable_path_exits_4(self, tmp_path):
        res = run_process(
            "grid", "--kernel", "bergman", "--n", "2", "--p", "1",
            "--radial-steps", "2", "--angle-steps", "2",
            "--output", str(tmp_path / "missing_dir" / "out.csv"),
        )
        assert res.returncode == 4
        assert json.loads(res.stderr)["error"] == "io"


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--x", "0.5,0,0", "--y", "0.4,0,0"),
        ("eval", "--x", "0.5,0,0", "--y", "0.4,0,0", "--format", "csv"),
        ("grid", "--radial-steps", "1", "--angle-steps", "2", "--format", "json"),
        ("verify", "--suite", "growth", "--cases", "2"),
        ("info",),
    ],
)
def test_every_failed_output_write_exits_4(tmp_path, run_cli, argv):
    res = run_cli(*argv, "--output", str(tmp_path / "missing_dir" / "out"))
    assert res.returncode == 4 and res.stdout == ""
    assert json.loads(res.stderr)["error"] == "io"


class TestVerify:
    def test_decomposition_suite_passes(self, run_cli):
        res = run_cli("verify", "--suite", "decomposition", "--cases", "20")
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["suite"] == "decomposition"
        assert rep["pass"] is True
        assert rep["max_rel_err"] <= rep["tolerance"]

    def test_report_written_to_file(self, tmp_path, run_cli):
        out = tmp_path / "report.json"
        res = run_cli(
            "verify", "--suite", "growth", "--output", str(out)
        )
        assert res.returncode == 0
        rep = json.loads(out.read_text())
        assert rep["suite"] == "growth"

    def test_unknown_suite_exits_2(self):
        assert run_process("verify", "--suite", "nonsense").returncode == 2

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_cases_below_one_exits_2(self, cases, run_cli):
        res = run_cli("verify", "--suite", "mean_value", "--cases", cases)
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "usage"
        assert res.stdout == ""

    # derivative_form sweeps cases // 8 pairs per combination
    @pytest.mark.parametrize("suite, cases", [("mean_value", 0), ("derivative_form", 7)])
    def test_a_suite_that_checked_nothing_fails(self, suite, cases):
        rep = run_suite(suite, cases=cases)
        assert rep["cases"] == 0
        assert rep["pass"] is False


def test_flags_a_command_does_not_read_exit_2(run_cli):
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
    def test_config_file_supplies_defaults_flags_override(self, tmp_path, run_cli):
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

    def test_config_file_supplies_kernel_and_format_flags_override(self, tmp_path, run_cli):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kernel": "poisson", "format": "csv"}))
        point = ("--x", "0.5,0,0", "--y", "0.5,0,0")
        res = run_cli("--config", str(cfgfile), "eval", *point)
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0].startswith("n,p,alpha,beta,phase_x,phase_y,ax1")
        assert_allclose(float(lines[1].split(",")[-3]), 255.0 / 108.0, rtol=1e-12)
        res = run_cli("--config", str(cfgfile), "eval", "--kernel", "bergman", "--format", "json", *point)
        assert res.returncode == 0
        assert res.stdout == run_cli("eval", "--kernel", "bergman", *point).stdout
        assert json.loads(res.stdout)["kernel"] == "bergman"

    def test_another_commands_key_is_accepted_and_not_applied(self, tmp_path, run_cli):
        # one file serves every command: eval takes no --seed
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kernel": "poisson", "seed": 7}))
        point = ("--x", "0.5,0,0", "--y", "0.5,0,0")
        res = run_cli("--config", str(cfgfile), "eval", *point)
        assert res.returncode == 0
        assert res.stdout == run_cli("eval", "--kernel", "poisson", *point).stdout
        info = run_cli("--config", str(cfgfile), "info")
        assert info.returncode == 0 and json.loads(info.stdout)["config"]["seed"] == 7

    def test_config_file_sets_grid_steps(self, tmp_path, run_cli):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"radial_steps": 3, "angle_steps": 2, "n": 2}))
        res = run_cli("--config", str(cfgfile), "grid")
        assert res.returncode == 0
        assert len(res.stdout.splitlines()) == 1 + 3 * 2
        res = run_cli("--config", str(cfgfile), "grid", "--angle-steps", "4")
        assert len(res.stdout.splitlines()) == 1 + 3 * 4

    def test_a_flag_drops_the_file_value_it_excludes(self, tmp_path, run_cli):
        # a phase flag wins over the file's sector for the same point, and
        # the other point keeps the file's sector
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"x_sector": 1, "y_sector": 1}))
        point = ("--x", "0.5,0,0", "--y", "0.1,0,0")
        res = run_cli("--config", str(cfgfile), "eval", "--x-phase", "0.2", *point)
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert rec["x"]["phase"] == 0.2 and rec["y"]["phase"] == math.pi / 2
        assert res.stdout == run_cli("eval", "--x-phase", "0.2", "--y-sector", "1", *point).stdout
        cfgfile.write_text(json.dumps({"y_phase": 0.3}))
        res = run_cli("--config", str(cfgfile), "eval", "--y-sector", "1", *point)
        assert res.returncode == 0 and json.loads(res.stdout)["y"]["phase"] == math.pi / 2

    def test_both_excluding_flags_on_the_command_line_exit_2(self, tmp_path, run_cli):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"x_sector": 1}))
        argv = ("eval", "--x", "0.5,0,0", "--x-phase", "0.2", "--x-sector", "1", "--y", "0.1,0,0")
        for res in (run_cli(*argv), run_cli("--config", str(cfgfile), *argv)):
            assert res.returncode == 2
            assert "not both" in json.loads(res.stderr)["message"]

    def test_missing_config_exits_2(self, tmp_path, run_cli):
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
            '{"format": "xml"}',  # a format --format does not take
            '{"bogus": 1}', '{"config": "a.json"}', '{"x": "0,0,0"}',  # no optional flag's dest
            '{"kernel": "nosuch"}',  # a kernel --kernel does not take
            '{"m": 2.5}', '{"radial_steps": true}',  # not an integer, for any command
            '{"output": 3}',  # a path is a string
            '{"alpha": 1%s}' % ("0" * 400),  # an integer beyond any float
            '{"kernel": "poisson", "m": 3, "bogus": 1}',
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        code = cli.main(["--config", str(cfgfile), "eval", "--x", "0.5,0,0", "--y", "0.5,0,0"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"


class TestInfo:
    def test_reports_backend_and_defaults(self, run_cli):
        res = run_cli("info")
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert "backend" not in rec
        assert rec["config"]["n"] == 3 and rec["config"]["p"] == 2
        assert rec["config"]["tol"] == 1e-10 and rec["config"]["seed"] == 42
        assert rec["config"]["alpha"] == 0.0 and rec["config"]["beta"] == 0.0
        assert rec["config"]["r_max"] == 0.95
        assert len(rec["suites"]) == 10


def readme_cli_lines():
    """The `polybergman ...` lines of the README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("polybergman ")]


def test_readme_cli_block_is_read():
    assert len(readme_cli_lines()) >= 6


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_examples_run(line, tmp_path, monkeypatch, capsys):
    # the grid example writes grid.csv into the working directory
    monkeypatch.chdir(tmp_path)
    code = cli.main(shlex.split(line)[1:])
    out, err = capsys.readouterr()
    assert code == 0, (line, err)
    assert out or list(tmp_path.iterdir())


def test_console_script_entry_point():
    import shutil

    exe = shutil.which("polybergman")
    if exe is None:
        pytest.skip("console script not on PATH")
    res = subprocess.run([exe, "info"], capture_output=True, text=True)
    assert res.returncode == 0
    assert json.loads(res.stdout)["config"]["n"] == 3
