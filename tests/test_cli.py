"""Command-line surface: exit-code contract, golden table output, JSON
schemas, and the file format."""

import json
import os
import subprocess
import sys

import pytest

import monomial_lab
from monomial_lab.cli import main
from monomial_lab.core import format_ideal, parse_ideal
from monomial_lab.harness import remark_example

REMARK_TEXT = """ambient 8
x3*x4*x7*x8
x3*x4*x5*x7
x3*x5*x6*x7
x1*x5*x6*x7
x1*x2*x5*x6
"""

DISJOINT_TEXT = "ambient 4\nx1*x2\nx3*x4\n"


@pytest.fixture
def remark_file(tmp_path):
    p = tmp_path / "remark.ideal"
    p.write_text(REMARK_TEXT)
    return str(p)


@pytest.fixture
def disjoint_file(tmp_path):
    p = tmp_path / "disjoint.ideal"
    p.write_text(DISJOINT_TEXT)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBoundTable:
    def test_d5_table_matches_golden_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--d", "5", "--table", "--n-max", "15")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        f_row = next(l for l in lines if l.startswith("f(n,5)"))
        g_row = next(l for l in lines if l.startswith("g(n,5)"))
        assert [int(x) for x in f_row.split()[1:]] == [5, 5, 5, 6, 7, 7, 8, 9, 9, 10, 11]
        assert [int(x) for x in g_row.split()[1:]] == [5, 5, 5, 6, 7, 8, 9, 9, 9, 10, 11]

    def test_table_json(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "bound", "--d", "5", "--table",
                               "--n-max", "15")
        doc = json.loads(out)
        assert doc["f"] == [5, 5, 5, 6, 7, 7, 8, 9, 9, 10, 11]
        assert doc["g"] == [5, 5, 5, 6, 7, 8, 9, 9, 9, 10, 11]

    def test_single_value(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "bound", "--d", "3", "--n", "6")
        assert code == 0 and json.loads(out)["f"] == 4

    def test_missing_n(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--d", "3")
        assert code == 2


class TestVerdictCommands:
    def test_reg_remark(self, capsys, remark_file):
        code, out, _ = run_cli(capsys, "reg", remark_file)
        assert code == 0 and out.strip() == "4"

    def test_n2_false_exit_1_with_witness(self, capsys, disjoint_file):
        code, out, _ = run_cli(capsys, "--json", "n2", disjoint_file)
        assert code == 1
        doc = json.loads(out)
        assert doc["witness"] == {"u": "x1*x2", "v": "x3*x4"}

    def test_n2_true(self, capsys, remark_file):
        code, out, _ = run_cli(capsys, "n2", remark_file)
        assert code == 0 and out.strip() == "true"

    def test_nk(self, capsys, remark_file, disjoint_file):
        assert run_cli(capsys, "nk", remark_file, "--k", "3")[0] == 0
        assert run_cli(capsys, "nk", disjoint_file, "--k", "2")[0] == 1

    def test_s2(self, capsys, remark_file, tmp_path):
        p = tmp_path / "notS2.ideal"
        p.write_text("ambient 4\nx1*x3\nx1*x4\nx2*x3\nx2*x4\n")
        assert run_cli(capsys, "s2", str(p))[0] == 1
        code, out, _ = run_cli(capsys, "--json", "s2", remark_file)
        doc = json.loads(out)
        assert code == (0 if doc["s2"] else 1)

    def test_cd(self, capsys, tmp_path):
        p = tmp_path / "vars.ideal"
        p.write_text("ambient 4\nx1\nx2\nx3\n")
        code, out, _ = run_cli(capsys, "cd", str(p))
        assert code == 0 and out.strip() == "3"

    def test_check_remark(self, capsys, remark_file):
        code, out, _ = run_cli(capsys, "--json", "check", remark_file)
        doc = json.loads(out)
        assert code == 0
        assert doc["reg"] == 4 and doc["f_value"] == 5
        assert doc["theorem_holds"] and not doc["tight"]

    def test_check_rejects_non_n2(self, capsys, disjoint_file):
        code, _, err = run_cli(capsys, "check", disjoint_file)
        assert code == 2 and "error" in err

    def test_check_s2(self, capsys, tmp_path):
        p = tmp_path / "vars.ideal"
        p.write_text("ambient 5\nx1\nx2\n")
        code, out, _ = run_cli(capsys, "--json", "check-s2", str(p))
        doc = json.loads(out)
        assert code == 0 and doc["reg"] == 2 and doc["theorem_holds"]


class TestStructureCommands:
    def test_dual_round_trips_through_format(self, capsys, remark_file):
        code, out, _ = run_cli(capsys, "dual", remark_file)
        assert code == 0
        ideal_lines = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        dual = parse_ideal(ideal_lines)
        I, _, _ = remark_example()
        from monomial_lab.duality import alexander_dual

        assert dual == alexander_dual(I)

    def test_betti_json_schema(self, capsys, remark_file):
        code, out, _ = run_cli(capsys, "--json", "betti", remark_file, "--fine")
        doc = json.loads(out)
        assert doc["subject"] == "ideal"
        assert all({"i", "j", "rank"} == set(e) for e in doc["entries"])
        assert all({"i", "sigma", "rank"} == set(e) for e in doc["fine"])
        assert {"i": 0, "j": 4, "rank": 5} in doc["entries"]

    def test_sharp(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "sharp", "--n", "6", "--d", "3")
        doc = json.loads(out)
        assert code == 0 and len(doc["gens"]) == 12 and doc["reg"] == 4

    def test_sharp_even_d_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "sharp", "--n", "10", "--d", "4")
        assert code == 2


class TestHarnessCommands:
    def test_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "--n", "4", "--d", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["max_reg"] == 2 and doc["violations"] == []

    def test_verify_reports_pentagon(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "--n", "5", "--d", "2")
        doc = json.loads(out)
        assert code == 1 and len(doc["violations"]) == 12

    def test_verify_checkpoint_resume_round_trip(self, capsys, tmp_path):
        ck, stream = tmp_path / "ck.json", tmp_path / "s.jsonl"
        argv = ["--json", "verify", "--n", "5", "--d", "2", "--checkpoint", str(ck),
                "--stream", str(stream), "--chunk-size", "100"]
        code, straight, _ = run_cli(capsys, *argv)
        assert code == 1
        written = stream.read_bytes()
        code, resumed, _ = run_cli(capsys, *argv, "--resume")
        assert code == 1
        assert json.loads(resumed) == json.loads(straight)
        assert stream.read_bytes() == written

    def test_gcd_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "gcd-sweep", "--n", "4", "--d", "2")
        doc = json.loads(out)
        assert code == 0 and doc["violations"] == []

    def test_search(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "search", "--n", "5", "--d", "2",
                               "--samples", "30", "--seed", "1")
        assert code == 0
        assert json.loads(out)["samples"] == 30


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "reg", "/nonexistent/path.ideal")
        assert code == 2

    def test_bad_field(self, capsys, remark_file):
        code, _, err = run_cli(capsys, "--field", "p:4", "reg", remark_file)
        assert code == 2

    def test_bad_file_contents(self, capsys, tmp_path):
        p = tmp_path / "bad.ideal"
        p.write_text("x1*x2\n")
        assert run_cli(capsys, "reg", str(p))[0] == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_zero_ideal_reg_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "zero.ideal"
        p.write_text("ambient 3\n")
        assert run_cli(capsys, "reg", str(p))[0] == 2


class TestPaperSuite:
    def test_all_goldens_pass(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "paper-suite")
        doc = json.loads(out)
        assert doc["pass"] is True
        assert all(item["pass"] for item in doc["results"])
        assert code == 0

    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "paper-suite")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out


class TestEntryPoint:
    def test_module_invocation(self, remark_file):
        src = os.path.dirname(os.path.dirname(monomial_lab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "monomial_lab.cli", "reg", remark_file],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "4"

    def test_jobs_env_default(self, monkeypatch):
        import importlib

        from monomial_lab import cli as cli_module

        monkeypatch.setenv("MONOMIAL_LAB_JOBS", "3")
        importlib.reload(cli_module)
        try:
            args = cli_module.build_parser().parse_args(
                ["verify", "--n", "4", "--d", "2"]
            )
            assert args.jobs == 3
        finally:
            monkeypatch.delenv("MONOMIAL_LAB_JOBS")
            importlib.reload(cli_module)

    def test_bad_jobs_env_fails_verify_only(self, capsys, monkeypatch):
        """A non-integer MONOMIAL_LAB_JOBS is a usage error of `verify`
        (exit 2) and is not read by any other command."""
        monkeypatch.setenv("MONOMIAL_LAB_JOBS", "abc")
        code, out, _ = run_cli(capsys, "bound", "--d", "2", "--n", "5")
        assert code == 0 and out
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "4", "--d", "2"])
        assert exc.value.code == 2
        assert "abc" in capsys.readouterr().err

    def test_internal_error_exits_3(self, capsys, tmp_path, monkeypatch):
        from monomial_lab import cli as cli_module
        from monomial_lab.core import InternalCheckError

        def boom(ideal, field):
            raise InternalCheckError("forced for the exit-code contract")

        monkeypatch.setattr(cli_module, "cohomological_dimension", boom)
        p = tmp_path / "i.ideal"
        p.write_text("ambient 3\nx1*x2\n")
        code = cli_module.main(["cd", str(p)])
        assert code == 3
        assert "internal error" in capsys.readouterr().err
