"""Command-line surface: exit-code contract, golden table output, JSON
schemas, and the file format."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import types

import pytest

import monomial_lab
from monomial_lab import harness
from monomial_lab.cli import build_parser, main
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

PAPER_SUITE = [
    "f(4,5) = 0",
    "f(10,5) = 7",
    "g(10,5) = 8",
    "g(11,5) = 9",
    "d=5 table row f, n=5..15",
    "d=5 table row g, n=5..15",
    "remark ideal: reg = 4",
    "remark ideal: linear resolution (N_k for all k)",
    "remark truncation with g: graph criterion fails",
    "remark truncation with g: Betti criterion fails",
    "remark ideal: reg 4 <= max(4, f(8,4)=5), not tight",
    "remark gcd witness has degree deg(f) - 1 = 3",
    "sharp example n=6, d=3: linearly presented with reg 4 = f(6,3)",
    "dual of remark ideal: cd = 4",
    "d+1 variables, d=3: every pure ideal has reg 3",
]


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


@pytest.fixture
def ideal_files(tmp_path):
    """Ideal files by the placeholder that parametrized argv lists use."""
    texts = {"REMARK": REMARK_TEXT, "DISJOINT": DISJOINT_TEXT,
             "NOT_S2": "ambient 4\nx1*x3\nx1*x4\nx2*x3\nx2*x4\n",
             "VARS": "ambient 4\nx1\nx2\nx3\n"}
    paths = {}
    for name, text in texts.items():
        p = tmp_path / f"{name.lower()}.ideal"
        p.write_text(text)
        paths[name] = str(p)
    return paths


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

    def test_verify_renders_json_only_under_json(self, capsys, monkeypatch):
        """Plain `verify` never renders the summary JSON, which can be far
        larger than the run's memory otherwise; `--json` renders it once."""
        rendered = []
        to_json = harness.EnumerationSummary.to_json
        monkeypatch.setattr(harness.EnumerationSummary, "to_json",
                            lambda self: rendered.append(self) or to_json(self))
        code, out, _ = run_cli(capsys, "verify", "--n", "5", "--d", "3")
        assert code == 0 and rendered == []
        assert re.fullmatch(r"n=5 d=3 field=Q: 1023/1023 checked, \d+ linearly presented, "
                            r"max_reg=3 \(bound 3\), violations=0, elapsed \d+\.\ds\n", out)
        code, out, _ = run_cli(capsys, "--json", "verify", "--n", "5", "--d", "3")
        assert code == 0 and len(rendered) == 1
        # the pinned summary digest of (5, 3) in test_harness
        assert hashlib.sha256(out.removesuffix("\n").encode()).hexdigest() == (
            "cda3d349a3b911a26f82de2f4464659dfd7d11d261599fc89045e4cba9a6544a")

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

    @pytest.mark.parametrize("argv", [["--n", "70", "--d", "2"],
                                      ["--n", "5", "--d", "2", "--samples", "-5"]])
    def test_search_bad_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "search", *argv)
        assert code == 2 and not out and err.startswith("error:")

    @pytest.mark.parametrize("mode", ["dedupe", "skip"])
    def test_verify_removed_symmetry_modes_exit_2(self, capsys, mode):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "4", "--d", "2", "--symmetry", mode])
        assert exc.value.code == 2
        assert "orbits" in capsys.readouterr().err

    def test_verify_refuses_checkpoint_of_removed_mode(self, capsys, tmp_path):
        ck, stream = tmp_path / "ck.json", tmp_path / "s.jsonl"
        argv = ["--json", "verify", "--n", "5", "--d", "2", "--symmetry", "orbits",
                "--checkpoint", str(ck), "--stream", str(stream), "--chunk-size", "64"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1 and len(json.loads(out)["violations"]) == 12
        ck.write_text(json.dumps({**json.loads(ck.read_text()), "symmetry": "dedupe"}))
        written = stream.read_bytes()
        code, out, err = run_cli(capsys, *argv, "--resume")
        assert code == 2 and not out and "dedupe" in err
        assert stream.read_bytes() == written


class TestHumanOutput:
    """The plain (non-`--json`) report of each command, exact; elapsed
    times read 0.0s."""

    @pytest.fixture(autouse=True)
    def frozen_clock(self, monkeypatch):
        monkeypatch.setattr(harness, "time", types.SimpleNamespace(monotonic=lambda: 0.0))

    def test_sharp(self, capsys):
        assert run_cli(capsys, "sharp", "--n", "5", "--d", "3") == (0, (
            "ambient 5\nx1*x2*x3\nx1*x2*x4\nx1*x3*x4\nx2*x3*x4\nx1*x2*x5\nx3*x4*x5\n"
            "# reg 3 = f(5,3)\n"), "")

    def test_check(self, capsys, remark_file):
        assert run_cli(capsys, "check", remark_file) == (
            0, "reg 4  bound max(4, f(8,4)=5) = 5  holds True  tight False\n", "")

    def test_check_s2(self, capsys, tmp_path):
        p = tmp_path / "vars.ideal"
        p.write_text("ambient 5\nx1\nx2\n")
        assert run_cli(capsys, "check-s2", str(p)) == (
            0, "cd 2  bound max(2, f(5,2)=2) = 2  g 3  holds True  tight True\n", "")

    def test_verify(self, capsys):
        assert run_cli(capsys, "--field", "p:2", "verify", "--n", "5", "--d", "2",
                       "--jobs", "1") == (1, (
            "n=5 d=2 field=GF(2): 1023/1023 checked, 833 linearly presented, max_reg=3 "
            "(bound 2), violations=12, elapsed 0.0s\n"), "")

    def test_gcd_sweep(self, capsys):
        assert run_cli(capsys, "gcd-sweep", "--n", "4", "--d", "2") == (0, (
            "n=4 d=2: 63 ideals, 360 qualifying (I, f) pairs, 360 witnesses, "
            "0 violations, elapsed 0.0s\n"), "")

    def test_search(self, capsys):
        assert run_cli(capsys, "search", "--n", "6", "--d", "3", "--samples", "40",
                       "--seed", "3") == (0, (
            "n=6 d=3: 40 samples, 30 linearly presented, max_reg=3 (bound 4)\n"
            "best: x1*x2*x3 x1*x2*x4 x1*x3*x4 x2*x3*x4 x1*x2*x5 x1*x3*x5 x2*x3*x5 "
            "x1*x4*x5 x2*x4*x5 x3*x4*x5 x1*x2*x6 x1*x3*x6 x2*x3*x6 x1*x4*x6 x2*x4*x6 "
            "x3*x4*x6 x1*x5*x6 x2*x5*x6 x3*x5*x6 x4*x5*x6\n"), "")

    def test_search_without_samples(self, capsys):
        assert run_cli(capsys, "search", "--n", "5", "--d", "2", "--samples", "0") == (
            0, "n=5 d=2: 0 samples, 0 linearly presented, max_reg=-1 (bound 2)\nbest: -\n", "")

    @pytest.mark.parametrize("argv, code, out", [
        (["reg", "REMARK"], 0, "4\n"),
        (["--field", "p:3", "reg", "REMARK"], 0, "4\n"),
        (["cd", "REMARK"], 0, "2\n"),
        (["n2", "REMARK"], 0, "true\n"),
        (["n2", "DISJOINT"], 1, "false  witness: (x1*x2, x3*x4)\n"),
        (["nk", "REMARK", "--k", "3"], 0, "true\n"),
        (["nk", "DISJOINT", "--k", "2"], 1, "false\n"),
        (["s2", "REMARK"], 0, "true  height 2\n"),
        (["s2", "NOT_S2"], 1, "false  height 2\n"),
        (["dual", "DISJOINT"], 0,
         "ambient 4\nx1*x3\nx2*x3\nx1*x4\nx2*x4\n# height 2  bigheight 2  pure True\n"),
        (["betti", "DISJOINT"], 0, "  j-i  0  1\n-----------\n    2  2  .\n    3  .  1\n"),
        (["betti", "DISJOINT", "--quotient"], 0,
         "  j-i  0  1  2\n--------------\n    0  1  .  .\n    1  .  2  .\n    2  .  .  1\n"),
        (["bound", "--d", "3", "--n", "6"], 0, "f=4  g=4  bound=max(d,f)=4\n"),
        (["bound", "--d", "3", "--table", "--n-max", "6"], 0,
         "n         3  4  5  6\nf(n,3)    3  3  3  4\ng(n,3)    3  3  3  4\n"),
        (["check-s2", "VARS", "--support"], 0,
         "cd 3  bound max(3, f(3,3)=3) = 3  g 3  holds True  tight True\n"),
        (["paper-suite"], 0,
         "".join(f"[PASS] {name}\n" for name in PAPER_SUITE) + "15/15 passed\n"),
    ])
    def test_plain_report(self, capsys, ideal_files, argv, code, out):
        argv = [ideal_files.get(a, a) for a in argv]
        assert run_cli(capsys, *argv) == (code, out, "")

    @pytest.mark.parametrize("argv, code, out", [
        (["reg", "REMARK"], 0, {"field": "Q", "regularity": 4}),
        (["--field", "p:3", "reg", "REMARK"], 0, {"field": "GF(3)", "regularity": 4}),
        (["cd", "REMARK"], 0, {"cd": 2, "field": "Q"}),
        (["--field", "p:3", "cd", "VARS"], 0, {"cd": 3, "field": "GF(3)"}),
        (["n2", "REMARK"], 0, {"n2": True}),
        (["n2", "DISJOINT"], 1, {"n2": False, "witness": {"u": "x1*x2", "v": "x3*x4"}}),
        (["nk", "REMARK", "--k", "3"], 0, {"k": 3, "nk": True}),
        (["nk", "DISJOINT", "--k", "2"], 1, {"k": 2, "nk": False}),
        (["s2", "REMARK"], 0, {"height": 2, "s2": True}),
        (["s2", "NOT_S2"], 1, {"height": 2, "s2": False}),
        (["dual", "DISJOINT"], 0, {"bigheight": 2, "dual": ["x1*x3", "x2*x3", "x1*x4", "x2*x4"],
                                   "height": 2, "pure": True}),
        (["betti", "DISJOINT"], 0, {"entries": [{"i": 0, "j": 2, "rank": 2},
                                                {"i": 1, "j": 4, "rank": 1}],
                                    "field": "Q", "subject": "ideal"}),
        (["betti", "DISJOINT", "--quotient", "--fine"], 0, {
            "entries": [{"i": 0, "j": 0, "rank": 1}, {"i": 1, "j": 2, "rank": 2},
                        {"i": 2, "j": 4, "rank": 1}],
            "field": "Q",
            "fine": [{"i": 0, "rank": 1, "sigma": []}, {"i": 1, "rank": 1, "sigma": [1, 2]},
                     {"i": 1, "rank": 1, "sigma": [3, 4]},
                     {"i": 2, "rank": 1, "sigma": [1, 2, 3, 4]}],
            "subject": "quotient"}),
        (["bound", "--d", "3", "--n", "6"], 0, {"bound": 4, "d": 3, "f": 4, "g": 4, "n": 6}),
        (["bound", "--d", "3", "--table", "--n-max", "6"], 0,
         {"d": 3, "f": [3, 3, 3, 4], "g": [3, 3, 3, 4], "n": [3, 4, 5, 6]}),
        (["sharp", "--n", "5", "--d", "3"], 0, {
            "d": 3, "gens": ["x1*x2*x3", "x1*x2*x4", "x1*x3*x4", "x2*x3*x4", "x1*x2*x5",
                             "x3*x4*x5"], "n": 5, "reg": 3}),
        (["check", "REMARK"], 0, {
            "bound": 5, "d": 4, "f_support": 5, "f_value": 5, "faltings_value": 6,
            "g_value": 6, "kind": "regularity", "n": 8, "n_ambient": 8, "n_support": 8,
            "reg": 4, "theorem_holds": True, "tight": False}),
        (["check-s2", "VARS"], 0, {
            "bound": 3, "d": 3, "f_support": 3, "f_value": 3, "faltings_value": 4,
            "g_value": 3, "kind": "cohomological", "n": 4, "n_ambient": 4, "n_support": 3,
            "reg": 3, "theorem_holds": True, "tight": True}),
        (["check-s2", "VARS", "--support"], 0, {
            "bound": 3, "d": 3, "f_support": 3, "f_value": 3, "faltings_value": 4,
            "g_value": 3, "kind": "cohomological", "n": 3, "n_ambient": 4, "n_support": 3,
            "reg": 3, "theorem_holds": True, "tight": True}),
        (["verify", "--n", "3", "--d", "2"], 0, {
            "bound": 2, "checked": 7, "cursor": 8, "d": 2,
            "extremal": [["x1*x2"], ["x1*x3"], ["x1*x2", "x1*x3"], ["x2*x3"],
                         ["x1*x2", "x2*x3"], ["x1*x3", "x2*x3"], ["x1*x2", "x1*x3", "x2*x3"]],
            "field": "Q", "max_reg": 2, "n": 3, "n2_count": 7, "total_ideals": 7,
            "violations": []}),
        (["gcd-sweep", "--n", "3", "--d", "2"], 0, {
            "d": 2, "ideals": 7, "n": 3, "pairs_checked": 18, "violations": [],
            "witnesses_found": 18}),
        (["search", "--n", "5", "--d", "2", "--samples", "3", "--seed", "1"], 0, {
            "best": ["x2*x5", "x4*x5"], "bound": 2, "d": 2, "max_reg": 2, "n": 5,
            "n2_count": 2, "samples": 3, "seed": 1, "tight": True}),
        (["paper-suite"], 0, {"pass": True,
                              "results": [{"name": name, "pass": True} for name in PAPER_SUITE]}),
    ])
    def test_json_report(self, capsys, ideal_files, argv, code, out):
        """One line of sorted-key JSON, the same bytes as `json.dumps`."""
        argv = [ideal_files.get(a, a) for a in argv]
        assert run_cli(capsys, "--json", *argv) == (
            code, json.dumps(out, sort_keys=True) + "\n", "")


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "reg", "/nonexistent/path.ideal")
        assert code == 2

    def test_bad_field(self, capsys, remark_file):
        code, _, err = run_cli(capsys, "--field", "p:4", "reg", remark_file)
        assert code == 2

    @pytest.mark.parametrize("argv", [["n2", "FILE"], ["dual", "FILE"], ["s2", "FILE"],
                                      ["bound", "--d", "3", "--n", "6"],
                                      ["sharp", "--n", "5", "--d", "3"]])
    def test_bad_field_rejected_where_unused(self, capsys, remark_file, argv):
        argv = [remark_file if a == "FILE" else a for a in argv]
        # the characteristic is ASCII digits only, as in the `ambient` header
        for spec in ("gf4", "p:32_003", "p:+7", "p:\u0667", "p: 7"):
            assert run_cli(capsys, "--field", spec, *argv) == (
                2, "", f"error: bad field spec {spec!r} (use 'q' or 'p:<prime>')\n")
        code, out, err = run_cli(capsys, "--field", "p:4", *argv)
        assert code == 2 and not out and err.startswith("error: ")

    def test_bad_file_contents(self, capsys, tmp_path):
        p = tmp_path / "bad.ideal"
        p.write_text("x1*x2\n")
        assert run_cli(capsys, "reg", str(p))[0] == 2

    def test_undecodable_file(self, capsys, tmp_path):
        p = tmp_path / "bad.ideal"
        p.write_bytes(b"ambient 3\nx1*x2\xff\n")
        code, out, err = run_cli(capsys, "reg", str(p))
        assert code == 2 and not out and err.startswith("error: ") and "utf-8" in err

    def test_undecodable_checkpoint(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        argv = ["verify", "--n", "4", "--d", "2", "--checkpoint", str(ck)]
        assert run_cli(capsys, *argv)[0] == 0
        ck.write_bytes(ck.read_bytes().replace(b'"Q"', b'"Q\xff"'))
        code, out, err = run_cli(capsys, *argv, "--resume")
        assert code == 2 and not out and err.startswith("error: corrupted checkpoint ")

    def test_verify_stream_to_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", "--n", "4", "--d", "2",
                                 "--stream", str(tmp_path))
        assert code == 2 and not out
        assert err.startswith("error: ") and "Is a directory" in err

    def test_verify_checkpoint_in_a_missing_directory(self, capsys, tmp_path):
        ck = tmp_path / "missing" / "ck.json"
        code, out, err = run_cli(capsys, "verify", "--n", "4", "--d", "2",
                                 "--checkpoint", str(ck))
        assert code == 2 and not out
        assert err.startswith("error: ") and "No such file or directory" in err and str(ck) in err

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


class TestReadme:
    @staticmethod
    def section(title):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            return fh.read().split(f"## {title}\n", 1)[1]

    def test_usage_block_lists_every_command_and_option(self):
        """Each subcommand has a `monomial-lab NAME` line (with its indented
        continuation lines) in README's "Command line" block, and those
        lines name every option of that subcommand."""
        block = self.section("Command line").split("```\n", 2)[1]
        usage: dict[str, set[str]] = {}
        name = None
        for line in block.splitlines():
            if line.startswith("monomial-lab "):
                name = line.split()[1]
            usage.setdefault(name, set()).update(re.findall(r"--[\w-]+", line.split("#")[0]))
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for command, parser in subparsers.choices.items():
            assert command in usage, command
            options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
            assert options <= usage[command], (command, options - usage[command])

    def test_library_block_runs_as_commented(self):
        """README's "Library" block runs line by line, and each line with a
        `#` comment prints as the comment, or as its start before ", "."""
        block = self.section("Library").split("```python\n", 1)[1].split("```", 1)[0]
        namespace: dict = {}
        shown = []
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            if not comment:
                exec(code, namespace)
                continue
            value, comment = str(eval(code, namespace)), comment.strip()
            assert comment == value or comment.startswith(value + ", "), (code, value)
            shown.append(value)
        assert shown


class TestEntryPoint:
    def test_module_invocation(self, remark_file):
        src = os.path.dirname(os.path.dirname(monomial_lab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "monomial_lab.cli", "reg", remark_file],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "4"

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
