"""Tests of the benchmark itself, on a tiny workload spec.

Each test runs ``run.py`` in a subprocess, so that the runner's fresh
imports of `monomial_lab` stay out of the test process.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

CYCLE5 = {
    "n": 5,
    "gens": [3, 6, 12, 24, 17],
    "answers": {
        "reg_q": 3, "pd_q": 3, "reg_gfp": 3, "cd": 3,
        "dual": {"height": 3, "bigheight": 3, "dual_gens": 5, "s2": True, "s2_height": 3},
    },
}
CYCLIC3 = {
    "n": 6,
    "gens": [7, 14, 28, 56, 35, 49],
    "answers": {
        "reg_q": 4, "pd_q": 3, "reg_gfp": 4, "cd": 3,
        "dual": {"height": 2, "bigheight": 3, "dual_gens": 5, "s2": False, "s2_height": 2},
    },
}
TINY = {
    "campaign": {
        "verify": {
            "n": 4, "d": 2, "chunk_size": 16, "max_reg": 2, "extremal": 60, "violations": 0,
            "sha256": "9b59b6a1cfaf392598a59a9bd50f8b0a784a106b20bd64811a4a957fb322e9c8",
        },
        "pools": {"default": [CYCLE5, CYCLIC3], "holdout": [CYCLIC3]},
    }
}


def bench(spec_path: Path, *extra: str, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "campaign", "--seed", "3",
         "--seconds", "0", "--spec", str(spec_path), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_lines(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


@pytest.fixture
def tiny_spec(tmp_path) -> Path:
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def declared(section: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in doc[section]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == tracing.PER_LAYER


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(tiny_spec, trace, section):
    detail, result = result_lines(bench(tiny_spec, "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 and detail["fail_ratio"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {name: unit for name, (unit, _) in declared(section).items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_golden_value_raises_fail_ratio(tmp_path):
    spec = copy.deepcopy(TINY)
    spec["campaign"]["pools"]["default"][0]["answers"]["reg_q"] = 4
    spec["campaign"]["verify"]["extremal"] = 61
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(spec))
    detail, result = result_lines(bench(path))
    rounds = len(detail["round_walls_s"]["untraced"])
    assert result["correct"] is False
    assert result["failed"] == 2 * rounds
    assert detail["fail_ratio"] == result["failed"] / result["attempted"] > 0


def test_traced_spans_nest_under_their_parents(tiny_spec, tmp_path):
    out = tmp_path / "spans.json"
    result_lines(bench(tiny_spec, "--trace", "1", "--spans-out", str(out)))
    spans = {s["id"]: s for s in json.loads(out.read_text())}
    names = {s["name"] for s in spans.values()}
    assert {"round", "query.verify", "harness.verify_range", "harness.verify_chunk",
            "query.cd", "duality.cohomological_dimension", "betti.regularity"} <= names
    roots = [s for s in spans.values() if s["parent"] is None]
    assert [s["name"] for s in roots] == ["round"]
    for s in spans.values():
        assert s["start"] <= s["end"]
        assert s["self_s"] >= -1e-9
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    parents = {spans[s["parent"]]["name"] for s in spans.values()
               if s["name"] == "harness.verify_chunk"}
    assert parents == {"harness.verify_range"}


def test_refuses_without_the_library_or_under_optimize(tiny_spec, tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(tiny_spec, cwd=bare, script=bare / "bench" / "run.py")
    assert proc.returncode != 0 and proc.stdout == ""
    proc = subprocess.run([sys.executable, "-O", str(BENCH_DIR / "run.py"), "--workload",
                           "campaign", "--spec", str(tiny_spec)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
