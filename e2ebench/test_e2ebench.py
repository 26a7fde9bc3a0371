"""Tests of the benchmark itself, on smoke-size databases.

Run with ``python3 -m pytest e2ebench`` from the repository root (the
tier-1 suite collects only ``tests/``).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--seconds", "2", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "serve-mixed", "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "span accounting" in proc.stdout


def test_seed_fixes_the_inputs():
    from workloads import WORKLOADS, generate, op_streams

    w = WORKLOADS["serve-mixed"]
    a = op_streams(w, generate(w, 5, smoke=True), 5, 2)
    b = op_streams(w, generate(w, 5, smoke=True), 5, 2)
    c = op_streams(w, generate(w, 6, smoke=True), 6, 2)
    assert a == b and a != c
    writes = [op for op in a[0] if op["kind"] != "query"]
    assert {op["kind"] for op in writes} >= {"set_prob"}
    assert all(op["kind"] == "query" for op in a[1])


def test_tail_reports_its_support():
    from run import tail

    assert tail(list(range(1000)), 99.0) == (989, "p99 of 1000, 10 beyond")
    value, note = tail(list(range(19)), 75.0)
    assert value == 14 and "fewer than 10" in note


def test_oracle_rejects_a_wrong_answer():
    from oracle import check
    from workloads import QUERIES, WORKLOADS, generate

    w = WORKLOADS["serve-mixed"]
    db = generate(w, 4, smoke=True)
    from repro.serve import Server

    reply = Server(db).handle({"op": "query", "query": QUERIES["P1"][0]})
    answers = [[a["row"], a["lower"], a["upper"], a["probability"], a["method"]]
               for a in reply["answers"]]
    good = {"kind": "query", "name": "P1", "ok": True,
            "version": reply["version"], "answers": answers}
    assert check(generate(w, 4, smoke=True), [good], QUERIES, 10, 0)[
        "failures"] == []
    row, lo, _, _, method = answers[0]
    wrong = dict(good, answers=[[row, lo * 0.5, lo * 0.5, lo * 0.5, method]])
    failures = check(generate(w, 4, smoke=True), [wrong], QUERIES, 10, 0)[
        "failures"]
    assert failures and "oracle" in failures[0]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "serve-mixed", "--seed", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
