"""Run every workload and the traced run once at smoke size, as the benchmark is invoked."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "flop_computed", "B_computed"}


def bench(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3"]
    argv += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_smoke(workload):
    result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_repeats_its_counts():
    first = bench(SPEC["workloads"][0]["name"], trace=1)
    second = bench(SPEC["workloads"][1]["name"], trace=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected("per_layer")
    counts = {k for k, v in first["metrics"].items() if v["unit"] in EXACT_UNITS}
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    argv = [sys.executable, str(copy / "run.py"), "--workload", "grid-deep", "--seed", "1"]
    argv += ["--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
