"""Smoke test of the benchmark itself, kept out of the tier-1 suite (pytest
collects ``tests/`` only, and this file does not match ``test_*.py``).

    python -m pytest benchmarks/smoke_check.py -q

Each workload runs one short round; the output must follow the format
BENCHMARK.json declares, with correct outputs and the one known failure
(``dimension hyperbolic --lambda 0.75 --tol 1e-5``, exit 3) only on
sv-lyapunov.  Outside a source checkout the benchmark must refuse to run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(["python3", "benchmarks/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, metrics: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in metrics}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    result = result_of(bench(workload, 0), SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "sv-lyapunov":  # one known failure in each round of 17 operations
        assert result["failed"] * 17 == result["attempted"]
    else:
        assert result["failed"] == 0


def test_traced_run():
    result_of(bench("custom-dense", 1), SPEC["per_layer"])


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
