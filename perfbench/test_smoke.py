"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout: python3 -m pytest perfbench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC_PREFIXES = ("kernels.extend_calls", "kernels.rows_scanned",
                          "kernels.cells_scanned", "kernels.bytes_computed",
                          "kernels.matched_row_ratio", "miner.vocab_candidates",
                          "miner.vocab_size", "miner.candidates", "miner.patterns",
                          "io.intervals", "transform.windows")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("output: "))
    return json.loads(lines[-1]), digest


def assert_gate_passed(result: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


def assert_metrics(result: dict, declared: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, _ = bench(workload, 0, 0)
    assert_gate_passed(result)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_and_second_seed_passes(workload):
    first, first_digest = bench(workload, 0, 1)
    again, again_digest = bench(workload, 0, 1)
    other, other_digest = bench(workload, 1, 1)
    for result in (first, again, other):
        assert_gate_passed(result)
        assert_metrics(result, SPEC["per_layer"])
    assert first_digest == again_digest != other_digest
    counters = [n for n in first["metrics"] if n.startswith(DETERMINISTIC_PREFIXES)]
    assert counters
    for name in counters:
        assert first["metrics"][name] == again["metrics"][name], name
