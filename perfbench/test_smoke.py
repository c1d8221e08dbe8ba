"""Smoke test of the benchmark: every workload at reduced length.

    python -m pytest perfbench/test_smoke.py

Checks that each run emits every metric named in BENCHMARK.json with its
unit, and that the ledger check rejects a tampered ledger.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, check_ledger

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tampered_ledger_fails_check(tmp_path):
    run_bench("gl-n32-full", 0, "--outdir", str(tmp_path))
    workload = WORKLOADS["gl-n32-full"]
    ledger = tmp_path / "gl_n32_full_ledger.csv"
    lines = ledger.read_text().splitlines()
    rows = len(lines) - 1
    problems, residual_rel, _ = check_ledger(ledger, workload, rows)
    assert problems == [] and 0.0 < residual_rel <= workload.residual_cap

    def tampered(row: int, column: str, value: float) -> list:
        cells = lines[row].split(",")
        cells[lines[0].split(",").index(column)] = repr(value)
        path = tmp_path / f"tampered_{column}.csv"
        path.write_text("\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:]) + "\n")
        return check_ledger(path, workload, rows)[0]

    # An energy rise in the last record breaks monotonicity and the balance.
    previous_total = float(lines[-2].split(",")[3])
    assert any("increases" in p for p in tampered(rows, "total", previous_total + 1.0))
    # A residual edited on its own no longer matches the balance.
    assert any("residual column" in p for p in tampered(2, "residual", 1.0))
