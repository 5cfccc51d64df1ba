"""The benchmark prints the metric names that BENCHMARK.json declares, and
refuses to run without the program's sources.

Run from the repository root:  python3 -m pytest perfbench/tests
The end-to-end cases run the read-taps workload twice at its smallest size
(about a minute in all).  That size trains too few steps for the probe
bank's held-out cross-entropy to fall below ln 12, so these cases check the
output's form, not its verdict; the workload at ``--seconds 25`` passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

import pytest  # noqa: E402

from perfbench import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_metrics_match_the_harness():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert DECLARED["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-taps", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["failed"] == 0 and result["attempted"] > 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)
    for name, unit in printed.items():
        assert any(line.strip().startswith(f"{'layer' if trace else 'untraced'} {name} = ")
                   and line.endswith(f" {unit}") for line in lines), name
    if trace:
        assert result["metrics"]["encoder.backward_ops"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "read-taps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
