"""Quick-mode self-check of the benchmark's result schema.

Runs every workload on tiny inputs, with tracing off and on, and checks
the shape of the last stdout line and of the result record against
``BENCHMARK.json``.  It asserts no timing: only names, units, types and
the correctness flags.

    python3 -m pytest bench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENV_KEYS = {"nproc", "python", "numpy", "blas", "threads", "git_revision"}


def run(tmp_path, workload, trace):
    cmd = [sys.executable, str(BENCH / "run_bench.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick",
           "--out", str(tmp_path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tmp_path / f"{workload}_seed7_trace{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_spec(tmp_path, workload, trace):
    result, record = run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])

    assert record["metrics"] == result["metrics"]
    assert ENV_KEYS <= set(record["environment"])
    assert len(record["output_sha256"]) == 64
    assert "failed_frac" in record["quality"]
    if trace:
        assert (tmp_path / record["spans"]["file"]).is_file()


def test_refuses_to_run_without_sources(tmp_path):
    """A directory holding only the benchmark must fail without a result line."""
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    cmd = [sys.executable, "bench/run_bench.py", "--workload", WORKLOADS[0],
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
