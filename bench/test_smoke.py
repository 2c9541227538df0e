"""Smoke tests of the benchmark harness on tiny inputs.

Run from the repository root:  python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = run_bench(ROOT, "--smoke", "--workload", workload, "--seed", "5",
                     "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "excl-bb":
        assert metrics["lpcore.bb_nodes"] > 1
    if trace and workload == "demo-run":
        assert metrics["scenario.reduce_in"] == 200 and metrics["lpcore.mps_bytes"] > 0
    if not trace:
        assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0
    assert "failed_frac: 0.0000" in done.stdout


def test_pass_fails_when_an_artifact_is_missing(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import mgsched.experiments as experiments
    import run

    write = experiments._write_atomic
    monkeypatch.setattr(experiments, "_write_atomic", lambda path, text: (
        None if path.name == "problem.mps" else write(path, text)))
    runner = run.Runner("demo-run", run.SMOKE["demo-run"], 5, smoke=True)
    result = runner.run_pass(0)
    assert result.error is not None and "problem.mps" in result.error


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, "--workload", "demo-run", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
