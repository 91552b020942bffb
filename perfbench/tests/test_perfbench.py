"""Self-tests of the benchmark: metric names, the correctness gate, the
refusal to run without the library.

    python3 -m pytest perfbench/tests -q      # about half a minute

Passes are real: MIN_PASSES and the set-up repeats are lowered so that
each workload sets up once and runs a single pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    return {m["name"] for m in spec[kind]}


@pytest.fixture
def one_pass(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_SHARE", 0.0)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def test_untraced_run_reports_every_end_to_end_metric(one_pass):
    result = workloads.PassResult()
    metrics, report = run.measure(workloads, "census-nq", 7, 0.0, result)
    assert set(metrics) == declared("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())
    assert result.failed == 0 and result.attempted > 0
    assert report["named_metrics"]["error_rate"][0] == 0
    assert set(report["named_metrics"]) == {
        "census_j1_graphs_per_s", "census_j2_graphs_per_s", "error_rate"
    }


def test_traced_run_reports_every_per_layer_metric(one_pass):
    result = workloads.PassResult()
    metrics, _ = run.traced_battery(workloads, "enumerate-classify", 7, result)
    assert set(metrics) == declared("per_layer")
    assert result.failed == 0
    for name, (value, unit) in metrics.items():
        if unit == "s" and name != "trace.overhead_s":
            assert value > 0, name


def test_corrupted_reference_drives_error_rate_up(one_pass, monkeypatch, tmp_path):
    ref = json.loads(workloads.REFERENCE.read_text(encoding="ascii"))
    ref["classify"]["verdicts"] = "N" + ref["classify"]["verdicts"][1:]
    ref["generate"]["hexagon_disks"]["classes"] += 1
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref), encoding="ascii")
    monkeypatch.setattr(workloads, "REFERENCE", bad)
    result = workloads.PassResult()
    _, report = run.measure(workloads, "enumerate-classify", 7, 0.0, result)
    assert result.failed == 2
    assert report["named_metrics"]["error_rate"][0] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-nq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
