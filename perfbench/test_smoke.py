"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout: python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced. Each run must pass
its output checks and print every metric of BENCHMARK.json with its
unit. The runner must also refuse to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_checks_pass(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 3
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)
    assert "failed_frac 0" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans(tmp_path):
    # Spans: cli.run [0, 100] > session.simulate_session [10, 60] > session.sift [20, 30];
    # then rates.qber_posterior [70, 90] under cli.run.
    path = tmp_path / "spans.npz"
    np.savez(
        path,
        names=np.array(["cli.run", "session.simulate_session", "session.sift",
                        "rates.qber_posterior"]),
        fid=np.array([0, 1, 2, 3]),
        parent=np.array([-1, 0, 1, 0]),
        start=np.array([0, 10, 20, 70]) * 10**9,
        end=np.array([100, 60, 30, 90]) * 10**9,
    )
    summary = tracer.summarize(str(path))
    layers = summary["layers"]
    assert layers["cli"]["self_s"] == pytest.approx(30.0)
    assert layers["session"]["self_s"] == pytest.approx(50.0)
    assert layers["session"]["calls"] == 1
    assert layers["rates"]["inclusive_s"] == pytest.approx(20.0)
    assert summary["functions"]["session.sift"]["inclusive_s"] == pytest.approx(10.0)
