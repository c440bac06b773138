"""Self-check of the benchmark at tiny sizes.

    python3 -m pytest bench/test_selfcheck.py -q

Runs every workload untraced and traced on small inputs (two-phase and
union with blocks=2, geometric depth 32) and asserts that each metric
named in BENCHMARK.json is emitted and that every output check passed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import METRICS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd: str, workload: str, trace: int, seed: int = 3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
    tag = f"{workload}-seed3-trace{trace}-tiny"
    with open(os.path.join(ROOT, ".bench_out", tag + ".json"), encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["seed"] == 3 and record["problems"] == []
    assert record["end_to_end"]["error_rate"] == 0.0
    if workload == "geometric-cli":
        # chain fails at small theta because the CLI lowers m_lo for box
        assert record["end_to_end"]["checks_failed"] >= 1
    if trace:
        assert record["unwrapped"] == []
        assert os.path.exists(os.path.join(ROOT, ".bench_out", tag + "-spans.json"))


def test_benchmark_json_lists_the_tracer_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == list(METRICS)
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == METRICS[m["name"]][:2]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
