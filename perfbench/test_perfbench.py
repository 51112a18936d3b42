"""Tests of the benchmark itself: tiny smoke runs, metric names and units,
and the tracer's self-time accounting.

    python3 -m pytest -q perfbench
"""
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_metric_specs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# traced self times must cover at least this share of the traced pass wall;
# the rest is the benchmark's loop between spans
SELF_TIME_SHARE = 0.95


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", "0"))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_reports_every_layer_and_accounts_for_wall():
    proc = bench("--workload", "steer_train", "--seed", "0", "--seconds", "1", "--trace", "1")
    result = result_of(proc)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(result["metrics"][name]["value"] > 0
               for name in got if name.endswith(".calls"))
    summed, wall = map(float, re.search(
        r"self times sum to ([\d.]+) ms of a ([\d.]+) ms traced pass", proc.stdout).groups())
    assert SELF_TIME_SHARE * wall <= summed <= wall * 1.0001


def test_benchmark_json_names_the_runner_metrics():
    assert [(n, u, b) for n, u, b in layer_metric_specs()] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert WORKLOADS == ["steer_train", "crowded_train"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "steer_train", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_self_times_sum_to_wall():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def parent():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    start = time.perf_counter()
    tracer.wrap("parent", parent)()
    wall = (time.perf_counter() - start) * 1e3
    assert tracer.calls["leaf"] == 2 and tracer.calls["parent"] == 1
    assert tracer.self_ms("parent") == pytest.approx(
        (tracer.total["parent"] - tracer.total["leaf"]) * 1e3)
    assert SELF_TIME_SHARE * wall <= tracer.total_self_ms() <= wall
