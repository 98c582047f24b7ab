"""Tests of the benchmark itself:  python3 -m pytest bench

They run shrunken (--tiny) inputs, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

def bindings():
    """Every attribute the tracer may replace, keyed by (owner, name)."""
    found = {}
    for owner, attr, _ in tracing.cross_bindings(tracing.package_modules()) + tracing.extra_bindings():
        found[(id(owner), attr)] = (owner, vars(owner)[attr])
    return found


def traced_tiny_pass(workload, work_dir):
    setup, run_pass = WORKLOADS[workload]
    inputs = setup(7, True, str(work_dir))
    t = tracing.Tracer()
    with t:
        result = run_pass(inputs, t)
    return t, result


def test_wrappers_are_removed_after_the_traced_run():
    before = bindings()
    t = tracing.Tracer()
    t.install()
    try:
        replaced = [key for key, (owner, fn) in before.items() if vars(owner)[key[1]] is not fn]
        assert len(replaced) == len(before)
    finally:
        t.uninstall()
    assert not t.installed
    for (_, attr), (owner, fn) in before.items():
        assert vars(owner)[attr] is fn, attr


def test_speed_probe_scales_time_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        a = time.perf_counter()
        while time.perf_counter() < a + 0.3:
            sum(range(1000))
        b = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the handler ran inside [a, b], and its time is taken out
    assert 0.0 < probe.paused(a, b) < 0.5 * (b - a)
    assert probe.scaled(a, b) > 0.0
    assert len(probe.samples) >= speed.MIN_SAMPLES
    assert list(probe.starts) == sorted(probe.starts)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_time_never_exceeds_total_time(workload, tmp_path):
    t, result = traced_tiny_pass(workload, tmp_path)
    assert result.failed == 0, result.errors
    assert not t.installed
    summary = t.layer_summary()
    assert summary
    for layer, row in summary.items():
        assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-9, (layer, row)


def test_benchmark_json_matches_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["exact-grid", "endset-sweep", "certify-large"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    if trace:
        assert "counts identical" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "exact-grid", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
