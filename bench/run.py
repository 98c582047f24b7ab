"""linturan benchmark: one workload per invocation, from the checkout root.

    python3 bench/run.py --workload exact-grid --seed 1 --seconds 25 --trace 0

Workloads: exact-grid, endset-sweep, certify-large (see bench/README.md).

--trace 0 reports the end-to-end metrics.  The workload runs in its own
single-threaded worker process with no tracing installed, for about
--seconds; set-up (interpreter start, import, input generation) is timed
in that process and in SETUP_PROBES more that stop after set-up.  Every
time is scaled to a fixed reference speed of the machine by the speed
probe in bench/speed.py; the report prints the raw wall time beside it.

--trace 1 reports the per-layer metrics.  One worker runs an untraced
pass and then a traced pass (spans written to bench/out); a second
worker repeats the traced pass, and the deterministic work counts of the
two must agree exactly.

Every query is checked against reference values.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 0 only when every answer was right
and every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("exact-grid", "endset-sweep", "certify-large")
SETUP_PROBES = 9
DEADLINE_S = 170.0

LAYERS = (
    "oracle", "detect", "patterns", "hypergraph", "endsets", "constructions",
    "designs", "results", "hgio", "cli", "bounds",
)
# per-layer metrics beyond <layer>.calls / .total_s / .self_s
LAYER_EXTRAS = (
    ("oracle.nodes", "count"),
    ("oracle.us_per_node", "us"),
    ("oracle.admits_calls", "count"),
    ("oracle.admits_accept_ratio", "ratio"),
    ("detect.free_ratio", "ratio"),
    ("detect.embeddings", "count"),
    ("endsets.frames", "count"),
    ("hypergraph.make_calls", "count"),
    ("patterns.realize_calls", "count"),
    ("results.records_written", "count"),
    ("results.reused", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)
# deterministic work counts that must repeat exactly between two runs
REPEAT_COUNTS = (
    "oracle.nodes",
    "oracle.admits_calls",
    "detect.calls",
    "detect.embeddings",
    "endsets.frames",
    "hypergraph.make_calls",
    "patterns.realize_calls",
)


class WorkerFailed(Exception):
    pass


def run_worker(argv: list, timeout: float):
    """Start a worker, time it up to its ``ready`` line, wait for it to
    end, and return (seconds to ready, parsed result or None).  The
    worker's scratch directory is removed however it ends."""
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv, "--work-dir", work_dir],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(argv)} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def worker_args(args) -> list:
    return ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])


def timed_run(args, remaining) -> dict:
    common = worker_args(args)
    setups = []
    for _ in range(SETUP_PROBES):
        ready, probe = run_worker(common + ["--mode", "setup"], remaining())
        setups.append(ready * probe["setup_scale"])
    ready, out = run_worker(common + ["--mode", "time", "--seconds", str(args.seconds)], remaining())
    setups.append(ready * out["setup_scale"])

    passes = out["passes"]
    # percentiles of each pass's latencies, then the median over passes,
    # so that they do not depend on how many passes fit in the run
    per_pass = [sorted(1000.0 * x for x in p["latencies_s"]) for p in passes]
    n = len(per_pass[0])
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (statistics.median(percentile(ms, 50) for ms in per_pass), "ms"),
        "query_p99_ms": (statistics.median(percentile(ms, 99) for ms in per_pass), "ms"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024.0, "MiB"),
        "exact_rows": (statistics.median_low(p["exact_rows"] for p in passes), "count"),
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report = [
        f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced pass(es), "
        f"{len(setups)} set-ups",
        f"wall_s {metrics['wall_s'][0]:.4f} s at the reference speed; "
        f"raw {statistics.median(p['raw_wall_s'] for p in passes):.4f} s (median of passes)",
        f"queries: {n} latency samples per pass; {n // 100} lie beyond p99"
        + ("" if n >= 1000 else " (fewer than 10: p99 is close to the slowest query)"),
        f"error_rate: {failed}/{attempted} = {failed / max(attempted, 1):.6f}",
    ]
    for row in passes[0]["table"]:
        report.append(
            f"  row {row['row']:<6} value {row['value']}  {row['status']:<11} "
            f"nodes {row['nodes']:>7}  wall {row['wall_s']:.2f} s"
        )
    errors = [e for p in passes for e in p["errors"]]
    return {"ok": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": report, "errors": errors}


def layer_metrics(out: dict) -> dict:
    layers, counts = out["layers"], out["counts"]
    metrics = {}
    for layer in LAYERS:
        row = layers.get(layer, {})
        metrics[f"{layer}.calls"] = (row.get("calls", 0), "count")
        metrics[f"{layer}.total_s"] = (row.get("total_s", 0.0), "s")
        metrics[f"{layer}.self_s"] = (row.get("self_s", 0.0), "s")
    nodes = counts["oracle.nodes"]
    admits = counts["oracle.admits_calls"]
    verdicts = counts["detect.verdict_calls"]
    derived = {
        "oracle.us_per_node": 1e6 * layers.get("oracle", {}).get("total_s", 0.0) / nodes if nodes else 0.0,
        "oracle.admits_accept_ratio": counts["oracle.admits_accepted"] / admits if admits else 0.0,
        "detect.free_ratio": counts["detect.free_answers"] / verdicts if verdicts else 0.0,
        "trace.overhead_ratio": out["traced"]["wall_s"] / out["untraced"]["wall_s"],
    }
    for name, unit in LAYER_EXTRAS:
        metrics[name] = (derived[name] if name in derived else counts[name], unit)
    return metrics


def traced_run(args, remaining) -> dict:
    common = worker_args(args)
    _, out = run_worker(common + ["--mode", "trace"], remaining())
    _, again = run_worker(common + ["--mode", "counts"], remaining())
    drift = {
        name: (out["counts"][name], again["counts"][name])
        for name in REPEAT_COUNTS
        if out["counts"][name] != again["counts"][name]
    }
    runs = (out["untraced"], out["traced"], again["traced"])
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    errors = [e for p in runs for e in p["errors"]]
    if drift:
        errors.append(f"benchmark fault: deterministic counts differ between runs: {drift}")
    metrics = layer_metrics(out)
    report = [
        f"workload {args.workload}, seed {args.seed}: traced pass "
        f"{out['traced']['wall_s']:.3f} s against untraced {out['untraced']['wall_s']:.3f} s; "
        f"spans in {out['spans_file']}",
        "layer            calls      total_s     self_s",
    ]
    for layer in LAYERS:
        report.append(
            f"  {layer:<13} {metrics[layer + '.calls'][0]:>8} "
            f"{metrics[layer + '.total_s'][0]:>11.4f} {metrics[layer + '.self_s'][0]:>10.4f}"
        )
    report.append("repeat check: " + ("counts identical" if not drift else "COUNTS DIFFER"))
    return {"ok": failed == 0 and not drift, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": report, "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "linturan", "__init__.py")):
        print(f"error: no linturan sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through run_worker's cleanup so no worker outlives us
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.perf_counter()

    def remaining() -> float:
        left = DEADLINE_S - (time.perf_counter() - start)
        if left <= 0:
            raise WorkerFailed(f"benchmark exceeded its {DEADLINE_S:.0f} s deadline")
        return left

    try:
        result = (traced_run if args.trace else timed_run)(args, remaining)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in result["report"]:
        print(line)
    for err in result["errors"]:
        print(f"FAILED {err}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<30} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": result["ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
