"""One workload in one single-threaded process; started by run.py.

    python3 bench/worker.py --workload NAME --seed N --mode MODE
        --work-dir DIR [--seconds S] [--tiny]

The worker imports linturan from the checkout's ``src`` directory,
generates the workload's inputs, prints ``ready`` and then, by mode:

  setup   exits (run.py times interpreter start, import and input
          generation up to the ``ready`` line);
  time    runs untraced passes under a speed.SpeedProbe until --seconds
          have been spent, at least one, and never starting one that
          would end past the budget;
  trace   runs one untraced pass, then one pass under the tracer, writes
          the spans to bench/out, and reports the per-layer summary;
  counts  runs one pass under the tracer and reports only its counts
          (run.py compares them with the trace run's: they must repeat).

In every mode the worker then times speed.kernel() for a moment and
reports the factor that scales its set-up time to the reference speed.
The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_CALIBRATION_S = 0.1


def import_library():
    """Import linturan from this checkout's src, never from elsewhere."""
    sys.path.insert(0, SRC)
    import linturan

    where = os.path.dirname(os.path.abspath(linturan.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"linturan imported from {where}, not from {SRC}")


def traced_counts(tracer, result) -> dict:
    """Deterministic work counts of a traced pass."""
    detect_calls = sum(c for name, c in tracer.calls.items() if name.startswith("detect."))
    return {
        "oracle.nodes": result.counts.get("oracle.nodes", 0),
        "oracle.admits_calls": tracer.calls["oracle.admits"],
        "oracle.admits_accepted": tracer.free["oracle.admits"],
        "detect.calls": detect_calls,
        "detect.free_answers": tracer.free["detect.contains"] + tracer.free["detect.is_free"],
        "detect.verdict_calls": tracer.calls["detect.contains"] + tracer.calls["detect.is_free"],
        "detect.embeddings": tracer.yields["detect.iter_embeddings"],
        "endsets.frames": result.counts.get("endsets.frames", 0),
        "hypergraph.make_calls": tracer.calls["hypergraph.make_hypergraph"],
        "patterns.realize_calls": tracer.calls["patterns.realize"],
        "results.records_written": tracer.calls["results.ResultsStore.add"],
        "results.reused": tracer.calls["results.ResultRecord.witness_graph"],
        "trace.spans": len(tracer.start),
    }


def traced_pass(run_pass, inputs):
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        result = run_pass(inputs, tracer)
    return tracer, result.finish()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace", "counts"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--work-dir", required=True, help="scratch directory for input files")
    args = ap.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    setup, run_pass = WORKLOADS[args.workload]
    inputs = setup(args.seed, args.tiny, args.work_dir)
    print("ready", flush=True)
    out = {"setup_scale": speed.calibrate(SETUP_CALIBRATION_S)}
    if args.mode != "setup":
        out.update(measure(args, run_pass, inputs))
    print(json.dumps(out), flush=True)
    return 0


def measure(args, run_pass, inputs) -> dict:
    if args.mode == "time":
        passes = []
        begin = time.perf_counter()
        with speed.SpeedProbe() as probe:
            while True:
                passes.append(run_pass(inputs).finish(probe))
                spent = time.perf_counter() - begin
                if spent + spent / len(passes) > args.seconds:
                    break
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"passes": [p.to_obj() for p in passes], "peak_rss_kb": peak_rss_kb}
    # traced and untraced passes alike run without the speed probe, so
    # no span holds its handler; their latencies are raw
    if args.mode == "trace":
        untraced = run_pass(inputs).finish()
        tracer, traced = traced_pass(run_pass, inputs)
        spans = os.path.join(OUT, f"{args.workload}.spans.jsonl")
        tracer.write(spans, {"workload": args.workload, "seed": args.seed, "wall_s": traced.wall_s})
        return {
            "untraced": untraced.to_obj(),
            "traced": traced.to_obj(),
            "layers": tracer.layer_summary(),
            "counts": traced_counts(tracer, traced),
            "spans_file": os.path.relpath(spans, ROOT),
        }
    tracer, traced = traced_pass(run_pass, inputs)
    return {"traced": traced.to_obj(), "counts": traced_counts(tracer, traced)}


if __name__ == "__main__":
    sys.exit(main())
