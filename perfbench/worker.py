"""One workload in one process; started by ``perfbench/run.py``.

Writes a JSON record of the run to ``--result``: operation tallies, check
results, the end-to-end metrics and, with ``--trace 1``, the per-layer
metrics pooled over the workload and broken down per model.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

from . import checks, tracing, workloads


def end_to_end(bench: workloads.Bench) -> dict[str, float]:
    ces = [run.ce for run in bench.models.values()]
    return {
        "setup_s": statistics.median(bench.setup_times),
        "train_examples_per_s": bench.train_examples / bench.train_s,
        "eval_frames_per_s": bench.eval_frames / bench.eval_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_ce_nats": statistics.fmean(ces),
    }


def per_layer(bench: workloads.Bench, tracer: tracing.Tracer) -> tuple[dict, dict]:
    """Workload-pooled layer figures, and the same per model."""
    spans = tracer.spans
    runs = list(bench.models.values())
    pooled = tracing.step_figures(
        spans, [c for r in runs for c in r.counters], sum(r.steps for r in runs),
        [c for r in runs for c in r.eval_counters], sum(r.eval_utts for r in runs),
        sum(r.trainable_params for r in runs))
    pooled.update(tracing.setup_figures(spans, workloads.SETUP_REPEATS))
    per_model = {
        r.label: tracing.step_figures([s for s in spans if s.model == r.label], r.counters,
                                      r.steps, r.eval_counters, r.eval_utts, r.trainable_params)
        for r in runs
    }
    return pooled, per_model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True,
                        help="where to write the run record; its directory holds the run's files")
    parser.add_argument("--trace-file", type=Path,
                        help="where a traced run writes its spans and layer figures; "
                             "required with --trace 1")
    args = parser.parse_args(argv)
    if args.trace and args.trace_file is None:
        parser.error("--trace 1 needs --trace-file")

    out_dir = args.result.parent
    tracer = tracing.Tracer() if args.trace else None
    bench = workloads.Bench(args.seed, args.seconds, out_dir, tracer)
    with tracing.instrument(tracer) if tracer else nullcontext():
        workloads.WORKLOADS[args.workload](bench)
        bench.set_up_again()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "notes": bench.notes,
        "end_to_end": end_to_end(bench),
        "setup_repeats_s": bench.setup_times,
        "startup_s": bench.startup_times,
        "models": {r.label: {"timed_steps": r.steps, "trainable_params": r.trainable_params,
                             "fer": r.fer, "test_ce_nats": r.ce,
                             "loss_windows": checks.loss_windows(r.losses)}
                   for r in bench.models.values()},
    }
    if tracer is not None:
        pooled, per_model = per_layer(bench, tracer)
        record["per_layer"] = pooled
        record["per_model"] = per_model
        tracing.write_trace(args.trace_file, tracer,
                            {"end_to_end": record["end_to_end"], "per_layer": pooled,
                             "per_model": per_model})
    args.result.write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
