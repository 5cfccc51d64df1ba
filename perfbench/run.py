"""Benchmark entry point.

    python3 perfbench/run.py --workload <read-taps|write-encoder|pretrain> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a fusionlab checkout.  The workload runs in a fresh
child process with BLAS and OpenMP capped at one thread, importing
fusionlab from the checkout's ``src``.  Every metric is printed by name
with its unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
A traced run also leaves its spans in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("read-taps", "write-encoder", "pretrain")

END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "eval_frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
    "test_ce_nats": "nats/frame",
}

PER_LAYER = {
    "synth.corpus_s": "s",
    "checkpoint.load_ms": "ms",
    "model.build_ms": "ms",
    "training.sampler_ms": "ms",
    "model.forward_ms": "ms",
    "encoder.forward_ms": "ms",
    "encoder.forward_gflop": "GFLOP",
    "encoder.forward_gflops": "GFLOP/s",
    "model.head_loss_ms": "ms",
    "params.backward_ms": "ms",
    "tensor.backward_gflop": "GFLOP",
    "tensor.backward_ops": "count",
    "encoder.backward_ops": "count",
    "params.backward_gflops": "GFLOP/s",
    "process.minor_faults_per_step": "count",
    "tensor.saved_mb": "MB",
    "training.adam_ms": "ms",
    "training.update_ms": "ms",
    "training.trainable_params": "count",
    "training.step_ms": "ms",
    "training.step_ms_p90": "ms",
    "training.eval_ms_per_utt": "ms",
    "training.eval_gflops": "GFLOP/s",
}


def result_line(record: dict, trace: bool) -> dict:
    """The final JSON object, built from the worker's run record."""
    source, units = (record["per_layer"], PER_LAYER) if trace else (record["end_to_end"], END_TO_END)
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in units.items()},
    }


def print_report(record: dict, trace: bool) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"attempted {record['attempted']} operations, failed {record['failed']}")
    for note in record["notes"]:
        print(f"  note: {note}")
    for problem in record["failures"]:
        print(f"  CHECK FAILED: {problem}")
    print("  set-ups (interpreter start + build): "
          + " ".join(f"{t:.4f}" for t in record["setup_repeats_s"]) + " s, median taken; "
          + "interpreter starts alone " + " ".join(f"{t:.4f}" for t in record["startup_s"]) + " s")
    label = "traced" if trace else "untraced"
    for name, unit in END_TO_END.items():
        print(f"  {label} {name} = {record['end_to_end'][name]:.6g} {unit}")
    for model_label, info in record["models"].items():
        fer = info["fer"]
        if isinstance(fer, dict):
            fer = " ".join(f"tap{tap}={v:.4f}" for tap, v in fer.items())
        elif fer is not None:
            fer = f"{fer:.4f}"
        first, last = info["loss_windows"]
        print(f"  model {model_label!r}: {info['timed_steps']} timed steps, "
              f"{info['trainable_params']} trainable params, training loss {first:.4f} -> "
              f"{last:.4f} (first to last quarter), test fer {fer}, "
              f"test ce {info['test_ce_nats']:.4f} nats")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  layer {name} = {record['per_layer'][name]:.6g} {unit}")
        for model_label, figures in record["per_model"].items():
            for name, value in figures.items():
                print(f"  layer [{model_label}] {name} = {value:.6g} {PER_LAYER[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fusionlab" / "__init__.py").is_file():
        print(f"error: no fusionlab sources under {ROOT / 'src'}; run from a fusionlab checkout",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    result = run_dir / "record.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    env.update({var: "1" for var in THREAD_CAPS})
    command = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result)]
    if args.trace:
        command += ["--trace-file", str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")]
    # Step counts grow with --seconds (with a floor of 350 pretraining
    # steps, 35-50 s); every workload runs well under 6 s per --seconds.
    timeout_s = max(170, 20 + 6 * args.seconds)
    try:
        # Its own session, so a kill also reaches the interpreters it starts.
        child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                                 start_new_session=True)
        try:
            code = child.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            print(f"error: workload {args.workload} ran past {timeout_s} s", file=sys.stderr)
            return 3
        if code != 0:
            print(f"error: workload {args.workload} exited with code {code}", file=sys.stderr)
            return 1
        record = json.loads(result.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print_report(record, bool(args.trace))
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
