"""Span tracing around the public callables of fusionlab's layers.

A traced run swaps each callable below for a wrapper that records one span
(name, start, end, parent span, phase, model) and then calls the original
unchanged.  Spans stay in memory and are written out when the run ends.
An untraced run installs nothing, so it trains through the program's own
code paths with no wrapper in between.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
from contextlib import contextmanager
from time import perf_counter

from fusionlab import checkpoint, encoder, model, pretrain, synth, training

# (owner, attribute, span name).  Trainer.step looks up ``backward`` and
# ``ema_update`` in the training module's globals and pretraining looks up
# ``save_checkpoint`` in its own, so those are patched where they are read.
TARGETS = (
    (synth, "generate_corpus", "synth.corpus"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (pretrain, "save_checkpoint", "checkpoint.save"),
    (model, "build_model", "model.build"),
    (encoder, "build_encoder", "model.build"),
    (training.Trainer, "step", "training.step"),
    (training.CropSampler, "batch", "training.sampler"),
    (model.DownstreamModel, "loss", "model.forward"),
    (model.ProbeBank, "loss", "model.forward"),
    (pretrain.MaskedPretrainModel, "loss", "model.forward"),
    (encoder.Encoder, "encode_with_taps", "encoder.forward"),
    (training, "backward", "params.backward"),
    (training.Adam, "apply", "training.adam"),
    (training, "ema_update", "training.ema"),
    (training, "evaluate_fer", "training.eval"),
    (training, "evaluate_fer_per_tap", "training.eval"),
    (pretrain, "pretrain_masked_prediction", "pretrain.run"),
)

# Steps also record the process's minor page faults across the call.
_FAULT_SPANS = {"training.step"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "model", "faults", "nested")

    def __init__(self, name, parent, phase, model_label, nested):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.model = model_label
        self.nested = nested  # inside another span of the same name
        self.start = self.end = 0.0
        self.faults = 0

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """In-memory span recorder; ``phase`` and ``model`` label new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self.model = ""

    @contextmanager
    def span(self, name: str, faults: bool = False):
        parent = self._stack[-1] if self._stack else -1
        nested = any(self.spans[i].name == name for i in self._stack)
        record = Span(name, parent, self.phase, self.model, nested)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if faults else 0
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            if faults:
                record.faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
            self._stack.pop()

    def wrap(self, name: str, fn):
        faults = name in _FAULT_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, faults):
                return fn(*args, **kwargs)

        return traced

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "phase": s.phase, "model": s.model, "minor_faults": s.faults}
                for s in self.spans]


@contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
    try:
        for owner, attr, name in TARGETS:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer figures from spans and engine counters
# ---------------------------------------------------------------------------


def step_figures(spans: list[Span], counters: list, steps: int, eval_counters: list,
                 eval_utts: int, trainable_params: int) -> dict[str, float]:
    """Per-step layer figures over the timed training steps in ``spans``.

    ``spans`` holds only the spans of the steps and evaluations to report
    (one model or a whole workload); ``counters`` are the engine's
    ``OpCounter`` tallies of those timed steps, ``eval_counters`` those of
    the timed evaluations.
    """
    def total(name, phase="train"):
        return sum(s.ms for s in spans if s.name == name and s.phase == phase)

    step_spans = [s for s in spans if s.name == "training.step" and s.phase == "train"]
    if len(step_spans) != steps:
        raise RuntimeError(f"traced {len(step_spans)} timed steps, expected {steps}")
    step_ms = [s.ms for s in step_spans]
    forward_ms = total("model.forward")
    encoder_ms = total("encoder.forward")  # every one runs inside a model.forward
    backward_ms = total("params.backward")
    fwd_flops = sum(c.forward_flops_in("encoder") for c in counters)
    bwd_flops = sum(c.backward_flops for c in counters)
    eval_ms = sum(s.ms for s in spans if s.phase == "eval" and s.parent < 0)
    eval_flops = sum(c.forward_flops for c in eval_counters)
    return {
        "training.step_ms": statistics.fmean(step_ms),
        "training.step_ms_p90": statistics.quantiles(step_ms, n=10)[-1] if steps > 1 else step_ms[0],
        "training.sampler_ms": total("training.sampler") / steps,
        "model.forward_ms": forward_ms / steps,
        "encoder.forward_ms": encoder_ms / steps,
        "encoder.forward_gflop": fwd_flops / steps / 1e9,
        "encoder.forward_gflops": fwd_flops / (encoder_ms / 1e3) / 1e9,
        "model.head_loss_ms": (forward_ms - encoder_ms) / steps,
        "params.backward_ms": backward_ms / steps,
        "tensor.backward_gflop": bwd_flops / steps / 1e9,
        "tensor.backward_ops": sum(sum(c.backward_ops.values()) for c in counters) / steps,
        "encoder.backward_ops": sum(c.backward_ops_in("encoder") for c in counters) / steps,
        "params.backward_gflops": bwd_flops / (backward_ms / 1e3) / 1e9 if backward_ms else 0.0,
        "process.minor_faults_per_step": sum(s.faults for s in step_spans) / steps,
        "tensor.saved_mb": sum(c.saved_bytes for c in counters) / steps / 1e6,
        "training.adam_ms": total("training.adam") / steps,
        "training.update_ms": (total("training.adam") + total("training.ema")) / steps,
        "training.trainable_params": float(trainable_params),
        "training.eval_ms_per_utt": eval_ms / eval_utts,
        "training.eval_gflops": eval_flops / (eval_ms / 1e3) / 1e9,
    }


def setup_figures(spans: list[Span], repeats: int) -> dict[str, float]:
    """Set-up layer figures: medians over the repeated set-ups, whose spans
    carry the model labels ``setup-0`` ... ``setup-<repeats-1>``."""
    per_repeat = [[s for s in spans if s.phase == "setup" and s.model == f"setup-{r}"]
                  for r in range(repeats)]
    loads = [s.ms for s in spans if s.name == "checkpoint.load"]
    return {
        "synth.corpus_s": statistics.median(
            sum(s.ms for s in group if s.name == "synth.corpus") / 1e3 for group in per_repeat),
        "checkpoint.load_ms": statistics.median(loads) if loads else 0.0,
        "model.build_ms": statistics.median(
            sum(s.ms for s in group if s.name == "model.build" and not s.nested) for group in per_repeat),
    }


def write_trace(path, tracer: Tracer, report: dict) -> None:
    path.write_text(json.dumps({"report": report, "spans": tracer.to_json()}) + "\n")
