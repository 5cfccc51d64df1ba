"""The three workloads: read-taps, write-encoder and pretrain.

Each workload makes its inputs (corpora, encoder weights, a checkpoint
file) from fixed task settings and the workload seed, times the program on
them, and checks the outputs.  Step counts follow from ``--seconds`` alone, never from measured
time, so two runs with the same arguments attempt exactly the same
operations.
"""

from __future__ import annotations

import functools
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import monotonic, perf_counter

import numpy as np

from fusionlab import checkpoint, encoder, model, pretrain, synth, training
from fusionlab.accounting import ModelSpec, comparison_model_specs
from fusionlab.encoder import DESK
from fusionlab.fusion import LinearFusionSpec
from fusionlab.params import load_state, set_trainable, state_dict
from fusionlab.peft import PeftSpec
from fusionlab.synth import SynthConfig
from fusionlab.tensor import OpCounter, Tensor, no_grad, use_counter

from . import checks

NUM_CLASSES = 12
ALL_TAPS = tuple(range(DESK.num_layers))
BATCH = 16
SUBSAMPLING = DESK.subsampling
WARMUP_STEPS = 2        # untimed steps per downstream model before the timed ones
SETUP_REPEATS = 6       # set-ups per run, half before the timed work and half after it
EVAL_CHUNKS = 8         # each model's test set is evaluated in this many timed calls
SYNTH = SynthConfig()
READ_TAPS_TEST = 160     # test utterances per read-taps head
WRITE_ENCODER_TEST = 64  # test utterances per write-encoder model
CE_UTTERANCES = 32       # test utterances in the untimed cross-entropy pass
PRETRAIN_HELD_OUT = 320  # held-out utterances for the masked-code evaluation
FULL_FT_LR_FACTOR = 0.1  # the comparison command's step size for full fine-tuning

# Step counts per unit of --seconds, from this workload's step costs on a
# 2-vCPU Xeon: crop 64 heads take ~60 ms a step, the crop-192 ladder ~0.9 s
# a round of four steps, and pretraining ~100 ms a step.  Evaluation takes
# about 11 ms an utterance.
READ_TAPS_STEP_S = 4 * 0.060
WRITE_ENCODER_ROUND_S = 0.90
EVAL_S_PER_UTT = 4 * 0.011
PRETRAIN_STEPS_PER_S = 10
PRETRAIN_MIN_STEPS = 350  # at 300 the 30% loss-drop gate passes by 3 to 5 points
# The synthetic task is the same in every run: the corpora and the
# pretext task (random-projection quantizer, masks, pretraining crop
# stream) come from TASK_SEED.  The workload seed draws the encoder's
# weights, the heads' and adapters' initial weights and the downstream crop
# stream.  With the task drawn from the workload seed as well, held-out
# cross-entropy spreads by about 20% over ten seeds (quartiles over the
# median), which says more about the draw than about the program.
TASK_SEED = 0


def downstream_steps(seconds: int, round_s: float, test_utts: int, minimum: int) -> int:
    return max(minimum, round((seconds - test_utts * EVAL_S_PER_UTT) / round_s))


def pretrain_steps(seconds: int) -> int:
    return max(PRETRAIN_MIN_STEPS, PRETRAIN_STEPS_PER_S * seconds)


def train_config(seed: int, crop: int, steps: int, lr: float = 1e-3) -> training.TrainConfig:
    """Adam with a 5-step warmup, and EMA with a horizon of about five
    steps, which suits runs of tens of steps."""
    return training.TrainConfig(learning_rate=lr, warmup_steps=5, steps=steps,
                                batch_size=BATCH, crop_len=crop, ema_decay=0.8,
                                seed=seed, log_every=steps)


@dataclass
class ModelRun:
    """Bookkeeping for one trained model."""

    label: str
    steps: int = 0                      # timed steps
    counters: list = field(default_factory=list)       # OpCounters of timed steps
    warm_counters: list = field(default_factory=list)  # OpCounters of warm-up steps
    eval_counters: list = field(default_factory=list)
    eval_utts: int = 0
    trainable_params: int = 0
    losses: list = field(default_factory=list)
    fer: object = None
    ce: float = float("nan")


class Bench:
    """One workload run: inputs, clocks, operation tallies and check results."""

    def __init__(self, seed: int, seconds: int, out_dir, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.setup_times: list[float] = []    # interpreter start plus build, per set-up
        self.startup_times: list[float] = []  # the interpreter starts alone
        self.train_s = 0.0
        self.train_examples = 0
        self.eval_s = 0.0
        self.eval_frames = 0
        self.models: dict[str, ModelRun] = {}

    def check(self, problem: str | None) -> None:
        if problem:
            self.failures.append(problem)

    def label(self, phase: str, model_label: str = "") -> None:
        if self.tracer is not None:
            self.tracer.phase = phase
            self.tracer.model = model_label

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def set_up(self, build):
        """Time the first half of the set-ups and return the last one's result.

        A set-up is a fresh interpreter start plus ``build``.  The worker
        calls ``set_up_again`` after the timed work for the other half, so
        the set-up time, their median, samples the host at both ends of the
        run rather than in one burst of a second or two.
        """
        self._build = build
        for _ in range(SETUP_REPEATS // 2):
            built = self._set_up_once()
        return built

    def set_up_again(self) -> None:
        for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
            self._set_up_once()

    def _set_up_once(self):
        self.label("setup", f"setup-{len(self.setup_times)}")
        startup = interpreter_start_s()
        start = perf_counter()
        built = self._build()
        self.setup_times.append(startup + perf_counter() - start)
        self.startup_times.append(startup)
        return built

    def train(self, label: str, trainer: training.Trainer, steps: int,
              warmup: int = WARMUP_STEPS) -> ModelRun:
        """Warm-up steps, then timed steps, whose durations add to the
        workload's training time."""
        run = self.models.setdefault(label, ModelRun(label))
        run.trainable_params = trainer.model.num_params(trainable_only=True)
        self.label("warmup", label)
        warm = OpCounter()
        with use_counter(warm):
            run.losses += [trainer.step() for _ in range(warmup)]
        timed = OpCounter()
        times = []
        self.label("train", label)
        with use_counter(timed):
            for _ in range(steps - warmup):
                start = perf_counter()
                run.losses.append(trainer.step())
                times.append(perf_counter() - start)
        self.label("finish", label)
        trainer.finish()
        run.steps += len(times)
        run.counters.append(timed)
        run.warm_counters.append(warm)
        self.train_s += sum(times)
        self.train_examples += len(times) * BATCH
        self.attempted += steps
        return run

    def evaluate(self, jobs: dict, test, weight=lambda utt: len(utt.labels)) -> dict:
        """Time ``jobs[label](chunk)`` for each model over EVAL_CHUNKS chunks
        of the test set, taking the models in turn chunk by chunk so every
        model's chunks spread over the whole evaluation.

        Returns each model's chunk results averaged with ``weight`` per
        utterance (per key when they are dicts).  The chunks' durations add
        to the workload's evaluation time.
        """
        counters = {label: OpCounter() for label in jobs}
        results = {label: [] for label in jobs}
        for part in np.array_split(np.arange(len(test)), EVAL_CHUNKS):
            chunk = [test[i] for i in part]
            w = sum(weight(u) for u in chunk)
            for label, evaluate in jobs.items():
                self.label("eval", label)
                with use_counter(counters[label]):
                    start = perf_counter()
                    result = evaluate(chunk)
                    self.eval_s += perf_counter() - start
                results[label].append((result, w))
        out = {}
        for label in jobs:
            run = self.models[label]
            run.eval_counters.append(counters[label])
            run.eval_utts += len(test)
            self.eval_frames += _frames(test)
            self.attempted += len(test)
            parts = results[label]
            total = sum(w for _, w in parts)
            if isinstance(parts[0][0], dict):
                out[label] = {k: sum(r[k] * w for r, w in parts) / total for k in parts[0][0]}
            else:
                out[label] = sum(r * w for r, w in parts) / total
        return out

    def write_input_checkpoint(self, path) -> None:
        """The frozen desk encoder, stored the way `pretrain` stores it."""
        self.label("input")
        frozen = encoder.build_encoder(DESK, self.seed)
        checkpoint.save_checkpoint(path, {f"encoder/{n}": a for n, a in state_dict(frozen).items()})
        self.attempted += 1

    def load_checkpoint(self, path) -> dict:
        self.attempted += 1
        return checkpoint.load_checkpoint(path)


def interpreter_start_s() -> float:
    """Seconds from spawning a fresh interpreter until it has imported this
    module, and with it fusionlab and numpy."""
    spawned = monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import time, perfbench.workloads; print(time.monotonic())"],
        capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout) - spawned


def _frames(utts) -> int:
    return sum(len(u.labels) * SUBSAMPLING for u in utts)


def _crop(utt) -> np.ndarray:
    return utt.frames[None, : len(utt.labels) * SUBSAMPLING]


def downstream_ce(m, test) -> float:
    """Frame-weighted held-out cross-entropy of a downstream model (no grad)."""
    total, frames = 0.0, 0
    with no_grad():
        for utt in test:
            s, n = checks.frame_ce(m.logits(Tensor(_crop(utt))).data[0], utt.labels)
            total, frames = total + s, frames + n
    return total / frames


def bank_ce(bank, test) -> float:
    """Held-out cross-entropy of a probe bank, averaged over its probes."""
    totals = dict.fromkeys(bank.tap_indices, 0.0)
    frames = 0
    with no_grad():
        for utt in test:
            taps = bank.encoder.encode_with_taps(Tensor(_crop(utt)), bank.tap_indices)
            for i in bank.tap_indices:
                totals[i] += checks.frame_ce(bank.probes[i](taps[i]).data[0], utt.labels)[0]
            frames += len(utt.labels)
    return float(np.mean([t / frames for t in totals.values()]))


def _check_downstream(bench: Bench, run: ModelRun) -> None:
    bench.check(checks.loss_dropped(run.label, run.losses))
    fers = run.fer if isinstance(run.fer, dict) else {None: run.fer}
    for tap, fer in fers.items():
        where = run.label if tap is None else f"{run.label} tap {tap}"
        bench.check(checks.below_chance(where, fer, NUM_CLASSES))
    bench.check(checks.ce_below_uniform(run.label, run.ce, NUM_CLASSES))


# ---------------------------------------------------------------------------
# read-taps: four heads over one frozen encoder, crop 64
# ---------------------------------------------------------------------------


def read_taps(bench: Bench) -> None:
    seed = bench.seed
    steps = downstream_steps(bench.seconds, READ_TAPS_STEP_S, READ_TAPS_TEST, minimum=20)
    ckpt = bench.out_dir / "encoder.ffck"
    bench.write_input_checkpoint(ckpt)
    heads = {
        "linear fusion d1": ModelSpec(DESK, LinearFusionSpec(ALL_TAPS, 1, DESK.model_dim),
                                      PeftSpec(), NUM_CLASSES),
        "linear fusion d3": ModelSpec(DESK, LinearFusionSpec(ALL_TAPS, 3, DESK.model_dim),
                                      PeftSpec(), NUM_CLASSES),
        "hierarchical fusion": comparison_model_specs(DESK, NUM_CLASSES)["hierarchical fusion"],
    }
    cfg = train_config(seed, 64, steps)

    def build():
        train = synth.generate_corpus(SYNTH, TASK_SEED, "train")
        test = synth.generate_corpus(SYNTH, TASK_SEED, "test", count=READ_TAPS_TEST)
        state = bench.load_checkpoint(ckpt)
        # The probe-layers command's composition: restore, freeze, attach probes.
        enc = encoder.build_encoder(DESK, seed)
        load_state(enc, state, prefix="encoder")
        set_trainable(enc, "**", False)
        models = {"probe bank": model.ProbeBank(enc, ALL_TAPS, NUM_CLASSES, seed)}
        models.update({label: model.build_model(spec, seed, state) for label, spec in heads.items()})
        trainers = {label: training.Trainer(m, train, cfg, use_ema=True)
                    for label, m in models.items()}
        return test, models, trainers

    test, models, trainers = bench.set_up(build)
    frozen = {label: checks.snapshot(m.encoder.parameters()) for label, m in models.items()}
    for label, trainer in trainers.items():
        bench.train(label, trainer, steps)
    for label, m in models.items():
        run = bench.models[label]
        bench.check(checks.frozen_unchanged(label, frozen[label], m.encoder.parameters()))
        bench.check(checks.no_encoder_backward(label, run.counters + run.warm_counters))
    jobs = {"probe bank": functools.partial(training.evaluate_fer_per_tap, models["probe bank"])}
    jobs.update({label: functools.partial(training.evaluate_fer, models[label]) for label in heads})
    for label, fer in bench.evaluate(jobs, test).items():
        bench.models[label].fer = fer
    bench.label("check")
    for label, m in models.items():
        run = bench.models[label]
        ce_set = test[:CE_UTTERANCES]
        run.ce = bank_ce(m, ce_set) if label == "probe bank" else downstream_ce(m, ce_set)
        _check_downstream(bench, run)


# ---------------------------------------------------------------------------
# write-encoder: the strategy ladder at crop 192
# ---------------------------------------------------------------------------

LADDER = ("hierarchical fusion", "adapters (all layers)",
          "hierarchical fusion + adapters (all layers)", "full fine-tuning")


def write_encoder(bench: Bench) -> None:
    seed = bench.seed
    steps = downstream_steps(bench.seconds, WRITE_ENCODER_ROUND_S, WRITE_ENCODER_TEST,
                             minimum=8)
    ckpt = bench.out_dir / "encoder.ffck"
    bench.write_input_checkpoint(ckpt)
    specs = comparison_model_specs(DESK, NUM_CLASSES)
    specs = {label: specs[label] for label in LADDER}

    def build():
        train = synth.generate_corpus(SYNTH, TASK_SEED, "train")
        test = synth.generate_corpus(SYNTH, TASK_SEED, "test", count=WRITE_ENCODER_TEST)
        state = bench.load_checkpoint(ckpt)
        models = {label: model.build_model(spec, seed, state) for label, spec in specs.items()}
        trainers = {}
        for label, m in models.items():
            lr = 1e-3 * (FULL_FT_LR_FACTOR if specs[label].peft.kind == "full" else 1.0)
            trainers[label] = training.Trainer(m, train, train_config(seed, 192, steps, lr),
                                               use_ema=True)
        return test, state, models, trainers

    test, state, models, trainers = bench.set_up(build)
    bench.label("check")
    probe = Tensor(_crop(test[0]))
    for label, spec in specs.items():
        if spec.peft.kind == "adapter":
            bare = model.build_model(replace(spec, peft=PeftSpec()), seed, state)
            with no_grad():
                bench.check(checks.same_logits(label, models[label].logits(probe).data,
                                               bare.logits(probe).data))
    before = {label: checks.snapshot(m.parameters()) for label, m in models.items()}
    for label, trainer in trainers.items():
        bench.train(label, trainer, steps)
    for label, m in models.items():
        bench.check(checks.only_trainable_changed(label, before[label], m.parameters()))
    jobs = {label: functools.partial(training.evaluate_fer, m) for label, m in models.items()}
    for label, fer in bench.evaluate(jobs, test).items():
        bench.models[label].fer = fer
    bench.label("check")
    for label, m in models.items():
        run = bench.models[label]
        run.ce = downstream_ce(m, test[:CE_UTTERANCES])
        _check_downstream(bench, run)


# ---------------------------------------------------------------------------
# pretrain: masked prediction from random init, crop 64
# ---------------------------------------------------------------------------

PRETRAIN_LABEL = "masked prediction"


def pretrain_workload(bench: Bench) -> None:
    seed = bench.seed
    cfg = pretrain.PretrainConfig(steps=pretrain_steps(bench.seconds), seed=TASK_SEED)
    ckpt = bench.out_dir / "checkpoint.ffck"

    def build():
        corpus = synth.generate_corpus(SYNTH, TASK_SEED, "pretrain")
        held_out = synth.generate_corpus(SYNTH, TASK_SEED, "test", count=PRETRAIN_HELD_OUT)
        return corpus, held_out, encoder.build_encoder(DESK, seed)

    corpus, held_out, enc = bench.set_up(build)
    run = bench.models[PRETRAIN_LABEL] = ModelRun(PRETRAIN_LABEL)
    run.trainable_params = enc.num_params()
    counter = OpCounter()
    bench.label("train", PRETRAIN_LABEL)
    with use_counter(counter):
        # One call trains every step and writes the checkpoint, so its first
        # step and the write sit inside the timed region.
        start = perf_counter()
        run.losses = pretrain.pretrain_masked_prediction(enc, corpus, cfg, ckpt)
        bench.train_s += perf_counter() - start
    run.steps = cfg.steps
    run.counters.append(counter)
    bench.train_examples += cfg.steps * cfg.batch_size
    bench.attempted += cfg.steps + 1   # the steps and the checkpoint write
    bench.notes.append(f"pretraining loss fell {checks.gate_drop(run.losses, cfg.gate_window):.1%} "
                       f"between the first and last {cfg.gate_window}-step windows")
    bench.check(checks.loss_gate(PRETRAIN_LABEL, run.losses, cfg.gate_window, cfg.min_loss_drop))
    bench.check(checks.loss_dropped(PRETRAIN_LABEL, run.losses))

    bench.label("check")
    state = bench.load_checkpoint(ckpt)
    bench.check(checks.checkpoint_matches(PRETRAIN_LABEL, state, enc.parameters(), "encoder"))
    # Rebuild the pretraining model from the checkpoint alone and score
    # masked-code prediction on held-out utterances.
    reloaded = pretrain.MaskedPretrainModel(encoder.build_encoder(DESK, seed), cfg)
    load_state(reloaded, state)

    def masked_ce(chunk):
        with bench.span("pretrain.eval"), no_grad():
            return float(np.mean([float(reloaded.loss(Tensor(_crop(u))).data) for u in chunk]))

    run.ce = bench.evaluate({PRETRAIN_LABEL: masked_ce}, held_out, weight=lambda utt: 1)[PRETRAIN_LABEL]
    bench.check(checks.ce_below_uniform(PRETRAIN_LABEL, run.ce, cfg.codebook_size))

    # The acceptance battery's hand-off of the pretrained encoder object.
    bench.label("handoff")
    bench.attempted += 1
    set_trainable(enc, "**", False)
    try:
        model.ProbeBank(enc, ALL_TAPS, NUM_CLASSES, seed)
    except ValueError as exc:
        bench.failed += 1
        bench.notes.append(f"hand-off of the pretrained encoder to ProbeBank failed: {exc}")


WORKLOADS = {
    "read-taps": read_taps,
    "write-encoder": write_encoder,
    "pretrain": pretrain_workload,
}
