"""Each correctness check passes on a right output and rejects a
deliberately wrong one.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import math
import os
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from fusionlab.accounting import comparison_model_specs  # noqa: E402
from fusionlab.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from fusionlab.encoder import DESK, build_encoder  # noqa: E402
from fusionlab.model import build_model  # noqa: E402
from fusionlab.params import state_dict  # noqa: E402
from fusionlab.peft import PeftSpec  # noqa: E402
from fusionlab.synth import SynthConfig, generate_corpus  # noqa: E402
from fusionlab.tensor import OpCounter, Tensor, no_grad, use_counter  # noqa: E402
from fusionlab.training import TrainConfig, Trainer, evaluate_fer  # noqa: E402

from perfbench import checks, tracing  # noqa: E402

SPECS = comparison_model_specs(DESK, 12)
SMALL = SynthConfig(train_utterances=8, test_utterances=4)


def _train(model, steps=2):
    corpus = generate_corpus(SMALL, 0, "train")
    cfg = TrainConfig(steps=steps, batch_size=2, crop_len=16, warmup_steps=0, ema_decay=0.0)
    trainer = Trainer(model, corpus, cfg)
    counter = OpCounter()
    with use_counter(counter):
        losses = [trainer.step() for _ in range(steps)]
    return counter, losses


def test_frozen_checks_pass_on_a_frozen_encoder():
    model = build_model(SPECS["hierarchical fusion"], seed=0)
    before = checks.snapshot(model.encoder.parameters())
    counter, _ = _train(model)
    assert checks.frozen_unchanged("tree", before, model.encoder.parameters()) is None
    assert checks.no_encoder_backward("tree", [counter]) is None


def test_frozen_checks_reject_a_trained_encoder():
    # Full fine-tuning dressed up as a read-only workload.
    model = build_model(SPECS["full fine-tuning"], seed=0)
    before = checks.snapshot(model.encoder.parameters())
    counter, _ = _train(model)
    assert "frozen encoder parameters changed" in checks.frozen_unchanged(
        "full", before, model.encoder.parameters())
    assert "backward ops ran inside the frozen encoder" in checks.no_encoder_backward(
        "full", [counter])


def test_only_trainable_changed():
    model = build_model(SPECS["adapters (all layers)"], seed=0)
    before = checks.snapshot(model.parameters())
    _train(model)
    params = model.parameters()
    assert checks.only_trainable_changed("adapters", before, params) is None
    frozen = next(p for p in params.values() if not p.trainable)
    frozen.value.data = frozen.value.data + 1.0
    assert "frozen parameter" in checks.only_trainable_changed("adapters", before, params)


def test_only_trainable_changed_rejects_an_untouched_trainable_parameter():
    model = build_model(SPECS["adapters (all layers)"], seed=0)
    before = checks.snapshot(model.parameters())
    assert "never changed" in checks.only_trainable_changed("adapters", before, model.parameters())


def test_same_logits_rejects_adapters_that_are_not_identity():
    spec = SPECS["adapters (all layers)"]
    adapted = build_model(spec, seed=0)
    bare = build_model(replace(spec, peft=PeftSpec()), seed=0)
    frames = Tensor(generate_corpus(SMALL, 0, "test")[0].frames[None, :32])
    with no_grad():
        assert checks.same_logits("fresh", adapted.logits(frames).data,
                                  bare.logits(frames).data) is None
        up = adapted.encoder.adapters[0].up.w
        up.value.data = np.full_like(up.value.data, 0.01)
        assert "changed the logits" in checks.same_logits(
            "moved", adapted.logits(frames).data, bare.logits(frames).data)


def test_loss_dropped():
    assert checks.loss_dropped("m", [3.0, 2.9, 2.0, 1.5]) is None
    assert "not below" in checks.loss_dropped("m", [2.0, 2.1, 2.2, 2.3])
    assert "not below" in checks.loss_dropped("m", [2.0] * 8)


def test_below_chance_rejects_shuffled_labels():
    class Oracle:
        """Predicts a fixed label sequence per utterance."""

        def __init__(self, labels):
            self.labels = labels

        def predictions(self, frames):
            return self.labels[frames.shape[1]][None]

    test = generate_corpus(SMALL, 0, "test")
    truth = {len(u.labels) * 4: u.labels for u in test}
    assert len(truth) == len(test)
    assert checks.below_chance("oracle", evaluate_fer(Oracle(truth), test), 12) is None
    shifted = {t: (labels + 1) % 12 for t, labels in truth.items()}
    fer = evaluate_fer(Oracle(shifted), test)
    assert fer == 1.0
    assert "not below chance" in checks.below_chance("shifted", fer, 12)


def test_cross_entropy_checks():
    labels = np.array([0, 3, 5])
    uniform = np.zeros((3, 12), dtype=np.float32)
    total, frames = checks.frame_ce(uniform, labels)
    assert frames == 3 and total == pytest.approx(3 * math.log(12))
    assert "not below ln 12" in checks.ce_below_uniform("uniform", total / frames, 12)
    confident = np.eye(12, dtype=np.float32)[labels] * 10.0
    total, frames = checks.frame_ce(confident, labels)
    assert checks.ce_below_uniform("confident", total / frames, 12) is None
    assert checks.ce_below_uniform("codes", math.log(64) + 1e-6, 64) is not None


def test_loss_gate():
    losses = [4.0] * 50 + [2.6] * 50
    assert checks.loss_gate("pretrain", losses, 50, 0.3) is None
    assert "gate needs 30%" in checks.loss_gate("pretrain", [4.0] * 50 + [3.0] * 50, 50, 0.3)


def test_checkpoint_matches_rejects_a_flipped_bit(tmp_path):
    enc = build_encoder(DESK, 0)
    path = tmp_path / "enc.ffck"
    save_checkpoint(path, {f"encoder/{n}": a for n, a in state_dict(enc).items()})
    loaded = load_checkpoint(path)
    assert checks.checkpoint_matches("enc", loaded, enc.parameters(), "encoder") is None
    key = next(iter(loaded))
    raw = loaded[key].view(np.uint32)
    raw.flat[0] ^= 1
    assert "differs" in checks.checkpoint_matches("enc", loaded, enc.parameters(), "encoder")
    del loaded[key]
    assert "lacks" in checks.checkpoint_matches("enc", loaded, enc.parameters(), "encoder")


def test_instrument_restores_the_program():
    from fusionlab import training

    original = training.Trainer.__dict__["step"]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert training.Trainer.__dict__["step"] is not original
        _train(build_model(SPECS["hierarchical fusion"], seed=0), steps=1)
    assert training.Trainer.__dict__["step"] is original
    names = [s.name for s in tracer.spans]
    assert names.count("training.step") == 1 and "encoder.forward" in names
    step = names.index("training.step")
    assert all(s.parent == step for s in tracer.spans[step + 1:] if s.name in
               ("training.sampler", "model.forward", "params.backward", "training.adam"))
