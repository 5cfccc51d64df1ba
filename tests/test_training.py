"""Optimizer, sampler, and trainer mechanics.

The Adam step is checked against a hand-computed update; everything else
exercises the invariants the experiments lean on (alignment, determinism,
averaging, failure modes).
"""

import ctypes
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fusionlab
from fusionlab import ops, tensor
from fusionlab.accounting import comparison_model_specs
from fusionlab.encoder import DESK
from fusionlab.model import build_model
from fusionlab.params import Module
from fusionlab.synth import SynthConfig, Utterance, generate_corpus
from fusionlab.tensor import Tensor
from fusionlab.training import (
    Adam,
    CropSampler,
    Metrics,
    TrainConfig,
    Trainer,
    ema_update,
    evaluate_fer,
    train_downstream,
)


# -- Adam ----------------------------------------------------------------------


class _Scalar(Module):
    def __init__(self, value):
        super().__init__()
        self.w = self.param("w", np.array([value]))

    def loss(self, frames, labels):
        return ops.mean(ops.mul(self.w.value, self.w.value))


def test_adam_first_step_matches_hand_computation():
    cfg = TrainConfig(learning_rate=0.1, warmup_steps=0)
    model = _Scalar(3.0)
    opt = Adam(model.trainable_parameters(), cfg)
    g = np.array([0.5])
    opt.apply({"w": g})
    # bias-corrected first step: m_hat = g, v_hat = g^2, update = lr*g/(|g|+eps)
    expected = 3.0 - 0.1 * 0.5 / (0.5 + 1e-8)
    np.testing.assert_allclose(model.w.value.data, [expected], rtol=1e-12)


def test_adam_two_steps_track_reference():
    cfg = TrainConfig(learning_rate=0.01, warmup_steps=0)
    model = _Scalar(1.0)
    opt = Adam(model.trainable_parameters(), cfg)
    w, m, v = 1.0, 0.0, 0.0
    for t in (1, 2):
        g = 2.0 * w  # gradient of w^2
        opt.apply({"w": np.array([g])})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w = w - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(model.w.value.data, [w], rtol=1e-10)


def test_warmup_schedule_is_linear_then_flat():
    cfg = TrainConfig(learning_rate=1e-3, warmup_steps=100)
    opt = Adam({}, cfg)
    assert opt.learning_rate_at(1) == pytest.approx(1e-5)
    assert opt.learning_rate_at(50) == pytest.approx(5e-4)
    assert opt.learning_rate_at(100) == pytest.approx(1e-3)
    assert opt.learning_rate_at(5000) == pytest.approx(1e-3)
    assert Adam({}, TrainConfig(warmup_steps=0)).learning_rate_at(1) == pytest.approx(1e-3)


def test_adam_update_replaces_array_instead_of_writing_into_it():
    model = _Scalar(1.0)
    before = model.w.value.data
    opt = Adam(model.trainable_parameters(), TrainConfig(warmup_steps=0))
    opt.apply({"w": np.array([1.0])})
    assert model.w.value.data is not before
    np.testing.assert_array_equal(before, [1.0])  # old array untouched


def test_adam_rejects_unknown_parameter():
    opt = Adam(_Scalar(1.0).trainable_parameters(), TrainConfig())
    with pytest.raises(KeyError):
        opt.apply({"nope": np.array([1.0])})


# -- EMA -----------------------------------------------------------------------


def test_ema_update_basic_and_edge_decays():
    shadow = {"a": np.array([1.0])}
    current = {"a": np.array([3.0])}
    np.testing.assert_allclose(ema_update(shadow, current, 0.0)["a"], [3.0])
    np.testing.assert_allclose(ema_update(shadow, current, 1.0)["a"], [1.0])
    np.testing.assert_allclose(ema_update(shadow, current, 0.9)["a"], [1.2])
    with pytest.raises(ValueError):
        ema_update(shadow, current, 1.5)
    with pytest.raises(KeyError):
        ema_update(shadow, {"b": np.array([1.0])}, 0.5)


# -- CropSampler -----------------------------------------------------------------


def corpus(n=6, seed=0):
    return generate_corpus(SynthConfig(), seed=seed, split="train", count=n)


def test_crops_align_with_label_windows():
    rng = np.random.default_rng(0)
    sampler = CropSampler(corpus(), crop_len=32, batch_size=4, rng=rng)
    frames, labels = sampler.batch()
    assert frames.shape == (4, 32, 16)
    assert labels.shape == (4, 8)
    # crop content must match the concatenated stream at a window boundary
    flat_frames, flat_labels = sampler.frames, sampler.labels
    for b in range(4):
        matches = [
            s for s in range(len(flat_labels) - 8 + 1)
            if np.array_equal(flat_frames[s * 4 : s * 4 + 32], frames[b])
            and np.array_equal(flat_labels[s : s + 8], labels[b])
        ]
        assert matches, "crop does not align with any window boundary"


def test_sampler_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        CropSampler([], 32, 4, rng)
    with pytest.raises(ValueError):
        CropSampler(corpus(), 30, 4, rng)  # not a multiple of 4
    tiny = [Utterance(np.zeros((8, 16), dtype=np.float32), np.zeros(2, dtype=np.int64))]
    with pytest.raises(ValueError):
        CropSampler(tiny, 64, 4, rng)  # corpus shorter than one crop


# -- Trainer ---------------------------------------------------------------------


class _Probe(Module):
    """Minimal trainable model over frames: per-window mean -> affine."""

    def __init__(self, num_classes=12, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.w = self.param("w", (rng.normal(size=(16, num_classes)) * 0.05).astype(np.float32))
        self.b = self.param("b", np.zeros(num_classes, dtype=np.float32))

    def _feats(self, frames: Tensor) -> Tensor:
        b, t, d = frames.shape
        pooled = ops.reshape(frames, (b, t // 4, 4, d))
        # mean over the window axis via matmul with a constant
        weights = Tensor(np.full((4, 1), 0.25, dtype=np.float32))
        pooled = ops.reshape(ops.matmul(ops.transpose(pooled, 2, 3), weights), (b, t // 4, d))
        return pooled

    def logits(self, frames: Tensor) -> Tensor:
        return ops.bias_add(ops.matmul(self._feats(frames), self.w.value), self.b.value)

    def loss(self, frames: Tensor, labels) -> Tensor:
        lg = self.logits(frames)
        b, t, k = lg.shape
        return ops.cross_entropy_with_logits(ops.reshape(lg, (b * t, k)),
                                             np.asarray(labels).reshape(-1))

    def predictions(self, frames: Tensor) -> np.ndarray:
        return self.logits(frames).data.argmax(axis=-1)


def quick_cfg(**kw):
    base = dict(steps=60, warmup_steps=10, batch_size=4, crop_len=32,
                log_every=20, ema_decay=0.99, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_training_reduces_loss_and_is_deterministic():
    data = corpus(20)
    h1 = train_downstream(_Probe(), data, quick_cfg(steps=200), use_ema=False)
    h2 = train_downstream(_Probe(), data, quick_cfg(steps=200), use_ema=False)
    assert [m.loss for m in h1] == [m.loss for m in h2]
    assert h1[-1].loss < h1[0].loss * 0.8
    assert all(isinstance(m, Metrics) and m.throughput > 0 for m in h1)
    assert h1[-1].step == 200


def test_frozen_model_refuses_to_train():
    model = _Probe()
    for p in model.parameters().values():
        p.set_trainable(False)
    with pytest.raises(RuntimeError, match="nothing to train"):
        Trainer(model, corpus(), quick_cfg())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_reported_with_step():
    model = _Probe()
    model.w.value.data[:] = np.inf
    trainer = Trainer(model, corpus(), quick_cfg())
    with pytest.raises(RuntimeError, match="step 1"):
        trainer.step()


def test_ema_zero_decay_equals_final_weights():
    data = corpus(12)
    plain, avg = _Probe(seed=1), _Probe(seed=1)
    cfg = quick_cfg(ema_decay=0.0)
    train_downstream(plain, data, cfg, use_ema=False)
    train_downstream(avg, data, cfg, use_ema=True)
    np.testing.assert_allclose(avg.w.value.data, plain.w.value.data, rtol=1e-6)


def test_ema_weights_installed_at_finish_and_trainer_locks():
    data = corpus(12)
    model = _Probe()
    trainer = Trainer(model, data, quick_cfg(), use_ema=True)
    for _ in range(30):
        trainer.step()
    live = model.w.value.data.copy()
    trainer.finish()
    assert np.abs(model.w.value.data - live).max() > 0  # shadow took over
    np.testing.assert_allclose(model.w.value.data, trainer.shadow["w"])
    trainer.finish()  # idempotent
    with pytest.raises(RuntimeError):
        trainer.step()


def test_evaluate_fer_trivial_models():
    data = corpus(4)

    class Constant:
        def __init__(self, k):
            self.k = k

        def predictions(self, frames):
            b, t, _ = frames.shape
            return np.full((b, t // 4), self.k, dtype=np.int64)

    fers = [evaluate_fer(Constant(k), data) for k in range(12)]
    labels = np.concatenate([u.labels for u in data])
    for k in range(12):
        assert fers[k] == pytest.approx((labels != k).mean())
    with pytest.raises(ValueError):
        evaluate_fer(Constant(0), [])


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(ema_decay=1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(crop_len=30).validate()
    with pytest.raises(ValueError):
        TrainConfig(warmup_steps=-1).validate()
    quick_cfg().validate()


# -- heap ------------------------------------------------------------------------


def _glibc_loads():
    try:
        ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _glibc_loads(), reason="libc.so.6 does not load")
def test_training_step_does_not_refault_the_heap():
    # With glibc's default thresholds a step trimmed its freed arrays back
    # to the kernel and faulted them in again: 7k-22k minor faults per
    # adapters step at this size, depending on what ran before.
    import resource

    specs = comparison_model_specs(DESK, num_classes=12)
    data = generate_corpus(SynthConfig(), seed=1, split="train", count=64)
    cfg = TrainConfig(batch_size=16, crop_len=192, warmup_steps=0,
                      ema_decay=0.0, log_every=100)
    for name in ("adapters (all layers)", "full fine-tuning"):
        trainer = Trainer(build_model(specs[name], seed=1), data, cfg, use_ema=False)
        for _ in range(5):
            trainer.step()
        faults = []
        for _ in range(10):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            trainer.step()
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert statistics.median(faults) < 100, (name, faults)


def _no_libc(*args, **kwargs):
    raise OSError("libc.so.6: cannot open shared object file")


def test_malloc_setup_skipped_without_glibc(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", _no_libc)
    tensor._set_malloc_thresholds()
    code = (
        "import ctypes\n"
        "calls = []\n"
        "def no_libc(*args, **kwargs):\n"
        "    calls.append(args)\n"
        "    raise OSError('no libc')\n"
        "ctypes.CDLL = no_libc\n"
        "import fusionlab\n"
        "assert calls == [('libc.so.6',)], calls\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fusionlab.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
