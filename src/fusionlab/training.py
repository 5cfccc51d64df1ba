"""Optimization loop: Adam with linear warmup, optional weight averaging,
fixed-length crop batching, and frame-error evaluation.

The trainer is deliberately small.  It owns the batch sampler, the
optimizer, and (when enabled) an exponential moving average of the
trainable parameters; ``finish()`` copies the averaged weights into the
model so evaluation sees the smoothed solution.  Parameter updates always
replace the underlying arrays rather than writing into them, so arrays
saved by a graph are never rewritten: a retained graph still reads the
weights its forward used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .encoder import SUBSAMPLING
from .params import Module, Parameter, backward
from .tensor import Tensor

__all__ = [
    "TrainConfig",
    "Metrics",
    "GateError",
    "Adam",
    "ema_update",
    "CropSampler",
    "Trainer",
    "train_downstream",
    "evaluate_fer",
    "evaluate_fer_per_tap",
]


class GateError(RuntimeError):
    """A quality gate failed (e.g. a learning phase did not learn)."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    warmup_steps: int = 500
    steps: int = 3000
    batch_size: int = 16
    crop_len: int = 64
    ema_decay: float = 0.9999
    seed: int = 0
    log_every: int = 50

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("steps", "batch_size", "crop_len", "log_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"train config field {name} must be positive")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps cannot be negative, got {self.warmup_steps}")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError(f"ema_decay must be in [0, 1), got {self.ema_decay}")
        if self.crop_len % SUBSAMPLING != 0:
            raise ValueError(
                f"crop_len {self.crop_len} must be a multiple of the "
                f"subsampling factor {SUBSAMPLING} so crops align with the label grid"
            )


@dataclass(frozen=True)
class Metrics:
    """One logged training snapshot."""

    step: int
    loss: float
    frame_error_rate: float
    throughput: float   # training examples (crops) per second since last log


class Adam:
    """Adam with linear warmup into a constant learning rate.

    Moment state is keyed by parameter name, and updates assign fresh
    arrays into the parameters.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Parameter], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m = {name: np.zeros_like(p.value.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.value.data) for name, p in params.items()}
        self.t = 0

    def learning_rate_at(self, step: int) -> float:
        base = self.cfg.learning_rate
        if self.cfg.warmup_steps == 0:
            return base
        return base * min(1.0, step / self.cfg.warmup_steps)

    def apply(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        lr = self.learning_rate_at(self.t)
        b1, b2, eps = self.beta1, self.beta2, self.eps
        for name in grads:
            if name not in self.params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            g = grads[name]
            p = self.params[name]
            m = b1 * self.m[name] + (1.0 - b1) * g
            v = b2 * self.v[name] + (1.0 - b2) * g * g
            self.m[name], self.v[name] = m, v
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.value.data = p.value.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def ema_update(shadow: dict[str, np.ndarray], current: dict[str, np.ndarray],
               decay: float) -> dict[str, np.ndarray]:
    """Pure one-step exponential moving average; returns the new shadow."""
    if not 0.0 <= decay <= 1.0:
        raise ValueError(f"decay must be in [0, 1], got {decay}")
    if shadow.keys() != current.keys():
        missing = sorted(shadow.keys() ^ current.keys())
        raise KeyError(f"shadow/current key mismatch: {missing[:5]}")
    return {name: decay * shadow[name] + (1.0 - decay) * current[name]
            for name in shadow}


class CropSampler:
    """Uniform fixed-length crops from the concatenated corpus.

    Utterances are trimmed to whole label windows and concatenated once;
    crop starts land on window boundaries so frame labels stay aligned
    with the subsampled output grid.
    """

    def __init__(self, dataset, crop_len: int, batch_size: int, rng: np.random.Generator):
        if not dataset:
            raise ValueError("cannot sample batches from an empty dataset")
        if crop_len % SUBSAMPLING != 0:
            raise ValueError(f"crop_len {crop_len} not a multiple of subsampling {SUBSAMPLING}")
        frames, labels = [], []
        for utt in dataset:
            t = len(utt.labels) * SUBSAMPLING
            frames.append(utt.frames[:t])
            labels.append(utt.labels)
        self.frames = np.concatenate(frames, axis=0)
        self.labels = np.concatenate(labels, axis=0)
        self.crop_len = crop_len
        self.crop_windows = crop_len // SUBSAMPLING
        self.batch_size = batch_size
        self.rng = rng
        if len(self.labels) < self.crop_windows:
            raise ValueError(
                f"corpus has {len(self.labels)} label windows, need at least "
                f"{self.crop_windows} for one crop"
            )

    def batch(self) -> tuple[np.ndarray, np.ndarray]:
        starts = self.rng.integers(0, len(self.labels) - self.crop_windows + 1,
                                   size=self.batch_size)
        frames = np.stack([
            self.frames[s * SUBSAMPLING: s * SUBSAMPLING + self.crop_len]
            for s in starts
        ])
        labels = np.stack([self.labels[s: s + self.crop_windows] for s in starts])
        return frames, labels


class Trainer:
    """Steps a model (anything exposing ``loss`` and trainable parameters)
    over random crops of the dataset."""

    def __init__(self, model: Module, dataset, cfg: TrainConfig, use_ema: bool = False):
        cfg.validate()
        self.model = model
        self.cfg = cfg
        trainable = model.trainable_parameters()
        if not trainable:
            raise RuntimeError("nothing to train: every parameter is frozen")
        self.optimizer = Adam(trainable, cfg)
        # Stream 4 here; corpus generation reserves streams 0 through 3.
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 4]))
        self.sampler = CropSampler(dataset, cfg.crop_len, cfg.batch_size, rng)
        self.use_ema = use_ema
        self.shadow = (
            {name: p.value.data.copy() for name, p in trainable.items()}
            if use_ema else None
        )
        self.steps_done = 0
        self._finished = False

    @property
    def batch_size(self) -> int:
        return self.cfg.batch_size

    def step(self) -> float:
        if self._finished:
            raise RuntimeError("trainer already finished; averaged weights are live")
        frames_np, labels = self.sampler.batch()
        loss = self.model.loss(Tensor(frames_np), labels)
        value = float(loss.data)
        self.steps_done += 1
        if not np.isfinite(value):
            raise RuntimeError(f"loss became non-finite ({value}) at step {self.steps_done}")
        grads = backward(loss, self.model)
        self.optimizer.apply(grads)
        if self.use_ema:
            current = {name: p.value.data
                       for name, p in self.model.trainable_parameters().items()}
            self.shadow = ema_update(self.shadow, current, self.cfg.ema_decay)
        return value

    def finish(self) -> None:
        """Swap the averaged weights in (no-op without averaging)."""
        if self._finished:
            return
        self._finished = True
        if not self.use_ema:
            return
        params = self.model.trainable_parameters()
        for name, arr in self.shadow.items():
            params[name].value.data = arr.copy()


def train_downstream(model: Module, dataset, cfg: TrainConfig,
                     use_ema: bool = True) -> list[Metrics]:
    """Run ``cfg.steps`` optimizer steps; returns the logged metric history.

    Loss is averaged over each logging window, the error rate is measured
    on one fresh training batch at each boundary (averaged over the taps
    of a probe bank, whose predictions stack one row per tap), and
    throughput counts optimizer steps only.  When averaging is enabled the
    averaged weights are installed after the last step.
    """
    trainer = Trainer(model, dataset, cfg, use_ema=use_ema)
    history: list[Metrics] = []
    window: list[float] = []
    t0 = time.perf_counter()
    for step in range(1, cfg.steps + 1):
        window.append(trainer.step())
        if step % cfg.log_every == 0 or step == cfg.steps:
            elapsed = time.perf_counter() - t0
            frames_np, labels = trainer.sampler.batch()
            preds = model.predictions(Tensor(frames_np))
            fer = float((preds != labels).mean())
            rate = len(window) * cfg.batch_size / elapsed if elapsed > 0 else float("inf")
            history.append(Metrics(step=step, loss=float(np.mean(window)),
                                   frame_error_rate=fer, throughput=rate))
            window = []
            t0 = time.perf_counter()
    trainer.finish()
    return history


def evaluate_fer(model, dataset) -> float:
    """Frame error rate over whole utterances, one at a time, no grad."""
    if not dataset:
        raise ValueError("cannot evaluate on an empty dataset")
    errors = 0
    total = 0
    for utt in dataset:
        t = len(utt.labels) * SUBSAMPLING
        preds = model.predictions(Tensor(utt.frames[None, :t]))[0]
        errors += int((preds != utt.labels).sum())
        total += len(utt.labels)
    return errors / total


def evaluate_fer_per_tap(bank, dataset) -> dict[int, float]:
    """Per-tap frame error for a bank of probes sharing one encoder."""
    if not dataset:
        raise ValueError("cannot evaluate on an empty dataset")
    errors = np.zeros(len(bank.tap_indices), dtype=np.int64)
    total = 0
    for utt in dataset:
        t = len(utt.labels) * SUBSAMPLING
        preds = bank.predictions(Tensor(utt.frames[None, :t]))[:, 0]
        errors += (preds != utt.labels).sum(axis=1)
        total += len(utt.labels)
    return {tap: int(err) / total for tap, err in zip(bank.tap_indices, errors)}
