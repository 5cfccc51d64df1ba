"""Self-supervised pretraining surrogate: masked discrete-code prediction.

Targets come from a frozen random quantizer: window-mean the clean input
frames, project through a fixed random matrix, and take the nearest entry
of a fixed random codebook.  The network sees the frames with randomly
chosen windows replaced by a learned mask embedding and must classify the
code of each hidden window from the encoder output at that position.
Random projections preserve enough geometry that the codes are learnable,
while giving the encoder no peek at the label-generating process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .checkpoint import save_checkpoint
from .encoder import SUBSAMPLING, Encoder
from .layers import Linear
from .params import Module, set_trainable, state_dict
from .tensor import Tensor, scope
from .training import GateError, TrainConfig, Trainer

__all__ = [
    "PretrainConfig",
    "RandomQuantizer",
    "MaskedPretrainModel",
    "pretrain_masked_prediction",
]


@dataclass(frozen=True)
class PretrainConfig:
    codebook_size: int = 64
    code_dim: int = 16
    mask_prob: float = 0.15     # per output position; each hides SUBSAMPLING frames
    steps: int = 2000
    batch_size: int = 16
    crop_len: int = 64
    learning_rate: float = 1e-3
    warmup_steps: int = 100
    seed: int = 0
    min_loss_drop: float = 0.3  # required relative drop, first vs last gate window
    gate_window: int = 50

    def validate(self) -> None:
        for name in ("codebook_size", "code_dim", "steps",
                     "batch_size", "crop_len", "gate_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"pretrain config field {name} must be positive")
        if self.mask_prob == 0:
            raise ValueError("mask_prob 0 would hide nothing; the objective needs masked positions")
        if not 0 < self.mask_prob <= 1:
            raise ValueError(f"mask_prob must be in (0, 1], got {self.mask_prob}")
        if self.crop_len % SUBSAMPLING != 0:
            raise ValueError(
                f"crop_len {self.crop_len} must be a multiple of the subsampling "
                f"factor {SUBSAMPLING}"
            )
        if self.steps < 2 * self.gate_window:
            raise ValueError(
                f"steps ({self.steps}) must cover two gate windows of {self.gate_window}"
            )
        if not 0 <= self.min_loss_drop < 1:
            raise ValueError(f"min_loss_drop must be in [0, 1), got {self.min_loss_drop}")
        if self.learning_rate <= 0 or self.warmup_steps < 0:
            raise ValueError("learning_rate must be positive and warmup_steps non-negative")


class RandomQuantizer:
    """Fixed random projection plus codebook; maps frame windows to codes."""

    def __init__(self, input_dim: int, cfg: PretrainConfig):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 5]))
        self.projection = (
            rng.normal(size=(input_dim, cfg.code_dim)) / np.sqrt(input_dim)
        ).astype(np.float32)
        self.codebook = rng.normal(size=(cfg.codebook_size, cfg.code_dim)).astype(np.float32)

    def codes(self, frames: np.ndarray) -> np.ndarray:
        """(batch, time, input_dim) clean frames to (batch, time // SUBSAMPLING) codes."""
        b, t, _ = frames.shape
        windows = t // SUBSAMPLING
        pooled = frames[:, : windows * SUBSAMPLING].reshape(b, windows, SUBSAMPLING, -1)
        pooled = pooled.mean(axis=2)
        z = pooled @ self.projection
        # argmin ||z - c||^2 == argmin(||c||^2 - 2 z.c), no need for ||z||^2
        scores = 2.0 * z @ self.codebook.T - (self.codebook ** 2).sum(axis=1)
        return scores.argmax(axis=-1)


class _MaskEmbedding(Module):
    def __init__(self, dim: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.embedding = self.param(
            "embedding", rng.normal(0.0, 0.1, size=dim).astype(dtype)
        )


class MaskedPretrainModel(Module):
    """Encoder plus code-classification head over masked input windows."""

    def __init__(self, encoder: Encoder, cfg: PretrainConfig, dtype=np.float32):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        self.quantizer = RandomQuantizer(encoder.config.input_dim, cfg)
        init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 6]))
        self.encoder = self.child("encoder", encoder)
        self.head = self.child(
            "head", Linear(encoder.config.model_dim, cfg.codebook_size, init_rng, dtype)
        )
        self.mask = self.child("mask", _MaskEmbedding(encoder.config.input_dim, init_rng, dtype))
        self._mask_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))

    def sample_mask(self, batch: int, windows: int) -> np.ndarray:
        """Per-window Bernoulli mask with at least one hidden window per row."""
        mask = self._mask_rng.random((batch, windows)) < self.cfg.mask_prob
        bare = ~mask.any(axis=1)
        if bare.any():
            forced = self._mask_rng.integers(0, windows, size=int(bare.sum()))
            mask[np.flatnonzero(bare), forced] = True
        return mask

    def loss(self, frames: Tensor, labels=None) -> Tensor:
        """Cross-entropy over the masked positions only; ``labels`` is
        accepted for trainer compatibility and ignored (targets are
        self-generated)."""
        b, t, _ = frames.shape
        if t % SUBSAMPLING != 0:
            raise ValueError(f"sequence length {t} not a multiple of the subsampling "
                             f"factor {SUBSAMPLING}")
        codes = self.quantizer.codes(frames.data)
        mask = self.sample_mask(b, t // SUBSAMPLING)
        per_frame = np.repeat(mask, SUBSAMPLING, axis=1)[..., None]
        with scope("masking"):
            keep = Tensor((~per_frame).astype(frames.data.dtype))
            hide = Tensor(per_frame.astype(frames.data.dtype))
            spliced = ops.add(ops.mul(frames, keep),
                              ops.mul(self.mask.embedding.value, hide))
        hidden = self.encoder.encode(spliced)
        with scope("head"):
            logits = self.head(hidden)
        with scope("loss"):
            _, w, k = logits.shape
            flat = ops.reshape(logits, (b * w, k))
            picked_rows = np.flatnonzero(mask.reshape(-1))
            picked = ops.gather_rows(flat, picked_rows)
            return ops.cross_entropy_with_logits(picked, codes.reshape(-1)[picked_rows])

    def predictions(self, frames: Tensor) -> np.ndarray:
        raise NotImplementedError("pretraining has no frame labels to predict")


def pretrain_masked_prediction(encoder: Encoder, dataset, cfg: PretrainConfig,
                               checkpoint_path=None) -> list[float]:
    """Train encoder, head, and mask embedding end to end on masked code
    prediction; returns the per-step loss history.

    Any freeze flags on the encoder are reset: pretraining by definition
    trains the whole network.  The mean loss over the last ``gate_window``
    steps must undercut the mean over the first by ``min_loss_drop``
    (relative), else ``GateError`` is raised and nothing is saved.  On
    success the full model state (``encoder/...``, ``head/...``,
    ``mask/...``) is written to ``checkpoint_path`` if one is given.
    Whether it returns or raises, the encoder is handed back unowned, so
    the caller can compose it into another model.
    """
    model = MaskedPretrainModel(encoder, cfg)
    set_trainable(encoder, "**", True)
    train_cfg = TrainConfig(
        learning_rate=cfg.learning_rate,
        warmup_steps=cfg.warmup_steps,
        steps=cfg.steps,
        batch_size=cfg.batch_size,
        crop_len=cfg.crop_len,
        ema_decay=0.0,
        seed=cfg.seed,
    )
    try:
        trainer = Trainer(model, dataset, train_cfg, use_ema=False)
        losses = [trainer.step() for _ in range(cfg.steps)]
        first = float(np.mean(losses[: cfg.gate_window]))
        last = float(np.mean(losses[-cfg.gate_window:]))
        drop = (first - last) / first
        if drop < cfg.min_loss_drop:
            raise GateError(
                f"pretraining did not learn: loss fell {drop:.1%} "
                f"({first:.4f} to {last:.4f}), needed {cfg.min_loss_drop:.0%}"
            )
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, state_dict(model))
    finally:
        model.release("encoder")
    return losses
