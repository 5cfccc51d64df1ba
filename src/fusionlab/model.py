"""Composed frame-classification models.

A downstream model is the (usually frozen) encoder, an optional fusion
head over its taps, and a per-frame affine classifier.  The probe bank
trains one independent classifier per tap on a shared encoder forward,
which is how per-layer feature quality is measured cheaply.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .accounting import ModelSpec
from .encoder import Encoder, check_layers
from .fusion import build_fusion_head
from .layers import Linear
from .params import Module
from .tensor import ShapeError, Tensor, no_grad, scope

__all__ = ["DownstreamModel", "ProbeBank", "build_model"]


class DownstreamModel(Module):
    """Encoder + optional fusion head + affine frame classifier, shaped by
    one :class:`ModelSpec`.

    Without a fusion head the classifier reads one tap directly
    (``spec.probe_tap``, defaulting to the top layer); this is both the
    per-layer probing configuration and the shape full/top-block/bias-only
    fine-tuning runs in.
    """

    def __init__(self, encoder: Encoder, spec: ModelSpec, seed: int, dtype=np.float32):
        super().__init__()
        spec.validate()
        if encoder.config != spec.encoder:
            raise ValueError(f"encoder config {encoder.config} does not match spec {spec.encoder}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.encoder = self.child("encoder", encoder)
        self.tap_indices = spec.tap_indices()
        self.head = None
        if spec.fusion is not None:
            head = build_fusion_head(spec.fusion, spec.encoder.model_dim, rng, dtype)
            self.head = self.child("head", head)
        self.classifier = self.child(
            "classifier", Linear(spec.head_dim(), spec.num_classes, rng, dtype))

    def logits(self, frames: Tensor) -> Tensor:
        taps = self.encoder.encode_with_taps(frames, self.tap_indices)
        h = taps[self.tap_indices[0]] if self.head is None else self.head(taps)
        with scope("classifier"):
            return self.classifier(h)

    def loss(self, frames: Tensor, labels: np.ndarray) -> Tensor:
        lg = self.logits(frames)
        b, t, k = lg.shape
        lab = np.asarray(labels)
        if lab.shape != (b, t):
            raise ShapeError(f"labels {lab.shape} do not match logits {(b, t)}")
        with scope("loss"):
            flat = ops.reshape(lg, (b * t, k))
            return ops.cross_entropy_with_logits(flat, lab.reshape(-1))

    def predictions(self, frames: Tensor) -> np.ndarray:
        with no_grad():
            return self.logits(frames).data.argmax(axis=-1)


class ProbeBank(Module):
    """Independent per-tap linear classifiers sharing one encoder forward.

    Each probe's parameters receive gradients only from its own loss term,
    so jointly minimizing the sum is exactly equivalent to training the
    probes separately; the shared (frozen) encoder forward is just run
    once instead of once per tap.
    """

    def __init__(self, encoder: Encoder, taps, num_classes: int, seed: int, dtype=np.float32):
        super().__init__()
        cfg = encoder.config
        taps = tuple(sorted(taps))
        check_layers(taps, cfg.num_layers, "probe taps")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.encoder = self.child("encoder", encoder)
        self.tap_indices = taps
        self.probes = {
            i: self.child(f"probe_{i}", Linear(cfg.model_dim, num_classes, rng, dtype))
            for i in taps
        }

    def loss(self, frames: Tensor, labels: np.ndarray) -> Tensor:
        taps = self.encoder.encode_with_taps(frames, self.tap_indices)
        lab = np.asarray(labels).reshape(-1)
        total = None
        for i in self.tap_indices:
            with scope(f"probe_{i}"):
                lg = self.probes[i](taps[i])
                b, t, k = lg.shape
                if lab.shape != (b * t,):
                    raise ShapeError(f"labels {lab.shape} do not match logits {(b, t)}")
                ce = ops.cross_entropy_with_logits(ops.reshape(lg, (b * t, k)), lab)
            total = ce if total is None else ops.add(total, ce)
        return total

    def predictions(self, frames: Tensor) -> np.ndarray:
        """Per-tap predictions stacked as (taps, batch, time), in
        ``tap_indices`` order."""
        with no_grad():
            taps = self.encoder.encode_with_taps(frames, self.tap_indices)
            return np.stack([self.probes[i](taps[i]).data.argmax(axis=-1)
                             for i in self.tap_indices])


def build_model(spec: ModelSpec, seed: int, state: dict | None = None,
                dtype=np.float32) -> DownstreamModel:
    """Canonical composition flow for one resource-accounting spec.

    Builds a fresh encoder, restores pretrained weights when ``state`` is
    given (keys under the ``encoder`` prefix), applies the fine-tuning
    strategy (which may attach adapters, so it runs after the restore),
    and wraps everything in the downstream classifier model.
    """
    from .encoder import build_encoder
    from .params import load_state
    from .peft import configure_peft

    encoder = build_encoder(spec.encoder, seed, dtype)
    if state is not None:
        load_state(encoder, state, prefix="encoder")
    configure_peft(encoder, spec.peft, seed=seed)
    return DownstreamModel(encoder, spec, seed, dtype)
