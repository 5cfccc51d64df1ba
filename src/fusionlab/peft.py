"""Parameter-efficient fine-tuning strategies applied to a built encoder.

``configure_peft`` freezes the whole encoder and then selectively
re-enables training according to the chosen strategy:

* ``none``: frozen feature extractor (the fusion-head setting),
* ``full``: everything trainable,
* ``top_block``: only the highest conformer block,
* ``bitfit``: only additive vectors no wider than the model dimension
  (biases and layer-norm offsets; layer-norm scales stay frozen),
* ``adapter``: residual bottleneck modules inserted after chosen blocks,
  with the encoder itself frozen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .encoder import Encoder, check_layers
from .layers import LayerNorm, Linear
from .params import Module, set_trainable
from .tensor import Tensor

__all__ = [
    "PeftSpec",
    "Adapter",
    "configure_peft",
    "lowest_trainable_depth",
    "PEFT_KINDS",
]

PEFT_KINDS = ("none", "full", "top_block", "bitfit", "adapter")


@dataclass(frozen=True)
class PeftSpec:
    kind: str = "none"
    adapter_layers: tuple[int, ...] = field(default_factory=tuple)
    bottleneck_dim: int = 0

    def validate(self, num_layers: int, model_dim: int) -> None:
        if self.kind not in PEFT_KINDS:
            raise ValueError(f"unknown peft kind {self.kind!r}; expected one of {PEFT_KINDS}")
        if self.kind == "adapter":
            check_layers(self.adapter_layers, num_layers, "adapter layers")
            if not 0 < self.bottleneck_dim < model_dim:
                raise ValueError(
                    f"adapter bottleneck ({self.bottleneck_dim}) must be positive and "
                    f"smaller than model_dim ({model_dim})"
                )
        elif self.adapter_layers or self.bottleneck_dim:
            raise ValueError(f"adapter settings are only valid with kind='adapter', got kind={self.kind!r}")


class Adapter(Module):
    """Residual bottleneck: x + up(relu(down(norm(x)))).

    The up-projection weight starts at zero, so a freshly inserted adapter
    is an exact identity and the surrounding model's behavior is unchanged
    until training moves it.
    """

    def __init__(self, model_dim: int, bottleneck_dim: int,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.norm = self.child("norm", LayerNorm(model_dim, dtype))
        self.down = self.child("down", Linear(model_dim, bottleneck_dim, rng, dtype))
        self.up = self.child("up", Linear(bottleneck_dim, model_dim, rng, dtype, zero_init=True))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.add(x, self.up(ops.relu(self.down(self.norm(x)))))


def configure_peft(encoder: Encoder, spec: PeftSpec, seed: int = 0) -> int:
    """Apply a strategy in place; returns the trainable-parameter count."""
    cfg = encoder.config
    spec.validate(cfg.num_layers, cfg.model_dim)
    set_trainable(encoder, "**", False)
    if spec.kind == "full":
        set_trainable(encoder, "**", True)
    elif spec.kind == "top_block":
        top = cfg.num_layers - 1
        set_trainable(encoder, f"layer_{top}/**", True)
    elif spec.kind == "bitfit":
        set_trainable(encoder, "**/bias", True)
        for p in encoder.parameters().values():
            if p.trainable and p.size > cfg.model_dim:
                p.set_trainable(False)
    elif spec.kind == "adapter":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for i in spec.adapter_layers:
            encoder.attach_adapter(i, Adapter(cfg.model_dim, spec.bottleneck_dim, rng, encoder.dtype))
    return encoder.num_params(trainable_only=True)


_DEPTH_RE = re.compile(r"(?:^|/)(?:layer|adapter)_(\d+)/")


def lowest_trainable_depth(encoder_or_model: Module) -> int | None:
    """Smallest block index with any trainable parameter (adapters count
    at their block's index); None when no block-level parameter trains.

    A trainable frontend also pins the depth to 0, since the backward pass
    must then reach below every block.
    """
    depth: int | None = None
    for name, p in encoder_or_model.parameters().items():
        if not p.trainable:
            continue
        m = _DEPTH_RE.search(name)
        if m:
            i = int(m.group(1))
            depth = i if depth is None else min(depth, i)
        elif "frontend/" in name:
            depth = 0
    return depth

