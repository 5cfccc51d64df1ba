"""Feature-fusion heads over frozen-encoder taps.

Three families:

* single-layer pass-through (the per-layer probing baseline, which
  needs no head: the classifier reads the tap directly),
* linear fusion: concatenate taps, then a 1-to-4 layer MLP projector,
* hierarchical fusion: per-tap 1-layer projectors ("FP") whose outputs
  are either concatenated in tap order (balanced) or folded through two
  bottom-to-middle and top-to-middle chains (unbalanced), then a 3-layer
  concat-and-project stack.

Tap order is semantic everywhere: features are concatenated in ascending
layer order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .encoder import check_layers
from .layers import Linear
from .params import Module
from .tensor import Tensor, scope

__all__ = [
    "LinearFusionSpec",
    "HierarchicalFusionSpec",
    "LinearFusionHead",
    "HierarchicalFusionHead",
    "build_fusion_head",
    "evenly_spaced_taps",
    "layer_weight_norms",
]


def evenly_spaced_taps(num_layers: int, count: int) -> tuple[int, ...]:
    """Evenly spaced tap indices spanning the stack, top layer included.

    Spacing walks down from the top in steps of num_layers / count with
    round-half-up, e.g. 12 of 24 gives every odd layer, 4 of 24 gives
    (5, 11, 17, 23).
    """
    if not 1 <= count <= num_layers:
        raise ValueError(f"cannot pick {count} taps from {num_layers} layers")
    picks = [num_layers - 1 - int(j * num_layers / count + 0.5) for j in range(count)]
    taps = tuple(sorted(picks))
    check_layers(taps, num_layers, "evenly spaced taps")
    return taps


@dataclass(frozen=True)
class LinearFusionSpec:
    tap_indices: tuple[int, ...]
    depth: int = 1
    width: int = 64  # hidden and output width of the projector

    def validate(self, num_layers: int) -> None:
        check_layers(self.tap_indices, num_layers, "fusion taps")
        if not 1 <= self.depth <= 4:
            raise ValueError(f"projector depth must be in [1, 4], got {self.depth}")
        if self.width <= 0:
            raise ValueError(f"projector width must be positive, got {self.width}")

    @property
    def output_dim(self) -> int:
        return self.width


@dataclass(frozen=True)
class HierarchicalFusionSpec:
    tap_indices: tuple[int, ...]
    variant: str = "balanced"  # or "unbalanced"
    fp_dim: int = 32  # per-tap projector output width, model_dim/2 by default
    final_dim: int = 64
    final_depth: int = 3

    def validate(self, num_layers: int) -> None:
        if self.variant not in ("balanced", "unbalanced"):
            raise ValueError(f"unknown hierarchical fusion variant {self.variant!r}")
        minimum = 2 if self.variant == "balanced" else 3
        check_layers(self.tap_indices, num_layers, f"{self.variant} fusion taps", minimum)
        if self.fp_dim <= 0 or self.final_dim <= 0:
            raise ValueError("fp_dim and final_dim must be positive")
        if self.final_depth < 1:
            raise ValueError(f"final_depth must be at least 1, got {self.final_depth}")

    @property
    def output_dim(self) -> int:
        return self.final_dim


class LinearFusionHead(Module):
    def __init__(self, spec: LinearFusionSpec, model_dim: int,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.spec = spec
        self.model_dim = model_dim
        n = len(spec.tap_indices)
        self.layers: list[Linear] = []
        d_in = n * model_dim
        for i in range(spec.depth):
            layer = Linear(d_in, spec.width, rng, dtype)
            self.layers.append(self.child(f"proj_{i}", layer))
            d_in = spec.width

    def __call__(self, taps) -> Tensor:
        feats = [taps[i] for i in self.spec.tap_indices]
        with scope("fusion"):
            h = ops.concat(feats, axis=-1)
            for i, layer in enumerate(self.layers):
                if i:
                    h = ops.relu(h)
                h = layer(h)
        return h


class HierarchicalFusionHead(Module):
    def __init__(self, spec: HierarchicalFusionSpec, model_dim: int,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.spec = spec
        n = len(spec.tap_indices)
        if spec.variant == "balanced":
            self.fps = [
                self.child(f"fp_{i}", Linear(model_dim, spec.fp_dim, rng, dtype))
                for i in range(n)
            ]
            concat_dim = n * spec.fp_dim
        else:
            split = (n + 1) // 2
            self.bottom = _Chain(model_dim, spec.fp_dim, split, rng, dtype)
            self.top = _Chain(model_dim, spec.fp_dim, n - split, rng, dtype)
            self.child("bottom", self.bottom)
            self.child("top", self.top)
            self.split = split
            concat_dim = 2 * spec.fp_dim
        self.final_layers: list[Linear] = []
        d_in = concat_dim
        for i in range(spec.final_depth):
            layer = Linear(d_in, spec.final_dim, rng, dtype)
            self.final_layers.append(self.child(f"cp_{i}", layer))
            d_in = spec.final_dim

    def _concat_project(self, h: Tensor) -> Tensor:
        for i, layer in enumerate(self.final_layers):
            if i:
                h = ops.relu(h)
            h = layer(h)
        return h

    def __call__(self, taps) -> Tensor:
        feats = [taps[i] for i in self.spec.tap_indices]
        with scope("fusion"):
            if self.spec.variant == "balanced":
                h = ops.concat([fp(f) for fp, f in zip(self.fps, feats)], axis=-1)
            else:
                bottom = self.bottom(feats[: self.split])
                top = self.top(list(reversed(feats[self.split :])))
                h = ops.concat([bottom, top], axis=-1)
            return self._concat_project(h)


class _Chain(Module):
    """Sequential project-and-concatenate chain: state starts as FP(first
    tap) and each step folds in the next tap via a fresh projector."""

    def __init__(self, model_dim: int, fp_dim: int, length: int,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        if length < 1:
            raise ValueError("chain needs at least one tap")
        self.first = self.child("fp_0", Linear(model_dim, fp_dim, rng, dtype))
        self.steps = [
            self.child(f"fp_{j}", Linear(fp_dim + model_dim, fp_dim, rng, dtype))
            for j in range(1, length)
        ]

    def __call__(self, feats: list[Tensor]) -> Tensor:
        state = self.first(feats[0])
        for step, feat in zip(self.steps, feats[1:]):
            state = step(ops.concat([state, feat], axis=-1))
        return state


def build_fusion_head(spec, model_dim: int, rng: np.random.Generator,
                      dtype=np.float32) -> Module:
    """The head a fusion spec describes, its weights drawn from ``rng``."""
    if isinstance(spec, LinearFusionSpec):
        return LinearFusionHead(spec, model_dim, rng, dtype)
    if isinstance(spec, HierarchicalFusionSpec):
        return HierarchicalFusionHead(spec, model_dim, rng, dtype)
    raise TypeError(f"not a fusion spec: {spec!r}")


def layer_weight_norms(head) -> list[tuple[int, float]]:
    """Per-tap l2 norm of the first projector layer's weight slabs.

    Row block i of the (n * model_dim, width) weight matrix corresponds to
    tap i; its Frobenius norm measures how much that layer contributes.
    """
    if not isinstance(head, LinearFusionHead):
        raise TypeError("weight-norm analysis applies to linear fusion heads only")
    w = head.layers[0].w.value.data
    d = head.model_dim
    out = []
    for slot, tap in enumerate(head.spec.tap_indices):
        slab = w[slot * d : (slot + 1) * d, :]
        out.append((tap, float(np.sqrt((slab.astype(np.float64) ** 2).sum()))))
    return out
