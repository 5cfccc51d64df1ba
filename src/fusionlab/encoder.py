"""The frozen-by-default foundation encoder: a two-conv subsampling
frontend followed by a stack of conformer blocks with per-layer taps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .layers import ConformerBlock, Conv1d, Linear, sinusoidal_positions
from .params import Module
from .tensor import ShapeError, Tensor, scope

__all__ = ["SUBSAMPLING", "EncoderConfig", "DESK", "FULL_SCALE", "Encoder", "build_encoder",
           "check_layers"]

# Frames per output position, fixed by the frontend's two stride-2 convolutions.
SUBSAMPLING = 4


def check_layers(indices, num_layers: int, what: str, minimum: int = 1) -> None:
    """The one rule for a set of layer indices (fusion taps, probe taps,
    adapter layers): at least ``minimum`` (>= 1) of them, unique and
    increasing, each in ``[0, num_layers)``.  ``what`` names them in the
    error."""
    indices = tuple(indices)
    if len(indices) < minimum:
        raise ValueError(f"need at least {minimum} {what}, got {len(indices)}")
    if list(indices) != sorted(set(indices)):
        raise ValueError(f"{what} must be unique and increasing, got {indices}")
    if indices[0] < 0 or indices[-1] >= num_layers:
        raise ValueError(f"{what} {indices} out of range for {num_layers} layers")


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 6
    model_dim: int = 64
    num_heads: int = 4
    ffn_expansion: int = 4
    conv_kernel: int = 8
    input_dim: int = 16

    @property
    def subsampling(self) -> int:
        return SUBSAMPLING

    def validate(self) -> None:
        for field in ("num_layers", "model_dim", "num_heads", "ffn_expansion",
                      "conv_kernel", "input_dim"):
            v = getattr(self, field)
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"encoder config field {field} must be a positive integer, got {v!r}")
        if self.model_dim % self.num_heads:
            raise ValueError(
                f"encoder config field num_heads ({self.num_heads}) must divide model_dim ({self.model_dim})"
            )
        if self.model_dim % 2:
            raise ValueError(f"encoder config field model_dim must be even, got {self.model_dim}")


DESK = EncoderConfig()

# Full-scale preset, used for analytic counting only (never instantiated).
FULL_SCALE = EncoderConfig(
    num_layers=24, model_dim=1024, num_heads=8, ffn_expansion=4,
    conv_kernel=32, input_dim=128,
)


class Encoder(Module):
    def __init__(self, config: EncoderConfig, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        config.validate()
        self.config = config
        self.dtype = dtype
        d = config.model_dim
        self.conv1 = self.child("frontend/conv1", Conv1d(config.input_dim, d, 2, 2, rng, dtype))
        self.conv2 = self.child("frontend/conv2", Conv1d(d, d, 2, 2, rng, dtype))
        self.proj = self.child("frontend/proj", Linear(d, d, rng, dtype))
        self.blocks: list[ConformerBlock] = []
        # residual-branch outputs start damped so a deep untrained stack is
        # near the identity; without this, depth alone destroys information
        gain = 1.0 / np.sqrt(2.0 * config.num_layers)
        for i in range(config.num_layers):
            block = ConformerBlock(d, config.num_heads, config.ffn_expansion,
                                   config.conv_kernel, rng, dtype, out_gain=gain)
            self.blocks.append(self.child(f"layer_{i}", block))
        self.adapters: dict[int, Module] = {}

    # -- structure ----------------------------------------------------------

    def attach_adapter(self, index: int, adapter: Module) -> None:
        if self._owned:
            raise RuntimeError("attach adapters before composing the encoder into a model")
        check_layers((index,), self.config.num_layers, "adapter layer")
        if index in self.adapters:
            raise ValueError(f"layer {index} already has an adapter")
        self.child(f"adapter_{index}", adapter)
        self.adapters[index] = adapter

    # -- forward ------------------------------------------------------------

    def _frontend(self, frames: Tensor) -> Tensor:
        if frames.data.ndim != 3 or frames.shape[-1] != self.config.input_dim:
            raise ShapeError(
                f"encoder input must be (batch, time, {self.config.input_dim}), got {frames.shape}"
            )
        if frames.shape[1] < SUBSAMPLING:
            raise ShapeError(
                f"sequence length {frames.shape[1]} is shorter than the frontend receptive field "
                f"({SUBSAMPLING})"
            )
        with scope("frontend"):
            h = ops.swish(self.conv1(frames))
            h = ops.swish(self.conv2(h))
            h = self.proj(h)
            pe = sinusoidal_positions(h.shape[1], self.config.model_dim, self.dtype)
            return ops.add(h, Tensor(pe))

    def encode_with_taps(self, frames: Tensor, tap_indices) -> dict[int, Tensor]:
        """Run the frontend and blocks up to the highest requested tap.

        Returns layer index -> output of that block (after any adapter
        attached to it), in ascending layer order.  Blocks above the
        highest tap are skipped entirely, so they record no forward ops.
        Adapter outputs replace the layer output stream.
        """
        taps = tuple(sorted(tap_indices))
        check_layers(taps, self.config.num_layers, "tap indices")
        wanted = set(taps)
        collected: dict[int, Tensor] = {}
        with scope("encoder"):
            h = self._frontend(frames)
            for i in range(taps[-1] + 1):
                with scope(f"layer_{i}"):
                    h = self.blocks[i](h)
                if i in self.adapters:
                    with scope(f"adapter_{i}"):
                        h = self.adapters[i](h)
                if i in wanted:
                    collected[i] = h
        return collected

    def encode(self, frames: Tensor) -> Tensor:
        """Top-layer output only."""
        top = self.config.num_layers - 1
        return self.encode_with_taps(frames, (top,))[top]


def build_encoder(config: EncoderConfig, seed: int, dtype=np.float32) -> Encoder:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return Encoder(config, rng, dtype)
