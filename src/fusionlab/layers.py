"""Neural layers composed from the differentiable primitives.

Everything takes time-major batched inputs (batch, time, features) and is
built from a seeded numpy Generator so two builds from the same seed are
bitwise identical.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .params import Module
from .tensor import Tensor

__all__ = [
    "Linear",
    "LayerNorm",
    "Conv1d",
    "DepthwiseConv1d",
    "FeedForward",
    "SelfAttention",
    "ConvModule",
    "ConformerBlock",
    "sinusoidal_positions",
]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 dtype=np.float32, zero_init: bool = False):
        super().__init__()
        if zero_init:
            w = np.zeros((d_in, d_out), dtype=dtype)
        else:
            w = _glorot(rng, d_in, d_out, (d_in, d_out), dtype)
        self.w = self.param("weight", w)
        self.b = self.param("bias", np.zeros(d_out, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.bias_add(ops.matmul(x, self.w.value), self.b.value)


class LayerNorm(Module):
    def __init__(self, dim: int, dtype=np.float32, eps: float = 1e-5):
        super().__init__()
        self.scale = self.param("scale", np.ones(dim, dtype=dtype))
        self.offset = self.param("bias", np.zeros(dim, dtype=dtype))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.scale.value, self.offset.value, eps=self.eps)


class Conv1d(Module):
    """Strided valid convolution over time."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        w = _glorot(rng, kernel * c_in, c_out, (kernel, c_in, c_out), dtype)
        self.w = self.param("weight", w)
        self.b = self.param("bias", np.zeros(c_out, dtype=dtype))
        self.stride = stride

    def __call__(self, x: Tensor) -> Tensor:
        return ops.bias_add(ops.conv1d(x, self.w.value, stride=self.stride), self.b.value)


class DepthwiseConv1d(Module):
    """Same-padded per-channel convolution over time."""

    def __init__(self, channels: int, kernel: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        limit = np.sqrt(3.0 / kernel)
        w = rng.uniform(-limit, limit, size=(kernel, channels)).astype(dtype)
        self.w = self.param("weight", w)
        self.b = self.param("bias", np.zeros(channels, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.bias_add(ops.depthwise_conv1d(x, self.w.value), self.b.value)


class FeedForward(Module):
    """Pre-norm expansion MLP with swish, as used in conformer blocks."""

    def __init__(self, dim: int, expansion: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.norm = self.child("norm", LayerNorm(dim, dtype))
        self.up = self.child("up", Linear(dim, expansion * dim, rng, dtype))
        self.down = self.child("down", Linear(expansion * dim, dim, rng, dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(ops.swish(self.up(self.norm(x))))


class SelfAttention(Module):
    """Pre-norm multi-head self-attention, full context, no masking."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"model_dim {dim} not divisible by num_heads {num_heads}")
        self.norm = self.child("norm", LayerNorm(dim, dtype))
        self.q = self.child("q", Linear(dim, dim, rng, dtype))
        self.k = self.child("k", Linear(dim, dim, rng, dtype))
        self.v = self.child("v", Linear(dim, dim, rng, dtype))
        self.out = self.child("out", Linear(dim, dim, rng, dtype))
        self.num_heads = num_heads
        self.head_dim = dim // num_heads

    def _split(self, x: Tensor, b: int, t: int) -> Tensor:
        return ops.transpose(ops.reshape(x, (b, t, self.num_heads, self.head_dim)), 1, 2)

    def __call__(self, x: Tensor) -> Tensor:
        b, t, d = x.shape
        h = self.norm(x)
        q = ops.scale(self._split(self.q(h), b, t), 1.0 / np.sqrt(self.head_dim))
        k = self._split(self.k(h), b, t)
        v = self._split(self.v(h), b, t)
        attn = ops.softmax(ops.matmul(q, ops.transpose(k, -1, -2)))
        ctx = ops.matmul(attn, v)
        merged = ops.reshape(ops.transpose(ctx, 1, 2), (b, t, d))
        return self.out(merged)


class ConvModule(Module):
    """Pre-norm conformer convolution module.

    Pointwise expansion to 2x width, GLU gate, same-padded depthwise
    convolution, a second layer norm in place of batch norm, swish, and a
    pointwise projection back to width.
    """

    def __init__(self, dim: int, kernel: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.norm = self.child("norm", LayerNorm(dim, dtype))
        self.pw_in = self.child("pointwise_in", Linear(dim, 2 * dim, rng, dtype))
        self.depthwise = self.child("depthwise", DepthwiseConv1d(dim, kernel, rng, dtype))
        self.mid_norm = self.child("mid_norm", LayerNorm(dim, dtype))
        self.pw_out = self.child("pointwise_out", Linear(dim, dim, rng, dtype))

    def __call__(self, x: Tensor) -> Tensor:
        h = ops.glu(self.pw_in(self.norm(x)))
        h = self.depthwise(h)
        h = ops.swish(self.mid_norm(h))
        return self.pw_out(h)


class ConformerBlock(Module):
    """Half-step FFN, attention, convolution, half-step FFN, final norm,
    with a residual connection around each sub-module.

    ``out_gain`` scales the four residual-branch output projections at
    initialization.  Stacks pass a gain below one so a freshly built deep
    encoder stays close to the identity and does not scramble its input
    before any training has happened; it has no effect on shapes, counts,
    or costs.
    """

    def __init__(self, dim: int, num_heads: int, expansion: int, kernel: int,
                 rng: np.random.Generator, dtype=np.float32, out_gain: float = 1.0):
        super().__init__()
        self.ffn1 = self.child("ffn1", FeedForward(dim, expansion, rng, dtype))
        self.attn = self.child("attn", SelfAttention(dim, num_heads, rng, dtype))
        self.conv = self.child("conv", ConvModule(dim, kernel, rng, dtype))
        self.ffn2 = self.child("ffn2", FeedForward(dim, expansion, rng, dtype))
        self.norm_out = self.child("norm_out", LayerNorm(dim, dtype))
        if not 0.0 < out_gain <= 1.0:
            raise ValueError(f"out_gain must be in (0, 1], got {out_gain}")
        if out_gain != 1.0:
            # in-place multiply keeps the parameter dtype
            for proj in (self.ffn1.down, self.attn.out, self.conv.pw_out, self.ffn2.down):
                proj.w.value.data *= out_gain

    def __call__(self, x: Tensor) -> Tensor:
        x = ops.add(x, ops.scale(self.ffn1(x), 0.5))
        x = ops.add(x, self.attn(x))
        x = ops.add(x, self.conv(x))
        x = ops.add(x, ops.scale(self.ffn2(x), 0.5))
        return self.norm_out(x)


def sinusoidal_positions(length: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Classic fixed position encoding, (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    half = dim // 2
    freq = np.exp(-np.log(10000.0) * np.arange(half, dtype=np.float64) / max(half, 1))
    angles = pos * freq[None, :]
    enc = np.zeros((length, dim), dtype=np.float64)
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles[:, : dim - half])
    return enc.astype(dtype)
