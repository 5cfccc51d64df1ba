"""Differentiable primitive operations over :class:`~fusionlab.tensor.Tensor`.

Each primitive:

* validates shapes and raises :class:`ShapeError` naming the op and dims,
* computes the forward result with numpy,
* charges forward FLOPs / op counts to the active counter (2 FLOPs per
  multiply-add, movement ops are free),
* records a graph node carrying a backward rule, the arrays saved for
  backward, and the backward FLOP charge, but only when at least one
  input requires a gradient.

The per-op cost formulas live in the ``*_flops`` helpers below so the
closed-form accounting route can price the same op inventory without
touching the live graph.  Saved-for-backward byte accounting excludes
parameter storage (a node holding a reference to a weight retains no
extra memory); everything else saved is charged at its array size.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    BACKWARD,
    Node,
    ShapeError,
    Tensor,
    current_counter,
    current_scope,
    grad_enabled,
)

__all__ = [
    "matmul", "bias_add", "add", "mul", "scale", "relu", "swish", "sigmoid",
    "glu", "softmax", "layer_norm", "conv1d", "depthwise_conv1d", "concat",
    "narrow", "transpose", "reshape", "mean", "gather_rows",
    "cross_entropy_with_logits",
]

# ---------------------------------------------------------------------------
# Cost formulas (shared with the analytic accounting route)
# ---------------------------------------------------------------------------
# All formulas return FLOPs under the 1 multiply-add = 2 FLOPs convention.
# "n" arguments are element counts of the tensor named in the helper.


def matmul_flops(batch: int, m: int, k: int, n: int) -> int:
    return 2 * batch * m * k * n


def conv1d_flops(batch: int, t_out: int, kernel: int, c_in: int, c_out: int) -> int:
    return 2 * batch * t_out * kernel * c_in * c_out


def depthwise_conv1d_flops(batch: int, t_out: int, kernel: int, channels: int) -> int:
    return 2 * batch * t_out * kernel * channels


def pointwise_flops(kind: str, out_elems: int, forward: bool) -> int:
    """Elementwise op cost per output element, forward or backward-per-side."""
    table = {
        # kind: (fwd per elem, bwd per elem per needed input side)
        "bias_add": (1, 1),   # bwd side cost applies to the bias reduction only
        "add": (1, 0),
        "mul": (1, 1),
        "scale": (1, 1),
        "relu": (1, 1),
        "sigmoid": (4, 3),
        "swish": (5, 7),
        "glu": (6, 9),
        "softmax": (5, 4),
        "mean": (1, 1),
    }
    f, b = table[kind]
    return (f if forward else b) * out_elems


def layer_norm_flops(n: int, need_x: bool, need_scale: bool, need_bias: bool, forward: bool) -> int:
    if forward:
        return 8 * n
    return (9 * n if need_x else 0) + (2 * n if need_scale else 0) + (n if need_bias else 0)


def cross_entropy_flops(rows: int, classes: int, forward: bool) -> int:
    return (6 if forward else 2) * rows * classes


# ---------------------------------------------------------------------------
# Node plumbing
# ---------------------------------------------------------------------------


def _saved_nbytes(saved: dict) -> int:
    total = 0
    for value in saved.values():
        if isinstance(value, Tensor):
            if not value.is_param:
                total += value.data.nbytes
        elif isinstance(value, np.ndarray):
            total += value.nbytes
    return total


def _finish(kind, out_data, inputs, saved, attrs, fwd_flops, bwd_flops):
    """Count the op, attach a node when differentiation needs one."""
    needs = tuple(t.requires_grad for t in inputs)
    record = grad_enabled() and any(needs)
    counter = current_counter()
    scope_name = current_scope()
    node = None
    saved_bytes = 0
    if record:
        saved_bytes = _saved_nbytes(saved)
        node = Node(kind, inputs, needs, saved, attrs, scope_name, bwd_flops)
    counter.record_forward(kind, int(fwd_flops), scope_name, saved_bytes)
    return Tensor(out_data, node=node)


def _backward_rule(kind):
    def register(fn):
        BACKWARD[kind] = fn
        return fn
    return register


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast input."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: inputs must be at least 2-D, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    if b.data.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(
            f"matmul: batch dimensions must match when both operands are batched, {a.shape} x {b.shape}"
        )
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    if b.data.ndim == 2 and a.data.ndim > 2:
        out = (a.data.reshape(-1, k) @ b.data).reshape(*a.shape[:-1], n)
    else:
        out = a.data @ b.data
    batch = max(out.size // max(m * n, 1), 0) if out.size else 0
    fwd = matmul_flops(batch, m, k, n)
    need_a, need_b = a.requires_grad, b.requires_grad
    bwd = matmul_flops(batch, m, k, n) * (int(need_a) + int(need_b))
    saved = {}
    if need_a:
        saved["b"] = b
    if need_b:
        saved["a"] = a
    return _finish("matmul", out, (a, b), saved, {}, fwd, bwd)


@_backward_rule("matmul")
def _matmul_bwd(node, g):
    a, b = node.inputs
    need_a, need_b = node.needs
    ga = gb = None
    if need_a:
        bd = node.saved["b"].data
        if bd.ndim == 2:
            n = bd.shape[1]
            ga = (g.reshape(-1, n) @ bd.T).reshape(a.shape)
        else:
            ga = g @ np.swapaxes(bd, -1, -2)
    if need_b:
        ad = node.saved["a"].data
        if b.data.ndim == 2:
            k = ad.shape[-1]
            n = g.shape[-1]
            gb = ad.reshape(-1, k).T @ g.reshape(-1, n)
        else:
            gb = np.swapaxes(ad, -1, -2) @ g
    return ga, gb


def bias_add(x: Tensor, bias: Tensor) -> Tensor:
    if bias.data.ndim != 1 or x.shape[-1] != bias.shape[0]:
        raise ShapeError(f"bias_add: bias {bias.shape} does not match feature dim of {x.shape}")
    out = x.data + bias.data
    fwd = pointwise_flops("bias_add", out.size, True)
    bwd = pointwise_flops("bias_add", out.size, False) if bias.requires_grad else 0
    return _finish("bias_add", out, (x, bias), {}, {}, fwd, bwd)


@_backward_rule("bias_add")
def _bias_add_bwd(node, g):
    x, bias = node.inputs
    gx = g if node.needs[0] else None
    gb = g.reshape(-1, g.shape[-1]).sum(axis=0) if node.needs[1] else None
    return gx, gb


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    fwd = pointwise_flops("add", out.size, True)
    return _finish("add", out, (a, b), {}, {"sa": a.shape, "sb": b.shape}, fwd, 0)


@_backward_rule("add")
def _add_bwd(node, g):
    ga = _unbroadcast(g, node.attrs["sa"]) if node.needs[0] else None
    gb = _unbroadcast(g, node.attrs["sb"]) if node.needs[1] else None
    return ga, gb


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    fwd = pointwise_flops("mul", out.size, True)
    per_side = pointwise_flops("mul", out.size, False)
    bwd = per_side * (int(a.requires_grad) + int(b.requires_grad))
    saved = {}
    if a.requires_grad:
        saved["b"] = b
    if b.requires_grad:
        saved["a"] = a
    return _finish("mul", out, (a, b), saved, {"sa": a.shape, "sb": b.shape}, fwd, bwd)


@_backward_rule("mul")
def _mul_bwd(node, g):
    ga = gb = None
    if node.needs[0]:
        ga = _unbroadcast(g * node.saved["b"].data, node.attrs["sa"])
    if node.needs[1]:
        gb = _unbroadcast(g * node.saved["a"].data, node.attrs["sb"])
    return ga, gb


def scale(x: Tensor, factor: float) -> Tensor:
    # Coerce to the input dtype: a stray numpy float64 scalar would
    # otherwise promote the whole downstream computation.
    out = x.data * x.data.dtype.type(factor)
    fwd = pointwise_flops("scale", out.size, True)
    bwd = pointwise_flops("scale", out.size, False) if x.requires_grad else 0
    return _finish("scale", out, (x,), {}, {"factor": float(factor)}, fwd, bwd)


@_backward_rule("scale")
def _scale_bwd(node, g):
    return (g * g.dtype.type(node.attrs["factor"]),)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)
    fwd = pointwise_flops("relu", out.size, True)
    bwd = pointwise_flops("relu", out.size, False) if x.requires_grad else 0
    saved = {"x": x} if x.requires_grad else {}
    return _finish("relu", out, (x,), saved, {}, fwd, bwd)


@_backward_rule("relu")
def _relu_bwd(node, g):
    return (g * (node.saved["x"].data > 0),)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form: cannot overflow at either tail, and runs in place on one
    # fresh array in the input dtype (a sign-split mask form is ~40x slower).
    out = np.multiply(x, 0.5, dtype=x.dtype)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)
    fwd = pointwise_flops("sigmoid", out.size, True)
    bwd = pointwise_flops("sigmoid", out.size, False) if x.requires_grad else 0
    saved = {"y": out} if x.requires_grad else {}
    return _finish("sigmoid", out, (x,), saved, {}, fwd, bwd)


@_backward_rule("sigmoid")
def _sigmoid_bwd(node, g):
    y = node.saved["y"]
    return (g * y * (1.0 - y),)


def swish(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    out = x.data * s
    fwd = pointwise_flops("swish", out.size, True)
    bwd = pointwise_flops("swish", out.size, False) if x.requires_grad else 0
    saved = {"x": x, "s": s} if x.requires_grad else {}
    return _finish("swish", out, (x,), saved, {}, fwd, bwd)


@_backward_rule("swish")
def _swish_bwd(node, g):
    s = node.saved["s"]
    xd = node.saved["x"].data
    return (g * (s + xd * s * (1.0 - s)),)


def glu(x: Tensor) -> Tensor:
    """Gated linear unit over the last axis: first half gated by sigmoid of second."""
    d = x.shape[-1]
    if d % 2:
        raise ShapeError(f"glu: last dimension must be even, got {x.shape}")
    h = d // 2
    a = x.data[..., :h]
    s = _sigmoid(x.data[..., h:])
    out = a * s
    fwd = pointwise_flops("glu", out.size, True)
    bwd = pointwise_flops("glu", out.size, False) if x.requires_grad else 0
    saved = {"a": a, "s": s} if x.requires_grad else {}
    return _finish("glu", out, (x,), saved, {}, fwd, bwd)


@_backward_rule("glu")
def _glu_bwd(node, g):
    a, s = node.saved["a"], node.saved["s"]
    ga = g * s
    gb = g * a * s * (1.0 - s)
    return (np.concatenate([ga, gb], axis=-1),)


def softmax(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)
    fwd = pointwise_flops("softmax", out.size, True)
    bwd = pointwise_flops("softmax", out.size, False) if x.requires_grad else 0
    saved = {"y": out} if x.requires_grad else {}
    return _finish("softmax", out, (x,), saved, {}, fwd, bwd)


@_backward_rule("softmax")
def _softmax_bwd(node, g):
    y = node.saved["y"]
    return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: scale {gamma.shape} / offset {beta.shape} do not match feature dim of {x.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma.data + beta.data
    need_x, need_g, need_b = x.requires_grad, gamma.requires_grad, beta.requires_grad
    fwd = layer_norm_flops(out.size, need_x, need_g, need_b, True)
    bwd = layer_norm_flops(out.size, need_x, need_g, need_b, False)
    saved = {}
    if need_x or need_g:
        saved["xhat"] = xhat
    if need_x:
        saved["inv"] = inv
        saved["gamma"] = gamma
    return _finish("layer_norm", out, (x, gamma, beta), saved, {}, fwd, bwd)


@_backward_rule("layer_norm")
def _layer_norm_bwd(node, g):
    need_x, need_g, need_b = node.needs
    gx = gg = gb = None
    if need_x:
        xhat = node.saved["xhat"]
        inv = node.saved["inv"]
        dxhat = g * node.saved["gamma"].data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
    if need_g:
        gg = (g * node.saved["xhat"]).reshape(-1, g.shape[-1]).sum(axis=0)
    if need_b:
        gb = g.reshape(-1, g.shape[-1]).sum(axis=0)
    return gx, gg, gb


# ---------------------------------------------------------------------------
# Convolutions (time-major inputs: (batch, time, channels))
# ---------------------------------------------------------------------------


def conv1d(x: Tensor, weight: Tensor, stride: int = 1) -> Tensor:
    """Valid (no padding) 1-D convolution; weight is (kernel, c_in, c_out)."""
    if x.data.ndim != 3 or weight.data.ndim != 3:
        raise ShapeError(f"conv1d: expected (B,T,Cin) and (K,Cin,Cout), got {x.shape} and {weight.shape}")
    b, t, c_in = x.shape
    k, wc_in, c_out = weight.shape
    if wc_in != c_in:
        raise ShapeError(f"conv1d: input channels {c_in} do not match weight {weight.shape}")
    if t < k:
        raise ShapeError(f"conv1d: sequence length {t} shorter than kernel {k}")
    t_out = (t - k) // stride + 1
    out = np.zeros((b, t_out, c_out), dtype=x.dtype)
    span = stride * (t_out - 1) + 1
    for j in range(k):
        seg = x.data[:, j : j + span : stride, :]
        out += (seg.reshape(-1, c_in) @ weight.data[j]).reshape(b, t_out, c_out)
    fwd = conv1d_flops(b, t_out, k, c_in, c_out)
    per_side = conv1d_flops(b, t_out, k, c_in, c_out)
    bwd = per_side * (int(x.requires_grad) + int(weight.requires_grad))
    saved = {}
    if x.requires_grad:
        saved["w"] = weight
    if weight.requires_grad:
        saved["x"] = x
    attrs = {"stride": stride, "k": k, "t": t, "span": span}
    return _finish("conv1d", out, (x, weight), saved, attrs, fwd, bwd)


@_backward_rule("conv1d")
def _conv1d_bwd(node, g):
    x, weight = node.inputs
    stride, k, t, span = node.attrs["stride"], node.attrs["k"], node.attrs["t"], node.attrs["span"]
    b, t_out, c_out = g.shape
    gx = gw = None
    if node.needs[0]:
        wd = node.saved["w"].data
        gx = np.zeros((b, t, wd.shape[1]), dtype=g.dtype)
        g2 = g.reshape(-1, c_out)
        for j in range(k):
            gx[:, j : j + span : stride, :] += (g2 @ wd[j].T).reshape(b, t_out, -1)
    if node.needs[1]:
        xd = node.saved["x"].data
        c_in = xd.shape[-1]
        gw = np.zeros((k, c_in, c_out), dtype=g.dtype)
        g2 = g.reshape(-1, c_out)
        for j in range(k):
            seg = xd[:, j : j + span : stride, :].reshape(-1, c_in)
            gw[j] = seg.T @ g2
    return gx, gw


def depthwise_conv1d(x: Tensor, weight: Tensor) -> Tensor:
    """Same-padded per-channel 1-D convolution; weight is (kernel, channels)."""
    if x.data.ndim != 3 or weight.data.ndim != 2:
        raise ShapeError(
            f"depthwise_conv1d: expected (B,T,C) and (K,C), got {x.shape} and {weight.shape}"
        )
    b, t, c = x.shape
    k, wc = weight.shape
    if wc != c:
        raise ShapeError(f"depthwise_conv1d: channels {c} do not match weight {weight.shape}")
    pad_left = (k - 1) // 2
    pad_right = k // 2
    xp = np.pad(x.data, ((0, 0), (pad_left, pad_right), (0, 0)))
    out = np.zeros_like(x.data)
    for j in range(k):
        out += xp[:, j : j + t, :] * weight.data[j]
    fwd = depthwise_conv1d_flops(b, t, k, c)
    per_side = depthwise_conv1d_flops(b, t, k, c)
    bwd = per_side * (int(x.requires_grad) + int(weight.requires_grad))
    saved = {}
    if x.requires_grad:
        saved["w"] = weight
    if weight.requires_grad:
        saved["xp"] = xp
    attrs = {"k": k, "pad_left": pad_left, "pad_right": pad_right}
    return _finish("depthwise_conv1d", out, (x, weight), saved, attrs, fwd, bwd)


@_backward_rule("depthwise_conv1d")
def _depthwise_bwd(node, g):
    x, weight = node.inputs
    k = node.attrs["k"]
    pad_left, pad_right = node.attrs["pad_left"], node.attrs["pad_right"]
    b, t, c = g.shape
    gx = gw = None
    if node.needs[0]:
        wd = node.saved["w"].data
        gxp = np.zeros((b, t + pad_left + pad_right, c), dtype=g.dtype)
        for j in range(k):
            gxp[:, j : j + t, :] += g * wd[j]
        gx = gxp[:, pad_left : pad_left + t, :]
    if node.needs[1]:
        xp = node.saved["xp"]
        gw = np.empty((k, c), dtype=g.dtype)
        for j in range(k):
            gw[j] = (g * xp[:, j : j + t, :]).sum(axis=(0, 1))
    return gx, gw


# ---------------------------------------------------------------------------
# Movement ops (zero FLOPs)
# ---------------------------------------------------------------------------


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    if not parts:
        raise ShapeError("concat: no inputs")
    base = list(parts[0].shape)
    ax = axis % len(base)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != len(base) or any(
            i != ax and other[i] != base[i] for i in range(len(base))
        ):
            raise ShapeError(f"concat: incompatible shapes {[q.shape for q in parts]} on axis {axis}")
    out = np.concatenate([p.data for p in parts], axis=ax)
    sizes = [p.shape[ax] for p in parts]
    return _finish("concat", out, tuple(parts), {}, {"axis": ax, "sizes": sizes}, 0, 0)


@_backward_rule("concat")
def _concat_bwd(node, g):
    ax, sizes = node.attrs["axis"], node.attrs["sizes"]
    pieces = np.split(g, np.cumsum(sizes)[:-1], axis=ax)
    return tuple(p if need else None for p, need in zip(pieces, node.needs))


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    ax = axis % x.data.ndim
    if start < 0 or start + length > x.shape[ax]:
        raise ShapeError(f"narrow: [{start}:{start + length}) out of bounds for axis {ax} of {x.shape}")
    index = [slice(None)] * x.data.ndim
    index[ax] = slice(start, start + length)
    out = x.data[tuple(index)].copy()
    attrs = {"axis": ax, "start": start, "length": length, "shape": x.shape}
    return _finish("narrow", out, (x,), {}, attrs, 0, 0)


@_backward_rule("narrow")
def _narrow_bwd(node, g):
    attrs = node.attrs
    gx = np.zeros(attrs["shape"], dtype=g.dtype)
    index = [slice(None)] * len(attrs["shape"])
    index[attrs["axis"]] = slice(attrs["start"], attrs["start"] + attrs["length"])
    gx[tuple(index)] = g
    return (gx,)


def transpose(x: Tensor, axis_a: int, axis_b: int) -> Tensor:
    out = np.swapaxes(x.data, axis_a, axis_b)
    return _finish("transpose", out, (x,), {}, {"a": axis_a, "b": axis_b}, 0, 0)


@_backward_rule("transpose")
def _transpose_bwd(node, g):
    return (np.swapaxes(g, node.attrs["a"], node.attrs["b"]),)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from None
    return _finish("reshape", out, (x,), {}, {"shape": x.shape}, 0, 0)


@_backward_rule("reshape")
def _reshape_bwd(node, g):
    return (g.reshape(node.attrs["shape"]),)


def gather_rows(table: Tensor, index: np.ndarray) -> Tensor:
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected a 2-D table, got {table.shape}")
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu":
        raise ShapeError("gather_rows: index must be an integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for table with {table.shape[0]} rows")
    out = table.data[idx]
    return _finish("gather_rows", out, (table,), {}, {"idx": idx, "rows": table.shape[0]}, 0, 0)


@_backward_rule("gather_rows")
def _gather_rows_bwd(node, g):
    idx = node.attrs["idx"]
    gt = np.zeros((node.attrs["rows"], g.shape[-1]), dtype=g.dtype)
    np.add.at(gt, idx, g)
    return (gt,)


# ---------------------------------------------------------------------------
# Reductions and loss
# ---------------------------------------------------------------------------


def mean(x: Tensor) -> Tensor:
    out = np.asarray(x.data.mean(), dtype=x.dtype)
    fwd = pointwise_flops("mean", x.data.size, True)
    bwd = pointwise_flops("mean", x.data.size, False) if x.requires_grad else 0
    return _finish("mean", out, (x,), {}, {"shape": x.shape, "n": x.data.size}, fwd, bwd)


@_backward_rule("mean")
def _mean_bwd(node, g):
    return (np.broadcast_to(g / node.attrs["n"], node.attrs["shape"]).astype(g.dtype),)


def cross_entropy_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax logits."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_with_logits: expected (rows, classes), got {logits.shape}")
    lab = np.asarray(labels)
    rows, classes = logits.shape
    if lab.shape != (rows,):
        raise ShapeError(f"cross_entropy_with_logits: labels {lab.shape} do not match {rows} rows")
    if lab.dtype.kind not in "iu":
        raise ShapeError("cross_entropy_with_logits: labels must be integers")
    if rows == 0:
        raise ShapeError("cross_entropy_with_logits: no rows to score")
    if lab.min() < 0 or lab.max() >= classes:
        raise ShapeError(f"cross_entropy_with_logits: labels out of range for {classes} classes")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    nll = np.log(p[np.arange(rows), lab])
    out = np.asarray(-nll.mean(), dtype=logits.dtype)
    fwd = cross_entropy_flops(rows, classes, True)
    bwd = cross_entropy_flops(rows, classes, False) if logits.requires_grad else 0
    saved = {"p": p} if logits.requires_grad else {}
    return _finish("cross_entropy", out, (logits,), saved, {"labels": lab}, fwd, bwd)


@_backward_rule("cross_entropy")
def _cross_entropy_bwd(node, g):
    p = node.saved["p"].copy()
    lab = node.attrs["labels"]
    rows = p.shape[0]
    p[np.arange(rows), lab] -= 1.0
    return (p * (g / rows),)
