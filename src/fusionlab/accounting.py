"""Analytic resource accounting: parameter counts, forward and backward
FLOPs, retained-activation memory, and wall-clock throughput.

Two independent routes measure the same quantities:

* the live route: build the model and run a training step, reading its
  parameters and the :class:`OpCounter`;
* the analytic route here: walk a symbolic mirror of the model that
  creates each parameter as a shape and prices each op with the shared
  per-op cost formulas from :mod:`fusionlab.ops`, without allocating any
  tensors.  One walk (:func:`trace_costs`) gives every number a report
  needs.

A :class:`ResourceReport` prices a :class:`ModelSpec` alone; which config
it belongs to is recorded next to it by the run that wrote it.

The unit tests require the two to agree exactly on parameter counts per
region, forward and backward FLOPs and retained bytes (the acceptance
gate on backward FLOPs alone allows a 1% gap), so the symbolic trace
below mirrors the live model code op for op, including which inputs need
gradients and which arrays each op retains for the backward pass.
"""

from __future__ import annotations

import math
import platform
import statistics
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ops
from .encoder import DESK, FULL_SCALE, SUBSAMPLING, EncoderConfig, check_layers
from .fusion import HierarchicalFusionSpec, LinearFusionSpec, evenly_spaced_taps
from .peft import PeftSpec

__all__ = [
    "ModelSpec",
    "CostTotals",
    "ResourceReport",
    "ReferenceRow",
    "REFERENCE_ROWS",
    "count_trainable_params",
    "count_model_params",
    "count_model_trainable_params",
    "trace_costs",
    "count_backward_flops",
    "estimate_activation_memory",
    "resource_report",
    "measure_throughput",
    "throughput_environment",
    "reference_table",
    "comparison_model_specs",
]


# ---------------------------------------------------------------------------
# Model-level spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """One downstream model: what :func:`fusionlab.model.build_model` builds
    and what the analytic route prices.  The live model takes its taps,
    classifier width and validity check from here."""

    encoder: EncoderConfig = DESK
    fusion: object | None = None
    peft: PeftSpec = PeftSpec()
    num_classes: int = 12
    probe_tap: int | None = None

    def validate(self) -> None:
        self.encoder.validate()
        self.peft.validate(self.encoder.num_layers, self.encoder.model_dim)
        if self.fusion is not None:
            if self.probe_tap is not None:
                raise ValueError("probe_tap only applies when no fusion head is used")
            self.fusion.validate(self.encoder.num_layers)
        elif self.probe_tap is not None:
            check_layers((self.probe_tap,), self.encoder.num_layers, "probe tap")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")

    def tap_indices(self) -> tuple[int, ...]:
        if self.fusion is not None:
            return tuple(self.fusion.tap_indices)
        if self.probe_tap is not None:
            return (self.probe_tap,)
        return (self.encoder.num_layers - 1,)

    def head_dim(self) -> int:
        return self.encoder.model_dim if self.fusion is None else self.fusion.output_dim


# ---------------------------------------------------------------------------
# Symbolic cost trace
#
# Shapes and gradient-need flags flow through a mirror of the live forward;
# every method prices exactly what the corresponding primitive in
# fusionlab.ops charges and retains, using the same formulas.
# ---------------------------------------------------------------------------


class _Sym:
    __slots__ = ("shape", "needs", "is_param")

    def __init__(self, shape: tuple[int, ...], needs: bool, is_param: bool = False):
        self.shape = tuple(int(s) for s in shape)
        self.needs = needs
        self.is_param = is_param

    @property
    def size(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class _Flags:
    """Which parameter groups of a region train under the active strategy."""

    weights: bool = False
    bitfit: bool = False

    def bias(self, size: int, model_dim: int) -> bool:
        return self.weights or (self.bitfit and size <= model_dim)

    @property
    def ln_scale(self) -> bool:
        return self.weights


_TRAINED = _Flags(weights=True)
_FROZEN = _Flags()
_BITFIT = _Flags(bitfit=True)


_REGIONS = ("encoder", "head", "classifier")


class _Trace:
    """Accumulates FLOPs and retained-for-backward elements, and tallies
    the parameters it creates by region (all, and trainable only).

    A scratch trace built with ``tally=tr`` adds its parameters to
    ``tr``'s tallies but keeps its own FLOPs and bytes, which the caller
    drops: that is how blocks above the top tap are counted but not priced.
    """

    __slots__ = ("forward_flops", "backward_flops", "saved_elems", "region",
                 "params", "trainable")

    def __init__(self, tally: _Trace | None = None):
        self.forward_flops = 0
        self.backward_flops = 0
        self.saved_elems = 0
        self.region = "encoder"
        self.params = tally.params if tally else dict.fromkeys(_REGIONS, 0)
        self.trainable = tally.trainable if tally else dict.fromkeys(_REGIONS, 0)

    # -- leaves -------------------------------------------------------------

    def param(self, shape, trainable: bool) -> _Sym:
        p = _Sym(shape, trainable, is_param=True)
        self.params[self.region] += p.size
        if trainable:
            self.trainable[self.region] += p.size
        return p

    def const(self, shape) -> _Sym:
        return _Sym(shape, False)

    def _save(self, t: _Sym) -> None:
        if not t.is_param:
            self.saved_elems += t.size

    # -- priced primitives ----------------------------------------------------

    def matmul(self, a: _Sym, b: _Sym) -> _Sym:
        m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
        out = _Sym(a.shape[:-1] + (n,), a.needs or b.needs)
        batch = out.size // (m * n)
        f = ops.matmul_flops(batch, m, k, n)
        self.forward_flops += f
        if a.needs:
            self.backward_flops += f
            self._save(b)
        if b.needs:
            self.backward_flops += f
            self._save(a)
        return out

    def bias_add(self, x: _Sym, bias: _Sym) -> _Sym:
        n = x.size
        self.forward_flops += ops.pointwise_flops("bias_add", n, True)
        if bias.needs:
            self.backward_flops += ops.pointwise_flops("bias_add", n, False)
        return _Sym(x.shape, x.needs or bias.needs)

    def add(self, a: _Sym, b: _Sym) -> _Sym:
        shape = np.broadcast_shapes(a.shape, b.shape)
        self.forward_flops += ops.pointwise_flops("add", math.prod(shape), True)
        return _Sym(shape, a.needs or b.needs)

    def scale(self, x: _Sym) -> _Sym:
        n = x.size
        self.forward_flops += ops.pointwise_flops("scale", n, True)
        if x.needs:
            self.backward_flops += ops.pointwise_flops("scale", n, False)
        return _Sym(x.shape, x.needs)

    def relu(self, x: _Sym) -> _Sym:
        n = x.size
        self.forward_flops += ops.pointwise_flops("relu", n, True)
        if x.needs:
            self.backward_flops += ops.pointwise_flops("relu", n, False)
            self._save(x)
        return _Sym(x.shape, x.needs)

    def swish(self, x: _Sym) -> _Sym:
        n = x.size
        self.forward_flops += ops.pointwise_flops("swish", n, True)
        if x.needs:
            self.backward_flops += ops.pointwise_flops("swish", n, False)
            self._save(x)             # the input
            self.saved_elems += n     # plus the sigmoid values
        return _Sym(x.shape, x.needs)

    def glu(self, x: _Sym) -> _Sym:
        out = _Sym(x.shape[:-1] + (x.shape[-1] // 2,), x.needs)
        n = out.size
        self.forward_flops += ops.pointwise_flops("glu", n, True)
        if x.needs:
            self.backward_flops += ops.pointwise_flops("glu", n, False)
            self._save(x)               # the whole input
            self.saved_elems += n       # gate activations
        return out

    def softmax(self, x: _Sym) -> _Sym:
        n = x.size
        self.forward_flops += ops.pointwise_flops("softmax", n, True)
        if x.needs:
            self.backward_flops += ops.pointwise_flops("softmax", n, False)
            self.saved_elems += n       # the output
        return _Sym(x.shape, x.needs)

    def layer_norm(self, x: _Sym, gamma: _Sym, beta: _Sym) -> _Sym:
        n = x.size
        need_x, need_g, need_b = x.needs, gamma.needs, beta.needs
        self.forward_flops += ops.layer_norm_flops(n, need_x, need_g, need_b, True)
        self.backward_flops += ops.layer_norm_flops(n, need_x, need_g, need_b, False)
        if need_x or need_g:
            self.saved_elems += n                   # normalized values
        if need_x:
            self.saved_elems += n // x.shape[-1]    # inverse stddev per row
        return _Sym(x.shape, need_x or need_g or need_b)

    def conv1d(self, x: _Sym, w: _Sym, stride: int) -> _Sym:
        b, t, c_in = x.shape
        k, _, c_out = w.shape
        t_out = (t - k) // stride + 1
        f = ops.conv1d_flops(b, t_out, k, c_in, c_out)
        self.forward_flops += f
        if x.needs:
            self.backward_flops += f
            self._save(w)
        if w.needs:
            self.backward_flops += f
            self._save(x)
        return _Sym((b, t_out, c_out), x.needs or w.needs)

    def depthwise_conv1d(self, x: _Sym, w: _Sym) -> _Sym:
        b, t, c = x.shape
        k = w.shape[0]
        f = ops.depthwise_conv1d_flops(b, t, k, c)
        self.forward_flops += f
        if x.needs:
            self.backward_flops += f
            self._save(w)
        if w.needs:
            self.backward_flops += f
            self.saved_elems += b * (t + k - 1) * c   # the padded input
        return _Sym((b, t, c), x.needs or w.needs)

    def cross_entropy(self, logits: _Sym) -> _Sym:
        rows, classes = logits.shape
        self.forward_flops += ops.cross_entropy_flops(rows, classes, True)
        if logits.needs:
            self.backward_flops += ops.cross_entropy_flops(rows, classes, False)
            self.saved_elems += rows * classes        # the probabilities
        return _Sym((), logits.needs)

    def movement(self, shape, *inputs: _Sym) -> _Sym:
        """Concat / reshape / transpose / narrow: free, needs propagate."""
        return _Sym(shape, any(t.needs for t in inputs))


# -- structural mirrors of the live modules ---------------------------------


def _lin(tr: _Trace, x: _Sym, d_out: int, fl: _Flags, model_dim: int) -> _Sym:
    d_in = x.shape[-1]
    h = tr.matmul(x, tr.param((d_in, d_out), fl.weights))
    return tr.bias_add(h, tr.param((d_out,), fl.bias(d_out, model_dim)))


def _ln(tr: _Trace, x: _Sym, fl: _Flags, model_dim: int) -> _Sym:
    d = x.shape[-1]
    return tr.layer_norm(
        x, tr.param((d,), fl.ln_scale), tr.param((d,), fl.bias(d, model_dim))
    )


def _ffn(tr: _Trace, x: _Sym, fl: _Flags, model_dim: int, expansion: int) -> _Sym:
    d = x.shape[-1]
    h = _ln(tr, x, fl, model_dim)
    h = tr.swish(_lin(tr, h, expansion * d, fl, model_dim))
    return _lin(tr, h, d, fl, model_dim)


def _attention(tr: _Trace, x: _Sym, fl: _Flags, model_dim: int, heads: int) -> _Sym:
    b, t, d = x.shape
    dh = d // heads
    h = _ln(tr, x, fl, model_dim)

    def split(y: _Sym) -> _Sym:
        return tr.movement((b, heads, t, dh), y)

    q = tr.scale(split(_lin(tr, h, d, fl, model_dim)))
    k = split(_lin(tr, h, d, fl, model_dim))
    v = split(_lin(tr, h, d, fl, model_dim))
    attn = tr.softmax(tr.matmul(q, tr.movement((b, heads, dh, t), k)))
    ctx = tr.matmul(attn, v)
    merged = tr.movement((b, t, d), ctx)
    return _lin(tr, merged, d, fl, model_dim)


def _conv_module(tr: _Trace, x: _Sym, fl: _Flags, model_dim: int, kernel: int) -> _Sym:
    d = x.shape[-1]
    h = _ln(tr, x, fl, model_dim)
    h = tr.glu(_lin(tr, h, 2 * d, fl, model_dim))
    h = tr.depthwise_conv1d(h, tr.param((kernel, d), fl.weights))
    h = tr.bias_add(h, tr.param((d,), fl.bias(d, model_dim)))
    h = tr.swish(_ln(tr, h, fl, model_dim))
    return _lin(tr, h, d, fl, model_dim)


def _block(tr: _Trace, x: _Sym, fl: _Flags, cfg: EncoderConfig) -> _Sym:
    d = cfg.model_dim
    x = tr.add(x, tr.scale(_ffn(tr, x, fl, d, cfg.ffn_expansion)))
    x = tr.add(x, _attention(tr, x, fl, d, cfg.num_heads))
    x = tr.add(x, _conv_module(tr, x, fl, d, cfg.conv_kernel))
    x = tr.add(x, tr.scale(_ffn(tr, x, fl, d, cfg.ffn_expansion)))
    return _ln(tr, x, fl, d)


def _adapter(tr: _Trace, x: _Sym, model_dim: int, bottleneck: int) -> _Sym:
    h = _ln(tr, x, _TRAINED, model_dim)
    h = tr.relu(_lin(tr, h, bottleneck, _TRAINED, model_dim))
    h = _lin(tr, h, model_dim, _TRAINED, model_dim)
    return tr.add(x, h)


def _frontend(tr: _Trace, batch: int, seq_len: int, cfg: EncoderConfig, fl: _Flags) -> _Sym:
    d = cfg.model_dim
    x = tr.const((batch, seq_len, cfg.input_dim))
    h = tr.conv1d(x, tr.param((2, cfg.input_dim, d), fl.weights), 2)
    h = tr.bias_add(h, tr.param((d,), fl.bias(d, d)))
    h = tr.swish(h)
    h = tr.conv1d(h, tr.param((2, d, d), fl.weights), 2)
    h = tr.bias_add(h, tr.param((d,), fl.bias(d, d)))
    h = tr.swish(h)
    h = _lin(tr, h, d, fl, d)
    return tr.add(h, tr.const((h.shape[1], d)))   # positional table


def _linear_head(tr: _Trace, feats: list[_Sym], spec: LinearFusionSpec, model_dim: int) -> _Sym:
    b, t, _ = feats[0].shape
    h = tr.movement((b, t, len(feats) * model_dim), *feats)
    for i in range(spec.depth):
        if i:
            h = tr.relu(h)
        h = _lin(tr, h, spec.width, _TRAINED, model_dim)
    return h


def _hier_head(tr: _Trace, feats: list[_Sym], spec: HierarchicalFusionSpec, model_dim: int) -> _Sym:
    b, t, _ = feats[0].shape
    if spec.variant == "balanced":
        projected = [_lin(tr, f, spec.fp_dim, _TRAINED, model_dim) for f in feats]
        h = tr.movement((b, t, len(feats) * spec.fp_dim), *projected)
    else:
        split = (len(feats) + 1) // 2

        def chain(chain_feats: list[_Sym]) -> _Sym:
            state = _lin(tr, chain_feats[0], spec.fp_dim, _TRAINED, model_dim)
            for f in chain_feats[1:]:
                merged = tr.movement((b, t, spec.fp_dim + model_dim), state, f)
                state = _lin(tr, merged, spec.fp_dim, _TRAINED, model_dim)
            return state

        bottom = chain(feats[:split])
        top = chain(list(reversed(feats[split:])))
        h = tr.movement((b, t, 2 * spec.fp_dim), bottom, top)
    for i in range(spec.final_depth):
        if i:
            h = tr.relu(h)
        h = _lin(tr, h, spec.final_dim, _TRAINED, model_dim)
    return h


class CostTotals(NamedTuple):
    """What one walk of the mirror gives: the FLOPs and retained bytes of
    one training step, and the model's parameters by region (``encoder``
    with its adapters, ``head``, ``classifier``), all and trainable only."""

    forward_flops: int
    backward_flops: int
    retained_bytes: int
    params: dict[str, int]
    trainable: dict[str, int]

    @property
    def total_params(self) -> int:
        return sum(self.params.values())

    @property
    def trainable_params(self) -> int:
        return sum(self.trainable.values())


def trace_costs(spec: ModelSpec, batch: int, seq_len: int, itemsize: int = 4) -> CostTotals:
    """Price one forward + backward of the model on a (batch, seq_len) crop,
    and count its parameters."""
    spec.validate()
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    cfg = spec.encoder
    if seq_len < SUBSAMPLING:
        raise ValueError(f"sequence length {seq_len} shorter than the frontend receptive field")

    kind = spec.peft.kind
    adapters = set(spec.peft.adapter_layers) if kind == "adapter" else set()

    def flags_for(i: int) -> _Flags:
        if kind == "full":
            return _TRAINED
        if kind == "top_block" and i == cfg.num_layers - 1:
            return _TRAINED
        if kind == "bitfit":
            return _BITFIT
        return _FROZEN

    frontend_flags = _TRAINED if kind == "full" else (_BITFIT if kind == "bitfit" else _FROZEN)

    tr = _Trace()
    above_top_tap = _Trace(tally=tr)   # the forward stops at the top tap
    taps = spec.tap_indices()
    top, wanted = max(taps), set(taps)
    feats: dict[int, _Sym] = {}
    h = _frontend(tr, batch, seq_len, cfg, frontend_flags)
    for i in range(cfg.num_layers):
        walk = tr if i <= top else above_top_tap
        h = _block(walk, h, flags_for(i), cfg)
        if i in adapters:
            h = _adapter(walk, h, cfg.model_dim, spec.peft.bottleneck_dim)
        if i in wanted:
            feats[i] = h

    tr.region = "head"
    if spec.fusion is None:
        hd = feats[taps[0]]
    elif isinstance(spec.fusion, LinearFusionSpec):
        hd = _linear_head(tr, [feats[i] for i in taps], spec.fusion, cfg.model_dim)
    else:
        hd = _hier_head(tr, [feats[i] for i in taps], spec.fusion, cfg.model_dim)

    tr.region = "classifier"
    logits = _lin(tr, hd, spec.num_classes, _TRAINED, cfg.model_dim)
    b, t, k = logits.shape
    flat = tr.movement((b * t, k), logits)
    tr.cross_entropy(flat)
    return CostTotals(tr.forward_flops, tr.backward_flops, tr.saved_elems * itemsize,
                      tr.params, tr.trainable)


def _count(spec: ModelSpec) -> CostTotals:
    """Parameter counts do not depend on the crop; walk the shortest one."""
    return trace_costs(spec, 1, SUBSAMPLING)


def count_model_params(spec: ModelSpec) -> int:
    """Total parameters of the instantiated model, trainable or not."""
    return _count(spec).total_params


def count_model_trainable_params(spec: ModelSpec) -> int:
    """Trainable parameters of the whole model, classifier included."""
    return _count(spec).trainable_params


def count_trainable_params(encoder_config: EncoderConfig, fusion=None,
                           peft: PeftSpec | None = None) -> tuple[int, int]:
    """(encoder-side, head-side) trainable counts, classifier excluded.

    Never instantiates a model; must (and, per the tests, does) equal the
    live counts exactly.
    """
    trainable = _count(ModelSpec(encoder_config, fusion, peft or PeftSpec())).trainable
    return trainable["encoder"], trainable["head"]


def count_backward_flops(spec: ModelSpec, batch: int, seq_len: int) -> int:
    """Analytic backward FLOPs; pruned below the lowest trainable depth."""
    return trace_costs(spec, batch, seq_len).backward_flops


def _held_bytes(totals: CostTotals, itemsize: int) -> int:
    return totals.retained_bytes + totals.trainable_params * itemsize * 4


def estimate_activation_memory(spec: ModelSpec, batch: int, seq_len: int,
                               itemsize: int = 4) -> int:
    """Bytes a training step must hold live: retained activations plus
    parameter, gradient, and two Adam-moment arrays for trainable params.

    A zero batch trains nothing and is costed at zero.
    """
    if batch == 0:
        return 0
    return _held_bytes(trace_costs(spec, batch, seq_len, itemsize), itemsize)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceReport:
    """One comparison row: what a model spec costs to train at one batch
    and crop."""

    trainable_params: int
    frozen_params: int
    activation_bytes: int
    forward_flops: int          # per example
    backward_flops: int         # per example
    throughput: float | None

    def validate(self) -> None:
        if self.trainable_params < 0 or self.frozen_params < 0:
            raise ValueError("parameter counts cannot be negative")
        if self.backward_flops > 2 * self.forward_flops:
            raise ValueError(
                f"backward flops ({self.backward_flops}) exceed twice the forward "
                f"flops ({self.forward_flops}); every op costs at most 2x forward"
            )


def resource_report(spec: ModelSpec, batch: int, seq_len: int,
                    throughput: float | None = None) -> ResourceReport:
    totals = trace_costs(spec, batch, seq_len)
    report = ResourceReport(
        trainable_params=totals.trainable_params,
        frozen_params=totals.total_params - totals.trainable_params,
        activation_bytes=_held_bytes(totals, 4),
        forward_flops=totals.forward_flops // batch,
        backward_flops=totals.backward_flops // batch,
        throughput=throughput,
    )
    report.validate()
    return report


def measure_throughput(trainer, warmup_steps: int = 5, timed_steps: int = 20) -> float:
    """Median examples/second over timed optimization steps after warmup."""
    if timed_steps < 10:
        raise ValueError(f"need at least 10 timed steps for a stable median, got {timed_steps}")
    if warmup_steps < 0:
        raise ValueError("warmup_steps cannot be negative")
    for _ in range(warmup_steps):
        trainer.step()
    times = []
    for _ in range(timed_steps):
        start = time.perf_counter()
        trainer.step()
        times.append(time.perf_counter() - start)
    return trainer.batch_size / statistics.median(times)


def throughput_environment() -> dict[str, str]:
    """Descriptor recorded next to throughput numbers."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Published reference counts (full-scale preset)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceRow:
    """A published rounded count to compare our arithmetic against.

    ``tolerance`` is the gating fraction; None marks report-only rows
    whose published value is not reproducible from the stated structure.
    """

    label: str
    fusion: object | None
    peft: PeftSpec
    reference: int
    tolerance: float | None


_TAPS_12 = evenly_spaced_taps(FULL_SCALE.num_layers, 12)
_HIER_12 = HierarchicalFusionSpec(_TAPS_12, "balanced", fp_dim=512, final_dim=768, final_depth=3)
_ALL_LAYERS = tuple(range(FULL_SCALE.num_layers))
_TOP_HALF_ODD = tuple(range(13, 24, 2))

REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow("linear fusion, 1 tap, depth 1",
                 LinearFusionSpec((23,), 1, 640), PeftSpec(), 600_000, 0.15),
    ReferenceRow("linear fusion, 2 taps, depth 1",
                 LinearFusionSpec(evenly_spaced_taps(24, 2), 1, 640), PeftSpec(), 1_300_000, None),
    ReferenceRow("linear fusion, 4 taps, depth 1",
                 LinearFusionSpec(evenly_spaced_taps(24, 4), 1, 640), PeftSpec(), 2_600_000, None),
    ReferenceRow("linear fusion, 8 taps, depth 1",
                 LinearFusionSpec(evenly_spaced_taps(24, 8), 1, 640), PeftSpec(), 5_200_000, None),
    ReferenceRow("linear fusion, 12 taps, depth 1",
                 LinearFusionSpec(_TAPS_12, 1, 640), PeftSpec(), 7_900_000, 0.02),
    ReferenceRow("linear fusion, 12 taps, depth 2",
                 LinearFusionSpec(_TAPS_12, 2, 640), PeftSpec(), 8_300_000, 0.02),
    ReferenceRow("linear fusion, 12 taps, depth 3",
                 LinearFusionSpec(_TAPS_12, 3, 640), PeftSpec(), 8_700_000, 0.02),
    ReferenceRow("linear fusion, 12 taps, depth 4",
                 LinearFusionSpec(_TAPS_12, 4, 640), PeftSpec(), 9_100_000, 0.02),
    ReferenceRow("hierarchical fusion (balanced), 12 taps",
                 _HIER_12, PeftSpec(), 12_300_000, 0.02),
    ReferenceRow("hierarchical fusion (unbalanced), 12 taps",
                 HierarchicalFusionSpec(_TAPS_12, "unbalanced", 512, 768, 3),
                 PeftSpec(), 12_300_000, None),
    ReferenceRow("adapters d=128, all layers",
                 None, PeftSpec("adapter", _ALL_LAYERS, 128), 6_400_000, 0.05),
    ReferenceRow("adapters d=256, all layers",
                 None, PeftSpec("adapter", _ALL_LAYERS, 256), 13_300_000, 0.05),
    ReferenceRow("adapters d=512, all layers",
                 None, PeftSpec("adapter", _ALL_LAYERS, 512), 25_900_000, 0.05),
    ReferenceRow("adapters d=128, top-half layers",
                 None, PeftSpec("adapter", _TOP_HALF_ODD, 128), 2_300_000, None),
    ReferenceRow("top-block fine-tuning",
                 None, PeftSpec("top_block"), 25_400_000, 0.05),
    ReferenceRow("bias-only fine-tuning",
                 None, PeftSpec("bitfit"), 100_000, None),
    ReferenceRow("full fine-tuning",
                 None, PeftSpec("full"), 606_600_000, None),
    ReferenceRow("hierarchical balanced + adapters d=128, top-half layers",
                 _HIER_12, PeftSpec("adapter", _TOP_HALF_ODD, 128), 13_900_000, None),
    ReferenceRow("hierarchical balanced + adapters d=128, all layers",
                 _HIER_12, PeftSpec("adapter", _ALL_LAYERS, 128), 18_600_000, None),
)


def reference_table(cfg: EncoderConfig = FULL_SCALE) -> list[dict]:
    """Analytic counts next to published values, with deviations."""
    rows = []
    for row in REFERENCE_ROWS:
        enc, head = count_trainable_params(cfg, row.fusion, row.peft)
        computed = enc + head
        deviation = 100.0 * (computed - row.reference) / row.reference
        rows.append(
            {
                "label": row.label,
                "computed": computed,
                "reference": row.reference,
                "deviation_pct": deviation,
                "tolerance_pct": None if row.tolerance is None else 100.0 * row.tolerance,
                "within": None if row.tolerance is None else abs(deviation) <= 100.0 * row.tolerance,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# The comparison row set (desk scale)
# ---------------------------------------------------------------------------


def comparison_model_specs(cfg: EncoderConfig = DESK, num_classes: int = 12,
                           bottleneck: int = 16) -> dict[str, ModelSpec]:
    """The eight strategies compared head-to-head, in report order."""
    all_layers = tuple(range(cfg.num_layers))
    top_half = tuple(range(cfg.num_layers - cfg.num_layers // 2, cfg.num_layers))
    hier = HierarchicalFusionSpec(
        evenly_spaced_taps(cfg.num_layers, cfg.num_layers),
        "balanced",
        fp_dim=cfg.model_dim // 2,
        final_dim=cfg.model_dim,
        final_depth=3,
    )
    adapter_all = PeftSpec("adapter", all_layers, bottleneck)
    adapter_top = PeftSpec("adapter", top_half, bottleneck)
    rows = {
        "full fine-tuning": ModelSpec(cfg, None, PeftSpec("full"), num_classes),
        "top-block fine-tuning": ModelSpec(cfg, None, PeftSpec("top_block"), num_classes),
        "bias-only fine-tuning": ModelSpec(cfg, None, PeftSpec("bitfit"), num_classes),
        "adapters (all layers)": ModelSpec(cfg, None, adapter_all, num_classes),
        "adapters (top half)": ModelSpec(cfg, None, adapter_top, num_classes),
        "hierarchical fusion": ModelSpec(cfg, hier, PeftSpec(), num_classes),
        "hierarchical fusion + adapters (top half)": ModelSpec(cfg, hier, adapter_top, num_classes),
        "hierarchical fusion + adapters (all layers)": ModelSpec(cfg, hier, adapter_all, num_classes),
    }
    for spec in rows.values():
        spec.validate()
    return rows
