"""Dense tensors with reverse-mode automatic differentiation.

Primitives in :mod:`fusionlab.ops` build the graph eagerly: an op output
carries a :class:`Node` whenever at least one input participates in
differentiation, so fully frozen subgraphs record nothing and are never
visited on the way back.  Backward consumes the graph unless asked to
retain it.

Bookkeeping feeds the resource reports: every primitive charges forward
FLOPs, op counts and retained-activation bytes to the active
:class:`OpCounter` under the current attribution scope, and each node
carries its precomputed backward charge.  FLOP convention throughout:
one multiply-add counts as 2 FLOPs.

Importing this module sets two process-wide glibc malloc thresholds: the
heap is trimmed only when 256 MiB lie free at its top, and only blocks of
32 MiB or more get their own mapping.  With glibc's defaults the arrays a
training step frees went back to the kernel and the next step faulted
them in again, thousands of minor faults per step (up to 22k for an
adapters step at batch 16, crop 192).  The call is skipped where
``libc.so.6`` does not load.
"""

from __future__ import annotations

import ctypes
import threading
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Node",
    "OpCounter",
    "GraphError",
    "ShapeError",
    "use_counter",
    "current_counter",
    "scope",
    "current_scope",
    "no_grad",
    "grad_enabled",
    "grad",
    "leaf_gradients",
]

FLOAT_DTYPES = (np.float32, np.float64)

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _set_malloc_thresholds() -> None:
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)


_set_malloc_thresholds()


class ShapeError(ValueError):
    """An op received inputs whose shapes do not conform to its signature."""


class GraphError(RuntimeError):
    """Misuse of the differentiation graph (freed graph, non-scalar loss)."""


class OpCounter:
    """Running tally of primitive-op activity.

    ``forward_ops`` / ``backward_ops`` count op instances by kind.  FLOP
    totals follow the 2-FLOPs-per-multiply-add convention.  Per-scope
    tables attribute work to the hierarchical scope active when the op
    ran; backward work is charged to the scope the node was created in.
    ``saved_bytes`` accumulates bytes of non-parameter arrays retained
    for backward (a measurement of stored-for-backward activations).
    """

    __slots__ = (
        "forward_ops",
        "backward_ops",
        "forward_flops",
        "backward_flops",
        "scope_forward_ops",
        "scope_backward_ops",
        "scope_forward_flops",
        "scope_backward_flops",
        "saved_bytes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.forward_ops: Counter = Counter()
        self.backward_ops: Counter = Counter()
        self.forward_flops = 0
        self.backward_flops = 0
        self.scope_forward_ops: Counter = Counter()
        self.scope_backward_ops: Counter = Counter()
        self.scope_forward_flops: Counter = Counter()
        self.scope_backward_flops: Counter = Counter()
        self.saved_bytes = 0

    def record_forward(self, kind: str, flops: int, scope_name: str, saved: int) -> None:
        self.forward_ops[kind] += 1
        self.forward_flops += flops
        self.scope_forward_ops[scope_name] += 1
        self.scope_forward_flops[scope_name] += flops
        self.saved_bytes += saved

    def record_backward(self, kind: str, flops: int, scope_name: str) -> None:
        self.backward_ops[kind] += 1
        self.backward_flops += flops
        self.scope_backward_ops[scope_name] += 1
        self.scope_backward_flops[scope_name] += flops

    @staticmethod
    def _in(table: Counter, prefix: str) -> int:
        head = prefix + "/"
        return sum(v for s, v in table.items() if s == prefix or s.startswith(head))

    def forward_ops_in(self, prefix: str) -> int:
        return self._in(self.scope_forward_ops, prefix)

    def backward_ops_in(self, prefix: str) -> int:
        return self._in(self.scope_backward_ops, prefix)

    def forward_flops_in(self, prefix: str) -> int:
        return self._in(self.scope_forward_flops, prefix)

    def backward_flops_in(self, prefix: str) -> int:
        return self._in(self.scope_backward_flops, prefix)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.counters: list[OpCounter] = [OpCounter()]
        self.scopes: list[str] = [""]
        self.grad_enabled: bool = True
        self.node_index: int = 0


_STATE = _ThreadState()


def current_counter() -> OpCounter:
    return _STATE.counters[-1]


@contextmanager
def use_counter(counter: OpCounter):
    """Route op bookkeeping to ``counter`` within the block."""
    _STATE.counters.append(counter)
    try:
        yield counter
    finally:
        _STATE.counters.pop()


@contextmanager
def scope(name: str):
    """Push an attribution scope segment, e.g. ``encoder/layer_3``."""
    top = _STATE.scopes[-1]
    _STATE.scopes.append(f"{top}/{name}" if top else name)
    try:
        yield
    finally:
        _STATE.scopes.pop()


def current_scope() -> str:
    return _STATE.scopes[-1]


@contextmanager
def no_grad():
    """Disable graph recording (evaluation / numeric differencing)."""
    prev = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


def grad_enabled() -> bool:
    return _STATE.grad_enabled


def next_node_index() -> int:
    _STATE.node_index += 1
    return _STATE.node_index


# Backward rules, registered per op kind by fusionlab.ops.
BACKWARD: dict[str, Callable] = {}


class Node:
    """One recorded primitive: how to push a gradient to its inputs.

    It keeps its parents and the arrays its backward rule reads, never its
    input tensors: ``parents`` holds each input's node, else the leaf
    tensor if it requires a gradient, else ``None``.
    """

    __slots__ = ("kind", "parents", "needs", "saved", "attrs", "scope", "index", "bwd_flops", "freed")

    def __init__(self, kind, parents, needs, saved, attrs, scope_name, bwd_flops):
        self.kind = kind
        self.parents = parents
        self.needs = needs
        self.saved = saved
        self.attrs = attrs
        self.scope = scope_name
        self.index = next_node_index()
        self.bwd_flops = bwd_flops
        self.freed = False


class Tensor:
    """Dense float array, optionally attached to the differentiation graph.

    A Tensor without a node is a graph leaf; it receives a gradient only
    when ``requires_grad`` is set (parameters toggle this with their
    trainable flag).  ``is_param`` marks parameter storage so retained
    activation accounting can skip it.
    """

    __slots__ = ("data", "node", "requires_grad", "is_param")

    def __init__(self, data, requires_grad: bool = False, node: Node | None = None, is_param: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64) if arr.dtype == np.int64 else arr.astype(np.float32)
        self.data = arr
        self.node = node
        self.requires_grad = requires_grad or node is not None
        self.is_param = is_param

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = "leaf" if self.node is None else self.node.kind
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, {tag})"


def leaf_gradients(loss: Tensor, retain_graph: bool = False) -> dict[int, np.ndarray]:
    """Reverse sweep; accumulated gradients keyed by id() of the leaf tensors.

    Subgraphs from which no gradient-requiring leaf is reachable were never
    recorded, so they contribute zero backward ops by construction.  The
    parameter layer turns this into a name-keyed dict of arrays.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss.node
    if root is None:
        return {id(loss): np.ones_like(loss.data)} if loss.requires_grad else {}

    nodes: list[Node] = []
    stack = [root]
    seen = {id(root)}
    while stack:
        n = stack.pop()
        if n.freed:
            raise GraphError(
                "backward through a freed graph; pass retain_graph=True to the first backward"
            )
        nodes.append(n)
        for p in n.parents:
            if isinstance(p, Node) and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    # Creation index is a topological order, so descending index is a valid
    # reverse sweep and fixes the accumulation order for reproducibility.
    nodes.sort(key=lambda n: n.index, reverse=True)

    # One table keyed by id(parent) serves nodes and leaves: each node pops
    # its own entry before any of its parents is reached, so only leaf
    # entries remain at the end.
    counter = current_counter()
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for n in nodes:
        g = grads.pop(id(n), None)
        if g is None:
            continue
        counter.record_backward(n.kind, n.bwd_flops, n.scope)
        for p, gi in zip(n.parents, BACKWARD[n.kind](n, g)):
            if p is None or gi is None:
                continue
            key = id(p)
            grads[key] = grads[key] + gi if key in grads else gi
        if not retain_graph:
            n.freed = True
            n.saved = None
    return grads


def grad(loss: Tensor, wrt: Sequence[Tensor], retain_graph: bool = False) -> list[np.ndarray | None]:
    """Gradients of a scalar loss w.r.t. an explicit list of leaf tensors."""
    leaf_grads = leaf_gradients(loss, retain_graph)
    return [leaf_grads.get(id(t)) for t in wrt]
