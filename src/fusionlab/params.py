"""Named parameters, module trees, and pattern-based trainability control.

A parameter's full name is its slash-separated path from the module being
walked, built by ``Module.parameters()`` at traversal time: a submodule
registered under ``"ffn1"`` inside a block registered under ``"layer_0"``
yields names like ``layer_0/ffn1/up/weight``.  ``Parameter.name`` holds
only the local name, so a module reports the same names whether it stands
alone or sits inside a larger model.  Names are the keys used by gradient
maps, optimizer state, checkpoints, and freeze patterns, so they must be
unique within a model; registration and traversal enforce that.

A module has one owner at a time: ``child`` refuses a module that is
already registered elsewhere until its owner hands it back with
``release``.
"""

from __future__ import annotations

import re

import numpy as np

from .tensor import Tensor, leaf_gradients

__all__ = [
    "Parameter",
    "Module",
    "pattern_to_regex",
    "set_trainable",
    "backward",
    "state_dict",
    "load_state",
]


class Parameter:
    """A locally named array with a trainable flag; the unit of freezing."""

    __slots__ = ("name", "value", "trainable")

    def __init__(self, name: str, array: np.ndarray, trainable: bool = True):
        self.name = name
        self.value = Tensor(array, requires_grad=trainable, is_param=True)
        self.trainable = trainable

    def set_trainable(self, flag: bool) -> None:
        self.trainable = flag
        self.value.requires_grad = flag

    @property
    def size(self) -> int:
        return self.value.size

    def __repr__(self) -> str:
        state = "trainable" if self.trainable else "frozen"
        return f"Parameter({self.name!r}, shape={self.value.shape}, {state})"


class Module:
    """Composable owner of parameters and child modules."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._children: dict[str, Module] = {}
        self._owned = False

    # -- construction -----------------------------------------------------

    def param(self, name: str, array: np.ndarray, trainable: bool = True) -> Parameter:
        if name in self._params or name in self._children:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Parameter(name, array, trainable)
        self._params[name] = p
        return p

    def child(self, name: str, module: "Module"):
        if name in self._children or name in self._params:
            raise ValueError(f"duplicate child name {name!r}")
        if module._owned:
            raise ValueError(f"module already registered elsewhere, cannot attach as {name!r}")
        module._owned = True
        self._children[name] = module
        return module

    def release(self, name: str) -> "Module":
        """Detach the child registered as ``name`` and hand it back unowned."""
        module = self._children.pop(name)
        module._owned = False
        return module

    # -- traversal ---------------------------------------------------------

    def parameters(self) -> dict[str, Parameter]:
        """All parameters keyed by their path from this module (insertion
        order, stable)."""
        out: dict[str, Parameter] = {}
        self._collect("", out)
        return out

    def _collect(self, prefix: str, out: dict[str, Parameter]) -> None:
        for name, p in self._params.items():
            path = prefix + name
            if path in out:
                raise ValueError(f"parameter name collision: {path!r}")
            out[path] = p
        for name, module in self._children.items():
            module._collect(f"{prefix}{name}/", out)

    def trainable_parameters(self) -> dict[str, Parameter]:
        return {n: p for n, p in self.parameters().items() if p.trainable}

    def num_params(self, trainable_only: bool = False) -> int:
        return sum(
            p.size for p in self.parameters().values() if p.trainable or not trainable_only
        )


# ---------------------------------------------------------------------------
# Pattern matching over parameter names
# ---------------------------------------------------------------------------


def pattern_to_regex(pattern: str) -> re.Pattern:
    """Glob over slash-separated names: ``**`` spans segments, ``*`` and
    ``?`` stay within one segment.  ``**/x`` also matches a bare ``x``."""
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "*":
            if pattern[i : i + 2] == "**":
                if pattern[i : i + 3] == "**/":
                    out.append("(?:.*/)?")
                    i += 3
                else:
                    out.append(".*")
                    i += 2
            else:
                out.append("[^/]*")
                i += 1
        elif ch == "?":
            out.append("[^/]")
            i += 1
        else:
            out.append(re.escape(ch))
            i += 1
    return re.compile("".join(out) + r"\Z")


def set_trainable(model: Module, pattern: str, flag: bool) -> int:
    """Toggle every parameter whose full name matches the glob pattern.

    Returns the match count; zero matches is legal (callers decide whether
    that is a problem).
    """
    rx = pattern_to_regex(pattern)
    count = 0
    for name, p in model.parameters().items():
        if rx.match(name):
            p.set_trainable(flag)
            count += 1
    return count


# ---------------------------------------------------------------------------
# Gradient collection and state transfer
# ---------------------------------------------------------------------------


def backward(loss: Tensor, model: Module, retain_graph: bool = False) -> dict[str, np.ndarray]:
    """Reverse sweep; gradients for trainable parameters only, by name."""
    grads = leaf_gradients(loss, retain_graph)
    out: dict[str, np.ndarray] = {}
    for name, p in model.parameters().items():
        if p.trainable:
            g = grads.get(id(p.value))
            if g is not None:
                out[name] = g
    return out


def state_dict(model: Module) -> dict[str, np.ndarray]:
    return {name: p.value.data for name, p in model.parameters().items()}


def load_state(model: Module, state: dict[str, np.ndarray], prefix: str = "") -> int:
    """Copy arrays into the model's parameters; returns the number loaded.

    Every model parameter must be covered.  With a prefix, each entry is
    looked up under ``prefix + "/" + name`` and state keys outside the
    prefix are ignored, so a checkpoint of a larger model can restore one
    of its submodules; without a prefix, names must match exactly and
    unknown state keys are rejected.  Shape mismatches always error.
    """
    params = model.parameters()
    if not prefix:
        extra = set(state) - set(params)
        if extra:
            raise KeyError(f"state has unknown parameter names: {sorted(extra)[:5]}")
    loaded = 0
    for name, p in params.items():
        key = f"{prefix}/{name}" if prefix else name
        if key not in state:
            raise KeyError(f"state is missing parameter {key!r}")
        arr = np.asarray(state[key])
        if arr.shape != p.value.shape:
            raise ValueError(f"shape mismatch for {key!r}: {arr.shape} vs {p.value.shape}")
        p.value.data = arr.astype(p.value.dtype, copy=True)
        loaded += 1
    return loaded
