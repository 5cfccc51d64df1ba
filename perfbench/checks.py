"""Correctness checks the workloads apply to the program's outputs.

Each check compares an output against a property the method must have,
or against a computation made here, never against a stored copy of an
earlier output.  A check returns ``None`` when it holds and a one-line
description of the violation otherwise, so a workload can run to its end
and report every violation at once.
"""

from __future__ import annotations

import math

import numpy as np


def snapshot(params: dict) -> dict[str, bytes]:
    """Raw bytes of each parameter array, by name."""
    return {name: p.value.data.tobytes() for name, p in params.items()}


def frozen_unchanged(label: str, before: dict[str, bytes], params: dict) -> str | None:
    changed = [name for name, p in params.items() if p.value.data.tobytes() != before[name]]
    if changed:
        return f"{label}: {len(changed)} frozen encoder parameters changed, e.g. {changed[0]!r}"
    return None


def no_encoder_backward(label: str, counters) -> str | None:
    ops = sum(c.backward_ops_in("encoder") for c in counters)
    if ops:
        return f"{label}: {ops} backward ops ran inside the frozen encoder"
    return None


def only_trainable_changed(label: str, before: dict[str, bytes], params: dict) -> str | None:
    """Every trainable parameter moved and no frozen one did."""
    moved_frozen = [n for n, p in params.items()
                    if not p.trainable and p.value.data.tobytes() != before[n]]
    stuck = [n for n, p in params.items()
             if p.trainable and p.value.data.tobytes() == before[n]]
    if moved_frozen:
        return f"{label}: frozen parameter {moved_frozen[0]!r} changed ({len(moved_frozen)} in all)"
    if stuck:
        return f"{label}: trainable parameter {stuck[0]!r} never changed ({len(stuck)} in all)"
    return None


def same_logits(label: str, with_adapters: np.ndarray, without: np.ndarray) -> str | None:
    if with_adapters.shape != without.shape or not np.array_equal(with_adapters, without):
        diff = (float(np.max(np.abs(with_adapters - without)))
                if with_adapters.shape == without.shape else float("inf"))
        return f"{label}: fresh adapters changed the logits (max difference {diff:.3g})"
    return None


def loss_windows(losses) -> tuple[float, float]:
    """Mean training loss over the first and over the last quarter of steps."""
    w = max(1, len(losses) // 4)
    return float(np.mean(losses[:w])), float(np.mean(losses[-w:]))


def loss_dropped(label: str, losses) -> str | None:
    """The last quarter of the training losses averages below the first."""
    first, last = loss_windows(losses)
    if not last < first:
        return f"{label}: final-window loss {last:.4f} is not below first-window loss {first:.4f}"
    return None


def below_chance(label: str, fer: float, num_classes: int) -> str | None:
    chance = (num_classes - 1) / num_classes
    if not fer < chance:
        return f"{label}: test frame error rate {fer:.4f} is not below chance {chance:.4f}"
    return None


def ce_below_uniform(label: str, ce: float, num_classes: int) -> str | None:
    if not ce < math.log(num_classes):
        return f"{label}: test cross-entropy {ce:.4f} nats is not below ln {num_classes}"
    return None


def gate_drop(losses, window: int) -> float:
    """Relative drop of the mean loss from the first to the last ``window`` steps."""
    first = float(np.mean(losses[:window]))
    return (first - float(np.mean(losses[-window:]))) / first


def loss_gate(label: str, losses, window: int, min_drop: float) -> str | None:
    drop = gate_drop(losses, window)
    if not drop >= min_drop:
        return f"{label}: loss fell {drop:.1%}, the gate needs {min_drop:.0%}"
    return None


def checkpoint_matches(label: str, loaded: dict[str, np.ndarray], params: dict,
                       prefix: str) -> str | None:
    """Every live parameter comes back from the checkpoint bit for bit.

    Parameter names may or may not already carry ``prefix``; the
    checkpoint always stores them under it.
    """
    for name, p in params.items():
        key = name if name.startswith(prefix + "/") else f"{prefix}/{name}"
        if key not in loaded:
            return f"{label}: checkpoint lacks {key!r}"
        arr = loaded[key]
        if arr.dtype != p.value.data.dtype or arr.tobytes() != p.value.data.tobytes():
            return f"{label}: checkpoint entry {key!r} differs from the live parameter"
    return None


def frame_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Summed cross-entropy (nats) of (frames, classes) logits, and the frame count."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].sum()), len(labels)
