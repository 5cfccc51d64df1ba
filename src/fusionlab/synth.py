"""Synthetic sequence-labeling corpus.

Utterances are Markov chains over a small symbol vocabulary.  Each symbol
holds for a few frames and emits its own mean vector plus a symbol-specific
low-rank linear map of a shared smooth latent process, plus white noise.
Frames therefore carry an easy local cue (the mean) and a structured cue
(the low-rank part) whose usefulness depends on context; ``structure_scale``
sets the mix.  Labels live on the subsampling grid: each labeled step is
the majority symbol of its window.

Corpora are regenerated from (config, seed, split) and never stored; the
emission model is shared across splits while the utterance streams are
disjoint by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import SUBSAMPLING

__all__ = ["SynthConfig", "Utterance", "EmissionModel", "generate_corpus", "linear_probe_fer"]

_SPLIT_STREAMS = {"pretrain": 1, "train": 2, "test": 3}


@dataclass(frozen=True)
class SynthConfig:
    vocab: int = 12
    frames_per_symbol: tuple[int, int] = (4, 8)
    input_dim: int = 16
    emission_rank: int = 4
    noise_std: float = 0.3
    mean_scale: float = 1.0
    structure_scale: float = 0.1
    utterance_len: tuple[int, int] = (8, 24)
    pretrain_utterances: int = 256
    train_utterances: int = 256
    test_utterances: int = 64
    self_transition: float = 0.1
    latent_rho: float = 0.95

    def validate(self) -> None:
        if self.vocab < 2:
            raise ValueError(f"vocab must be at least 2, got {self.vocab}")
        for name in ("input_dim", "emission_rank",
                     "pretrain_utterances", "train_utterances", "test_utterances"):
            if getattr(self, name) <= 0:
                raise ValueError(f"synth config field {name} must be positive")
        for name in ("frames_per_symbol", "utterance_len"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"synth config range {name} must satisfy 0 < lo <= hi, got ({lo}, {hi})")
        if self.noise_std < 0:
            raise ValueError(f"noise_std cannot be negative, got {self.noise_std}")
        for name in ("mean_scale", "structure_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative, got {getattr(self, name)}")
        if not 0 <= self.self_transition < 1:
            raise ValueError(f"self_transition must be in [0, 1), got {self.self_transition}")
        if not 0 <= self.latent_rho < 1:
            raise ValueError(f"latent_rho must be in [0, 1), got {self.latent_rho}")
        if self.frames_per_symbol[0] < SUBSAMPLING:
            raise ValueError(
                "symbols shorter than the subsampling window would make majority labels meaningless"
            )


@dataclass(frozen=True)
class Utterance:
    frames: np.ndarray   # (T, input_dim) float32
    labels: np.ndarray   # (T // subsampling,) int64, majority symbol per window


class EmissionModel:
    """Per-symbol means and low-rank mixing maps, shared across splits."""

    def __init__(self, cfg: SynthConfig, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.means = cfg.mean_scale * rng.normal(0.0, 1.0, size=(cfg.vocab, cfg.input_dim))
        # rows have norm ~= structure_scale so the structured part contributes
        # that much per dimension regardless of rank
        self.maps = rng.normal(
            0.0, cfg.structure_scale / np.sqrt(cfg.emission_rank),
            size=(cfg.vocab, cfg.input_dim, cfg.emission_rank),
        )


def _symbol_sequence(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    count = int(rng.integers(cfg.utterance_len[0], cfg.utterance_len[1] + 1))
    symbols = np.empty(count, dtype=np.int64)
    symbols[0] = rng.integers(cfg.vocab)
    for i in range(1, count):
        if rng.random() < cfg.self_transition:
            symbols[i] = symbols[i - 1]
        else:
            step = rng.integers(1, cfg.vocab)   # uniform over the other symbols
            symbols[i] = (symbols[i - 1] + step) % cfg.vocab
    return symbols


def _majority_labels(frame_symbols: np.ndarray, window: int, vocab: int) -> np.ndarray:
    steps = len(frame_symbols) // window
    grid = frame_symbols[: steps * window].reshape(steps, window)
    counts = np.zeros((steps, vocab), dtype=np.int64)
    for j in range(window):
        counts[np.arange(steps), grid[:, j]] += 1
    return counts.argmax(axis=1)


def _utterance(cfg: SynthConfig, emit: EmissionModel, rng: np.random.Generator) -> Utterance:
    symbols = _symbol_sequence(cfg, rng)
    durations = rng.integers(cfg.frames_per_symbol[0], cfg.frames_per_symbol[1] + 1,
                             size=len(symbols))
    frame_symbols = np.repeat(symbols, durations)
    total = len(frame_symbols)

    rho = cfg.latent_rho
    innovations = rng.normal(size=(total, cfg.emission_rank))
    latent = np.empty_like(innovations)
    latent[0] = innovations[0]
    drive = np.sqrt(1.0 - rho * rho)
    for t in range(1, total):
        latent[t] = rho * latent[t - 1] + drive * innovations[t]

    structured = np.einsum("tdr,tr->td", emit.maps[frame_symbols], latent)
    frames = emit.means[frame_symbols] + structured
    if cfg.noise_std > 0:
        frames = frames + cfg.noise_std * rng.normal(size=frames.shape)
    labels = _majority_labels(frame_symbols, SUBSAMPLING, cfg.vocab)
    return Utterance(frames.astype(np.float32), labels)


def generate_corpus(cfg: SynthConfig, seed: int, split: str = "train",
                    count: int | None = None) -> list[Utterance]:
    """Deterministic corpus for one split; splits share the emission model
    but draw from disjoint random streams."""
    cfg.validate()
    if split not in _SPLIT_STREAMS:
        raise ValueError(f"unknown split {split!r}; expected one of {sorted(_SPLIT_STREAMS)}")
    if count is None:
        count = {
            "pretrain": cfg.pretrain_utterances,
            "train": cfg.train_utterances,
            "test": cfg.test_utterances,
        }[split]
    emit = EmissionModel(cfg, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SPLIT_STREAMS[split]]))
    return [_utterance(cfg, emit, rng) for _ in range(count)]


def linear_probe_fer(train: list[Utterance], test: list[Utterance]) -> float:
    """Frame error of a closed-form least-squares classifier on window-mean
    raw frames; the corpus-solvability oracle, no model involved."""

    def flatten(data):
        xs, ys = [], []
        for utt in data:
            steps = len(utt.labels)
            windows = utt.frames[: steps * SUBSAMPLING].reshape(steps, SUBSAMPLING, -1)
            xs.append(windows.mean(axis=1))
            ys.append(utt.labels)
        return np.concatenate(xs), np.concatenate(ys)

    x_train, y_train = flatten(train)
    x_test, y_test = flatten(test)
    x_train = np.concatenate([x_train, np.ones((len(x_train), 1))], axis=1)
    x_test = np.concatenate([x_test, np.ones((len(x_test), 1))], axis=1)
    onehot = np.eye(int(y_train.max()) + 1)[y_train]
    weights, *_ = np.linalg.lstsq(x_train, onehot, rcond=None)
    predictions = (x_test @ weights).argmax(axis=1)
    return float((predictions != y_test).mean())
