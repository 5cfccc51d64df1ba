"""Synthetic corpus: determinism, split independence, label construction,
and the learnability floor the downstream experiments rely on."""

import numpy as np
import pytest

from fusionlab.synth import SynthConfig, generate_corpus, linear_probe_fer


def test_determinism_and_split_separation():
    cfg = SynthConfig()
    a = generate_corpus(cfg, seed=0, split="train", count=4)
    b = generate_corpus(cfg, seed=0, split="train", count=4)
    for ua, ub in zip(a, b):
        np.testing.assert_array_equal(ua.frames, ub.frames)
        np.testing.assert_array_equal(ua.labels, ub.labels)
    other_split = generate_corpus(cfg, seed=0, split="test", count=4)
    other_seed = generate_corpus(cfg, seed=1, split="train", count=4)
    assert not np.array_equal(a[0].frames, other_split[0].frames)
    assert not np.array_equal(a[0].frames, other_seed[0].frames)


def test_default_counts_per_split():
    cfg = SynthConfig(pretrain_utterances=5, train_utterances=3, test_utterances=2)
    assert len(generate_corpus(cfg, seed=0, split="pretrain")) == 5
    assert len(generate_corpus(cfg, seed=0, split="train")) == 3
    assert len(generate_corpus(cfg, seed=0, split="test")) == 2
    assert len(generate_corpus(cfg, seed=0, split="train", count=7)) == 7
    with pytest.raises(ValueError):
        generate_corpus(cfg, seed=0, split="validation")


def test_shapes_dtypes_and_label_grid():
    cfg = SynthConfig()
    for utt in generate_corpus(cfg, seed=3, split="train", count=8):
        assert utt.frames.dtype == np.float32
        assert utt.labels.dtype == np.int64
        assert utt.frames.ndim == 2 and utt.frames.shape[1] == 16
        assert len(utt.labels) == len(utt.frames) // 4
        assert utt.labels.min() >= 0 and utt.labels.max() < cfg.vocab
        lo, hi = cfg.utterance_len
        assert lo * cfg.frames_per_symbol[0] <= len(utt.frames) <= hi * cfg.frames_per_symbol[1]


def test_labels_are_majority_symbol_of_window():
    # with exactly 4 frames per symbol, windows align and labels are exact
    cfg = SynthConfig(frames_per_symbol=(4, 4), noise_std=0.0)
    for utt in generate_corpus(cfg, seed=1, split="train", count=4):
        assert len(utt.labels) == len(utt.frames) // 4
        # each window of 4 frames has one constant symbol; consecutive
        # labels change only at symbol boundaries
        runs = np.flatnonzero(np.diff(utt.labels)) + 1
        assert (np.diff(np.concatenate([[0], runs])) >= 1).all()


def test_symbols_persist_and_transition():
    cfg = SynthConfig()
    labels = np.concatenate(
        [u.labels for u in generate_corpus(cfg, seed=5, split="train", count=40)]
    )
    same = (labels[1:] == labels[:-1]).mean()
    assert 0.3 < same < 0.95  # persistence without freezing


def test_noiseless_task_is_linearly_solvable():
    # with the noise turned off, a closed-form classifier on raw frames
    # should read the labels almost perfectly
    cfg = SynthConfig(noise_std=0.0)
    train = generate_corpus(cfg, seed=2, split="train")
    test = generate_corpus(cfg, seed=2, split="test")
    assert linear_probe_fer(train, test) < 0.05


def test_probe_floor_rises_with_structure_and_noise():
    # both knobs push the linear floor up; structure_scale moves the
    # context-dependent part, noise_std the iid part
    def fer_at(**kw):
        cfg = SynthConfig(**kw)
        train = generate_corpus(cfg, seed=2, split="train", count=120)
        test = generate_corpus(cfg, seed=2, split="test", count=60)
        return linear_probe_fer(train, test)

    default = fer_at()
    structured = fer_at(structure_scale=1.0)
    noisy = fer_at(noise_std=3.0)
    assert structured > default + 0.05
    assert noisy > default + 0.1


def test_default_noise_probe_beats_chance_by_wide_margin():
    cfg = SynthConfig()
    train = generate_corpus(cfg, seed=2, split="train", count=120)
    test = generate_corpus(cfg, seed=2, split="test", count=60)
    fer = linear_probe_fer(train, test)
    chance = 1.0 - 1.0 / cfg.vocab
    assert fer < chance - 0.2, f"probe FER {fer:.3f} vs chance {chance:.3f}"
    assert fer > 0.02  # and the task is not degenerate


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(vocab=1).validate()
    with pytest.raises(ValueError):
        SynthConfig(noise_std=-0.1).validate()
    with pytest.raises(ValueError):
        SynthConfig(structure_scale=-0.5).validate()
    with pytest.raises(ValueError):
        SynthConfig(frames_per_symbol=(2, 8)).validate()  # shorter than window
    with pytest.raises(ValueError):
        SynthConfig(frames_per_symbol=(8, 4)).validate()
    with pytest.raises(ValueError):
        SynthConfig(self_transition=1.0).validate()
    with pytest.raises(ValueError):
        SynthConfig(latent_rho=-0.2).validate()
    SynthConfig().validate()
