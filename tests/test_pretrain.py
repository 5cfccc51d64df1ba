"""Masked-prediction surrogate: quantizer behavior, mask sampling, the
learning gate, and checkpoint layout."""

import numpy as np
import pytest

from fusionlab.accounting import ModelSpec
from fusionlab.checkpoint import load_checkpoint
from fusionlab.encoder import DESK, EncoderConfig, build_encoder
from fusionlab.model import DownstreamModel, ProbeBank
from fusionlab.params import set_trainable, state_dict
from fusionlab.pretrain import (
    MaskedPretrainModel,
    PretrainConfig,
    RandomQuantizer,
    pretrain_masked_prediction,
)
from fusionlab.synth import SynthConfig, generate_corpus
from fusionlab.tensor import Tensor
from fusionlab.training import GateError


def test_quantizer_is_deterministic_and_windowed():
    cfg = PretrainConfig(seed=3)
    q1, q2 = RandomQuantizer(16, cfg), RandomQuantizer(16, cfg)
    np.testing.assert_array_equal(q1.projection, q2.projection)
    np.testing.assert_array_equal(q1.codebook, q2.codebook)
    frames = np.random.default_rng(0).normal(size=(2, 24, 16)).astype(np.float32)
    codes = q1.codes(frames)
    assert codes.shape == (2, 6)
    assert codes.min() >= 0 and codes.max() < 64
    # windows are independent: permuting other windows leaves a code alone
    shuffled = frames.copy()
    shuffled[:, 4:] = shuffled[:, 4:][:, ::-1]
    np.testing.assert_array_equal(q1.codes(shuffled)[:, 0], codes[:, 0])


def test_quantizer_codes_match_manual_nearest_neighbor():
    cfg = PretrainConfig(seed=1)
    q = RandomQuantizer(16, cfg)
    frames = np.random.default_rng(5).normal(size=(1, 8, 16)).astype(np.float32)
    pooled = frames.reshape(1, 2, 4, 16).mean(axis=2)
    z = pooled @ q.projection
    manual = np.linalg.norm(z[:, :, None, :] - q.codebook[None, None], axis=-1).argmin(-1)
    np.testing.assert_array_equal(q.codes(frames), manual)


def test_mask_always_hides_at_least_one_window_per_row():
    enc = build_encoder(DESK, seed=0)
    model = MaskedPretrainModel(enc, PretrainConfig(mask_prob=0.01, seed=0))
    for _ in range(20):
        mask = model.sample_mask(8, 4)
        assert mask.shape == (8, 4)
        assert mask.any(axis=1).all()


def test_mask_rate_tracks_probability():
    enc = build_encoder(DESK, seed=0)
    model = MaskedPretrainModel(enc, PretrainConfig(mask_prob=0.15, seed=0))
    rates = [model.sample_mask(16, 32).mean() for _ in range(30)]
    assert 0.1 < np.mean(rates) < 0.25


def test_config_validation():
    with pytest.raises(ValueError, match="mask_prob"):
        PretrainConfig(mask_prob=0.0).validate()
    with pytest.raises(ValueError):
        PretrainConfig(mask_prob=1.5).validate()
    with pytest.raises(ValueError):
        PretrainConfig(crop_len=30).validate()  # not a multiple of the subsampling factor
    with pytest.raises(ValueError):
        PretrainConfig(steps=60, gate_window=50).validate()
    with pytest.raises(ValueError):
        PretrainConfig(min_loss_drop=1.0).validate()
    PretrainConfig().validate()


def test_loss_is_finite_scalar_and_uses_only_masked_rows():
    enc = build_encoder(DESK, seed=0)
    model = MaskedPretrainModel(enc, PretrainConfig(seed=0))
    frames = Tensor(np.random.default_rng(1).normal(size=(2, 32, 16)).astype(np.float32))
    loss = model.loss(frames)
    assert loss.shape == ()
    assert np.isfinite(loss.data)
    # chance level for 64 codes is ln 64; an untrained model sits near it
    assert 2.0 < float(loss.data) < 6.0


def tiny_corpus():
    return generate_corpus(SynthConfig(), seed=0, split="pretrain", count=40)


def test_pretrain_gate_failure_saves_nothing(tmp_path):
    enc = build_encoder(DESK, seed=0)
    path = tmp_path / "never.ffck"
    cfg = PretrainConfig(steps=100, gate_window=50, learning_rate=1e-7, seed=0)
    with pytest.raises(GateError):
        pretrain_masked_prediction(enc, tiny_corpus(), cfg, checkpoint_path=path)
    assert not path.exists()


def test_pretrain_smoke_saves_full_state(tmp_path):
    enc = build_encoder(DESK, seed=0)
    path = tmp_path / "pre.ffck"
    # min_loss_drop 0 turns the gate off for this smoke test
    cfg = PretrainConfig(steps=30, gate_window=10, min_loss_drop=0.0, seed=0)
    losses = pretrain_masked_prediction(enc, tiny_corpus(), cfg, checkpoint_path=path)
    assert len(losses) == 30
    state = load_checkpoint(path)
    prefixes = {name.split("/")[0] for name in state}
    assert prefixes == {"encoder", "head", "mask"}
    model = MaskedPretrainModel(build_encoder(DESK, seed=9), cfg)
    assert set(state) == set(model.parameters())


def test_pretraining_trains_frozen_encoders_too(tmp_path):
    enc = build_encoder(DESK, seed=0)
    set_trainable(enc, "**", False)
    watched = [(p, p.value.data.copy()) for p in list(enc.parameters().values())[:6]]
    cfg = PretrainConfig(steps=20, gate_window=10, min_loss_drop=0.0, seed=0)
    pretrain_masked_prediction(enc, tiny_corpus(), cfg)
    changed = any(np.abs(p.value.data - a).max() > 0 for p, a in watched)
    assert changed, "pretraining must unfreeze and train the encoder"


def test_bad_config_leaves_encoder_flags_and_ownership_untouched():
    enc = build_encoder(DESK, seed=0)
    set_trainable(enc, "**", False)
    with pytest.raises(ValueError):
        pretrain_masked_prediction(enc, tiny_corpus(), PretrainConfig(mask_prob=0.0))
    assert not any(p.trainable for p in enc.parameters().values())
    ProbeBank(enc, (0,), num_classes=8, seed=0)  # still unowned, so composable


@pytest.mark.parametrize("gate", ["passes", "fails"])
def test_encoder_is_handed_back_reusable(gate, tmp_path):
    enc = build_encoder(DESK, seed=0)
    names = list(enc.parameters())
    if gate == "passes":
        cfg = PretrainConfig(steps=20, gate_window=10, min_loss_drop=0.0, seed=0)
        pretrain_masked_prediction(enc, tiny_corpus(), cfg, checkpoint_path=tmp_path / "pre.ffck")
        saved = [n for n in load_checkpoint(tmp_path / "pre.ffck") if n.startswith("encoder/")]
        assert saved == [f"encoder/{n}" for n in names]
    else:
        cfg = PretrainConfig(steps=20, gate_window=10, learning_rate=1e-7, seed=0)
        with pytest.raises(GateError):
            pretrain_masked_prediction(enc, tiny_corpus(), cfg)
    assert list(state_dict(enc)) == names
    assert not any(n.startswith("encoder/") for n in state_dict(enc))

    set_trainable(enc, "**", False)
    bank = ProbeBank(enc, range(DESK.num_layers), num_classes=8, seed=0)
    assert list(enc.parameters()) == names
    bank.release("encoder")
    model = DownstreamModel(enc, ModelSpec(DESK, num_classes=8), seed=0)
    assert list(enc.parameters()) == names
    assert [n for n in model.parameters() if n.startswith("encoder/")] == [
        f"encoder/{n}" for n in names]
