"""Encoder structure: frontend subsampling, tap plumbing, adapter
attachment rules, determinism, and lazy evaluation above the top tap."""

import numpy as np
import pytest

from fusionlab.encoder import DESK, FULL_SCALE, SUBSAMPLING, Encoder, EncoderConfig, build_encoder
from fusionlab.peft import Adapter
from fusionlab.tensor import OpCounter, ShapeError, Tensor, use_counter


def frames(batch=2, time=32, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(batch, time, dim)).astype(np.float32))


def test_output_shape_and_subsampling():
    enc = build_encoder(DESK, seed=0)
    out = enc.encode(frames(time=32))
    assert out.shape == (2, 8, 64)
    assert SUBSAMPLING == DESK.subsampling == FULL_SCALE.subsampling == 4
    # valid convolutions: odd leftovers are dropped, not padded
    assert enc.encode(frames(time=34)).shape == (2, 8, 64)


def test_all_taps_share_shape_and_order():
    enc = build_encoder(DESK, seed=0)
    taps = enc.encode_with_taps(frames(), tap_indices=(5, 0, 3))
    assert tuple(taps) == (0, 3, 5)
    assert len(taps) == 3
    assert all(t.shape == (2, 8, 64) for t in taps.values())
    assert 3 in taps and 4 not in taps
    with pytest.raises(KeyError):
        taps[4]


def test_tap_validation():
    enc = build_encoder(DESK, seed=0)
    with pytest.raises(ValueError):
        enc.encode_with_taps(frames(), ())
    with pytest.raises(ValueError):
        enc.encode_with_taps(frames(), (1, 1))
    with pytest.raises(ValueError):
        enc.encode_with_taps(frames(), (6,))


def test_blocks_above_top_tap_never_run():
    enc = build_encoder(DESK, seed=0)
    ctr = OpCounter()
    with use_counter(ctr):
        enc.encode_with_taps(frames(), (2,))
    assert ctr.forward_flops_in("encoder/layer_2") > 0
    assert ctr.forward_flops_in("encoder/layer_3") == 0
    assert ctr.forward_flops_in("encoder/layer_5") == 0


def test_same_seed_same_output_different_seed_differs():
    a = build_encoder(DESK, seed=7).encode(frames()).data
    b = build_encoder(DESK, seed=7).encode(frames()).data
    c = build_encoder(DESK, seed=8).encode(frames()).data
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-4


def test_encoder_runs_in_float32_by_default():
    enc = build_encoder(DESK, seed=0)
    out = enc.encode(frames())
    assert out.data.dtype == np.float32
    assert all(p.value.dtype == np.float32 for p in enc.parameters().values())


def test_input_shape_errors():
    enc = build_encoder(DESK, seed=0)
    with pytest.raises(ShapeError):
        enc.encode(Tensor(np.zeros((2, 32, 8), dtype=np.float32)))
    with pytest.raises(ShapeError):
        enc.encode(Tensor(np.zeros((32, 16), dtype=np.float32)))
    with pytest.raises(ShapeError):
        enc.encode(Tensor(np.zeros((2, 3, 16), dtype=np.float32)))


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(num_heads=5).validate()  # does not divide 64
    with pytest.raises(ValueError):
        EncoderConfig(model_dim=63, num_heads=1).validate()
    with pytest.raises(TypeError):
        EncoderConfig(subsampling=2)  # fixed by the frontend, not a setting
    with pytest.raises(ValueError):
        EncoderConfig(num_layers=0).validate()
    FULL_SCALE.validate()


def test_adapter_changes_tap_stream():
    enc_plain = build_encoder(DESK, seed=0)
    enc_adapted = build_encoder(DESK, seed=0)
    rng = np.random.default_rng(99)
    adapter = Adapter(64, 16, rng, dtype=np.float32)
    # zero-initialised up-projection: attaching is an exact no-op at init
    enc_adapted.attach_adapter(2, adapter)
    x = frames()
    base = enc_plain.encode_with_taps(x, (2, 5))
    same = enc_adapted.encode_with_taps(x, (2, 5))
    np.testing.assert_array_equal(base[2].data, same[2].data)
    # nudge the up-projection off zero: everything downstream moves
    up = [p for n, p in enc_adapted.parameters().items() if "adapter_2" in n and "up" in n]
    assert up, "expected an up-projection parameter under adapter_2"
    up[0].value.data += 0.05
    moved = enc_adapted.encode_with_taps(x, (2, 5))
    assert np.abs(moved[2].data - base[2].data).max() > 0
    assert np.abs(moved[5].data - base[5].data).max() > 0


def test_adapter_attachment_rules():
    enc = build_encoder(DESK, seed=0)
    rng = np.random.default_rng(0)
    enc.attach_adapter(1, Adapter(64, 16, rng, dtype=np.float32))
    with pytest.raises(ValueError):
        enc.attach_adapter(1, Adapter(64, 16, rng, dtype=np.float32))
    with pytest.raises(ValueError):
        enc.attach_adapter(6, Adapter(64, 16, rng, dtype=np.float32))

    from fusionlab.params import Module

    host = Module()
    host.child("encoder", enc)
    with pytest.raises(RuntimeError):
        enc.attach_adapter(3, Adapter(64, 16, rng, dtype=np.float32))


def test_parameter_names_have_layer_prefixes():
    enc = build_encoder(DESK, seed=0)
    names = set(enc.parameters())
    assert any(n.startswith("frontend/conv1/") for n in names)
    assert any(n.startswith("layer_0/") for n in names)
    assert any(n.startswith("layer_5/") for n in names)
    per_block = {i: sum(1 for n in names if n.startswith(f"layer_{i}/")) for i in range(6)}
    assert len(set(per_block.values())) == 1  # identical structure per block
