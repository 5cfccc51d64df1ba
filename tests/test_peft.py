"""Freezing strategies: trainable inventories per strategy, adapter
identity at initialization, and the depth probe used by the pruning
invariants."""

import numpy as np
import pytest

from fusionlab.encoder import DESK, build_encoder
from fusionlab.peft import (
    PEFT_KINDS,
    Adapter,
    PeftSpec,
    configure_peft,
    lowest_trainable_depth,
)
from fusionlab.tensor import Tensor


def fresh():
    return build_encoder(DESK, seed=0)


def trainable_names(model):
    return set(model.trainable_parameters())


def test_none_freezes_everything():
    enc = fresh()
    count = configure_peft(enc, PeftSpec(kind="none"))
    assert count == 0
    assert trainable_names(enc) == set()
    assert lowest_trainable_depth(enc) is None


def test_full_trains_everything():
    enc = fresh()
    count = configure_peft(enc, PeftSpec(kind="full"))
    assert count == enc.num_params()
    assert lowest_trainable_depth(enc) == 0  # frontend included


def test_top_block_trains_last_layer_only():
    enc = fresh()
    count = configure_peft(enc, PeftSpec(kind="top_block"))
    names = trainable_names(enc)
    assert names and all(n.startswith("layer_5/") for n in names)
    assert count == sum(p.size for n, p in enc.parameters().items() if n.startswith("layer_5/"))
    assert lowest_trainable_depth(enc) == 5


def test_bitfit_trains_only_short_additive_vectors():
    enc = fresh()
    count = configure_peft(enc, PeftSpec(kind="bitfit"))
    for name, p in enc.parameters().items():
        if p.trainable:
            assert name.endswith("/bias")
            assert p.size <= 64
            assert p.value.data.ndim == 1
    # desk-scale closed form: per block, biases at qkv merge (d), attention
    # out (d), two macaron ffn pairs (4d + d each), conv pointwise in (2d),
    # depthwise (d), pointwise out (d), plus frontend conv/proj biases.
    assert count == 5568


def test_adapter_strategy_trains_adapters_only():
    enc = fresh()
    spec = PeftSpec(kind="adapter", adapter_layers=(0, 3, 5), bottleneck_dim=16)
    count = configure_peft(enc, spec, seed=4)
    names = trainable_names(enc)
    assert names and all(n.split("/")[0].startswith("adapter_") for n in names)
    per_adapter = 2 * 64 + (64 + 1) * 16 + (16 + 1) * 64  # norm + down + up
    assert count == 3 * per_adapter
    assert lowest_trainable_depth(enc) == 0
    enc2 = fresh()
    configure_peft(enc2, PeftSpec(kind="adapter", adapter_layers=(4, 5), bottleneck_dim=16))
    assert lowest_trainable_depth(enc2) == 4


def test_adapter_is_identity_at_init():
    rng = np.random.default_rng(0)
    adapter = Adapter(64, 16, rng, dtype=np.float64)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 64)))
    np.testing.assert_array_equal(adapter(x).data, x.data)


def test_adapter_strategy_preserves_encoder_outputs_at_init():
    x = Tensor(np.random.default_rng(2).normal(size=(2, 16, 16)).astype(np.float32))
    plain = fresh().encode(x).data
    enc = fresh()
    configure_peft(enc, PeftSpec(kind="adapter", adapter_layers=(1, 4), bottleneck_dim=16), seed=9)
    np.testing.assert_array_equal(enc.encode(x).data, plain)


def test_spec_validation():
    with pytest.raises(ValueError):
        PeftSpec(kind="lora").validate(6, 64)
    with pytest.raises(ValueError):
        PeftSpec(kind="adapter").validate(6, 64)  # no layers
    with pytest.raises(ValueError):
        PeftSpec(kind="adapter", adapter_layers=(3, 1), bottleneck_dim=16).validate(6, 64)
    with pytest.raises(ValueError):
        PeftSpec(kind="adapter", adapter_layers=(6,), bottleneck_dim=16).validate(6, 64)
    with pytest.raises(ValueError):
        PeftSpec(kind="adapter", adapter_layers=(1,), bottleneck_dim=64).validate(6, 64)
    with pytest.raises(ValueError):
        PeftSpec(kind="bitfit", bottleneck_dim=16).validate(6, 64)
    for kind in PEFT_KINDS:
        if kind != "adapter":
            PeftSpec(kind=kind).validate(6, 64)


def test_reconfiguring_resets_previous_strategy():
    enc = fresh()
    configure_peft(enc, PeftSpec(kind="full"))
    count = configure_peft(enc, PeftSpec(kind="top_block"))
    assert all(n.startswith("layer_5/") for n in trainable_names(enc))
    assert count < enc.num_params()
