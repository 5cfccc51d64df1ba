"""Encoder structure: frontend subsampling, tap plumbing, adapter
attachment rules, the one rule for layer indices, determinism, and lazy
evaluation above the top tap."""

import numpy as np
import pytest

from fusionlab.accounting import ModelSpec
from fusionlab.cli import EXIT_CONFIG, EXIT_RUNTIME, main
from fusionlab.encoder import (
    DESK,
    FULL_SCALE,
    SUBSAMPLING,
    Encoder,
    EncoderConfig,
    build_encoder,
    check_layers,
)
from fusionlab.fusion import HierarchicalFusionSpec, LinearFusionSpec
from fusionlab.model import ProbeBank
from fusionlab.peft import Adapter, PeftSpec
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


def _probe_layers_cli(layers, tmp_path):
    """Refusal is exit 1, before the (absent) checkpoint is looked for."""
    code = main(["--out", str(tmp_path), "probe-layers",
                 "--taps=" + ",".join(str(i) for i in layers)])
    if code == EXIT_CONFIG:
        raise ValueError("probe-layers refused its taps")
    assert code == EXIT_RUNTIME  # accepted, then stopped for want of a checkpoint


def _attach_adapter(layers, tmp_path):
    (index,) = layers
    build_encoder(DESK, seed=0).attach_adapter(
        index, Adapter(64, 16, np.random.default_rng(0), dtype=np.float32))


# Every entry point that takes layer indices, fed a set of DESK's 6 layers.
LAYER_ENTRY_POINTS = {
    "check_layers": lambda layers, _: check_layers(layers, DESK.num_layers, "layers"),
    "linear-fusion": lambda layers, _: LinearFusionSpec(layers).validate(DESK.num_layers),
    "balanced-fusion": lambda layers, _: HierarchicalFusionSpec(
        layers, "balanced").validate(DESK.num_layers),
    "unbalanced-fusion": lambda layers, _: HierarchicalFusionSpec(
        layers, "unbalanced").validate(DESK.num_layers),
    "peft-adapter": lambda layers, _: PeftSpec("adapter", layers, 16).validate(
        DESK.num_layers, DESK.model_dim),
    "probe-tap": lambda layers, _: ModelSpec(DESK, None, PeftSpec(), probe_tap=layers[0]).validate(),
    "probe-bank": lambda layers, _: ProbeBank(build_encoder(DESK, seed=0), layers, 12, 0),
    "encode-with-taps": lambda layers, _: build_encoder(DESK, seed=0).encode_with_taps(
        frames(), layers),
    "attach-adapter": _attach_adapter,
    "probe-layers-cli": _probe_layers_cli,
}
SINGLE_INDEX = {"probe-tap", "attach-adapter"}
BAD_LAYERS = {
    "empty": (),
    "duplicate": (1, 1, 3),
    "negative": (-1, 2, 3),
    "num-layers": (2, 3, DESK.num_layers),
}
BAD_SINGLE = {"negative": (-1,), "num-layers": (DESK.num_layers,)}
TOO_FEW = {"balanced-fusion": (2,), "unbalanced-fusion": (2, 4)}


def _bad_cases():
    for entry in LAYER_ENTRY_POINTS:
        cases = BAD_SINGLE if entry in SINGLE_INDEX else BAD_LAYERS
        for name, layers in cases.items():
            yield pytest.param(entry, layers, id=f"{entry}-{name}")
        if entry in TOO_FEW:
            yield pytest.param(entry, TOO_FEW[entry], id=f"{entry}-too-few")


@pytest.mark.parametrize("entry, layers", _bad_cases())
def test_every_layer_entry_point_refuses_a_bad_set(entry, layers, tmp_path):
    with pytest.raises(ValueError):
        LAYER_ENTRY_POINTS[entry](layers, tmp_path)


@pytest.mark.parametrize("entry", LAYER_ENTRY_POINTS)
def test_every_layer_entry_point_accepts_a_good_set(entry, tmp_path):
    LAYER_ENTRY_POINTS[entry]((5,) if entry in SINGLE_INDEX else (0, 3, 5), tmp_path)
