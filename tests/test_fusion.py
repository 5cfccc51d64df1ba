"""Fusion heads: tap spacing, output shapes, parameter counts against the
closed forms, weight-norm analysis, and spec validation."""

import numpy as np
import pytest

from fusionlab.encoder import DESK, build_encoder
from fusionlab.fusion import (
    HierarchicalFusionHead,
    HierarchicalFusionSpec,
    LinearFusionHead,
    LinearFusionSpec,
    build_fusion_head,
    evenly_spaced_taps,
    layer_weight_norms,
)
from fusionlab.tensor import Tensor


def test_evenly_spaced_taps_published_sets():
    assert evenly_spaced_taps(24, 12) == (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23)
    assert evenly_spaced_taps(24, 4) == (5, 11, 17, 23)
    assert evenly_spaced_taps(24, 2) == (11, 23)
    assert evenly_spaced_taps(24, 1) == (23,)
    assert evenly_spaced_taps(6, 6) == (0, 1, 2, 3, 4, 5)
    assert evenly_spaced_taps(6, 3) == (1, 3, 5)
    assert evenly_spaced_taps(6, 2) == (2, 5)


def test_evenly_spaced_taps_always_include_top():
    for layers in (6, 12, 24):
        for count in range(1, layers + 1):
            taps = evenly_spaced_taps(layers, count)
            assert len(taps) == count
            assert taps[-1] == layers - 1
            assert taps == tuple(sorted(set(taps)))


def test_evenly_spaced_taps_range_errors():
    with pytest.raises(ValueError):
        evenly_spaced_taps(6, 0)
    with pytest.raises(ValueError):
        evenly_spaced_taps(6, 7)


def taps_fixture(indices=(1, 3, 5), seed=0):
    enc = build_encoder(DESK, seed=seed)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 32, 16)).astype(np.float32))
    return enc.encode_with_taps(x, indices)


def test_linear_head_shapes_and_depth():
    taps = taps_fixture()
    for depth in (1, 2, 3, 4):
        spec = LinearFusionSpec(tap_indices=(1, 3, 5), depth=depth, width=64)
        head = build_fusion_head(spec, model_dim=64, rng=np.random.default_rng(0))
        out = head(taps)
        assert out.shape == (2, 8, 64)
        assert out.data.dtype == np.float32


def test_linear_head_param_count_closed_form():
    for n, depth, width in [(3, 1, 64), (3, 3, 64), (6, 1, 64), (2, 4, 48)]:
        spec = LinearFusionSpec(tap_indices=tuple(range(n)), depth=depth, width=width)
        head = build_fusion_head(spec, model_dim=64, rng=np.random.default_rng(0))
        expect = (n * 64 + 1) * width + (depth - 1) * (width + 1) * width
        assert head.num_params() == expect


def test_balanced_head_shapes_odd_and_even_tap_counts():
    for indices in [(1, 3), (1, 3, 5), (0, 1, 3, 5), (0, 1, 2, 4, 5)]:
        taps = taps_fixture(indices)
        spec = HierarchicalFusionSpec(tap_indices=indices, variant="balanced",
                                      fp_dim=32, final_dim=64, final_depth=3)
        head = build_fusion_head(spec, model_dim=64, rng=np.random.default_rng(0))
        assert head(taps).shape == (2, 8, 64)


def test_balanced_head_concatenates_projections_in_tap_order():
    def linear(x, layer):
        w, b = layer.w.value.data, layer.b.value.data
        return (x.reshape(-1, w.shape[0]) @ w).reshape(*x.shape[:-1], w.shape[1]) + b

    for indices in [(1, 3), (1, 3, 5), (0, 1, 2, 4, 5)]:
        taps = taps_fixture(indices)
        spec = HierarchicalFusionSpec(tap_indices=indices, variant="balanced",
                                      fp_dim=32, final_dim=64, final_depth=3)
        head = build_fusion_head(spec, model_dim=64, rng=np.random.default_rng(0))
        h = np.concatenate([linear(taps[t].data, head.fps[slot])
                            for slot, t in enumerate(indices)], axis=-1)
        for i, layer in enumerate(head.final_layers):
            h = linear(np.maximum(h, 0) if i else h, layer)
        np.testing.assert_array_equal(head(taps).data, h)


def test_unbalanced_head_shapes():
    for indices in [(0, 2, 5), (0, 1, 3, 5), (0, 1, 2, 4, 5)]:
        taps = taps_fixture(indices)
        spec = HierarchicalFusionSpec(tap_indices=indices, variant="unbalanced",
                                      fp_dim=32, final_dim=64, final_depth=3)
        head = build_fusion_head(spec, model_dim=64, rng=np.random.default_rng(0))
        assert head(taps).shape == (2, 8, 64)


def test_balanced_head_param_count_closed_form():
    n, d, fp, fd = 4, 64, 32, 64
    spec = HierarchicalFusionSpec(tap_indices=(0, 1, 3, 5), variant="balanced",
                                  fp_dim=fp, final_dim=fd, final_depth=3)
    head = build_fusion_head(spec, model_dim=d, rng=np.random.default_rng(0))
    expect = n * (d + 1) * fp + (n * fp + 1) * fd + 2 * (fd + 1) * fd
    assert head.num_params() == expect


def test_unbalanced_head_param_count_closed_form():
    n, d, fp, fd = 5, 64, 32, 64
    spec = HierarchicalFusionSpec(tap_indices=(0, 1, 2, 4, 5), variant="unbalanced",
                                  fp_dim=fp, final_dim=fd, final_depth=3)
    head = build_fusion_head(spec, model_dim=d, rng=np.random.default_rng(0))
    # two chains: each starts (d+1)*fp and folds in remaining taps at
    # (fp+d+1)*fp per step; split 3 bottom / 2 top for five taps
    chains = 2 * (d + 1) * fp + ((3 - 1) + (2 - 1)) * (fp + d + 1) * fp
    final = (2 * fp + 1) * fd + 2 * (fd + 1) * fd
    assert head.num_params() == chains + final


def test_heads_are_deterministic_per_seed():
    taps = taps_fixture()
    spec = LinearFusionSpec(tap_indices=(1, 3, 5), depth=2, width=64)
    a = build_fusion_head(spec, model_dim=64, rng=np.random.default_rng(5))(taps).data
    b = build_fusion_head(spec, model_dim=64, rng=np.random.default_rng(5))(taps).data
    c = build_fusion_head(spec, model_dim=64, rng=np.random.default_rng(6))(taps).data
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0


def test_weight_norms_per_tap():
    spec = LinearFusionSpec(tap_indices=(0, 2, 5), depth=1, width=64)
    head = build_fusion_head(spec, model_dim=64, rng=np.random.default_rng(0))
    norms = layer_weight_norms(head)
    assert [tap for tap, _ in norms] == [0, 2, 5]
    assert all(v > 0 for _, v in norms)
    # zero one slab: its norm goes to zero, the others stay put
    head.layers[0].w.value.data[64:128, :] = 0.0
    zeroed = layer_weight_norms(head)
    assert zeroed[1][1] == 0.0
    assert zeroed[0][1] == norms[0][1]


def test_weight_norms_reject_hierarchical_heads():
    spec = HierarchicalFusionSpec(tap_indices=(1, 3, 5))
    head = build_fusion_head(spec, model_dim=64, rng=np.random.default_rng(0))
    with pytest.raises(TypeError):
        layer_weight_norms(head)


def test_spec_validation():
    with pytest.raises(ValueError):
        LinearFusionSpec(tap_indices=(3, 1), depth=1).validate(6)
    with pytest.raises(ValueError):
        LinearFusionSpec(tap_indices=(1, 3), depth=5).validate(6)
    with pytest.raises(ValueError):
        LinearFusionSpec(tap_indices=(1, 6), depth=1).validate(6)
    with pytest.raises(ValueError):
        HierarchicalFusionSpec(tap_indices=(3,), variant="balanced").validate(6)
    with pytest.raises(ValueError):
        HierarchicalFusionSpec(tap_indices=(1, 3), variant="unbalanced").validate(6)
    with pytest.raises(ValueError):
        HierarchicalFusionSpec(tap_indices=(1, 3), variant="diagonal").validate(6)
    with pytest.raises(TypeError):
        build_fusion_head(object(), model_dim=64, rng=np.random.default_rng(0))


def test_missing_tap_raises_key_error():
    taps = taps_fixture((1, 3))
    head = build_fusion_head(LinearFusionSpec(tap_indices=(1, 3, 5)), model_dim=64,
                             rng=np.random.default_rng(0))
    with pytest.raises(KeyError):
        head(taps)
