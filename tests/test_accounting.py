"""Resource accounting: the symbolic trace's parameter counts (per region)
against live models, its FLOPs and retained bytes against live op
counters, monotonicity of the memory model, and the pinned full-scale
reference arithmetic.

The analytic and live routes are written independently (a symbolic mirror
of the modules in the accounting, real modules and recorded ops in the
engine); the suite demands exact agreement, and hand-derived totals pin
the full-scale counts.
"""

import numpy as np
import pytest

from fusionlab import ops
from fusionlab.accounting import (
    ModelSpec,
    comparison_model_specs,
    count_backward_flops,
    count_model_params,
    count_model_trainable_params,
    count_trainable_params,
    estimate_activation_memory,
    measure_throughput,
    reference_table,
    resource_report,
    trace_costs,
)
from fusionlab.encoder import DESK, FULL_SCALE, EncoderConfig, build_encoder
from fusionlab.fusion import HierarchicalFusionSpec, LinearFusionSpec
from fusionlab.model import DownstreamModel, build_model
from fusionlab.peft import PeftSpec
from fusionlab.tensor import OpCounter, Tensor, use_counter
from fusionlab.params import backward


BATCH, SEQ = 2, 32


def live_step_counts(spec: ModelSpec, batch=BATCH, seq=SEQ):
    """One forward+backward on a real model, measured by the op counter."""
    model = build_model(spec, seed=0)
    rng = np.random.default_rng(0)
    frames = Tensor(rng.normal(size=(batch, seq, spec.encoder.input_dim)).astype(np.float32))
    labels = rng.integers(0, spec.num_classes, size=(batch, seq // 4))
    ctr = OpCounter()
    with use_counter(ctr):
        loss = model.loss(frames, labels)
        backward(loss, model)
    return model, ctr


def spec_grid():
    hier = HierarchicalFusionSpec((0, 2, 4, 5), "balanced", fp_dim=32, final_dim=64, final_depth=3)
    return {
        "probe": ModelSpec(DESK, None, PeftSpec(), probe_tap=3),
        "linear-d2": ModelSpec(DESK, LinearFusionSpec((1, 3, 5), depth=2, width=64), PeftSpec()),
        "hier-unbalanced": ModelSpec(
            DESK, HierarchicalFusionSpec((0, 2, 5), "unbalanced", 32, 64, 3), PeftSpec()
        ),
        "hier+adapters": ModelSpec(DESK, hier, PeftSpec("adapter", (3, 4, 5), 16)),
        "bitfit": ModelSpec(DESK, None, PeftSpec("bitfit")),
        "full": ModelSpec(DESK, None, PeftSpec("full")),
        "top-block": ModelSpec(DESK, None, PeftSpec("top_block")),
        "probe+adapters-above-tap": ModelSpec(DESK, None, PeftSpec("adapter", (3, 4, 5), 16), probe_tap=2),
    }


@pytest.mark.parametrize("name", sorted(spec_grid()))
def test_closed_form_params_match_live_model_exactly(name):
    spec = spec_grid()[name]
    model = build_model(spec, seed=0)
    assert count_model_params(spec) == model.num_params()
    assert count_model_trainable_params(spec) == model.num_params(trainable_only=True)
    regions = {"encoder": model.encoder, "head": model.head, "classifier": model.classifier}
    totals = trace_costs(spec, BATCH, SEQ)
    for trainable_only, counted in ((False, totals.params), (True, totals.trainable)):
        assert counted == {r: 0 if m is None else m.num_params(trainable_only=trainable_only)
                           for r, m in regions.items()}
    head = 0 if model.head is None else model.head.num_params(trainable_only=True)
    assert count_trainable_params(spec.encoder, spec.fusion, spec.peft) == (
        model.encoder.num_params(trainable_only=True), head)


@pytest.mark.parametrize("name", sorted(spec_grid()))
def test_trace_matches_live_counters_exactly(name):
    spec = spec_grid()[name]
    model, ctr = live_step_counts(spec)
    totals = trace_costs(spec, BATCH, SEQ)
    assert totals.forward_flops == ctr.forward_flops
    assert totals.backward_flops == ctr.backward_flops
    assert totals.retained_bytes == ctr.saved_bytes


@pytest.mark.parametrize("name", list(comparison_model_specs()))
def test_comparison_rows_trace_matches_live_within_one_percent(name):
    spec = comparison_model_specs()[name]
    _, ctr = live_step_counts(spec)
    analytic = count_backward_flops(spec, BATCH, SEQ)
    assert analytic == pytest.approx(ctr.backward_flops, rel=0.01)


def test_frozen_configs_retain_no_encoder_activations():
    frozen = ModelSpec(DESK, LinearFusionSpec((5,), 1, 64), PeftSpec())
    full = ModelSpec(DESK, LinearFusionSpec((5,), 1, 64), PeftSpec("full"))
    assert trace_costs(frozen, BATCH, SEQ).retained_bytes < trace_costs(full, BATCH, SEQ).retained_bytes / 5
    # deeper tap on a frozen encoder costs forward flops but no extra backward
    shallow = ModelSpec(DESK, None, PeftSpec(), probe_tap=0)
    deep = ModelSpec(DESK, None, PeftSpec(), probe_tap=5)
    assert trace_costs(deep, BATCH, SEQ).forward_flops > trace_costs(shallow, BATCH, SEQ).forward_flops
    assert trace_costs(deep, BATCH, SEQ).backward_flops == trace_costs(shallow, BATCH, SEQ).backward_flops


def test_backward_pruned_below_lowest_trainable_depth():
    low = ModelSpec(DESK, None, PeftSpec("adapter", (1,), 16))
    high = ModelSpec(DESK, None, PeftSpec("adapter", (4,), 16))
    assert trace_costs(high, BATCH, SEQ).backward_flops < trace_costs(low, BATCH, SEQ).backward_flops


def test_activation_memory_monotone_in_batch_and_seq():
    spec = ModelSpec(DESK, None, PeftSpec("full"))
    base = estimate_activation_memory(spec, 2, 32)
    assert estimate_activation_memory(spec, 4, 32) > base
    assert estimate_activation_memory(spec, 2, 64) > base
    assert estimate_activation_memory(spec, 0, 32) == 0


def test_activation_memory_includes_optimizer_state():
    spec = ModelSpec(DESK, None, PeftSpec("full"))
    retained = trace_costs(spec, BATCH, SEQ).retained_bytes
    total = estimate_activation_memory(spec, BATCH, SEQ)
    assert total == retained + count_model_trainable_params(spec) * 4 * 4


def test_trace_input_validation():
    spec = ModelSpec(DESK, None, PeftSpec())
    with pytest.raises(ValueError):
        trace_costs(spec, 0, 32)
    with pytest.raises(ValueError):
        trace_costs(spec, 2, 2)
    with pytest.raises(ValueError):
        ModelSpec(DESK, LinearFusionSpec((1, 3), 1, 64), PeftSpec(), probe_tap=2).validate()
    with pytest.raises(ValueError):
        ModelSpec(DESK, None, PeftSpec(), probe_tap=6).validate()
    with pytest.raises(ValueError):
        ModelSpec(DESK, None, PeftSpec(), num_classes=1).validate()


@pytest.mark.parametrize("spec", [
    ModelSpec(DESK, LinearFusionSpec((1, 3), 1, 64), PeftSpec(), probe_tap=2),
    ModelSpec(DESK, None, PeftSpec(), probe_tap=6),
    ModelSpec(DESK, None, PeftSpec(), num_classes=1),
], ids=["probe-tap-with-fusion", "probe-tap-6-of-6", "one-class"])
def test_build_model_rejects_invalid_specs(spec):
    with pytest.raises(ValueError):
        build_model(spec, seed=0)


def test_downstream_model_rejects_encoder_of_another_config():
    spec = ModelSpec(DESK, None, PeftSpec())
    encoder = build_encoder(EncoderConfig(num_layers=3), seed=0)
    with pytest.raises(ValueError, match="does not match"):
        DownstreamModel(encoder, spec, seed=0)


def test_resource_report_fields_and_guard():
    spec = ModelSpec(DESK, None, PeftSpec("top_block"))
    report = resource_report(spec, BATCH, SEQ, throughput=123.4)
    assert report.trainable_params == count_model_trainable_params(spec)
    assert report.frozen_params == count_model_params(spec) - report.trainable_params
    assert report.backward_flops <= 2 * report.forward_flops
    assert report.throughput == 123.4
    from fusionlab.accounting import ResourceReport

    with pytest.raises(ValueError):
        ResourceReport(1, 1, 1, forward_flops=10, backward_flops=21,
                       throughput=None).validate()


def test_measure_throughput_validation():
    with pytest.raises(ValueError):
        measure_throughput(None, timed_steps=5)
    with pytest.raises(ValueError):
        measure_throughput(None, warmup_steps=-1)


# -- pinned full-scale arithmetic --------------------------------------------


def test_full_scale_encoder_param_count():
    full = PeftSpec("full")
    # frontend 3,410,944 + 24 x 24,180,736
    assert count_trainable_params(FULL_SCALE, None, full)[0] == 583_748_608
    assert count_trainable_params(DESK, None, full)[0] == 594_368


def test_full_scale_reference_rows_pinned():
    table = {row["label"]: row for row in reference_table()}
    pinned = {
        "linear fusion, 1 tap, depth 1": 656_000,
        "linear fusion, 12 taps, depth 1": 7_864_960,
        "linear fusion, 12 taps, depth 2": 8_275_200,
        "linear fusion, 12 taps, depth 3": 8_685_440,
        "linear fusion, 12 taps, depth 4": 9_095_680,
        "hierarchical fusion (balanced), 12 taps": 12_198_144,
        "hierarchical fusion (unbalanced), 12 taps": 10_887_424,
        "adapters d=128, all layers": 6_368_256,
        "adapters d=256, all layers": 12_662_784,
        "adapters d=512, all layers": 25_251_840,
        "top-block fine-tuning": 24_180_736,
        "bias-only fine-tuning": 347_136,
    }
    for label, expected in pinned.items():
        assert table[label]["computed"] == expected, label
    # every gated row sits inside its tolerance
    for label, row in table.items():
        if row["within"] is not None:
            assert row["within"], f"{label}: {row['deviation_pct']:+.2f}% off {row['reference']}"


def test_full_scale_bitfit_closed_form():
    bitfit = count_trainable_params(FULL_SCALE, None, PeftSpec("bitfit"))[0]
    assert bitfit == (14 * 24 + 3) * 1024


def test_comparison_specs_cover_eight_strategies():
    rows = comparison_model_specs()
    assert len(rows) == 8
    assert list(rows)[0] == "full fine-tuning"
    hier_rows = [s for s in rows.values() if s.fusion is not None]
    assert all(s.fusion.variant == "balanced" for s in hier_rows)
    top_half = rows["adapters (top half)"].peft.adapter_layers
    assert top_half == (3, 4, 5)


def test_trainable_counts_match_configure_peft():
    for kind, peft in [
        ("none", PeftSpec()),
        ("bitfit", PeftSpec("bitfit")),
        ("top_block", PeftSpec("top_block")),
        ("adapter", PeftSpec("adapter", (0, 5), 16)),
        ("full", PeftSpec("full")),
    ]:
        from fusionlab.peft import configure_peft

        enc = build_encoder(DESK, seed=0)
        live = configure_peft(enc, peft)
        analytic, _ = count_trainable_params(DESK, None, peft)
        assert analytic == live, kind
