"""Config plumbing: strict schema, presets, overrides, and the resolved
round trip the provenance files depend on."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionlab.config import (
    SCHEMA,
    ConfigError,
    ExperimentConfig,
    build_config,
    config_fingerprint,
    config_sections,
    load_config,
    render_config,
)
from fusionlab.fusion import HierarchicalFusionSpec, LinearFusionSpec


def test_defaults_build_and_validate():
    cfg = build_config({})
    assert cfg.preset == "desk"
    assert cfg.encoder.num_layers == 6 and cfg.encoder.model_dim == 64
    assert cfg.fusion is None
    assert cfg.peft.kind == "none"
    assert cfg.train.ema_decay == 0.997  # desk-preset averaging horizon
    assert cfg.train.seed == cfg.seed == 0


def test_full_counting_preset_selects_large_geometry():
    cfg = build_config({"experiment": {"preset": "full-counting"}})
    assert cfg.counting_only()
    assert cfg.encoder.num_layers == 24 and cfg.encoder.model_dim == 1024
    assert not build_config({}).counting_only()


def test_unknown_section_and_key_are_hard_errors():
    with pytest.raises(ConfigError, match=r"unknown config section"):
        build_config({"misc": {"x": "1"}})
    with pytest.raises(ConfigError, match=r"unknown key"):
        build_config({"encoder": {"layers": "6"}})
    with pytest.raises(ConfigError, match=r"unknown preset"):
        build_config({"experiment": {"preset": "huge"}})


def test_type_errors_name_section_and_key():
    with pytest.raises(ConfigError, match=r"\[encoder\] num_layers"):
        build_config({"encoder": {"num_layers": "six"}})
    with pytest.raises(ConfigError, match=r"\[synth\] noise_std"):
        build_config({"synth": {"noise_std": "loud"}})
    with pytest.raises(ConfigError, match=r"\[synth\] frames_per_symbol"):
        build_config({"synth": {"frames_per_symbol": "4,8,12"}})
    with pytest.raises(ConfigError, match=r"\[train\] learning_rate: expected a finite number"):
        build_config({"train": {"learning_rate": "nan"}})
    with pytest.raises(ConfigError, match=r"\[synth\] structure_scale: expected a finite number"):
        build_config({"synth": {"structure_scale": "inf"}})


def test_fusion_section_variants():
    linear = build_config({"fusion": {"kind": "linear", "taps": "1,3,5", "depth": "2"}})
    assert isinstance(linear.fusion, LinearFusionSpec)
    assert linear.fusion.tap_indices == (1, 3, 5)
    assert linear.fusion.width == 64  # defaults to model_dim

    spaced = build_config({"fusion": {"kind": "balanced", "num_taps": "6"}})
    assert isinstance(spaced.fusion, HierarchicalFusionSpec)
    assert spaced.fusion.tap_indices == (0, 1, 2, 3, 4, 5)
    assert spaced.fusion.fp_dim == 32 and spaced.fusion.final_dim == 64

    none = build_config({"fusion": {"kind": "none"}})
    assert none.fusion is None


def test_fusion_section_errors():
    with pytest.raises(ConfigError, match="either 'taps' or 'num_taps'"):
        build_config({"fusion": {"kind": "linear", "taps": "1", "num_taps": "2"}})
    with pytest.raises(ConfigError, match="needs 'taps'"):
        build_config({"fusion": {"kind": "linear"}})
    with pytest.raises(ConfigError, match="only apply to hierarchical"):
        build_config({"fusion": {"kind": "linear", "taps": "1,3", "fp_dim": "32"}})
    with pytest.raises(ConfigError, match="only apply to kind=linear"):
        build_config({"fusion": {"kind": "balanced", "taps": "1,3", "depth": "2"}})
    with pytest.raises(ConfigError, match="takes no other keys"):
        build_config({"fusion": {"kind": "none", "depth": "1"}})
    with pytest.raises(ConfigError, match="unknown fusion kind"):
        build_config({"fusion": {"kind": "tree", "taps": "1,3"}})
    for count in ("0", "7"):
        with pytest.raises(ConfigError, match=rf"\[fusion\] num_taps: cannot pick {count} taps"):
            build_config({"fusion": {"kind": "balanced", "num_taps": count}})


def test_cross_section_consistency_rules():
    with pytest.raises(ConfigError, match="input_dim"):
        build_config({"synth": {"input_dim": "8"}})
    # matching explicit value is fine
    cfg = build_config({"synth": {"input_dim": "16"}})
    assert cfg.synth.input_dim == 16


def test_seed_flows_into_train_and_pretrain():
    cfg = build_config({"experiment": {"seed": "7"}})
    assert cfg.seed == 7 and cfg.train.seed == 7 and cfg.pretrain.seed == 7
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=1).validate()  # train seed left at 0


def test_overrides_apply_with_section_key_paths():
    cfg = build_config({}, overrides={"train.steps": "123", "peft.kind": "bitfit"})
    assert cfg.train.steps == 123
    assert cfg.peft.kind == "bitfit"
    with pytest.raises(ConfigError, match="section.key"):
        build_config({}, overrides={"steps": "10"})
    with pytest.raises(ConfigError, match="unknown key"):
        build_config({}, overrides={"train.momentum": "0.9"})


def test_render_round_trips_exactly(tmp_path):
    cfg = build_config({
        "experiment": {"seed": "3"},
        "fusion": {"kind": "unbalanced", "taps": "0,2,5", "fp_dim": "24"},
        "peft": {"kind": "adapter", "adapter_layers": "3,4,5", "bottleneck_dim": "16"},
        "train": {"steps": "77"},
        "synth": {"noise_std": "1.5"},
    })
    text = render_config(cfg)
    path = tmp_path / "resolved.ini"
    path.write_text(text)
    again = load_config(path)
    assert again == cfg
    assert config_fingerprint(again) == config_fingerprint(cfg)


def test_fingerprint_distinguishes_configs():
    a = build_config({})
    b = build_config({"train": {"steps": "999"}})
    assert config_fingerprint(a) != config_fingerprint(b)


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("just some text\nwithout sections")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(bad)
    good = tmp_path / "good.ini"
    good.write_text("[train]\nsteps = 55\n")
    assert load_config(good).train.steps == 55


def test_config_sections_cover_everything():
    cfg = build_config({"fusion": {"kind": "linear", "num_taps": "3"}})
    sections = config_sections(cfg)
    assert set(sections) == {"experiment", "encoder", "fusion", "peft", "train", "pretrain", "synth"}
    assert sections["fusion"]["taps"] == "1,3,5"


ADAPTERS = {"peft": {"kind": "adapter", "adapter_layers": "3,4,5", "bottleneck_dim": "16"}}
LINEAR = {"fusion": {"kind": "linear", "taps": "1,3,5"}}
HIERARCHICAL = {"fusion": {"kind": "unbalanced", "taps": "0,2,5"}}
DATACLASS_KEYS = (
    [pytest.param({}, section, key, id=f"{section}.{key}")
     for section in ("experiment", "encoder", "train", "pretrain", "synth")
     for key in SCHEMA[section]]
    + [pytest.param(ADAPTERS, "peft", key, id=f"peft.{key}") for key in SCHEMA["peft"]]
    + [pytest.param(LINEAR, "fusion", key, id=f"fusion[linear].{key}")
       for key in ("kind", "taps", "depth", "width")]
    + [pytest.param(HIERARCHICAL, "fusion", key, id=f"fusion[unbalanced].{key}")
       for key in ("kind", "taps", "fp_dim", "final_dim", "final_depth")]
)


@pytest.mark.parametrize("base,section,key", DATACLASS_KEYS)
def test_every_dataclass_key_takes_its_rendered_default(base, section, key):
    cfg = build_config(base)
    raw = config_sections(cfg)[section][key]
    assert build_config({**base, section: {**base.get(section, {}), key: raw}}) == cfg


DEFAULT_TEXT = """\
[experiment]
preset = desk
output_dir = runs/experiment
seed = 0

[encoder]
num_layers = 6
model_dim = 64
num_heads = 4
ffn_expansion = 4
conv_kernel = 8
input_dim = 16

[fusion]
kind = none

[peft]
kind = none

[train]
learning_rate = 0.001
warmup_steps = 500
steps = 3000
batch_size = 16
crop_len = 64
ema_decay = 0.997
log_every = 50

[pretrain]
codebook_size = 64
code_dim = 16
mask_prob = 0.15
steps = 2000
batch_size = 16
crop_len = 64
learning_rate = 0.001
warmup_steps = 100
min_loss_drop = 0.3
gate_window = 50

[synth]
vocab = 12
frames_per_symbol = 4,8
input_dim = 16
emission_rank = 4
noise_std = 0.3
mean_scale = 1.0
structure_scale = 0.1
utterance_len = 8,24
pretrain_utterances = 256
train_utterances = 256
test_utterances = 64
self_transition = 0.1
latent_rho = 0.95

"""
NO_HEAD = "[fusion]\nkind = none\n\n[peft]\nkind = none\n"


def test_rendered_text_is_pinned():
    # every run's config_fingerprint hashes this text
    assert render_config(build_config({})) == DEFAULT_TEXT
    unbalanced = build_config({**HIERARCHICAL, **ADAPTERS})
    assert render_config(unbalanced) == DEFAULT_TEXT.replace(NO_HEAD, (
        "[fusion]\nkind = unbalanced\ntaps = 0,2,5\nfp_dim = 32\nfinal_dim = 64\n"
        "final_depth = 3\n\n[peft]\nkind = adapter\nadapter_layers = 3,4,5\n"
        "bottleneck_dim = 16\n"))
    spaced = build_config({"fusion": {"kind": "linear", "num_taps": "3"}})
    assert render_config(spaced) == DEFAULT_TEXT.replace(NO_HEAD, (
        "[fusion]\nkind = linear\ntaps = 1,3,5\ndepth = 1\nwidth = 64\n\n"
        "[peft]\nkind = none\n"))


SCHEMA_PATHS = sorted(f"{section}.{key}" for section in SCHEMA for key in SCHEMA[section]
                      if (section, key) != ("experiment", "output_dir"))
VALUE_POOL = ["0", "1", "2", "3", "5", "6", "7", "16", "64", "100000", "-1", "-4",
              "0.5", "1e-3", "nan", "inf", "-inf", "", "1,3", "0,2,5", "4,8", "5,1",
              "none", "linear", "balanced", "unbalanced", "adapter", "bitfit", "full-counting"]
BASES = [{}, LINEAR, {"fusion": {"kind": "balanced", "num_taps": "4"}}, ADAPTERS,
         {**HIERARCHICAL, **ADAPTERS}]


def _floats(obj):
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            yield from _floats(value)
        elif isinstance(value, float):
            yield value


@settings(max_examples=1000, deadline=None)
@example(base=BASES[2], overrides={"encoder.num_layers": "2"})
@example(base={}, overrides={"train.learning_rate": "nan"})
@given(base=st.sampled_from(BASES),
       overrides=st.dictionaries(st.sampled_from(SCHEMA_PATHS), st.sampled_from(VALUE_POOL),
                                 min_size=1, max_size=3))
def test_any_schema_override_is_refused_or_builds_finite(base, overrides):
    try:
        cfg = build_config(base, overrides)
    except ConfigError:
        return
    assert all(math.isfinite(v) for v in _floats(cfg))


@pytest.mark.parametrize("section,key", [("encoder", "subsampling"), ("pretrain", "mask_span")])
def test_resolved_ini_naming_a_retired_key_is_refused(tmp_path, section, key):
    # what an older resolved.ini held: the frontend fixes both at 4
    text = render_config(build_config({})).replace(f"[{section}]\n", f"[{section}]\n{key} = 4\n")
    path = tmp_path / "resolved.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[{section}\]"):
        load_config(path)
