"""Config plumbing: strict schema, presets, overrides, and the resolved
round trip the provenance files depend on."""

import numpy as np
import pytest

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


DATACLASS_KEYS = [(section, key) for section in ("encoder", "train", "pretrain", "synth")
                  for key in SCHEMA[section]]


@pytest.mark.parametrize("section,key", DATACLASS_KEYS,
                         ids=[f"{s}.{k}" for s, k in DATACLASS_KEYS])
def test_every_dataclass_key_takes_its_rendered_default(section, key):
    base = build_config({})
    raw = config_sections(base)[section][key]
    assert build_config({section: {key: raw}}) == base


@pytest.mark.parametrize("section,key", [("encoder", "subsampling"), ("pretrain", "mask_span")])
def test_resolved_ini_naming_a_retired_key_is_refused(tmp_path, section, key):
    # what an older resolved.ini held: the frontend fixes both at 4
    text = render_config(build_config({})).replace(f"[{section}]\n", f"[{section}]\n{key} = 4\n")
    path = tmp_path / "resolved.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[{section}\]"):
        load_config(path)
