"""Experiment configuration as strict, diff-able INI text.

A config file has up to seven sections; every key is typed and checked,
and unknown sections or keys are hard errors so a typo cannot silently
fall back to a default.  Every section's keys are the fields of its
config dataclass, each parsed by the field's annotation (``[experiment]``
holds the scalar fields of :class:`ExperimentConfig` and sets ``seed``
for the other sections).  In ``[fusion]``, ``kind`` picks the spec class
and ``taps`` or ``num_taps`` (explicit or evenly spaced) its taps; its
other fields are keys.  Numbers that are not finite are refused.
``render_config`` emits the fully resolved configuration (every key
explicit), which is what run directories freeze for provenance;
``config_fingerprint`` hashes that text, and each run's resource report
records it.

Two presets pick the default geometry: ``desk`` (trainable on a CPU) and
``full-counting`` (the large geometry used for analytic parameter
counting only; training subcommands refuse it).
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import math
import typing
from dataclasses import dataclass
from pathlib import Path

from .accounting import ModelSpec
from .encoder import DESK, FULL_SCALE, EncoderConfig
from .fusion import HierarchicalFusionSpec, LinearFusionSpec, evenly_spaced_taps
from .peft import PeftSpec
from .pretrain import PretrainConfig
from .synth import SynthConfig
from .training import TrainConfig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PRESETS",
    "load_config",
    "build_config",
    "render_config",
    "config_fingerprint",
    "config_sections",
    "SCHEMA",
]

PRESETS = ("desk", "full-counting")


class ConfigError(ValueError):
    """Invalid configuration or command invocation (exit code 1)."""


# -- value parsers -----------------------------------------------------------


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _str(text: str) -> str:
    return text.strip()


def _int_list(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")
    return tuple(_int(p) for p in parts)


def _int_pair(text: str) -> tuple[int, int]:
    values = _int_list(text)
    if len(values) != 2:
        raise ConfigError(f"expected two comma-separated integers, got {text!r}")
    return values  # type: ignore[return-value]


# one parser per field annotation
_PARSERS = {int: _int, float: _float, str: _str, Path: lambda text: Path(_str(text)),
            tuple[int, ...]: _int_list, tuple[int, int]: _int_pair}


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str = "desk"
    output_dir: Path = Path("runs/experiment")
    seed: int = 0
    encoder: EncoderConfig = DESK
    fusion: LinearFusionSpec | HierarchicalFusionSpec | None = None
    peft: PeftSpec = PeftSpec()
    train: TrainConfig = TrainConfig()
    pretrain: PretrainConfig = PretrainConfig()
    synth: SynthConfig = SynthConfig()

    def validate(self) -> None:
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; expected one of {PRESETS}")
        try:
            self.model_spec().validate()
            self.train.validate()
            self.pretrain.validate()
            self.synth.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.synth.input_dim != self.encoder.input_dim:
            raise ConfigError(
                f"synth input_dim ({self.synth.input_dim}) must match encoder "
                f"input_dim ({self.encoder.input_dim})"
            )
        if self.train.seed != self.seed or self.pretrain.seed != self.seed:
            raise ConfigError("train/pretrain seeds must mirror the experiment seed")

    def model_spec(self) -> ModelSpec:
        """The downstream model this config trains."""
        return ModelSpec(self.encoder, self.fusion, self.peft, self.synth.vocab)

    def counting_only(self) -> bool:
        return self.preset == "full-counting"


# -- the schema, derived from the dataclasses ---------------------------------


def _keys(cls, skip=()) -> dict[str, object]:
    """One key per field of ``cls`` not in ``skip``, parsed by its annotation."""
    hints = typing.get_type_hints(cls)
    return {f.name: _PARSERS[hints[f.name]]
            for f in dataclasses.fields(cls) if f.name not in skip}


_HINTS = typing.get_type_hints(ExperimentConfig)
# the sections after [experiment], in field order
_SECTIONS = tuple(name for name, hint in _HINTS.items() if hint not in _PARSERS)
_EXPERIMENT_KEYS = _keys(ExperimentConfig, skip=_SECTIONS)

# [fusion] kind picks the spec class, and taps (or num_taps) fill its
# tap_indices; a hierarchical kind is also its variant.
_FUSION_SPECS = {"linear": LinearFusionSpec, "balanced": HierarchicalFusionSpec,
                 "unbalanced": HierarchicalFusionSpec}
_SPEC_KEYS = {cls: _keys(cls, skip=("tap_indices", "variant"))
              for cls in _FUSION_SPECS.values()}
_FUSION_KEYS = {"kind": _str, "taps": _int_list, "num_taps": _int,
                **_SPEC_KEYS[LinearFusionSpec], **_SPEC_KEYS[HierarchicalFusionSpec]}

SCHEMA: dict[str, dict[str, object]] = {
    "experiment": _EXPERIMENT_KEYS,
    **{name: _FUSION_KEYS if name == "fusion" else _keys(_HINTS[name], skip=_EXPERIMENT_KEYS)
       for name in _SECTIONS},
}


def _preset_defaults(preset: str) -> ExperimentConfig:
    if preset == "desk":
        # Averaging horizon of ~300 steps suits the short desk budget;
        # the long-horizon default would barely move in 3k steps.
        return ExperimentConfig(preset="desk", train=TrainConfig(ema_decay=0.997))
    if preset == "full-counting":
        return ExperimentConfig(preset="full-counting", encoder=FULL_SCALE)
    raise ConfigError(f"unknown preset {preset!r}; expected one of {PRESETS}")


def _check_sections(sections: dict[str, dict[str, str]]) -> None:
    for section, keys in sections.items():
        if section not in SCHEMA:
            raise ConfigError(
                f"unknown config section [{section}]; expected one of {sorted(SCHEMA)}"
            )
        for key in keys:
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; "
                    f"expected one of {sorted(SCHEMA[section])}"
                )


def _parsed(sections: dict[str, dict[str, str]], section: str) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, raw in sections.get(section, {}).items():
        parse = SCHEMA[section][key]
        try:
            out[key] = parse(raw)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
    return out


def _build_fusion(raw: dict[str, object], encoder: EncoderConfig):
    if not raw:
        return None
    kind = raw.pop("kind", None)
    if kind is None:
        raise ConfigError("[fusion] section needs a 'kind' (linear, balanced, unbalanced, or none)")
    if kind == "none":
        if raw:
            raise ConfigError(f"[fusion] kind=none takes no other keys, got {sorted(raw)}")
        return None
    if "taps" in raw and "num_taps" in raw:
        raise ConfigError("[fusion] give either 'taps' or 'num_taps', not both")
    if "taps" in raw:
        taps = raw.pop("taps")
    elif "num_taps" in raw:
        try:
            taps = evenly_spaced_taps(encoder.num_layers, raw.pop("num_taps"))
        except ValueError as exc:
            raise ConfigError(f"[fusion] num_taps: {exc}") from None
    else:
        raise ConfigError("[fusion] needs 'taps' (explicit indices) or 'num_taps' (evenly spaced)")
    if kind not in _FUSION_SPECS:
        raise ConfigError(f"unknown fusion kind {kind!r}; expected linear, balanced, unbalanced, or none")
    cls = _FUSION_SPECS[kind]
    bad = [k for k in raw if k not in _SPEC_KEYS[cls]]
    if bad:
        others = "hierarchical kinds" if cls is LinearFusionSpec else "kind=linear"
        raise ConfigError(f"[fusion] keys {bad} only apply to {others}")
    d = encoder.model_dim
    if cls is LinearFusionSpec:
        return LinearFusionSpec(taps, **{"width": d, **raw})
    return HierarchicalFusionSpec(taps, kind, **{"fp_dim": d // 2, "final_dim": d, **raw})


def build_config(sections: dict[str, dict[str, str]],
                 overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Construct and validate a config from raw string sections.

    ``overrides`` maps ``section.key`` paths to raw string values and is
    applied on top (the CLI flags and the sweep driver both funnel
    through here, so every entry point validates identically).
    """
    sections = {s: dict(kv) for s, kv in sections.items()}
    for path, raw in (overrides or {}).items():
        if "." not in path:
            raise ConfigError(f"override {path!r} must look like section.key")
        section, key = path.split(".", 1)
        sections.setdefault(section, {})[key] = raw
    _check_sections(sections)

    exp = _parsed(sections, "experiment")
    base = _preset_defaults(exp.get("preset", "desk"))
    values = {k: exp.get(k, getattr(base, k)) for k in _EXPERIMENT_KEYS}
    for name in _SECTIONS:
        raw = _parsed(sections, name)
        if name == "fusion":
            values[name] = _build_fusion(raw, values["encoder"])
            continue
        if name == "synth":
            # like the fusion widths, a default sized by the encoder
            raw.setdefault("input_dim", values["encoder"].input_dim)
        default = getattr(base, name)
        # [experiment] sets its keys (the seed) in every section that has them
        shared = {k: values[k] for k in _EXPERIMENT_KEYS if hasattr(default, k)}
        values[name] = dataclasses.replace(default, **shared, **raw)
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def _read_ini(path: Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from None
    return {section: dict(parser[section]) for section in parser.sections()}


def load_config(path=None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Load from an INI file (or pure defaults when ``path`` is None)."""
    sections = _read_ini(Path(path)) if path is not None else {}
    return build_config(sections, overrides)


# -- resolved emission -------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _section(values, keys) -> dict[str, str]:
    return {k: _fmt(getattr(values, k)) for k in keys}


def _fusion_section(spec) -> dict[str, str]:
    if spec is None:
        return {"kind": "none"}
    kind = "linear" if isinstance(spec, LinearFusionSpec) else spec.variant
    return {"kind": kind, "taps": _fmt(spec.tap_indices), **_section(spec, _SPEC_KEYS[type(spec)])}


def config_sections(cfg: ExperimentConfig) -> dict[str, dict[str, str]]:
    """The fully resolved config as raw string sections (round-trips
    through ``build_config``)."""
    out = {"experiment": _section(cfg, _EXPERIMENT_KEYS)}
    for name in _SECTIONS:
        values = getattr(cfg, name)
        if name == "fusion":
            out[name] = _fusion_section(values)
        elif name == "peft":
            # adapter settings left empty (zero) are not written, so a
            # non-adapter kind renders ``kind`` alone
            out[name] = {k: v for k, v in _section(values, SCHEMA[name]).items()
                         if getattr(values, k)}
        else:
            out[name] = _section(values, SCHEMA[name])
    return out


def render_config(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    for section, keys in config_sections(cfg).items():
        parser[section] = keys
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_fingerprint(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(render_config(cfg).encode()).hexdigest()
