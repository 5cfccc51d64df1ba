"""Experiment configuration as strict, diff-able INI text.

A config file has up to seven sections; every key is typed and checked,
and unknown sections or keys are hard errors so a typo cannot silently
fall back to a default.  The keys of ``[encoder]``, ``[train]``,
``[pretrain]`` and ``[synth]`` are the fields of their config dataclass
(minus ``seed``, which ``[experiment]`` sets for all of them).
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
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


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


_PARSERS = {int: _int, float: _float, tuple: _int_pair}


def _fields_schema(cls) -> dict[str, object]:
    """One key per dataclass field but ``seed``, parsed by its default's type."""
    return {f.name: _PARSERS[type(f.default)]
            for f in dataclasses.fields(cls) if f.name != "seed"}


SCHEMA: dict[str, dict[str, object]] = {
    "experiment": {"preset": _str, "output_dir": _str, "seed": _int},
    "encoder": _fields_schema(EncoderConfig),
    "fusion": {
        "kind": _str, "taps": _int_list, "num_taps": _int, "depth": _int,
        "width": _int, "fp_dim": _int, "final_dim": _int, "final_depth": _int,
    },
    "peft": {"kind": _str, "adapter_layers": _int_list, "bottleneck_dim": _int},
    "train": _fields_schema(TrainConfig),
    "pretrain": _fields_schema(PretrainConfig),
    "synth": _fields_schema(SynthConfig),
}

_LINEAR_ONLY = ("depth", "width")
_HIER_ONLY = ("fp_dim", "final_dim", "final_depth")


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


def _build_fusion(sections, num_layers: int, model_dim: int):
    raw = _parsed(sections, "fusion")
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
        taps = evenly_spaced_taps(num_layers, raw.pop("num_taps"))
    else:
        raise ConfigError("[fusion] needs 'taps' (explicit indices) or 'num_taps' (evenly spaced)")
    if kind == "linear":
        bad = [k for k in raw if k in _HIER_ONLY]
        if bad:
            raise ConfigError(f"[fusion] keys {bad} only apply to hierarchical kinds")
        return LinearFusionSpec(tuple(taps), depth=raw.get("depth", 1),
                                width=raw.get("width", model_dim))
    if kind in ("balanced", "unbalanced"):
        bad = [k for k in raw if k in _LINEAR_ONLY]
        if bad:
            raise ConfigError(f"[fusion] keys {bad} only apply to kind=linear")
        return HierarchicalFusionSpec(
            tuple(taps), kind,
            fp_dim=raw.get("fp_dim", model_dim // 2),
            final_dim=raw.get("final_dim", model_dim),
            final_depth=raw.get("final_depth", 3),
        )
    raise ConfigError(f"unknown fusion kind {kind!r}; expected linear, balanced, unbalanced, or none")


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
    preset = exp.get("preset", "desk")
    base = _preset_defaults(preset)
    seed = exp.get("seed", base.seed)

    encoder = dataclasses.replace(base.encoder, **_parsed(sections, "encoder"))
    fusion = _build_fusion(sections, encoder.num_layers, encoder.model_dim)
    peft_raw = _parsed(sections, "peft")
    if "adapter_layers" in peft_raw:
        peft_raw["adapter_layers"] = tuple(peft_raw["adapter_layers"])
    peft = dataclasses.replace(base.peft, **peft_raw)
    train = dataclasses.replace(base.train, seed=seed, **_parsed(sections, "train"))
    pretrain = dataclasses.replace(base.pretrain, seed=seed, **_parsed(sections, "pretrain"))
    synth_raw = _parsed(sections, "synth")
    synth_raw.setdefault("input_dim", encoder.input_dim)
    synth = dataclasses.replace(base.synth, **synth_raw)
    cfg = ExperimentConfig(
        preset=preset,
        output_dir=Path(exp.get("output_dir", base.output_dir)),
        seed=seed,
        encoder=encoder,
        fusion=fusion,
        peft=peft,
        train=train,
        pretrain=pretrain,
        synth=synth,
    )
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


def _fields_section(cfg: ExperimentConfig, section: str) -> dict[str, str]:
    values = getattr(cfg, section)
    return {k: _fmt(getattr(values, k)) for k in SCHEMA[section]}


def config_sections(cfg: ExperimentConfig) -> dict[str, dict[str, str]]:
    """The fully resolved config as raw string sections (round-trips
    through ``build_config``)."""
    out: dict[str, dict[str, str]] = {
        "experiment": {
            "preset": cfg.preset,
            "output_dir": str(cfg.output_dir),
            "seed": str(cfg.seed),
        },
        "encoder": _fields_section(cfg, "encoder"),
    }
    if cfg.fusion is None:
        out["fusion"] = {"kind": "none"}
    elif isinstance(cfg.fusion, LinearFusionSpec):
        out["fusion"] = {
            "kind": "linear",
            "taps": _fmt(cfg.fusion.tap_indices),
            "depth": str(cfg.fusion.depth),
            "width": str(cfg.fusion.width),
        }
    else:
        out["fusion"] = {
            "kind": cfg.fusion.variant,
            "taps": _fmt(cfg.fusion.tap_indices),
            "fp_dim": str(cfg.fusion.fp_dim),
            "final_dim": str(cfg.fusion.final_dim),
            "final_depth": str(cfg.fusion.final_depth),
        }
    out["peft"] = {"kind": cfg.peft.kind}
    if cfg.peft.kind == "adapter":
        out["peft"]["adapter_layers"] = _fmt(cfg.peft.adapter_layers)
        out["peft"]["bottleneck_dim"] = str(cfg.peft.bottleneck_dim)
    for section in ("train", "pretrain", "synth"):
        out[section] = _fields_section(cfg, section)
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
