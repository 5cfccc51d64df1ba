"""Experiment driver: pretraining, the four study families, and sweeps.

Every command materializes its data from (config, seed), writes the
resolved config of what it trained (``resolved.ini``) into its run
directory together with metrics, the seed, and a resource report whose
``config_fingerprint`` is the SHA-256 of that file, prints a summary
table, and returns the rows for programmatic callers.  Every downstream
run (probe bank, fusion variant, strategy, sweep point) takes exactly
``[train] steps`` optimizer steps, and its report's throughput is the
rate of its last logging window.  Existing run directories are never
overwritten, and every artifact file is written atomically, so an
interrupted write leaves no partial file.

Layout under the experiment's ``output_dir``::

    checkpoint.ffck           written by `pretrain`, read by the others
    pretrain/                 loss history and provenance
    probe-layers/             per-layer probe error curve
    fusion-table/<variant>/   one run per fusion head variant, plus table.csv
    comparison/<strategy>/    one run per strategy, plus table.csv and
                              full_scale_reference.csv
    count-params/             analytic reference table (no tensors)
    sweep/<run>/              one run per grid point, plus summary.csv
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import re
from pathlib import Path

import numpy as np

from .accounting import (
    ModelSpec,
    comparison_model_specs,
    reference_table,
    resource_report,
    throughput_environment,
)
from .checkpoint import load_checkpoint, write_atomically
from .config import (
    ConfigError,
    ExperimentConfig,
    build_config,
    config_fingerprint,
    config_sections,
    render_config,
)
from .encoder import FULL_SCALE, build_encoder, check_layers
from .fusion import HierarchicalFusionSpec, LinearFusionSpec, evenly_spaced_taps, layer_weight_norms
from .model import ProbeBank, build_model
from .params import load_state, set_trainable
from .peft import PeftSpec
from .pretrain import pretrain_masked_prediction
from .synth import generate_corpus
from .training import Metrics, evaluate_fer, evaluate_fer_per_tap, train_downstream

__all__ = [
    "MissingArtifactError",
    "cmd_pretrain",
    "cmd_probe_layers",
    "cmd_fusion_table",
    "cmd_comparison",
    "cmd_count_params",
    "cmd_sweep",
    "default_fusion_variants",
]


class MissingArtifactError(RuntimeError):
    """A required earlier-stage output (e.g. a checkpoint) is absent."""


# -- run-directory plumbing --------------------------------------------------


def _require_trainable(cfg: ExperimentConfig) -> None:
    if cfg.counting_only():
        raise ConfigError(
            "preset 'full-counting' is for analytic parameter counting only; "
            "run count-params, or switch the preset to 'desk' to train"
        )


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        raise ConfigError(f"refusing to overwrite existing run directory {path}")
    path.mkdir(parents=True)
    return path


def _checkpoint_file(cfg: ExperimentConfig) -> Path:
    return cfg.output_dir / "checkpoint.ffck"


def _load_pretrained_state(cfg: ExperimentConfig) -> dict[str, np.ndarray]:
    path = _checkpoint_file(cfg)
    if not path.exists():
        raise MissingArtifactError(
            f"no pretrained checkpoint at {path}; run the 'pretrain' subcommand first"
        )
    return load_checkpoint(path)


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9._=+-]+", "-", label.lower()).strip("-")


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomically(path, buf.getvalue().encode())


def _write_reference_csv(path: Path, rows: list[dict]) -> None:
    """The analytic counts against the published full-scale figures."""
    _write_csv(
        path,
        ["label", "computed", "reference", "deviation_pct", "tolerance_pct", "within"],
        [(r["label"], r["computed"], r["reference"], f"{r['deviation_pct']:.2f}",
          "" if r["tolerance_pct"] is None else f"{r['tolerance_pct']:.0f}",
          "" if r["within"] is None else r["within"]) for r in rows],
    )


def _write_metrics(path: Path, history: list[Metrics]) -> None:
    _write_csv(
        path,
        ["step", "loss", "fer", "examples_per_sec"],
        [(m.step, f"{m.loss:.6f}", f"{m.frame_error_rate:.4f}", f"{m.throughput:.2f}")
         for m in history],
    )


def _write_provenance(run_dir: Path, cfg: ExperimentConfig) -> None:
    write_atomically(run_dir / "resolved.ini", render_config(cfg).encode())
    write_atomically(run_dir / "seed.txt", f"{cfg.seed}\n".encode())


def _write_resource_report(run_dir: Path, cfg: ExperimentConfig, spec: ModelSpec,
                           throughput: float | None):
    """Price ``spec`` at ``cfg``'s batch and crop, fingerprinted by the
    ``resolved.ini`` that ``_write_provenance(run_dir, cfg)`` writes."""
    batch, seq_len = cfg.train.batch_size, cfg.train.crop_len
    report = resource_report(spec, batch, seq_len, throughput=throughput)
    payload = dataclasses.asdict(report)
    payload.update(config_fingerprint=config_fingerprint(cfg), batch=batch, seq_len=seq_len,
                   environment=throughput_environment())
    write_atomically(run_dir / "resource_report.json",
                     (json.dumps(payload, indent=2) + "\n").encode())
    return report


def _write_result(run_dir: Path, payload: dict) -> None:
    write_atomically(run_dir / "result.json", (json.dumps(payload, indent=2) + "\n").encode())


def _print_table(headers, rows) -> None:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    head = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(head)
    print("-" * len(head))
    for row in cells:
        print("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))


def _run_training(cfg: ExperimentConfig, run_dir: Path, state: dict[str, np.ndarray] | None,
                  train_set, test_set):
    """Train the model ``cfg`` describes for exactly ``[train] steps``,
    evaluate it, and write the run's ``resolved.ini``, ``metrics.csv`` and
    ``resource_report.json``, whose throughput is the rate of the last
    logging window.  Returns ``(model, history, fer, report)``.
    """
    spec = cfg.model_spec()
    model = build_model(spec, cfg.seed, state)
    history = train_downstream(model, train_set, cfg.train)
    fer = evaluate_fer(model, test_set)
    _write_provenance(run_dir, cfg)
    _write_metrics(run_dir / "metrics.csv", history)
    report = _write_resource_report(run_dir, cfg, spec, history[-1].throughput)
    return model, history, fer, report


# -- the pretraining stage ---------------------------------------------------


def cmd_pretrain(cfg: ExperimentConfig) -> dict:
    """Pretrain the encoder on the unlabeled split; writes the checkpoint
    every later command consumes."""
    _require_trainable(cfg)
    ckpt = _checkpoint_file(cfg)
    run_dir = cfg.output_dir / "pretrain"
    if ckpt.exists():
        raise ConfigError(f"refusing to overwrite existing checkpoint {ckpt}")
    if run_dir.exists():
        raise ConfigError(f"refusing to overwrite existing run directory {run_dir}")
    corpus = generate_corpus(cfg.synth, cfg.seed, "pretrain")
    encoder = build_encoder(cfg.encoder, cfg.seed)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    losses = pretrain_masked_prediction(encoder, corpus, cfg.pretrain, ckpt)
    run_dir.mkdir(parents=True)
    _write_provenance(run_dir, cfg)
    _write_csv(run_dir / "losses.csv", ["step", "loss"],
               [(i + 1, f"{v:.6f}") for i, v in enumerate(losses)])
    gate = cfg.pretrain.gate_window
    first = float(np.mean(losses[:gate]))
    last = float(np.mean(losses[-gate:]))
    summary = {
        "checkpoint": str(ckpt),
        "steps": len(losses),
        "first_window_loss": first,
        "last_window_loss": last,
        "loss_drop_pct": 100.0 * (first - last) / first,
    }
    _write_result(run_dir, summary)
    _print_table(["steps", "first window loss", "last window loss", "drop"],
                 [[len(losses), f"{first:.4f}", f"{last:.4f}",
                   f"{summary['loss_drop_pct']:.1f}%"]])
    return summary


# -- per-layer probes ----------------------------------------------------------


def cmd_probe_layers(cfg: ExperimentConfig, taps=None) -> list[dict]:
    """Train one frozen-encoder linear probe per tap and report test error
    per layer (the feature-quality-by-depth curve)."""
    _require_trainable(cfg)
    num_layers = cfg.encoder.num_layers
    taps = tuple(range(num_layers)) if taps is None else tuple(int(t) for t in taps)
    try:
        check_layers(taps, num_layers, "probe taps")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    state = _load_pretrained_state(cfg)
    run_dir = _fresh_dir(cfg.output_dir / "probe-layers")
    # The probes read a bare frozen encoder, whatever [fusion] and [peft] say.
    run_cfg = dataclasses.replace(cfg, fusion=None, peft=PeftSpec())

    encoder = build_encoder(cfg.encoder, cfg.seed)
    load_state(encoder, state, prefix="encoder")
    set_trainable(encoder, "**", False)
    bank = ProbeBank(encoder, taps, cfg.synth.vocab, cfg.seed)
    train_set = generate_corpus(cfg.synth, cfg.seed, "train")
    test_set = generate_corpus(cfg.synth, cfg.seed, "test")
    history = train_downstream(bank, train_set, cfg.train)
    fers = evaluate_fer_per_tap(bank, test_set)

    rows = [{"layer": tap, "fer": fers[tap]} for tap in taps]
    _write_provenance(run_dir, run_cfg)
    _write_metrics(run_dir / "metrics.csv", history)
    table = [(tap, f"{fers[tap]:.4f}") for tap in taps]
    _write_csv(run_dir / "layer_fer.csv", ["layer", "fer"], table)
    # The costing spec covers a single probe; report the deepest one,
    # which dominates the shared forward.
    deepest = dataclasses.replace(run_cfg.model_spec(), probe_tap=taps[-1])
    _write_resource_report(run_dir, run_cfg, deepest, history[-1].throughput)
    _write_result(run_dir, {"layer_fer": {str(t): fers[t] for t in taps}})
    _print_table(["layer", "test fer"], [[t, f"{fers[t]:.4f}"] for t in taps])
    return rows


# -- fusion head comparison ----------------------------------------------------


def default_fusion_variants(encoder_cfg) -> dict[str, object]:
    """Tap-count sweep, projector-depth sweep, and both hierarchical
    variants, all over the frozen encoder."""
    num_layers, dim = encoder_cfg.num_layers, encoder_cfg.model_dim
    all_taps = evenly_spaced_taps(num_layers, num_layers)
    out: dict[str, object] = {}
    for n in (1, 2, 4, num_layers):
        if n <= num_layers:
            label = f"linear {n} tap" + ("s" if n > 1 else "")
            out.setdefault(label, LinearFusionSpec(evenly_spaced_taps(num_layers, n),
                                                   depth=1, width=dim))
    for depth in (2, 3, 4):
        out[f"linear {num_layers} taps depth {depth}"] = LinearFusionSpec(
            all_taps, depth=depth, width=dim)
    if num_layers >= 3:  # the tree heads need at least three taps
        for variant in ("balanced", "unbalanced"):
            out[f"hierarchical {variant}"] = HierarchicalFusionSpec(
                all_taps, variant, fp_dim=dim // 2, final_dim=dim, final_depth=3)
    return out


def cmd_fusion_table(cfg: ExperimentConfig, variants=None) -> list[dict]:
    """Train each fusion head variant (``variants`` maps labels to fusion
    specs) over the frozen pretrained encoder; emits (variant, head params,
    error) rows plus per-layer weight norms for the linear variants."""
    _require_trainable(cfg)
    if variants is None:
        variants = default_fusion_variants(cfg.encoder)
    state = _load_pretrained_state(cfg)
    base_dir = _fresh_dir(cfg.output_dir / "fusion-table")
    train_set = generate_corpus(cfg.synth, cfg.seed, "train")
    test_set = generate_corpus(cfg.synth, cfg.seed, "test")

    rows: list[dict] = []
    norm_rows: list[tuple] = []
    for label, fspec in variants.items():
        run_dir = _fresh_dir(base_dir / _slug(label))
        run_cfg = dataclasses.replace(cfg, fusion=fspec, peft=PeftSpec())
        model, _, fer, _ = _run_training(run_cfg, run_dir, state, train_set, test_set)
        rows.append({"variant": label, "head_params": model.head.num_params(), "fer": fer})
        if isinstance(fspec, LinearFusionSpec):
            for tap, norm in layer_weight_norms(model.head):
                norm_rows.append((label, tap, f"{norm:.6f}"))
        _write_result(run_dir, rows[-1])

    _write_csv(base_dir / "table.csv", ["variant", "head_params", "fer"],
               [(r["variant"], r["head_params"], f"{r['fer']:.4f}") for r in rows])
    if norm_rows:
        _write_csv(base_dir / "weight_norms.csv", ["variant", "layer", "weight_norm"], norm_rows)
    _print_table(["variant", "head params", "test fer"],
                 [[r["variant"], f"{r['head_params']:,}", f"{r['fer']:.4f}"] for r in rows])
    return rows


# -- strategy comparison -------------------------------------------------------


def cmd_comparison(cfg: ExperimentConfig) -> list[dict]:
    """Head-to-head run of the eight tuning strategies with measured cost
    columns, plus the analytic full-scale reference counts."""
    _require_trainable(cfg)
    bottleneck = (cfg.peft.bottleneck_dim if cfg.peft.kind == "adapter"
                  else max(cfg.encoder.model_dim // 4, 1))
    specs = comparison_model_specs(cfg.encoder, cfg.synth.vocab, bottleneck)
    state = _load_pretrained_state(cfg)
    base_dir = _fresh_dir(cfg.output_dir / "comparison")
    train_set = generate_corpus(cfg.synth, cfg.seed, "train")
    test_set = generate_corpus(cfg.synth, cfg.seed, "test")

    rows: list[dict] = []
    for label, spec in specs.items():
        run_dir = _fresh_dir(base_dir / _slug(label))
        # Full fine-tuning moves every weight; it needs a gentler step.
        lr_factor = 0.1 if spec.peft.kind == "full" else 1.0
        row_train = dataclasses.replace(
            cfg.train, learning_rate=cfg.train.learning_rate * lr_factor)
        run_cfg = dataclasses.replace(cfg, fusion=spec.fusion, peft=spec.peft, train=row_train)
        model, _, fer, report = _run_training(run_cfg, run_dir, state, train_set, test_set)
        rows.append({
            "strategy": label,
            "encoder_params": model.encoder.num_params(trainable_only=True),
            "head_params": 0 if model.head is None else model.head.num_params(trainable_only=True),
            "activation_bytes": report.activation_bytes,
            "examples_per_sec": report.throughput,
            "fer": fer,
        })
        _write_result(run_dir, rows[-1])

    _write_csv(
        base_dir / "table.csv",
        ["strategy", "encoder_params", "head_params", "activation_bytes",
         "examples_per_sec", "fer"],
        [(r["strategy"], r["encoder_params"], r["head_params"], r["activation_bytes"],
          f"{r['examples_per_sec']:.2f}", f"{r['fer']:.4f}") for r in rows],
    )
    _write_reference_csv(base_dir / "full_scale_reference.csv", reference_table(FULL_SCALE))
    _print_table(
        ["strategy", "enc params", "head params", "act bytes", "ex/s", "test fer"],
        [[r["strategy"], f"{r['encoder_params']:,}", f"{r['head_params']:,}",
          f"{r['activation_bytes']:,}", f"{r['examples_per_sec']:.2f}",
          f"{r['fer']:.4f}"] for r in rows],
    )
    return rows


# -- analytic counting ---------------------------------------------------------


def cmd_count_params(cfg: ExperimentConfig) -> list[dict]:
    """Analytic parameter counts against the published reference counts;
    allocates no tensors and runs in well under a second."""
    target = cfg.encoder if cfg.counting_only() else FULL_SCALE
    rows = reference_table(target)
    run_dir = _fresh_dir(cfg.output_dir / "count-params")
    _write_provenance(run_dir, cfg)
    _write_reference_csv(run_dir / "reference_counts.csv", rows)
    _print_table(
        ["configuration", "computed", "reference", "deviation", "within tol"],
        [[r["label"], f"{r['computed']:,}", f"{r['reference']:,}",
          f"{r['deviation_pct']:+.2f}%",
          "n/a" if r["within"] is None else ("yes" if r["within"] else "NO")]
         for r in rows],
    )
    return rows


# -- sweeps --------------------------------------------------------------------


def cmd_sweep(cfg: ExperimentConfig, grid: dict[str, list]) -> list[dict]:
    """Cartesian-product runs over config overrides.

    Every run config is built before anything executes, which validates
    the grid's keys and values.
    The pretrained checkpoint is reused for runs whose encoder geometry
    matches the base config; otherwise the run starts from random
    initialization.
    """
    _require_trainable(cfg)
    grid = {key: list(values) for key, values in grid.items()}
    for key, values in grid.items():
        if key == "experiment.output_dir":
            raise ConfigError("cannot sweep experiment.output_dir; run directories derive from it")
        if not values:
            raise ConfigError(f"grid key {key!r} has an empty value list")
    sweep_root = cfg.output_dir / "sweep"
    if sweep_root.exists():
        raise ConfigError(f"refusing to overwrite existing sweep directory {sweep_root}")

    base_sections = config_sections(cfg)
    keys = list(grid)
    planned = []
    for i, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        overrides = {k: str(v) for k, v in zip(keys, combo)}
        run_cfg = build_config(base_sections, overrides)
        parts = "_".join(f"{k.split('.', 1)[1]}={v}" for k, v in overrides.items())
        slug = f"run_{i:03d}" + (f"_{_slug(parts)}" if parts else "")
        planned.append((slug, overrides, run_cfg))

    ckpt = _checkpoint_file(cfg)
    state = load_checkpoint(ckpt) if ckpt.exists() else None
    sweep_root.mkdir(parents=True)
    summary: list[dict] = []
    for slug, overrides, run_cfg in planned:
        run_dir = _fresh_dir(sweep_root / slug)
        run_state = state if run_cfg.encoder == cfg.encoder else None
        train_set = generate_corpus(run_cfg.synth, run_cfg.seed, "train")
        test_set = generate_corpus(run_cfg.synth, run_cfg.seed, "test")
        _, history, fer, _ = _run_training(run_cfg, run_dir, run_state, train_set, test_set)
        result = {"final_loss": history[-1].loss, "fer": fer}
        _write_result(run_dir, result)
        summary.append({"run": slug, **overrides, **result})

    _write_csv(
        sweep_root / "summary.csv",
        ["run", *keys, "final_loss", "fer"],
        [(s["run"], *(s[k] for k in keys), f"{s['final_loss']:.6f}", f"{s['fer']:.4f}")
         for s in summary],
    )
    _print_table(["run", *keys, "final loss", "test fer"],
                 [[s["run"], *(s[k] for k in keys), f"{s['final_loss']:.4f}",
                   f"{s['fer']:.4f}"] for s in summary])
    return summary
