"""Experiment drivers: artifact layout, provenance, checkpoint reuse, and
the programmatic row output of each command."""

import collections
import csv
import dataclasses
import hashlib
import json
import shutil
import time

import pytest

import fusionlab.experiments as experiments
from fusionlab.accounting import (
    ModelSpec,
    count_model_trainable_params,
    count_trainable_params,
    reference_table,
    resource_report,
)
from fusionlab.config import ConfigError, build_config, load_config
from fusionlab.encoder import FULL_SCALE
from fusionlab.experiments import (
    MissingArtifactError,
    cmd_comparison,
    cmd_count_params,
    cmd_fusion_table,
    cmd_pretrain,
    cmd_probe_layers,
    cmd_sweep,
    default_fusion_variants,
)
from fusionlab.fusion import HierarchicalFusionSpec, LinearFusionSpec
from fusionlab.model import build_model
from fusionlab.peft import PeftSpec
from fusionlab.training import Trainer

TINY_SECTIONS = {
    "experiment": {"preset": "desk", "seed": "0"},
    "encoder": {"num_layers": "3", "model_dim": "16", "num_heads": "2",
                "ffn_expansion": "2", "conv_kernel": "3", "input_dim": "8"},
    "synth": {"vocab": "5", "frames_per_symbol": "4,8", "utterance_len": "8,16",
              "pretrain_utterances": "8", "train_utterances": "8",
              "test_utterances": "4"},
    "pretrain": {"steps": "60", "batch_size": "2", "crop_len": "16",
                 "gate_window": "10", "min_loss_drop": "0.0",
                 "codebook_size": "8", "code_dim": "4",
                 "learning_rate": "0.005", "warmup_steps": "5"},
    "train": {"steps": "6", "batch_size": "2", "crop_len": "16",
              "warmup_steps": "2", "log_every": "3"},
}


def tiny_config(out_dir, **overrides):
    merged = {"experiment.output_dir": str(out_dir), **overrides}
    return build_config(TINY_SECTIONS, merged)


def report_of(run):
    """A run's resource report, checked to fingerprint the resolved.ini
    beside it."""
    payload = json.loads((run / "resource_report.json").read_text())
    digest = hashlib.sha256((run / "resolved.ini").read_bytes()).hexdigest()
    assert payload["config_fingerprint"] == digest
    return payload


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """One tiny pretrained checkpoint shared by the whole module."""
    root = tmp_path_factory.mktemp("pretrained")
    cfg = tiny_config(root / "lab")
    cmd_pretrain(cfg)
    return root / "lab" / "checkpoint.ffck"


@pytest.fixture
def lab(tmp_path, pretrained):
    """Fresh output dir seeded with the shared checkpoint."""
    out = tmp_path / "lab"
    out.mkdir()
    shutil.copy(pretrained, out / "checkpoint.ffck")
    return out


def test_pretrain_writes_provenance_and_summary(tmp_path):
    cfg = tiny_config(tmp_path / "lab")
    summary = cmd_pretrain(cfg)
    run = tmp_path / "lab" / "pretrain"
    assert summary["steps"] == 60
    assert summary["loss_drop_pct"] >= 0.0
    assert (tmp_path / "lab" / "checkpoint.ffck").exists()
    assert (run / "seed.txt").read_text() == "0\n"
    saved = json.loads((run / "result.json").read_text())
    assert saved["loss_drop_pct"] == summary["loss_drop_pct"]
    resolved = (run / "resolved.ini").read_text()
    assert "[encoder]" in resolved and "num_layers = 3" in resolved


def test_commands_require_checkpoint(tmp_path):
    cfg = tiny_config(tmp_path / "lab")
    for cmd in (cmd_probe_layers, cmd_fusion_table, cmd_comparison):
        with pytest.raises(MissingArtifactError):
            cmd(cfg)


def test_counting_preset_refuses_training_commands(tmp_path):
    cfg = tiny_config(tmp_path / "lab", **{"experiment.preset": "full-counting"})
    with pytest.raises(ConfigError):
        cmd_pretrain(cfg)
    with pytest.raises(ConfigError):
        cmd_probe_layers(cfg)


def test_count_params_is_pure_fast_and_matches_reference(tmp_path):
    cfg = tiny_config(tmp_path / "lab")
    t0 = time.perf_counter()
    rows = cmd_count_params(cfg)
    assert time.perf_counter() - t0 < 1.0
    assert rows == reference_table(FULL_SCALE)
    run = tmp_path / "lab" / "count-params"
    assert sorted(p.name for p in run.iterdir()) == [
        "reference_counts.csv", "resolved.ini", "seed.txt"
    ]
    gated = [r for r in rows if r["within"] is not None]
    assert gated and all(r["within"] for r in gated)


def test_probe_layers_rows_artifacts_and_costing(lab):
    cfg = tiny_config(lab)
    rows = cmd_probe_layers(cfg, taps=(0, 1))
    assert [r["layer"] for r in rows] == [0, 1]
    assert all(0.0 <= r["fer"] <= 1.0 for r in rows)
    run = lab / "probe-layers"
    assert (run / "metrics.csv").exists()
    assert (run / "layer_fer.csv").read_text().splitlines()[0] == "layer,fer"

    # the emitted cost numbers describe a probe of the deepest requested tap
    payload = report_of(run)
    deepest = ModelSpec(cfg.encoder, None, PeftSpec(), cfg.synth.vocab, probe_tap=1)
    expected = dataclasses.asdict(
        resource_report(deepest, cfg.train.batch_size, cfg.train.crop_len))
    for key in ("trainable_params", "frozen_params", "activation_bytes",
                "forward_flops", "backward_flops"):
        assert payload[key] == expected[key]
    assert payload["batch"] == cfg.train.batch_size

    with pytest.raises(ConfigError):
        cmd_probe_layers(cfg, taps=(0, 1))  # run directory already exists


def test_default_fusion_variants_cover_the_study(pretrained):
    cfg = tiny_config(pretrained.parent)
    variants = default_fusion_variants(cfg.encoder)
    # tap sweep (deduplicated when num_layers is small), depth sweep, both trees
    assert "linear 1 tap" in variants and "linear 2 taps" in variants
    assert {f"linear 3 taps depth {d}" for d in (2, 3, 4)} <= set(variants)
    hier = {k: v for k, v in variants.items() if isinstance(v, HierarchicalFusionSpec)}
    assert {v.variant for v in hier.values()} == {"balanced", "unbalanced"}
    for spec in variants.values():
        spec.validate(cfg.encoder.num_layers)
    # encoders too shallow for a tree omit the hierarchical variants
    shallow = default_fusion_variants(dataclasses.replace(cfg.encoder, num_layers=2))
    assert not any(isinstance(v, HierarchicalFusionSpec) for v in shallow.values())
    for spec in shallow.values():
        spec.validate(2)


def test_fusion_table_trains_each_variant(lab):
    cfg = tiny_config(lab)
    variants = {
        "linear pair": LinearFusionSpec((0, 1), depth=1, width=16),
        "tree": HierarchicalFusionSpec((0, 1, 2), "balanced", fp_dim=8,
                                       final_dim=16, final_depth=2),
    }
    rows = cmd_fusion_table(cfg, variants=variants)
    assert [r["variant"] for r in rows] == ["linear pair", "tree"]
    base = lab / "fusion-table"
    table = (base / "table.csv").read_text().strip().splitlines()
    assert len(table) == 3

    # weight norms are emitted for the linear variant only
    norms = (base / "weight_norms.csv").read_text().strip().splitlines()
    assert norms[0] == "variant,layer,weight_norm"
    assert {row.split(",")[0] for row in norms[1:]} == {"linear pair"}
    assert [row.split(",")[1] for row in norms[1:]] == ["0", "1"]
    assert all(float(row.split(",")[2]) >= 0.0 for row in norms[1:])

    # per-variant provenance records the variant's own fusion section
    resolved = (base / "linear-pair" / "resolved.ini").read_text()
    assert "kind = linear" in resolved
    resolved = (base / "tree" / "resolved.ini").read_text()
    assert "kind = balanced" in resolved and "taps = 0,1,2" in resolved
    for variant in ("linear-pair", "tree"):
        report_of(base / variant)


def test_runs_record_the_config_they_trained(lab):
    """fusion-table and probe-layers train no adapters whatever [peft] says,
    so their provenance must say peft kind none and price what ran."""
    cfg = tiny_config(lab, **{
        "peft.kind": "adapter", "peft.adapter_layers": "1,2", "peft.bottleneck_dim": "4",
        "fusion.kind": "linear", "fusion.taps": "0,2",
    })
    cmd_probe_layers(cfg, taps=(0, 1))
    cmd_fusion_table(cfg, variants={
        "linear pair": LinearFusionSpec((0, 1), depth=1, width=16),
        "tree": HierarchicalFusionSpec((0, 1, 2), "balanced", fp_dim=8,
                                       final_dim=16, final_depth=2),
    })
    runs = [lab / "probe-layers", lab / "fusion-table" / "linear-pair",
            lab / "fusion-table" / "tree"]
    for run in runs:
        assert "[peft]\nkind = none\n" in (run / "resolved.ini").read_text()
        trained = load_config(run / "resolved.ini")
        assert trained.peft == PeftSpec()
        assert report_of(run)["trainable_params"] == count_model_trainable_params(
            trained.model_spec())
    assert load_config(runs[0] / "resolved.ini").fusion is None


def test_comparison_runs_all_strategies(lab):
    cfg = tiny_config(lab)
    rows = cmd_comparison(cfg)
    labels = [r["strategy"] for r in rows]
    assert labels[0] == "full fine-tuning"
    assert len(labels) == 8
    assert "hierarchical fusion + adapters (all layers)" in labels
    for row in rows:
        assert 0.0 <= row["fer"] <= 1.0
        assert row["examples_per_sec"] > 0
        assert row["activation_bytes"] > 0
        # head params count the fusion head; the constant classifier is
        # excluded so rows stay comparable
        fusion_row = "fusion" in row["strategy"]
        assert (row["head_params"] > 0) == fusion_row
    by_label = {r["strategy"]: r for r in rows}
    assert by_label["full fine-tuning"]["encoder_params"] > 0
    assert by_label["hierarchical fusion"]["encoder_params"] == 0

    base = lab / "comparison"
    for row in rows:
        # the live counts in each row equal the analytic walk of the
        # config the run recorded
        spec = load_config(base / experiments._slug(row["strategy"]) / "resolved.ini").model_spec()
        assert (row["encoder_params"], row["head_params"]) == count_trainable_params(
            spec.encoder, spec.fusion, spec.peft)
    assert (base / "table.csv").exists()
    reference = (base / "full_scale_reference.csv").read_text().strip().splitlines()
    assert len(reference) == 1 + len(reference_table(FULL_SCALE))
    run_dirs = [p for p in base.iterdir() if p.is_dir()]
    assert len(run_dirs) == 8
    for run in run_dirs:
        report_of(run)
        assert (run / "metrics.csv").exists()


def test_comparison_trains_each_strategy_exactly_its_steps(lab, monkeypatch):
    """No strategy trains beyond [train] steps, and the throughput each
    report prices is the rate of that run's last logging window."""
    cfg = tiny_config(lab)
    steps = collections.Counter()
    running = []
    real_run, real_step = experiments._run_training, Trainer.step

    def recording_run(run_cfg, run_dir, *args, **kwargs):
        running.append(run_dir.name)
        return real_run(run_cfg, run_dir, *args, **kwargs)

    def counting_step(self):
        steps[running[-1]] += 1
        return real_step(self)

    monkeypatch.setattr(experiments, "_run_training", recording_run)
    monkeypatch.setattr(Trainer, "step", counting_step)
    cmd_comparison(cfg)
    assert len(running) == 8
    assert steps == {run: cfg.train.steps for run in running}
    for run in running:
        with open(lab / "comparison" / run / "metrics.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert int(last["step"]) == cfg.train.steps
        assert f"{report_of(lab / 'comparison' / run)['throughput']:.2f}" == last["examples_per_sec"]


def test_sweep_reuses_checkpoint_only_for_matching_encoder(lab, monkeypatch):
    cfg = tiny_config(lab)
    seen = []

    def recording_build_model(spec, seed, state=None):
        seen.append((spec.encoder.model_dim, state is not None))
        return build_model(spec, seed, state)

    monkeypatch.setattr(experiments, "build_model", recording_build_model)
    summary = cmd_sweep(cfg, {"encoder.model_dim": ["16", "32"]})
    assert len(summary) == 2
    assert seen == [(16, True), (32, False)]

    lines = (lab / "sweep" / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == "run,encoder.model_dim,final_loss,fer"
    assert len(lines) == 3
    for s in summary:
        report_of(lab / "sweep" / s["run"])


def test_sweep_validates_grid_before_creating_anything(lab):
    cfg = tiny_config(lab)
    with pytest.raises(ConfigError):
        cmd_sweep(cfg, {"train.bogus": ["1"]})
    with pytest.raises(ConfigError):
        cmd_sweep(cfg, {"steps": ["1"]})
    with pytest.raises(ConfigError):
        cmd_sweep(cfg, {"experiment.output_dir": ["elsewhere"]})
    with pytest.raises(ConfigError):
        cmd_sweep(cfg, {"train.steps": []})
    # an invalid VALUE for a valid key is caught while planning, before runs
    with pytest.raises(ConfigError):
        cmd_sweep(cfg, {"train.steps": ["2", "oops"]})
    assert not (lab / "sweep").exists()


def test_failed_artifact_writes_keep_the_old_files(tmp_path, monkeypatch):
    from pathlib import Path

    cfg = tiny_config(tmp_path / "lab")
    experiments._write_csv(tmp_path / "table.csv", ["step", "loss"], [(1, "0.5")])
    experiments._write_result(tmp_path, {"loss": 0.5})
    experiments._write_provenance(tmp_path, cfg)
    experiments._write_resource_report(tmp_path, cfg, cfg.model_spec(), None)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["resolved.ini", "resource_report.json", "result.json",
                              "seed.txt", "table.csv"]

    def torn_write(self, data):
        with open(self, "wb") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    changed = tiny_config(tmp_path / "other", **{"experiment.seed": "5"})
    writers = [
        lambda: experiments._write_csv(tmp_path / "table.csv", ["step"], [(2,)] * 50),
        lambda: experiments._write_result(tmp_path, {"rows": [2] * 50}),
        lambda: experiments._write_provenance(tmp_path, changed),
        lambda: experiments._write_resource_report(
            tmp_path, changed, changed.model_spec(), None),
    ]
    monkeypatch.setattr(Path, "write_bytes", torn_write)
    for write in writers:
        with pytest.raises(OSError, match="disk full"):
            write()
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
