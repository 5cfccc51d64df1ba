"""Command-line surface: exit codes, flag handling, and the artifacts each
subcommand leaves behind.  Everything runs on a deliberately tiny model so
the whole file stays fast."""

import numpy as np
import pytest

from fusionlab.cli import EXIT_CONFIG, EXIT_GATE, EXIT_OK, EXIT_RUNTIME, main
from fusionlab.config import load_config

TINY_INI = """\
[experiment]
preset = desk
output_dir = {out}
seed = 0

[encoder]
num_layers = 2
model_dim = 16
num_heads = 2
ffn_expansion = 2
conv_kernel = 3
input_dim = 8

[synth]
vocab = 5
frames_per_symbol = 4,8
utterance_len = 8,16
pretrain_utterances = 8
train_utterances = 8
test_utterances = 4

[pretrain]
steps = 60
batch_size = 2
crop_len = 16
gate_window = 10
min_loss_drop = 0.0
codebook_size = 8
code_dim = 4
learning_rate = 0.005
warmup_steps = 5

[train]
steps = 6
batch_size = 2
crop_len = 16
warmup_steps = 2
log_every = 3
"""


@pytest.fixture
def tiny_config(tmp_path):
    out = tmp_path / "lab"
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI.format(out=out))
    return path, out


def test_count_params_succeeds_and_writes_reference_table(tmp_path, capsys):
    out = tmp_path / "counts"
    assert main(["--out", str(out), "count-params"]) == EXIT_OK
    run_dir = out / "count-params"
    assert (run_dir / "reference_counts.csv").exists()
    assert (run_dir / "resolved.ini").exists()
    assert (run_dir / "seed.txt").read_text().strip() == "0"
    stdout = capsys.readouterr().out
    assert "configuration" in stdout and "reference" in stdout


def test_usage_errors_exit_1(capsys):
    assert main([]) == EXIT_CONFIG                      # missing subcommand
    assert main(["no-such-command"]) == EXIT_CONFIG
    assert main(["--preset", "bogus", "count-params"]) == EXIT_CONFIG
    # global flags belong before the subcommand
    assert main(["count-params", "--seed", "3"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path):
    missing = tmp_path / "nowhere.ini"
    assert main(["--config", str(missing), "count-params"]) == EXIT_CONFIG


def test_bad_probe_taps_exit_1(tiny_config):
    path, _ = tiny_config
    assert main(["--config", str(path), "probe-layers", "--taps", "a,b"]) == EXIT_CONFIG
    assert main(["--config", str(path), "probe-layers", "--taps", "0,9"]) == EXIT_CONFIG
    assert main(["--config", str(path), "probe-layers", "--taps", "1,0"]) == EXIT_CONFIG


@pytest.mark.parametrize("num_taps", ["6", "0"])
def test_num_taps_outside_the_stack_exits_1(tmp_path, capsys, num_taps):
    path = tmp_path / "taps.ini"
    path.write_text(f"[encoder]\nnum_layers = 4\n\n[fusion]\nkind = balanced\nnum_taps = {num_taps}\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "counts"), "count-params"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: [fusion] num_taps: cannot pick {num_taps} taps from 4 layers" in err


def test_non_finite_learning_rate_exits_1_before_training(tiny_config, capsys):
    path, out = tiny_config
    path.write_text(path.read_text().replace("learning_rate = 0.005", "learning_rate = nan"))
    assert main(["--config", str(path), "pretrain"]) == EXIT_CONFIG
    assert "config error: [pretrain] learning_rate: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_probe_without_checkpoint_exits_2(tiny_config, capsys):
    path, _ = tiny_config
    assert main(["--config", str(path), "probe-layers"]) == EXIT_RUNTIME
    assert "pretrain" in capsys.readouterr().err


def test_failed_pretrain_gate_exits_3_and_saves_nothing(tmp_path, capsys):
    out = tmp_path / "lab"
    path = tmp_path / "gated.ini"
    path.write_text(TINY_INI.format(out=out).replace(
        "min_loss_drop = 0.0", "min_loss_drop = 0.95"))
    assert main(["--config", str(path), "pretrain"]) == EXIT_GATE
    assert "gate failure" in capsys.readouterr().err
    assert not (out / "checkpoint.ffck").exists()
    assert not (out / "pretrain").exists()


def test_pretrain_probe_pipeline_and_overwrite_refusal(tiny_config, capsys):
    path, out = tiny_config
    assert main(["--config", str(path), "pretrain"]) == EXIT_OK
    assert (out / "checkpoint.ffck").exists()
    losses = (out / "pretrain" / "losses.csv").read_text().strip().splitlines()
    assert len(losses) == 1 + 60  # header plus one row per step

    # the resolved config is itself loadable and reproduces the run settings
    resolved = load_config(out / "pretrain" / "resolved.ini")
    assert resolved.encoder.num_layers == 2
    assert resolved.pretrain.steps == 60

    assert main(["--config", str(path), "probe-layers", "--taps", "0,1"]) == EXIT_OK
    table = (out / "probe-layers" / "layer_fer.csv").read_text().strip().splitlines()
    assert table[0] == "layer,fer"
    assert [row.split(",")[0] for row in table[1:]] == ["0", "1"]
    fers = [float(row.split(",")[1]) for row in table[1:]]
    assert all(0.0 <= f <= 1.0 for f in fers)
    assert (out / "probe-layers" / "resource_report.json").exists()

    capsys.readouterr()
    assert main(["--config", str(path), "pretrain"]) == EXIT_CONFIG
    assert "refusing to overwrite" in capsys.readouterr().err


def test_seed_flag_overrides_config(tiny_config):
    path, out = tiny_config
    assert main(["--config", str(path), "--seed", "7", "pretrain"]) == EXIT_OK
    assert (out / "pretrain" / "seed.txt").read_text().strip() == "7"
    resolved = (out / "pretrain" / "resolved.ini").read_text()
    assert "seed = 7" in resolved


def test_sweep_grid_is_validated_before_any_run(tiny_config, capsys):
    path, out = tiny_config
    bad_grids = [
        ["--set", "nonsense"],                       # no '=' at all
        ["--set", "train.steps="],                   # empty value list
        ["--set", "bogus.key=1"],                    # unknown section
        ["--set", "train.bogus=1"],                  # unknown key
        ["--set", "experiment.output_dir=/tmp/x"],   # explicitly unsweepable
        ["--set", "train.steps=2", "--set", "train.steps=3"],  # duplicate axis
    ]
    for grid in bad_grids:
        assert main(["--config", str(path), "sweep", *grid]) == EXIT_CONFIG, grid
        assert not (out / "sweep").exists()
    capsys.readouterr()


def test_sweep_runs_grid_and_writes_summary(tiny_config):
    path, out = tiny_config
    code = main(["--config", str(path), "sweep",
                 "--set", "train.steps=2,3", "--set", "train.learning_rate=0.001"])
    assert code == EXIT_OK
    summary = (out / "sweep" / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "run,train.steps,train.learning_rate,final_loss,fer"
    assert len(summary) == 3  # header + 2 grid points
    run_dirs = sorted(p.name for p in (out / "sweep").iterdir() if p.is_dir())
    assert len(run_dirs) == 2 and all(p.startswith("run_00") for p in run_dirs)
    for name in run_dirs:
        assert (out / "sweep" / name / "result.json").exists()
        assert (out / "sweep" / name / "metrics.csv").exists()
