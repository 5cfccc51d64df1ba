"""Command-line driver.

Exit codes are stable for CI use: 0 success, 1 configuration or usage
error, 2 runtime failure, 3 quality-gate failure.
"""

from __future__ import annotations

import argparse
import sys

from .checkpoint import CheckpointError
from .config import PRESETS, ConfigError, _int_list, load_config
from .experiments import (
    MissingArtifactError,
    cmd_comparison,
    cmd_count_params,
    cmd_fusion_table,
    cmd_pretrain,
    cmd_probe_layers,
    cmd_sweep,
)
from .training import GateError

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_CONFIG", "EXIT_RUNTIME", "EXIT_GATE"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_GATE = 3


class _Parser(argparse.ArgumentParser):
    """Routes usage mistakes to exit code 1 instead of argparse's 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fusionlab",
        description="Transfer-learning experiments on a frozen conformer encoder: "
                    "pretraining, per-layer probes, fusion heads, tuning-strategy "
                    "comparisons, analytic parameter counting, and config sweeps.",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="INI experiment config (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, metavar="INT",
                        help="override the experiment seed")
    parser.add_argument("--out", metavar="DIR",
                        help="override the experiment output directory")
    parser.add_argument("--preset", choices=PRESETS,
                        help="override the config preset")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser("pretrain", help="pretrain the encoder and write the checkpoint")
    probe = sub.add_parser("probe-layers",
                           help="per-layer linear probes over the frozen encoder")
    probe.add_argument("--taps", metavar="I,J,...",
                       help="layer indices to probe (default: every layer)")
    sub.add_parser("fusion-table",
                   help="train the fusion head variants and tabulate params vs error")
    sub.add_parser("comparison",
                   help="run the eight tuning strategies head to head")
    sub.add_parser("count-params",
                   help="analytic parameter counts vs published references (no training)")
    sweep = sub.add_parser("sweep", help="Cartesian product of config overrides")
    sweep.add_argument("--set", dest="grid", action="append", default=[],
                       metavar="SECTION.KEY=V1,V2,...",
                       help="one grid axis; repeat the flag for more axes")
    return parser


def _parse_grid(items: list[str]) -> dict[str, list[str]]:
    grid: dict[str, list[str]] = {}
    for item in items:
        key, sep, values = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"--set expects SECTION.KEY=V1[,V2...], got {item!r}")
        parts = [v.strip() for v in values.split(",") if v.strip()]
        if not parts:
            raise ConfigError(f"--set {key}: no values given")
        if key in grid:
            raise ConfigError(f"duplicate --set key {key!r}")
        grid[key] = parts
    return grid


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides: dict[str, str] = {}
        if args.seed is not None:
            overrides["experiment.seed"] = str(args.seed)
        if args.out is not None:
            overrides["experiment.output_dir"] = args.out
        if args.preset is not None:
            overrides["experiment.preset"] = args.preset
        cfg = load_config(args.config, overrides)
        if args.command == "pretrain":
            cmd_pretrain(cfg)
        elif args.command == "probe-layers":
            cmd_probe_layers(cfg, taps=None if args.taps is None else _int_list(args.taps))
        elif args.command == "fusion-table":
            cmd_fusion_table(cfg)
        elif args.command == "comparison":
            cmd_comparison(cfg)
        elif args.command == "count-params":
            cmd_count_params(cfg)
        elif args.command == "sweep":
            cmd_sweep(cfg, _parse_grid(args.grid))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GateError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (MissingArtifactError, CheckpointError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
