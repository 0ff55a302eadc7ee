"""Command-line harness: run, preset, sweep and validate-config verbs."""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from pathlib import Path

from .config import ConfigError, RunConfig, RunSummary, parse_config, preset
from .output import run_to_dir
from .sweep import SWEEP_AXES, sweep

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BREACH = 2
EXIT_CONFIG = 3
EXIT_CONTACT = 4

_REASON_CODES = {
    "time-complete": EXIT_OK,
    "positivity-breach": EXIT_BREACH,
    "boundary-contact": EXIT_CONTACT,
    "error": EXIT_FAILURE,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radgas",
        description=(
            "Radially symmetric heat-conducting gas runs with conservation, "
            "entropy and energy diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("--config", required=True, help="path to a key=value config")
    p_run.add_argument("--out", required=True, help="output directory")

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name", help="preset name")
    p_preset.add_argument("--out", required=True, help="output directory")

    p_sweep = sub.add_parser("sweep", help="sweep one axis of a base config")
    p_sweep.add_argument("--config", required=True, help="path to the base config")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated axis values"
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_sweep.add_argument("--out", default=None, help="output root directory")

    p_val = sub.add_parser("validate-config", help="parse and check a config file")
    p_val.add_argument("path", help="path to the config file")
    return parser


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return parse_config(text)


def _report(summaries: Iterable[RunSummary]) -> int:
    """Print one line per run as it arrives; return the worst exit code."""
    worst = EXIT_OK
    for summary in summaries:
        print(
            f"[{summary.run_id}] {summary.termination_reason} "
            f"after {summary.steps} steps (t = {summary.t_final:g}, "
            f"wall {summary.wall_clock_seconds:.2f}s)"
        )
        if summary.error:
            print(f"[{summary.run_id}] error: {summary.error}", file=sys.stderr)
        worst = max(worst, _REASON_CODES.get(summary.termination_reason, EXIT_FAILURE))
    return worst


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = _load_config(args.config)
            return _report([run_to_dir(config, args.out)])

        if args.command == "preset":
            configs = preset(args.name)
            if isinstance(configs, RunConfig):
                return _report([run_to_dir(configs, args.out)])
            out = Path(args.out)
            return _report(run_to_dir(c, out / c.run_id) for c in configs)

        if args.command == "sweep":
            config = _load_config(args.config)
            try:
                values = [float(tok) for tok in args.values.split(",") if tok.strip()]
            except ValueError:
                values = []
            if not values:
                raise ConfigError("--values must be a comma-separated list of numbers")
            summaries = sweep(
                config, args.axis, values, parallelism=args.jobs, out_root=args.out
            )
            return _report(summaries)

        if args.command == "validate-config":
            config = _load_config(args.path)
            print(f"config ok: run_id={config.run_id}, "
                  f"contact bound {config.contact_bound():.3f} <= r_max {config.r_max}")
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_FAILURE
