"""Command-line front end.

Subcommands: `run` (one traced simulation: a one-run `batch --trace`),
`batch` (many runs plus the aggregate table), `aggregate` (recompute
aggregate.csv from an existing runs.csv), `validate` (check a config file
and print the effective configuration). Exit codes: 0 success, 1 config
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, apply_override, dump_config, load_config
from .experiment import read_runs_csv, aggregate_summaries, run_batch, write_aggregate_csv


# Shortcut flags, each an alias of `--set KEY=N` applied before the --set pairs.
SHORTCUTS = {
    "seed": "batch.base_seed",
    "runs": "batch.n_runs",
    "cycles": "sim.n_cycles",
    "firms": "sim.n_firms",
    "markets": "sim.n_markets",
    "workers": "batch.parallelism",
}

# Config-reading subcommands: help text and the shortcut flags each takes.
COMMANDS = {
    "run": ("execute one simulation with trace output", ("seed", "cycles", "firms", "markets")),
    "batch": ("execute a batch of runs and aggregate", tuple(SHORTCUTS)),
    "validate": ("check a config file and print the effective configuration", tuple(SHORTCUTS)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strategem",
        description="Agent-based simulator of IO vs. RBV market-entry strategies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, shortcuts) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="INI config file")
        for flag in shortcuts:
            p.add_argument(f"--{flag}", metavar="N", help=f"same as --set {SHORTCUTS[flag]}=N")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (sim.NAME or batch.NAME; repeatable)",
        )
        if name != "validate":
            p.add_argument("--out", metavar="DIR", default="out", help="output directory")
        if name == "batch":
            p.add_argument("--trace", action="store_true", help="write per-cycle trace CSVs")
        if name == "run":
            p.set_defaults(trace=True)
    p = sub.add_parser("aggregate", help="recompute aggregate.csv from runs.csv")
    p.add_argument("runs_csv", help="path to an existing runs.csv")
    p.add_argument("--out", metavar="DIR", default="out")
    return parser


def _effective_config(args):
    batch = load_config(args.config)
    for flag, key in SHORTCUTS.items():
        value = getattr(args, flag, None)
        if value is not None:
            apply_override(batch, key, value)
    for pair in args.overrides:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        apply_override(batch, key.strip(), raw)
    batch.validate()
    return batch


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract is 1 for bad input
        return 0 if exc.code == 0 else 1

    try:
        if args.command == "aggregate":
            try:
                summaries = read_runs_csv(args.runs_csv)
            except (OSError, ValueError) as exc:
                print(f"error: cannot read {args.runs_csv}: {exc}", file=sys.stderr)
                return 1
            aggregate = aggregate_summaries(summaries)
            os.makedirs(args.out, exist_ok=True)
            out_path = os.path.join(args.out, "aggregate.csv")
            write_aggregate_csv(out_path, aggregate)
            print(f"wrote {out_path} ({len(summaries)} runs)")
            return 0

        batch = _effective_config(args)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "validate":
            sys.stdout.write(dump_config(batch))
            print(
                f"\nok: {batch.sim.n_firms} firms, {batch.sim.n_markets} markets, "
                f"{batch.sim.n_cycles} cycles, {batch.n_runs} runs"
            )
            return 0

        if args.command == "run":
            batch.n_runs = 1  # run 0 of a batch with the same settings
        summaries, _ = run_batch(batch, out_dir=args.out, trace=args.trace)
        if args.command == "run":
            trace_path = os.path.join(args.out, "traces", "run_0.csv")
            print(f"wrote {trace_path} (seed {summaries[0].seed})")
            return 0
        print(
            f"wrote {os.path.join(args.out, 'runs.csv')} and aggregate.csv "
            f"({len(summaries)} runs)"
        )
        return 0
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
