"""Command-line front end.

Subcommands: `run` (one traced simulation), `batch` (many runs plus the
aggregate table), `aggregate` (recompute aggregate.csv from an existing
runs.csv), `validate` (check a config file and print the effective
configuration). Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, apply_override, dump_config, load_config
from .experiment import (
    derive_seed,
    read_runs_csv,
    aggregate_summaries,
    run_batch,
    run_one,
    write_aggregate_csv,
    write_runs_csv,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strategem",
        description="Agent-based simulator of IO vs. RBV market-entry strategies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--out", metavar="DIR", default="out", help="output directory")
        p.add_argument("--seed", type=int, help="override the base seed")
        p.add_argument("--runs", type=int, help="override the number of runs")
        p.add_argument("--cycles", type=int, help="override cycles per run")
        p.add_argument("--firms", type=int, help="override the firm count")
        p.add_argument("--markets", type=int, help="override the market count")
        p.add_argument("--workers", type=int, help="worker process count")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (sim.NAME or batch.NAME; repeatable)",
        )
        p.add_argument("--trace", action="store_true", help="write per-cycle trace CSVs")

    for name, help_text in (
        ("run", "execute one simulation with trace output"),
        ("batch", "execute a batch of runs and aggregate"),
        ("aggregate", "recompute aggregate.csv from runs.csv"),
        ("validate", "check a config file and print the effective configuration"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "aggregate":
            p.add_argument("runs_csv", help="path to an existing runs.csv")
            p.add_argument("--out", metavar="DIR", default="out")
        else:
            add_common(p)
    return parser


def _effective_config(args):
    batch = load_config(args.config)
    if args.seed is not None:
        batch.base_seed = args.seed
    if args.runs is not None:
        batch.n_runs = args.runs
    if args.cycles is not None:
        batch.sim.n_cycles = args.cycles
    if args.firms is not None:
        batch.sim.n_firms = args.firms
    if args.markets is not None:
        batch.sim.n_markets = args.markets
    workers = args.workers
    if workers is None:
        env = os.environ.get("STRATEGEM_WORKERS")
        if env is not None:
            try:
                workers = int(env)
            except ValueError as exc:
                raise ConfigError(f"bad STRATEGEM_WORKERS value: {env!r}") from exc
    if workers is not None:
        batch.parallelism = workers
    for pair in args.overrides:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        apply_override(batch, key.strip(), raw)
    batch.validate()
    return batch


def _echo_config(batch, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.ini"), "w") as fh:
        fh.write(dump_config(batch))


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
            _echo_config(batch, args.out)
            seed = batch.base_seed if args.seed is not None else derive_seed(batch.base_seed, 0)
            trace_path = os.path.join(args.out, "trace.csv")
            with open(trace_path, "w") as fh:
                summary = run_one(seed, batch.sim, run_id=0, trace_out=fh)
            write_runs_csv(os.path.join(args.out, "runs.csv"), [summary])
            print(f"wrote {trace_path} (seed {seed})")
            return 0

        if args.command == "batch":
            _echo_config(batch, args.out)
            summaries, _ = run_batch(batch, out_dir=args.out, trace=args.trace)
            print(
                f"wrote {os.path.join(args.out, 'runs.csv')} and aggregate.csv "
                f"({len(summaries)} runs)"
            )
            return 0
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    return 2


if __name__ == "__main__":
    sys.exit(main())
