"""Batch runner: many independent seeded runs, summarized and aggregated.

`run_batch` validates and runs a `config.BatchConfig`, each member through
`run_task`; `strategem run` is a one-run traced batch. A run's summary
holds the row that `metrics.checkpoint_stats` returns at each checkpoint
cycle; this module writes those rows to runs.csv, reads them back, and
aggregates them into aggregate.csv.

Each run owns a private RNG stream derived from (base_seed, run_id), so
inserting or removing other runs never changes its outcome, and worker
count affects wall clock only, never output bytes.
"""

from __future__ import annotations

import contextlib
import glob
import math
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .config import BatchConfig, SimConfig
from .engine import TRACE_COLUMNS, World, format_field, write_trace_rows
from .metrics import CHECKPOINT_FIELDS, RELATIVE_DIFF_FIELDS, checkpoint_stats

@dataclass
class RunSummary:
    """One run's leaderboard and profile statistics per checkpoint cycle."""

    run_id: int
    seed: int
    checkpoints: dict[int, dict[str, float]] = field(default_factory=dict)


def derive_seed(base_seed: int, run_id: int) -> int:
    """Stable per-run seed: the first 64-bit word that the seed sequence
    (base_seed, run_id) generates. Part of the external contract."""
    return int(np.random.SeedSequence([base_seed, run_id]).generate_state(1, np.uint64)[0])


def _checkpoint_cycles(config: SimConfig) -> list[int]:
    """The cycles whose statistics a run of `config` records, ascending:
    cycle 0 alone when the run has no cycles, else every checkpoint cycle
    the run reaches."""
    if config.n_cycles == 0:
        return [0]
    return sorted({c for c in config.checkpoint_cycles if c <= config.n_cycles})


def run_one(
    seed: int,
    config: SimConfig,
    run_id: int = 0,
    trace_out: IO[str] | None = None,
) -> RunSummary:
    """Run one simulation, capture its checkpoint statistics and, given
    `trace_out`, write its trace there.

    One loop visits cycles 0 to n_cycles and steps the world on every cycle
    but 0, so cycle 0 is the initialized world: a trace starts with its
    rows, and with n_cycles = 0 the summary holds its single snapshot.
    """
    world = World(config, np.random.Generator(np.random.PCG64(seed)))
    summary = RunSummary(run_id=run_id, seed=seed)
    checkpoints = set(_checkpoint_cycles(config))
    texts = {}  # the trace's per-run memo; see write_trace_rows
    if trace_out is not None:
        trace_out.write(",".join(TRACE_COLUMNS) + "\n")
    for cycle in range(config.n_cycles + 1):
        if cycle:
            world.step_cycle()
        if trace_out is not None:
            write_trace_rows(trace_out, world, run_id, texts)
        if cycle in checkpoints:
            summary.checkpoints[cycle] = checkpoint_stats(world.firms)
    return summary


def run_task(args: tuple[int, int, SimConfig, str | None]) -> RunSummary:
    """Run batch member `run_id` of `base_seed`, writing its trace to
    `trace_path` as it runs when a path is given.

    Every run of a batch goes through here, so a failure names the run
    and its seed.
    """
    run_id, base_seed, config, trace_path = args
    seed = derive_seed(base_seed, run_id)
    try:
        with open(trace_path, "w") if trace_path else contextlib.nullcontext() as fh:
            return run_one(seed, config, run_id=run_id, trace_out=fh)
    except Exception as exc:  # surface the offending seed to the caller
        raise RuntimeError(f"run {run_id} (seed {seed}) failed: {exc}") from exc


def run_batch(
    batch: BatchConfig,
    out_dir: str | None = None,
    trace: bool = False,
) -> tuple[list[RunSummary], list[dict]]:
    """Execute all runs, write runs.csv / aggregate.csv, return both tables.

    Pool workers take one run at a time, so a worker the host slows holds
    up one run, not a chunk of them. A batch starts at most one worker per
    run, so a one-run batch, like a one-worker batch, runs in the calling
    process. The pool module is imported only when a batch starts a pool,
    so a process that runs no pool never loads `multiprocessing`.

    Runs come back in id order from the pool and the serial loop alike.
    runs.csv gets its header before the first run and each run's row as it
    arrives, so a failed run leaves the rows of every run before it and
    raises its `run_task` error; aggregate.csv is written only after the
    last run. An earlier batch's aggregate.csv and `traces/run_*.csv` are
    removed first, so the directory never mixes two batches. The aggregate is
    taken from the summaries in memory, and `aggregate` run later over
    runs.csv reproduces aggregate.csv byte for byte: runs.csv writes each
    double with 17 significant digits, which parse back to the same double
    (see `aggregate_summaries`).
    """
    batch.validate()
    if trace and out_dir is None:
        raise ValueError("trace=True needs an out_dir to write the traces into")
    trace_dir = os.path.join(out_dir, "traces") if trace else None
    tasks = [
        (i, batch.base_seed, batch.sim, trace_dir and os.path.join(trace_dir, f"run_{i}.csv"))
        for i in range(batch.n_runs)
    ]
    summaries = []
    with contextlib.ExitStack() as stack:
        runs_csv = None
        if out_dir is not None:
            os.makedirs(trace_dir or out_dir, exist_ok=True)
            # An earlier batch's aggregate and traces, which this batch may
            # not write again.
            stale = glob.glob(os.path.join(glob.escape(out_dir), "traces", "run_*.csv"))
            for path in [os.path.join(out_dir, "aggregate.csv"), *stale]:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            # Line-buffered: each row reaches the file as it is written.
            runs_csv = stack.enter_context(
                open(os.path.join(out_dir, "runs.csv"), "w", buffering=1)
            )
            columns = _checkpoint_columns(_checkpoint_cycles(batch.sim))
            runs_csv.write(_runs_header(columns))
        workers = min(batch.parallelism, batch.n_runs)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(run_task, tasks)
        else:
            results = map(run_task, tasks)
        for summary in results:
            summaries.append(summary)
            if runs_csv is not None:
                runs_csv.write(_runs_row(summary, columns))

    aggregate = aggregate_summaries(summaries)
    if out_dir is not None:
        write_aggregate_csv(os.path.join(out_dir, "aggregate.csv"), aggregate)
    return summaries, aggregate


# -- CSV serialization -------------------------------------------------------


def _recorded_cycles(summaries: Sequence[RunSummary]) -> list[int]:
    """Every checkpoint cycle any of `summaries` records, ascending."""
    return sorted({c for s in summaries for c in s.checkpoints})


def _checkpoint_columns(cycles: Iterable[int]) -> list[tuple[str, int, str]]:
    """(column, cycle, field name) for every per-checkpoint column of
    runs.csv and aggregate.csv, in CSV order, given the ascending `cycles`."""
    return [(f"c{cycle}_{name}", cycle, name) for cycle in cycles for name in CHECKPOINT_FIELDS]


def _runs_header(columns: list[tuple[str, int, str]]) -> str:
    return ",".join(["run_id", "seed"] + [col for col, _, _ in columns]) + "\n"


def _runs_row(summary: RunSummary, columns: list[tuple[str, int, str]]) -> str:
    """One runs.csv line; a checkpoint the run did not record is blank."""
    values = [str(summary.run_id), str(summary.seed)]
    for _, cycle, name in columns:
        stats = summary.checkpoints.get(cycle)
        values.append(format_field(stats[name]) if stats else "")
    return ",".join(values) + "\n"


def write_runs_csv(path: str, summaries: Sequence[RunSummary]) -> None:
    columns = _checkpoint_columns(_recorded_cycles(summaries))
    with open(path, "w") as fh:
        fh.write(_runs_header(columns))
        for s in summaries:
            fh.write(_runs_row(s, columns))


def read_runs_csv(path: str) -> list[RunSummary]:
    """Parse a runs.csv back into summaries.

    Raises ValueError, naming the line, when the header lacks `run_id` or
    `seed` or has a `c<cycle>_<field>` column whose cycle is not an integer,
    or when a row's field count differs from the header's or a field is not
    a number. Columns that name no checkpoint field are ignored.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for required in ("run_id", "seed"):
            if required not in header:
                raise ValueError(f"line 1: no {required!r} column")
        id_col, seed_col = header.index("run_id"), header.index("seed")
        columns = []  # (position, cycle, field) of each checkpoint column
        for i, col in enumerate(header):
            cycle, _, name = col[1:].partition("_")
            if col.startswith("c") and name in CHECKPOINT_FIELDS:
                try:
                    columns.append((i, int(cycle), name))
                except ValueError:
                    raise ValueError(f"line 1: bad cycle in column {col!r}") from None
        summaries = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(header):
                raise ValueError(
                    f"line {lineno}: {len(parts)} fields, header has {len(header)}"
                )
            try:
                summary = RunSummary(run_id=int(parts[id_col]), seed=int(parts[seed_col]))
                for i, cycle, name in columns:
                    stats = summary.checkpoints.setdefault(cycle, {})
                    stats[name] = float(parts[i]) if parts[i] != "" else math.nan
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            summaries.append(summary)
    return summaries


def aggregate_summaries(summaries: Sequence[RunSummary]) -> list[dict]:
    """Mean / st.dev / variance / median / max / min per column, plus the
    sign counts of the relative-difference columns, one row per statistic.

    Statistics skip missing (blank) values; st.dev and variance are the
    population forms, so a single run aggregates with zero spread. A blank
    cell is the `math.nan` object itself, so that equal aggregates compare
    equal with `==`.

    Each column is built as float64, so summaries held in memory and the
    same summaries read back from runs.csv aggregate to the same bytes:
    `format_field` writes every double so that `float()` parses it back
    exactly, integer counts included.
    """
    rows = {
        stat: {"statistic": stat}
        for stat in (
            "average", "st_dev", "variance", "median", "maxima", "minima",
            "n_io_gt_rbv", "n_rbv_gt_io", "pct_io_gt_rbv", "pct_rbv_gt_io",
        )
    }
    for col, cycle, name in _checkpoint_columns(_recorded_cycles(summaries)):
        values = np.array(
            [s.checkpoints.get(cycle, {}).get(name, math.nan) for s in summaries],
            dtype=float,
        )
        finite = values[~np.isnan(values)]
        n = len(finite)
        for stat, reduce in zip(rows, (np.mean, np.std, np.var, np.median, np.max, np.min)):
            rows[stat][col] = float(reduce(finite)) if n else math.nan
        # The sign rows count the signs of rd_* = (IO - RBV) / RBV, which
        # read IO > RBV as RBV > IO in a run whose RBV value is negative, so
        # they are not win tallies. Other columns leave them blank.
        rd_column = name in RELATIVE_DIFF_FIELDS
        n_io = float(np.count_nonzero(finite > 0)) if rd_column else math.nan
        n_rbv = float(np.count_nonzero(finite < 0)) if rd_column else math.nan
        rows["n_io_gt_rbv"][col] = n_io
        rows["n_rbv_gt_io"][col] = n_rbv
        rows["pct_io_gt_rbv"][col] = 100.0 * n_io / n if rd_column and n else math.nan
        rows["pct_rbv_gt_io"][col] = 100.0 * n_rbv / n if rd_column and n else math.nan
    return list(rows.values())


def write_aggregate_csv(path: str, aggregate: list[dict]) -> None:
    if not aggregate:
        raise ValueError("empty aggregate")
    cols = [c for c in aggregate[0] if c != "statistic"]
    with open(path, "w") as fh:
        fh.write(",".join(["statistic"] + cols) + "\n")
        for row in aggregate:
            fh.write(
                ",".join([str(row["statistic"])] + [format_field(row[c]) for c in cols]) + "\n"
            )
