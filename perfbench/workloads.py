"""The benchmark's workloads: what one item of each runs, and how its
outputs are checked.

An item is one call a user of strategem would make: one `run_one`, one
`run_batch`, or one `strategem batch --trace` through `strategem.cli.main`.
Item k of a workload at seed s runs input k % cycle: the program receives
only derived seeds, `derive_seed(s, k)` as the run seed of `run_one` or as
the base seed of a batch. Every output an item writes is digested; at the
reference seed the digests must equal the committed references. So that the
byte gate holds at every seed, each run of the benchmark also runs one
untimed check item: input 0 at the reference seed, through the workload's
own kind of call, on the small `configs/check.ini`.

See README.md for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCES = HERE / "reference_digests.json"
REFERENCE_SEED = 0
CHECK_CONFIG = "check.ini"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # INI file under configs/
    kind: str  # "single": run_one; "batch": run_batch; "cli": strategem batch --trace
    cycle: int  # distinct inputs; item k runs input k % cycle
    trace_items: int  # items in each fixed-size pass of the traced run
    whole_cycles: bool = False  # a timed run ends only at the end of a cycle


WORKLOADS = {
    w.name: w
    for w in (
        Workload("single_run", "default.ini", "single", cycle=24, trace_items=4, whole_cycles=True),
        Workload("traced_batch", "traced.ini", "cli", cycle=16, trace_items=2),
        Workload("small_world_batch", "small_world.ini", "batch", cycle=64, trace_items=2),
    )
}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


@dataclass
class ItemResult:
    item: int
    seconds: float
    runs: int
    digests: dict[str, str]
    trace_bytes: int
    problems: list[str]


class Runner:
    """Runs items of one workload at one seed, and checks what they write.

    `quiet` wraps the benchmark's own checking so a tracer can leave it out.
    `check` runs the workload's check item (see `check_item`) instead of its
    own inputs. `recording` skips the reference comparison while references
    are taken.
    """

    def __init__(
        self,
        strategem,
        workload: Workload,
        seed: int,
        work_dir,
        quiet=None,
        check=False,
        recording=False,
    ):
        self.sg = strategem
        self.workload = workload
        self.seed = REFERENCE_SEED if check else seed
        self.config_path = str(CONFIGS / (CHECK_CONFIG if check else workload.config))
        self.out_dir = Path(work_dir) / "item"
        self.quiet = quiet or contextlib.nullcontext
        self.reference = None
        if self.seed == REFERENCE_SEED and not recording:
            self.reference = load_references()["check" if check else "workloads"][workload.name]
        # The benchmark's own copy of the workload config, for run counts
        # and checks; batch items load theirs as a user's job would.
        self.batch = strategem.config.load_config(self.config_path)

    # -- running -----------------------------------------------------------

    def run_item(self, item: int, workers: int) -> ItemResult:
        """Run one item; time only the program's call, then check outputs."""
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self.out_dir.mkdir(parents=True)
        problems: list[str] = []
        seconds, runs, digests, trace_bytes = 0.0, 0, {}, 0
        try:
            start = time.perf_counter()
            runs, summary = self._call(item, workers)
            seconds = time.perf_counter() - start
            with self.quiet():
                problems += self._check_structure(item, summary)
                digests, trace_bytes = self._digest()
                problems += self._check_digests(item, digests)
        except Exception as exc:  # an item that raises or writes garbage counts as failed
            problems.append(f"item {item} raised {type(exc).__name__}: {exc}")
        shutil.rmtree(self.out_dir)
        return ItemResult(item, seconds, runs, digests, trace_bytes, problems)

    def _call(self, item: int, workers: int):
        sg, wl = self.sg, self.workload
        seed = sg.derive_seed(self.seed, item % wl.cycle)
        if wl.kind == "single":
            return 1, sg.run_one(seed, self.batch.sim, run_id=item % wl.cycle)
        if wl.kind == "batch":
            batch = sg.config.load_config(self.config_path)
            batch.base_seed = seed
            batch.parallelism = workers
            summaries, _ = sg.run_batch(batch, out_dir=str(self.out_dir))
            return len(summaries), None
        argv = [
            "batch", "--config", self.config_path, "--seed", str(seed),
            "--workers", str(workers), "--trace", "--out", str(self.out_dir),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = sg.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"strategem batch exited {code}")
        return self.batch.n_runs, None

    # -- checking ----------------------------------------------------------

    def _check_structure(self, item: int, summary) -> list[str]:
        """Checks that hold at every seed, before digests are compared."""
        sg, wl = self.sg, self.workload
        if wl.kind == "single":
            # The summary is serialized with the program's own CSV writer,
            # so the gate sees every digit of every checkpoint statistic.
            sg.experiment.write_runs_csv(str(self.out_dir / "runs.csv"), [summary])
            expected = sg.derive_seed(self.seed, item % wl.cycle)
            return [] if summary.seed == expected else [f"item {item}: summary seed {summary.seed}"]
        batch = self.batch
        problems = []
        runs_csv = self.out_dir / "runs.csv"
        with open(runs_csv) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != batch.n_runs:
            problems.append(f"item {item}: runs.csv has {rows} rows, expected {batch.n_runs}")
        # aggregate.csv must be what the program's own aggregation of
        # runs.csv gives, byte for byte.
        again = self.out_dir / "reaggregate.csv"
        summaries = sg.experiment.read_runs_csv(str(runs_csv))
        sg.experiment.write_aggregate_csv(str(again), sg.experiment.aggregate_summaries(summaries))
        if again.read_bytes() != (self.out_dir / "aggregate.csv").read_bytes():
            problems.append(f"item {item}: aggregate.csv does not re-aggregate from runs.csv")
        again.unlink()
        if wl.kind == "cli":
            traces = sorted((self.out_dir / "traces").glob("*.csv"))
            if len(traces) != batch.n_runs:
                problems.append(f"item {item}: {len(traces)} traces, expected {batch.n_runs}")
            lines = 1 + (batch.sim.n_cycles + 1) * batch.sim.n_firms
            for path in traces:
                with open(path, "rb") as fh:
                    count = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
                if count != lines:
                    problems.append(f"item {item}: {path.name} has {count} lines, expected {lines}")
        return problems

    def _digest(self) -> tuple[dict[str, str], int]:
        digests, trace_bytes = {}, 0
        for path in sorted(self.out_dir.rglob("*.csv")):
            rel = path.relative_to(self.out_dir).as_posix()
            digests[rel] = sha256(path)
            if rel.startswith("traces/"):
                trace_bytes += path.stat().st_size
        return digests, trace_bytes

    def _check_digests(self, item: int, digests: dict[str, str]) -> list[str]:
        if self.reference is None:
            return []
        reference = self.reference[str(item % self.workload.cycle)]
        if digests == reference:
            return []
        moved = sorted(f for f in set(reference) | set(digests) if reference.get(f) != digests.get(f))
        return [f"item {item}: output differs from the reference: {', '.join(moved)}"]


def check_item(strategem, workload: Workload, work_dir) -> ItemResult:
    """The untimed check item of a run: input 0 at the reference seed on
    configs/check.ini, compared with its committed digests."""
    runner = Runner(strategem, workload, REFERENCE_SEED, work_dir, check=True)
    result = runner.run_item(0, runner.batch.parallelism)
    result.problems = [f"check {p}" for p in result.problems]
    return result
