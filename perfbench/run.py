"""strategem benchmark: one workload at one seed, one JSON result line.

    python3 perfbench/run.py --workload small_world_batch --seed 1 --seconds 25 --trace 0

`--trace 0` times whole items (see workloads.py) with nothing wrapped, for
about `--seconds` seconds, and prints the end-to-end metrics, their run
times scaled to a reference host by the kernel in calibrate.py. `--trace 1`
runs a fixed number of items at parallelism 1 with the span wrappers, then
with the leaf wrappers (see tracer.py), then unwrapped, then unwrapped on
the workload's pool (single_run has none), and prints the per-layer
metrics. Either way the run starts with an untimed check item at the
reference seed, and every output is checked against its digests.
The last line of stdout is the result; the lines before it say what was
measured, on what machine, and the output digests. README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import program
from calibrate import REFERENCE_UNIT_S

HERE = program.ROOT / "perfbench"
WORK_ROOT = program.ROOT / ".perfbench_tmp"
OUT_ROOT = program.ROOT / ".perfbench_out"
# Fresh processes timed for setup_s, spread through the timed loop, after
# one untimed warm-up; the median is reported.
SETUP_SAMPLES = 15


def git_commit() -> str:
    git = program.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "threads": {name: os.environ.get(name) for name in program.THREAD_VARS},
        "commit": git_commit(),
    }


class SetupProbe:
    """Set-up time of fresh processes, each timed from its own first line."""

    def __init__(self, workload, seed: int):
        self.cmd = [
            sys.executable,
            str(HERE / "setup_probe.py"),
            str(HERE / "configs" / workload.config),
            str(seed),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(program.SRC))
        self.samples: list[float] = []
        self.probe()  # warm-up, not kept
        self.samples.clear()

    def probe(self) -> None:
        done = subprocess.run(
            self.cmd, env=self.env, cwd=program.ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        self.samples.append(float(done.stdout.split()[-1]))

    def keep_pace(self, share: float) -> None:
        """Probe until `share` of the SETUP_SAMPLES probes are taken."""
        while len(self.samples) < min(1.0, share) * SETUP_SAMPLES:
            self.probe()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def timed_loop(runner, seconds: float, workers: int, probe: SetupProbe, clock):
    """Run blocks of items until the next block, judged by the last, would
    end more than half past `seconds` of measured time. A block is one
    item, or one whole cycle of inputs for a `whole_cycles` workload, so
    that such a run gives every input the same weight. At least one block.
    A third of the set-up probes run first, the rest between items in step
    with the measured time, so that even a run of one long item has probes
    on both sides of it. The host-speed kernel runs before the first item
    and after every item; each item gets the factor of the two blocks that
    bracket it. Returns the results and their factors."""
    block = runner.workload.cycle if runner.workload.whole_cycles else 1
    probe.keep_pace(1 / 3)
    clock.tick()
    results, factors, measured, wall_start = [], [], 0.0, time.perf_counter()
    while True:
        block_s = 0.0
        for _ in range(block):
            result = runner.run_item(len(results), workers)
            before = clock.blocks[-1]
            factors.append(clock.factor(before, clock.tick(result.seconds)))
            results.append(result)
            block_s += result.seconds
            probe.keep_pace((measured + block_s) / seconds)
        measured += block_s
        if measured + block_s / 2 >= seconds:
            break
        if time.perf_counter() - wall_start >= 3 * seconds:  # items failing fast
            break
    probe.keep_pace(1.0)
    return results, factors


def end_to_end(strategem, workload, seed, seconds, work_dir):
    from calibrate import HostClock
    from stats import tail
    from workloads import Runner

    probe = SetupProbe(workload, seed)
    runner = Runner(strategem, workload, seed, work_dir)
    clock = HostClock()
    results, factors = timed_loop(runner, seconds, runner.batch.parallelism, probe, clock)
    setup = probe.samples
    ok = [(r, f) for r, f in zip(results, factors) if not r.problems]
    runs = sum(r.runs for r, _ in ok)
    wall = sum(r.seconds for r, _ in ok)
    ref = sum(r.seconds * f for r, f in ok)
    per_run = [r.seconds * f / r.runs for r, f in ok] or [0.0]
    wall_per_run = [r.seconds / r.runs for r, _ in ok] or [0.0]
    tail_value, tail_pct = tail(per_run)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "runs_per_ref_s": (runs / ref if ref else 0.0, "1/ref_s"),
        "run_ref_s_p50": (statistics.median(per_run), "ref_s"),
        "run_ref_s_tail": (tail_value, "ref_s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"per-run samples: {len(per_run)}; run_ref_s_tail is p{tail_pct:.1f} "
        f"(the highest percentile with >= 10 samples beyond it, or the maximum)",
        f"measured {wall:.3f} s wall = {ref:.3f} ref_s over {len(results)} items, {runs} runs; "
        f"wall runs_per_s {runs / wall if wall else 0.0:.6g}, "
        f"wall run_s_p50 {statistics.median(wall_per_run):.6g} s",
        f"host kernel: {len(clock.blocks)} blocks, median unit {clock.median_unit_s():.4f} s "
        f"(reference {REFERENCE_UNIT_S} s); item factors "
        f"{min(factors, default=0):.3f}-{max(factors, default=0):.3f}",
        f"setup samples {[round(s, 4) for s in setup]}",
    ]
    return results, metrics, notes


def per_layer(strategem, workload, seed, work_dir):
    from stats import scaling_efficiency
    from tracer import LEAVES, Tracer, instrument, layer_metrics, leaf_wrapper_cost
    from workloads import Runner

    tracer = Tracer()
    runner = Runner(strategem, workload, seed, work_dir, quiet=tracer.paused)
    items = range(workload.trace_items)
    with instrument(tracer):
        traced = [runner.run_item(i, 1) for i in items]
    with instrument(tracer, LEAVES):
        leaf_pass = [runner.run_item(i, 1) for i in items]
    serial = [runner.run_item(i, 1) for i in items]
    pooled = workload.kind != "single"
    workers = runner.batch.parallelism
    parallel = [runner.run_item(i, workers) for i in items] if pooled else []
    results = traced + leaf_pass + serial + parallel
    per_call = leaf_wrapper_cost()

    def wall(rs):
        return sum(r.seconds for r in rs)

    runs = sum(r.runs for r in traced)
    traced_rate = runs / wall(traced) if wall(traced) else 0.0
    serial_rate = runs / wall(serial) if wall(serial) else 0.0
    metrics = layer_metrics(tracer)
    metrics.update(
        {
            "engine.trace_bytes": (sum(r.trace_bytes for r in traced), "bytes"),
            "experiment.scaling_efficiency": (
                scaling_efficiency(wall(serial), wall(parallel), workers)
                if pooled and wall(parallel)
                else 0.0,
                "ratio",
            ),
            "tracing.runs": (runs, "count"),
            "tracing.runs_per_s_traced": (traced_rate, "1/s"),
            "tracing.runs_per_s_untraced": (serial_rate, "1/s"),
            "tracing.overhead_runs_per_s": (serial_rate - traced_rate, "1/s"),
        }
    )
    OUT_ROOT.mkdir(exist_ok=True)
    spans_path = OUT_ROOT / f"spans_{workload.name}_seed{seed}.csv"
    tracer.write_spans(spans_path)
    notes = [
        f"span pass: {len(traced)} items, {runs} runs at parallelism 1, {wall(traced):.3f} s; "
        f"{len(tracer.spans)} spans kept in {spans_path.relative_to(program.ROOT)}",
        f"leaf pass: {wall(leaf_pass):.3f} s; a leaf timer records {per_call * 1e9:.0f} ns "
        f"around a call that does nothing",
        f"serial untraced {wall(serial):.3f} s"
        + (f", {workers} workers {wall(parallel):.3f} s" if pooled else ", no pool"),
    ]
    notes += [
        f"{name}: {tracer.calls[name]} calls, {tracer.total[name]:.4f} s, "
        f"of which about {tracer.calls[name] * per_call:.4f} s is its timer"
        for _, _, name, _ in LEAVES
    ]
    notes += [f"target missing, its metrics read 0: {name}" for name in tracer.missing]
    return results, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        strategem = program.load()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    from workloads import check_item

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        check = check_item(strategem, workload, work_dir)
        if args.trace:
            results, metrics, notes = per_layer(strategem, workload, args.seed, work_dir)
        else:
            results, metrics, notes = end_to_end(strategem, workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    results = [check] + results
    attempted = len(results)
    failed = sum(1 for r in results if r.problems)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, digest in check.digests.items():
        print(f"digest check {name} {digest}")
    seen = set()
    for r in results[1:]:
        key = r.item % workload.cycle
        if key not in seen and r.digests:
            seen.add(key)
            for name, digest in r.digests.items():
                print(f"digest input {key} {name} {digest}")
    for r in results:
        for problem in r.problems:
            print(f"FAILED {problem}")
    for note in notes:
        print(note)
    print(f"failed_frac = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
