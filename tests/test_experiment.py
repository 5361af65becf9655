"""Batch harness: seed derivation, run summaries, CSV round-trips, and
order-independent aggregation."""

import concurrent.futures
import io
import math
import multiprocessing
import os
import subprocess
import sys

import pytest

from strategem import config, experiment
from strategem.config import BatchConfig, SimConfig
from strategem.engine import format_field
from strategem.experiment import (
    CHECKPOINT_FIELDS,
    RunSummary,
    aggregate_summaries,
    derive_seed,
    read_runs_csv,
    run_batch,
    run_one,
    write_runs_csv,
)


def small_sim(**extra):
    overrides = dict(
        n_firms=20, n_markets=5, n_cycles=10, checkpoint_cycles=(5, 10)
    )
    overrides.update(extra)
    return SimConfig(**overrides)


class TestDeriveSeed:
    def test_depends_only_on_base_and_run_id(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_distinct_across_runs_and_bases(self):
        seeds = {derive_seed(base, i) for base in (0, 1, 42) for i in range(200)}
        assert len(seeds) == 600

    def test_is_64_bit_unsigned(self):
        s = derive_seed(0, 0)
        assert 0 <= s < 2**64


class TestRunOne:
    def test_zero_cycles_snapshots_initial_world(self):
        summary = run_one(derive_seed(0, 0), small_sim(n_cycles=0))
        assert list(summary.checkpoints) == [0]
        stats = summary.checkpoints[0]
        assert stats["io_in_top10"] + stats["rbv_in_top10"] == 10

    def test_fixed_seed_is_deterministic(self):
        a = run_one(123, small_sim())
        b = run_one(123, small_sim())
        assert a.checkpoints == b.checkpoints

    def test_checkpoints_match_config(self):
        summary = run_one(7, small_sim())
        assert sorted(summary.checkpoints) == [5, 10]

    @pytest.mark.parametrize("sim", [small_sim(n_cycles=0), small_sim()])
    def test_checkpoints_hold_exactly_the_csv_fields(self, sim):
        # A top_k_snapshot column missing from CHECKPOINT_FIELDS would
        # otherwise drop out of runs.csv without an error.
        summary = run_one(derive_seed(0, 1), sim)
        assert summary.checkpoints
        for stats in summary.checkpoints.values():
            assert sorted(stats) == sorted(CHECKPOINT_FIELDS)

    def test_invalid_config_aborts_before_cycles(self):
        with pytest.raises(ValueError):
            run_one(0, small_sim(n_firms=3))

    def test_trace_has_header_and_init_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        with open(path, "w") as fh:
            run_one(derive_seed(0, 0), small_sim(n_cycles=0), trace_out=fh)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("run_id,cycle,firm_id")
        assert len(lines) == 1 + 20  # header + one init row per firm

    @pytest.mark.parametrize("sim", [small_sim(n_cycles=0), small_sim()])
    def test_trace_leaves_checkpoints_unchanged(self, sim):
        def cells(summary):
            # Through format_field, so that NaN cells compare equal.
            return {
                cycle: {name: format_field(value) for name, value in stats.items()}
                for cycle, stats in summary.checkpoints.items()
            }

        plain = run_one(derive_seed(0, 2), sim)
        traced = run_one(derive_seed(0, 2), sim, trace_out=io.StringIO())
        assert plain.checkpoints
        assert cells(traced) == cells(plain)

    def test_traces_of_two_run_ids_differ_only_in_the_first_field(self):
        # Both runs in one process: the memo is per run, and the run id
        # reaches every row.
        traces = []
        for run_id in (0, 7):
            out = io.StringIO()
            run_one(derive_seed(0, 3), small_sim(), run_id=run_id, trace_out=out)
            traces.append(out.getvalue().splitlines())
        first, second = traces
        assert first[0] == second[0]  # the header
        assert len(first) == len(second) == 1 + 20 * 11
        for a, b in zip(first[1:], second[1:]):
            assert a.split(",", 1)[0] == "0"
            assert b.split(",", 1)[0] == "7"
            assert a.split(",", 1)[1] == b.split(",", 1)[1]


class TestRunsCsvRoundTrip:
    def test_write_read_identity(self, tmp_path):
        summaries = [
            run_one(derive_seed(1, i), small_sim(), run_id=i) for i in range(3)
        ]
        path = os.path.join(tmp_path, "runs.csv")
        write_runs_csv(path, summaries)
        loaded = read_runs_csv(path)
        assert [s.run_id for s in loaded] == [0, 1, 2]
        for orig, back in zip(summaries, loaded):
            assert back.seed == orig.seed
            for cycle, stats in orig.checkpoints.items():
                for key, value in stats.items():
                    got = back.checkpoints[cycle][key]
                    if math.isnan(value):
                        assert math.isnan(got)
                    else:
                        assert got == pytest.approx(value, rel=1e-15)


def _summary(run_id, values):
    s = RunSummary(run_id=run_id, seed=run_id)
    s.checkpoints[20] = values
    return s


class TestAggregate:
    def test_single_run_has_zero_spread(self):
        summary = run_one(derive_seed(0, 0), small_sim(), run_id=0)
        rows = {r["statistic"]: r for r in aggregate_summaries([summary])}
        for cycle in (5, 10):
            for key, value in summary.checkpoints[cycle].items():
                col = f"c{cycle}_{key}"
                if math.isnan(value):
                    assert math.isnan(rows["average"][col])
                    continue
                assert rows["average"][col] == pytest.approx(value)
                assert rows["st_dev"][col] == 0.0
                assert rows["median"][col] == pytest.approx(value)
                assert rows["maxima"][col] == rows["minima"][col]

    def test_two_row_arithmetic(self):
        base = {k: math.nan for k in
                ("io_in_top10", "rbv_in_top10", "best_io", "best_rbv",
                 "best_is_rbv", "avg5_io", "avg5_rbv", "avg10_io", "avg10_rbv",
                 "avg_all_io", "avg_all_rbv", "rd_best", "rd_avg5", "rd_avg10",
                 "rd_all", "n_wallflower", "n_convenience", "n_soul_mate",
                 "perf_wallflower", "perf_convenience", "perf_soul_mate")}
        a = dict(base, best_io=10.0, rd_best=0.5)
        b = dict(base, best_io=20.0, rd_best=-0.25)
        rows = {
            r["statistic"]: r
            for r in aggregate_summaries([_summary(0, a), _summary(1, b)])
        }
        assert rows["average"]["c20_best_io"] == pytest.approx(15.0)
        assert rows["st_dev"]["c20_best_io"] == pytest.approx(5.0)
        assert rows["variance"]["c20_best_io"] == pytest.approx(25.0)
        assert rows["median"]["c20_best_io"] == pytest.approx(15.0)
        assert rows["maxima"]["c20_best_io"] == 20.0
        assert rows["minima"]["c20_best_io"] == 10.0
        # The sign rows count the signs of the relative-difference columns
        assert rows["n_io_gt_rbv"]["c20_rd_best"] == 1.0
        assert rows["n_rbv_gt_io"]["c20_rd_best"] == 1.0
        assert rows["pct_io_gt_rbv"]["c20_rd_best"] == pytest.approx(50.0)
        assert rows["pct_rbv_gt_io"]["c20_rd_best"] == pytest.approx(50.0)
        # ... and are blank on every other column
        for stat in ("n_io_gt_rbv", "n_rbv_gt_io", "pct_io_gt_rbv", "pct_rbv_gt_io"):
            assert math.isnan(rows[stat]["c20_best_io"])
        # rd_all is blank in both runs: no signs to count, no share of them
        assert rows["n_io_gt_rbv"]["c20_rd_all"] == rows["n_rbv_gt_io"]["c20_rd_all"] == 0.0
        assert math.isnan(rows["pct_io_gt_rbv"]["c20_rd_all"])
        assert math.isnan(rows["pct_rbv_gt_io"]["c20_rd_all"])

    def test_aggregate_is_pure_function_of_rows(self, tmp_path):
        batch = BatchConfig(n_runs=4, base_seed=9, sim=small_sim())
        out = os.path.join(tmp_path, "out")
        _, aggregate = run_batch(batch, out_dir=out)
        reloaded = read_runs_csv(os.path.join(out, "runs.csv"))
        assert aggregate_summaries(reloaded) == aggregate


def _traced_batch(out, workers):
    """Trace file name -> bytes of a small traced batch."""
    batch = BatchConfig(n_runs=6, base_seed=5, sim=small_sim(), parallelism=workers)
    run_batch(batch, out_dir=str(out), trace=True)
    return {p.name: p.read_bytes() for p in (out / "traces").iterdir()}


class TestRunBatch:
    def test_order_by_run_id_and_seed_contract(self, tmp_path):
        batch = BatchConfig(n_runs=5, base_seed=3, sim=small_sim())
        summaries, _ = run_batch(batch)
        assert [s.run_id for s in summaries] == list(range(5))
        assert [s.seed for s in summaries] == [derive_seed(3, i) for i in range(5)]

    @pytest.mark.parametrize("n_runs", [3, 6])
    def test_parallel_and_serial_outputs_are_byte_identical(self, tmp_path, n_runs):
        outputs = {}
        for workers in (1, 2):
            out = os.path.join(tmp_path, f"w{workers}")
            batch = BatchConfig(
                n_runs=n_runs, base_seed=17, sim=small_sim(), parallelism=workers
            )
            run_batch(batch, out_dir=out)
            outputs[workers] = {
                name: open(os.path.join(out, name), "rb").read()
                for name in ("runs.csv", "aggregate.csv")
            }
        assert outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "sim",
        [
            small_sim(n_cycles=0),
            small_sim(n_cycles=30, checkpoint_cycles=(200, 20, 20)),
            small_sim(checkpoint_cycles=()),
        ],
        ids=["no-cycles", "checkpoint-past-the-end", "no-checkpoints"],
    )
    def test_runs_csv_has_the_columns_of_its_summaries(self, tmp_path, sim):
        # run_batch writes the header before any run, from the config; it
        # must name the columns that the finished summaries hold.
        summaries, _ = run_batch(BatchConfig(n_runs=2, sim=sim), out_dir=str(tmp_path))
        write_runs_csv(str(tmp_path / "again.csv"), summaries)
        assert (tmp_path / "runs.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()

    @pytest.mark.parametrize(
        "workers",
        [
            1,
            pytest.param(2, marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="pool workers inherit the patched run_one only when forked",
            )),
        ],
    )
    def test_failed_run_keeps_the_rows_before_it(self, tmp_path, monkeypatch, workers):
        def batch(out):
            run_batch(
                BatchConfig(n_runs=6, base_seed=5, sim=small_sim(), parallelism=workers),
                out_dir=str(out),
            )

        batch(tmp_path / "whole")
        whole = (tmp_path / "whole" / "runs.csv").read_text().splitlines(keepends=True)

        def failing_run_one(seed, config, run_id=0, trace_out=None):
            if run_id == 3:
                raise ValueError("on purpose")
            return run_one(seed, config, run_id=run_id, trace_out=trace_out)

        # The pool's forked workers inherit the patch.
        monkeypatch.setattr(experiment, "run_one", failing_run_one)
        out = tmp_path / "failed"
        out.mkdir()
        (out / "aggregate.csv").write_text("an earlier batch's\n")
        error = rf"^run 3 \(seed {derive_seed(5, 3)}\) failed: on purpose$"
        with pytest.raises(RuntimeError, match=error):
            batch(out)
        assert (out / "runs.csv").read_text() == "".join(whole[:4])
        assert not (out / "aggregate.csv").exists()

    def test_traces_written_during_the_only_pass(self, tmp_path, monkeypatch):
        calls = []

        def counting_run_one(*args, **kwargs):
            calls.append(kwargs["run_id"])
            return run_one(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(experiment, "run_one", counting_run_one)
            serial = _traced_batch(tmp_path / "w1", workers=1)
        assert calls == list(range(6))  # one simulation per run, trace included
        assert sorted(serial) == sorted(f"run_{i}.csv" for i in range(6))
        assert _traced_batch(tmp_path / "w2", workers=2) == serial

    def test_trace_without_out_dir_raises_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(experiment, "run_one", no_run)
        with pytest.raises(ValueError, match="out_dir"):
            run_batch(BatchConfig(n_runs=2, sim=small_sim()), trace=True)

    def test_checkpoints_past_n_cycles_are_dropped(self, tmp_path):
        sim = small_sim(n_cycles=30, checkpoint_cycles=(20, 200))
        run_batch(BatchConfig(n_runs=2, base_seed=4, sim=sim), out_dir=str(tmp_path))
        for name in ("runs.csv", "aggregate.csv"):
            text = (tmp_path / name).read_text()
            assert "c20_" in text
            assert "c200_" not in text

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            BatchConfig(n_runs=0).validate()
        with pytest.raises(ValueError):
            BatchConfig(base_seed=-1).validate()
        with pytest.raises(ValueError):
            BatchConfig(parallelism=0).validate()
        with pytest.raises(ValueError):
            BatchConfig(parallelism=config.MAX_PARALLELISM + 1).validate()
        BatchConfig(parallelism=config.MAX_PARALLELISM).validate()

    @pytest.mark.parametrize(
        "n_runs,pools", [(1, []), (3, [3]), (10, [8])], ids=["one-run", "three-runs", "ten-runs"]
    )
    def test_pool_starts_one_worker_per_run_up_to_parallelism(
        self, monkeypatch, n_runs, pools
    ):
        # A stub executor records the pool size and the chunk size of each
        # dispatch, and runs the tasks in this process, so no worker process
        # starts. Workers take one run at a time: a one-run batch runs with
        # no pool, and a batch starts one worker per run, up to parallelism 8.
        sizes, chunks = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                chunks.append(chunksize)
                return map(fn, tasks)

        # run_batch imports the executor from concurrent.futures at pool start.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        batch = BatchConfig(n_runs=n_runs, base_seed=2, sim=small_sim(), parallelism=8)
        summaries, _ = run_batch(batch)
        assert sizes == pools
        assert chunks == [1] * len(pools)
        assert [s.run_id for s in summaries] == list(range(n_runs))

    def test_import_loads_no_pool_module(self):
        # Only a batch that starts a pool pays for the pool import, so a
        # fresh `import strategem` (and the CLI) loads no multiprocessing.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = (
            "import sys, strategem, strategem.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
