"""Command-line front end: subcommands, exit codes, and output files."""

import csv
import os

import pytest

from strategem import experiment
from strategem.cli import main
from strategem.config import BatchConfig, SimConfig, dump_config, load_config

SMALL = ["--cycles", "3", "--firms", "20", "--markets", "5", "--set", "sim.checkpoint_cycles=3"]


def read_tree(root):
    """Every file under `root`, by path relative to it, with its bytes."""
    tree = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree

# Values the typed parse or validate() rejects; each must fail before any
# run, with exit 1.
OUT_OF_RANGE = (
    "sim.crowding=-0.2",
    "sim.initial_price=0",
    "sim.price_floor=0",
    "sim.value_floor=-1",
    "sim.initial_stock=-1",
    "sim.crowding=nan",
    "sim.share_value_range=0.5, inf",
    "sim.checkpoint_cycles=0",
    "sim.value_floor=1e305",
    "sim.initial_price=1e308",
    "sim.share_value_range=1e308, 1e308",
    "sim.market_size_choices=" + "9" * 401,
    "sim.price_alpha=-2e102",
    "sim.barrier_range=1e200, 1e200",
    "sim.n_firms=none",
    "sim.literal_distance_sign=none",
    "sim.share_value_range=1",
    "sim.resource_init_range=1,2,3",
    "batch.parallelism=100000",
)


class TestValidate:
    def test_default_config(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "200 firms, 20 markets, 200 cycles" in out

    def test_round_trip_through_validate(self, tmp_path, capsys):
        assert main(["validate"]) == 0
        dumped = capsys.readouterr().out.rsplit("\nok:", 1)[0]
        path = tmp_path / "echo.ini"
        path.write_text(dumped)
        assert main(["validate", "--config", str(path)]) == 0
        redumped = capsys.readouterr().out.rsplit("\nok:", 1)[0]
        assert redumped == dumped

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\nn_firms = lots\n")
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "[sim] n_firms" in err

    def test_percent_sign_is_a_bad_value_not_a_crash(self, tmp_path, capsys):
        # The parser does no interpolation, so '%' is just a character.
        path = tmp_path / "pct.ini"
        path.write_text("[sim]\nn_firms = 5%\n")
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [sim] n_firms: bad value '5%'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("override", OUT_OF_RANGE)
    def test_out_of_range_value_exits_1(self, tmp_path, capsys, command, override):
        out = str(tmp_path / "out")
        out_flag = ["--out", out] if command == "run" else []
        assert main([command, "--set", override, *out_flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert len(err.strip().splitlines()) == 1  # a message, not a traceback
        assert not os.path.exists(out)

    def test_echoed_config_loads_back(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[sim]\ncheckpoint_cycles =\nn_firms = 20\nn_markets = 5\nn_cycles = 5\n")
        out = str(tmp_path / "out")
        code = main(
            ["run", "--config", str(ini), "--set", "sim.checkpoint_cycles=5", "--out", out]
        )
        assert code == 0
        echo = os.path.join(out, "effective_config.ini")
        loaded = load_config(echo)
        assert loaded.sim.checkpoint_cycles == (5,)
        assert dump_config(loaded) == open(echo).read()

    def test_shortcuts_apply_before_set(self, capsys):
        assert main(["validate", "--seed", "3", "--set", "batch.base_seed=4"]) == 0
        assert "base_seed = 4\n" in capsys.readouterr().out


class TestRun:
    def test_zero_cycle_run_traces_initialization_only(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "--seed", "42", "--cycles", "0", "--out", out]) == 0
        lines = open(os.path.join(out, "traces", "run_0.csv")).read().splitlines()
        assert len(lines) == 1 + 200  # header + one row per firm, no cycles
        assert os.path.exists(os.path.join(out, "effective_config.ini"))

    def test_small_run_writes_summary(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(
            ["run", "--seed", "1", "--cycles", "5", "--out", out,
             "--set", "sim.n_firms=20", "--set", "sim.n_markets=5",
             "--set", "sim.checkpoint_cycles=5"]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "runs.csv"))

    def test_run_reruns_from_its_echo_and_matches_batch_run_0(self, tmp_path):
        small = ["--cycles", "5", "--firms", "20", "--markets", "5",
                 "--set", "sim.checkpoint_cycles=5"]
        out = str(tmp_path / "run")
        assert main(["run", "--seed", "42", *small, "--out", out]) == 0
        files = read_tree(out)

        echo = os.path.join(out, "effective_config.ini")
        rerun = str(tmp_path / "rerun")
        assert main(["run", "--config", echo, "--out", rerun]) == 0
        assert read_tree(rerun) == files

        # `run` is `batch --runs 1 --trace`: every file the same, the echo too.
        batch = str(tmp_path / "batch")
        code = main(["batch", "--seed", "42", "--runs", "1", "--trace", *small, "--out", batch])
        assert code == 0
        assert read_tree(batch) == files

    @pytest.mark.parametrize("order", [("batch", "run"), ("run", "batch")])
    def test_out_holds_only_the_last_commands_files(self, tmp_path, order):
        def argv(command, out):
            runs = ["--runs", "3", "--trace"] if command == "batch" else []
            return [command, *runs, *SMALL, "--out", out]

        out = str(tmp_path / "out")
        for command in order:
            assert main(argv(command, str(tmp_path / command))) == 0
        for command in order:
            assert main(argv(command, out)) == 0
            assert read_tree(out) == read_tree(str(tmp_path / command))
            agg = str(tmp_path / f"agg_{command}")
            assert main(["aggregate", os.path.join(out, "runs.csv"), "--out", agg]) == 0
            assert read_tree(agg) == {"aggregate.csv": read_tree(out)["aggregate.csv"]}

    def test_run_of_a_batch_config_runs_once_without_a_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-run batch started a pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        ini = tmp_path / "batch.ini"
        ini.write_text("[batch]\nn_runs = 1008\nparallelism = 8\n")
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(ini), *SMALL, "--out", out]) == 0
        assert set(read_tree(out)) == {
            "effective_config.ini", "runs.csv", "aggregate.csv", os.path.join("traces", "run_0.csv"),
        }
        with open(os.path.join(out, "runs.csv")) as fh:
            assert len(fh.readlines()) == 2
        echo = open(os.path.join(out, "effective_config.ini")).read()
        assert "n_runs = 1\n" in echo and "parallelism = 8\n" in echo

    def test_failing_run_names_run_0_and_its_seed(self, tmp_path, capsys, monkeypatch):
        def failing_run_one(*args, **kwargs):
            raise ArithmeticError("boom")

        monkeypatch.setattr(experiment, "run_one", failing_run_one)
        out = str(tmp_path / "out")
        assert main(["run", "--seed", "42", "--cycles", "1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"runtime error: run 0 (seed {experiment.derive_seed(42, 0)}) failed: boom" in err


class TestBatchAndAggregate:
    def test_aggregate_reproduces_batch_aggregate(self, tmp_path):
        # A --cycles 0 batch leaves its rd_* and some perf_* fields blank
        # (NaN), so the byte equality covers blank fields too.
        for cycles in ("6", "0"):
            out = str(tmp_path / f"out{cycles}")
            code = main(
                ["batch", "--runs", "4", "--cycles", cycles, "--out", out,
                 "--set", "sim.n_firms=20", "--set", "sim.n_markets=5",
                 "--set", "sim.checkpoint_cycles=3, 6"]
            )
            assert code == 0
            batch_bytes = open(os.path.join(out, "aggregate.csv"), "rb").read()
            if cycles == "0":
                with open(os.path.join(out, "runs.csv")) as fh:
                    assert next(csv.DictReader(fh))["c0_rd_best"] == ""

            out2 = str(tmp_path / f"agg{cycles}")
            code = main(["aggregate", os.path.join(out, "runs.csv"), "--out", out2])
            assert code == 0
            agg_bytes = open(os.path.join(out2, "aggregate.csv"), "rb").read()
            assert agg_bytes == batch_bytes

            # idempotence: aggregating again changes nothing
            assert main(["aggregate", os.path.join(out, "runs.csv"), "--out", out2]) == 0
            assert open(os.path.join(out2, "aggregate.csv"), "rb").read() == agg_bytes

    def test_a_batch_leaves_only_its_own_traces(self, tmp_path):
        out = str(tmp_path / "out")
        for runs, trace in (("5", ["--trace"]), ("3", ["--trace"]), ("2", [])):
            assert main(["batch", "--runs", runs, *trace, *SMALL, "--out", out]) == 0
            expected = {f"run_{i}.csv" for i in range(int(runs))} if trace else set()
            assert set(os.listdir(os.path.join(out, "traces"))) == expected
            with open(os.path.join(out, "runs.csv")) as fh:
                assert len(fh.readlines()) == 1 + int(runs)

    def test_run_batch_echoes_its_own_config_over_a_cli_batchs(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["batch", "--runs", "2", "--firms", "20", "--cycles", "5", "--out", out]) == 0
        batch = BatchConfig(n_runs=3, base_seed=7, sim=SimConfig(n_firms=10, n_cycles=5))
        experiment.run_batch(batch, out_dir=out)
        echo = os.path.join(out, "effective_config.ini")
        assert open(echo).read() == dump_config(batch)
        assert load_config(echo) == batch

    def test_aggregate_missing_input_exits_1(self, tmp_path, capsys):
        assert main(["aggregate", str(tmp_path / "nope.csv")]) == 1

    def test_aggregate_without_run_id_column_exits_1(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_text("seed,c5_best_io\n7,0.5\n")
        out = str(tmp_path / "agg")
        assert main(["aggregate", str(path), "--out", out]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "run_id" in err
        assert len(err.strip().splitlines()) == 1  # a message, not a traceback
        assert not os.path.exists(out)

    def test_aggregate_short_row_exits_1(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_text("run_id,seed,c5_best_io,c5_best_rbv\n0,7,0.5,0.25\n1,8,0.5\n")
        out = str(tmp_path / "agg")
        assert main(["aggregate", str(path), "--out", out]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err
        assert len(err.strip().splitlines()) == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "header,row,line",
        [
            ("run_id,seed,cx_best_io", "0,7,0.5", "line 1"),  # no integer cycle
            ("run_id,seed,c5_best_io", "0,7,abc", "line 2"),  # not a number
        ],
    )
    def test_aggregate_malformed_field_exits_1(self, tmp_path, capsys, header, row, line):
        path = tmp_path / "runs.csv"
        path.write_text(f"{header}\n{row}\n")
        out = str(tmp_path / "agg")
        assert main(["aggregate", str(path), "--out", out]) == 1
        err = capsys.readouterr().err
        assert line in err
        assert len(err.strip().splitlines()) == 1
        assert not os.path.exists(out)

    def test_aggregate_of_a_batch_whose_run_0_failed_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        def failing_run_one(*args, **kwargs):
            raise ArithmeticError("boom")

        monkeypatch.setattr(experiment, "run_one", failing_run_one)
        out = str(tmp_path / "out")
        assert main(["batch", "--runs", "2", *SMALL, "--out", out]) == 2
        runs_csv = os.path.join(out, "runs.csv")
        assert len(open(runs_csv).readlines()) == 1  # the header alone
        capsys.readouterr()
        agg = str(tmp_path / "agg")
        assert main(["aggregate", runs_csv, "--out", agg]) == 1
        err = capsys.readouterr().err
        assert runs_csv in err and "no runs" in err
        assert len(err.strip().splitlines()) == 1
        assert not os.path.exists(agg)

    def test_aggregate_that_cannot_write_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["batch", "--runs", "1", *SMALL, "--out", out]) == 0
        capsys.readouterr()
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        # `batch` into the same path fails the same way.
        for argv in (
            ["aggregate", os.path.join(out, "runs.csv"), "--out", str(taken)],
            ["batch", "--runs", "1", *SMALL, "--out", str(taken)],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("runtime error: ")
            assert len(err.strip().splitlines()) == 1
        assert taken.read_text() == "a file, not a directory\n"

    def test_batch_with_two_workers(self, tmp_path):
        # 5 runs at parallelism 2 start both workers, each taking one run at a time.
        out = str(tmp_path / "out")
        code = main(
            ["batch", "--workers", "2", "--runs", "5", "--cycles", "3", "--out", out,
             "--set", "sim.n_firms=20", "--set", "sim.n_markets=5",
             "--set", "sim.checkpoint_cycles=3"]
        )
        assert code == 0
        assert "parallelism = 2\n" in open(os.path.join(out, "effective_config.ini")).read()

    def test_bad_override_exits_1(self, tmp_path, capsys):
        # a tiny batch, so a wrongly accepted override cannot start a big one
        small = ["--out", str(tmp_path / "out"), "--runs", "1", "--cycles", "1"]
        assert main(["batch", *small, "--set", "garbage"]) == 1
        assert main(["batch", *small, "--set", "sim.bogus=1"]) == 1
        assert main(["validate", "--set", "sim.rng_seed=5"]) == 1  # no such key


class TestUsage:
    def test_unknown_flag_exits_1(self):
        assert main(["run", "--bogus"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["run", "--trace"], ["run", "--runs", "3"], ["run", "--workers", "2"],
         ["validate", "--out", "d"], ["validate", "--trace"]],
    )
    def test_flag_the_subcommand_does_not_read_exits_1(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # an accepted flag would write ./out or ./d
        assert main(argv) == 1
        assert not os.listdir(tmp_path)

    def test_missing_subcommand_exits_1(self):
        assert main([]) == 1
