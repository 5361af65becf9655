"""The benchmark's metric arithmetic, and exact repetition of its counts."""

import time

import pytest

import program
from calibrate import REFERENCE_UNIT_S, HostClock
from stats import quartile_spread, scaling_efficiency, self_time, tail, union_length
from tracer import LEAVES, Tracer, instrument, layer_metrics
from workloads import WORKLOADS, Runner

strategem = program.load()


def test_tail_leaves_at_least_ten_samples_beyond():
    samples = [float(x) for x in range(30, 0, -1)]
    value, pct = tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert value == 20.0 and pct == pytest.approx(200 / 3)
    # With ten samples or fewer no percentile qualifies: the maximum.
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail([float(x) for x in range(11)]) == (0.0, 100 / 11)


def test_self_time_is_span_minus_union_of_children():
    assert union_length([(1, 3), (2, 5), (7, 8)]) == 5
    assert self_time(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    # Children are clipped to the span.
    assert self_time(0, 10, [(-1, 2), (9, 12)]) == 7
    assert self_time(0, 10, []) == 10


def test_tracer_self_time_excludes_wrapped_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def outer_body():
        inner()
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", outer_body)()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_s["outer"] == pytest.approx(tracer.total["outer"] - tracer.total["inner"])
    assert 0.009 < tracer.self_s["outer"] < tracer.total["outer"] / 2


def test_scaling_efficiency_and_spread():
    assert scaling_efficiency(serial_s=8.0, parallel_s=5.0, workers=2) == 0.8
    assert scaling_efficiency(serial_s=8.0, parallel_s=4.0, workers=2) == 1.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_host_factor_turns_wall_seconds_into_reference_seconds():
    clock = HostClock()
    assert clock.factor(REFERENCE_UNIT_S, REFERENCE_UNIT_S) == 1.0
    # A host running the kernel at half speed halves the item's time.
    assert clock.factor(2 * REFERENCE_UNIT_S, 2 * REFERENCE_UNIT_S) == 0.5
    # The two blocks that bracket an item weigh equally.
    assert clock.factor(REFERENCE_UNIT_S, 3 * REFERENCE_UNIT_S) == 0.5
    assert clock.tick() > 0 and len(clock.blocks) == 1


@pytest.mark.parametrize("name", ["single_run", "small_world_batch"])
def test_counts_repeat_exactly_across_traced_runs(tmp_path, name):
    workload = WORKLOADS[name]
    counted = []
    for _ in range(2):
        tracer = Tracer()
        runner = Runner(strategem, workload, 7, tmp_path, quiet=tracer.paused)
        with instrument(tracer):
            assert runner.run_item(0, workers=1).problems == []
        # The span pass leaves the hot leaves unwrapped.
        assert tracer.calls["model.total_asset_value"] == 0
        with instrument(tracer, LEAVES):
            assert runner.run_item(0, workers=1).problems == []
        metrics = layer_metrics(tracer)
        counted.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")})
    assert counted[0] == counted[1]
    assert counted[0]["engine.step_cycle_calls"] == workload_runs(workload) * 200
    assert counted[0]["engine.entry_attempts"] >= counted[0]["engine.entries_joined"] > 0
    assert counted[0]["model.total_asset_value_calls"] > 0


def workload_runs(workload):
    return 1 if workload.kind == "single" else strategem.config.load_config(
        str(program.ROOT / "perfbench" / "configs" / workload.config)
    ).n_runs
