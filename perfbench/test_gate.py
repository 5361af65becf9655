"""The output gate: a one-ulp change to one formula fails it, at the
reference seed and in the check item every run makes, and both wrapped
passes of the traced run write the same bytes as the unwrapped one."""

import pytest

import program
from tracer import LEAVES, Tracer, instrument
from workloads import REFERENCE_SEED, WORKLOADS, Runner, check_item, load_references

strategem = program.load()


def test_one_ulp_change_fails_the_digest_check(tmp_path, monkeypatch):
    original = strategem.engine.update_share_value

    def one_ulp_up(*args, **kwargs):
        return original(*args, **kwargs) * (1.0 + 2.0**-52)

    monkeypatch.setattr(strategem.engine, "update_share_value", one_ulp_up)
    runner = Runner(strategem, WORKLOADS["small_world_batch"], REFERENCE_SEED, tmp_path)
    result = runner.run_item(0, workers=1)
    assert any("differs from the reference" in p for p in result.problems), result.problems
    # The check item carries the gate to runs at any other seed.
    check = check_item(strategem, WORKLOADS["single_run"], tmp_path)
    assert any("differs from the reference" in p for p in check.problems), check.problems


@pytest.mark.parametrize("name", ["single_run", "traced_batch", "small_world_batch"])
def test_check_item_matches_its_reference(tmp_path, name):
    assert check_item(strategem, WORKLOADS[name], tmp_path).problems == []


@pytest.mark.parametrize("name", ["small_world_batch", "traced_batch"])
def test_traced_outputs_equal_untraced_and_reference(tmp_path, name):
    workload = WORKLOADS[name]
    tracer = Tracer()
    runner = Runner(strategem, workload, REFERENCE_SEED, tmp_path, quiet=tracer.paused)
    with instrument(tracer):
        traced = runner.run_item(0, workers=1)
    with instrument(tracer, LEAVES):
        leaves = runner.run_item(0, workers=1)
    untraced = runner.run_item(0, workers=1)
    assert traced.problems == leaves.problems == untraced.problems == []
    reference = load_references()["workloads"][name]["0"]
    assert traced.digests == leaves.digests == untraced.digests == reference
    assert tracer.calls["engine.step_cycle"] > 0 and tracer.calls["engine.sfm_buy"] > 0
    assert not tracer.missing
