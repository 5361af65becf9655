"""Acceptance gate: the eight primary criteria.

One test per criterion; each prints a single "CRITERION n: PASS/FAIL" line
(and the pytest -v status line mirrors it). Criteria 2, 3, 4, and 8 share
one 100-run batch at the default configuration and base seed.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest

import strategem.engine as engine
from strategem.engine import World, sfm_buy
from strategem.config import BatchConfig, SimConfig
from strategem.experiment import derive_seed, run_batch
from strategem.model import Firm, Market, ResourceBundle, Strategy
from strategem.strategy import (
    io_choose_market,
    market_attractiveness,
    rbv_candidate,
    resource_shortfall,
)

N_DESK_RUNS = 100


def _report(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def batch100():
    """The desk-scale batch: 100 runs, default config, default base seed."""
    batch = BatchConfig(n_runs=N_DESK_RUNS, base_seed=0, sim=SimConfig())
    start = time.perf_counter()
    summaries, _ = run_batch(batch)
    elapsed = time.perf_counter() - start
    return summaries, elapsed


def test_criterion_1_determinism(tmp_path):
    outputs = {}
    times = {}
    for workers in (1, 8):
        out = os.path.join(tmp_path, f"w{workers}")
        batch = BatchConfig(
            n_runs=10, base_seed=0, sim=SimConfig(), parallelism=workers
        )
        start = time.perf_counter()
        run_batch(batch, out_dir=out)
        times[workers] = time.perf_counter() - start
        outputs[workers] = {
            name: Path(out, name).read_bytes()
            for name in ("runs.csv", "aggregate.csv")
        }
    identical = outputs[1] == outputs[8]
    fast = max(times.values()) < 10.0
    ok = identical and fast
    _report(
        1, "determinism", ok,
        f"workers 1 vs 8 byte-identical={identical}, "
        f"10-run smoke batch {max(times.values()):.1f}s (limit 10s)",
    )
    assert identical, "worker count changed output bytes"
    assert fast, f"10-run smoke batch took {max(times.values()):.1f}s (limit 10s)"


def test_criterion_2_crossover(batch100):
    summaries, elapsed = batch100
    io20 = np.array([s.checkpoints[20]["io_in_top10"] for s in summaries])
    io200 = np.array([s.checkpoints[200]["io_in_top10"] for s in summaries])
    # IO and RBV counts sum to 10, so "IO mean exceeds RBV mean" is mean > 5.
    # Paired sign test: runs where IO leads vs. runs where RBV leads, ties
    # dropped, one-sided binomial at p < 0.05.
    w20, l20 = int(np.sum(io20 > 5)), int(np.sum(io20 < 5))
    w200, l200 = int(np.sum(io200 < 5)), int(np.sum(io200 > 5))
    p20 = binomtest(w20, w20 + l20, alternative="greater").pvalue
    p200 = binomtest(w200, w200 + l200, alternative="greater").pvalue
    ok = (
        io20.mean() > 5.0
        and io200.mean() < 5.0
        and p20 < 0.05
        and p200 < 0.05
        and elapsed < 300.0
    )
    _report(
        2, "early-IO/late-RBV crossover", ok,
        f"mean IO in top 10: {io20.mean():.2f} @20 vs {io200.mean():.2f} @200; "
        f"sign tests p={p20:.2g} @20, p={p200:.2g} @200; batch {elapsed:.0f}s",
    )
    assert io20.mean() > 5.0, f"IO does not lead at cycle 20 (mean {io20.mean():.2f})"
    assert io200.mean() < 5.0, f"RBV does not lead at cycle 200 (mean {io200.mean():.2f})"
    assert p20 < 0.05, f"cycle-20 sign test p={p20:.3g}"
    assert p200 < 0.05, f"cycle-200 sign test p={p200:.3g}"
    assert elapsed < 300.0, f"100-run batch took {elapsed:.0f}s (limit 300s)"


def test_criterion_3_best_firm_shift(batch100):
    summaries, _ = batch100
    f20 = sum(s.checkpoints[20]["best_is_rbv"] for s in summaries) / len(summaries)
    f200 = sum(s.checkpoints[200]["best_is_rbv"] for s in summaries) / len(summaries)
    ok = f200 > f20
    _report(
        3, "best-firm shift", ok,
        f"best firm is RBV in {100 * f20:.0f}% of runs @20 vs {100 * f200:.0f}% @200",
    )
    assert ok, f"best-RBV fraction did not rise: {f20:.2f} -> {f200:.2f}"


def test_criterion_4_population_average_dominance(batch100):
    summaries, _ = batch100
    counts = {}
    for cycle in (20, 200):
        counts[cycle] = sum(
            1
            for s in summaries
            if s.checkpoints[cycle]["avg_all_io"] > s.checkpoints[cycle]["avg_all_rbv"]
        )
    ok = counts[20] >= 90 and counts[200] >= 90
    _report(
        4, "population-average IO dominance", ok,
        f"avg-all IO > avg-all RBV in {counts[20]}/100 runs @20 "
        f"and {counts[200]}/100 @200 (floor 90)",
    )
    assert ok, f"dominance counts {counts} below the 90-run floor"


def test_criterion_5_chooser_oracles():
    rng = np.random.Generator(np.random.PCG64(2024))
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 25))
        markets = []
        for j in range(n):
            m = Market(
                j,
                int(rng.choice([10, 100, 1000])),
                float(rng.uniform(0.05, 3.0)),
                ResourceBundle(*rng.uniform(0, 100, 3)),
            )
            # integer occupancy plus deliberate duplicates to exercise ties
            m.occupants = int(rng.integers(0, 5))
            markets.append(m)
        io_firm = Firm(0, Strategy.IO, 1000.0, ResourceBundle())
        column = np.array([market_attractiveness(m) for m in markets])
        choice = io_choose_market(io_firm, column, None)
        scores = [market_attractiveness(m) for m in markets]
        best = max(scores)
        if choice.market != min(m.id for m, s in zip(markets, scores) if s == best):
            mismatches += 1

        rbv_firm = Firm(1, Strategy.RBV, 1000.0, ResourceBundle(*rng.uniform(0, 100, 3)))
        candidate = rbv_candidate(rbv_firm, markets, False)
        dists = [resource_shortfall(rbv_firm, m, literal_sign=False) for m in markets]
        dmin = min(dists)
        if candidate.id != min(m.id for m, d in zip(markets, dists) if d == dmin):
            mismatches += 1
    ok = mismatches == 0
    _report(
        5, "chooser oracles", ok,
        f"{mismatches} mismatches over 10,000 instances per chooser",
    )
    assert ok, f"{mismatches} oracle mismatches"


def test_criterion_6_conservation_and_bookkeeping(monkeypatch):
    violations = []

    def checked_buy(firm, wanted, sfm):
        # A refused call may meet a firm whose cash is already negative
        # (maintenance can overdraw an IO firm); it must move nothing.
        before = (firm.cash, firm.resources.as_tuple(), sfm.stock.as_tuple())
        result = sfm_buy(firm, wanted, sfm)
        if result is None:
            if (firm.cash, firm.resources.as_tuple(), sfm.stock.as_tuple()) != before:
                violations.append(f"refused purchase moved firm {firm.id}'s holdings")
        elif firm.cash < 0.0:
            violations.append(f"purchase drove firm {firm.id} cash to {firm.cash}")
        return result

    monkeypatch.setattr(engine, "sfm_buy", checked_buy)

    cfg = SimConfig()
    for run in range(10):
        rng = np.random.Generator(np.random.PCG64(derive_seed(6, run)))
        world = World(cfg, rng)
        base_totals = _resource_totals(world)
        prev_perf = {f.id: 0.0 for f in world.firms}
        for _ in range(cfg.n_cycles):
            v_pre = {m.id: m.share_value for m in world.markets}
            world.step_cycle()
            # revenue conservation: per-market payouts sum to NP * v(t)
            sums: dict[int, float] = {}
            active: set[int] = set()
            for firm in world.firms:
                market_id, tr, alive = firm.market, firm.revenue, firm.alive
                if market_id is not None:
                    sums[market_id] = sums.get(market_id, 0.0) + tr
                    # dead corpses keep their market tag but earn nothing;
                    # only markets with a paid occupant owe NP * v
                    if alive or tr != 0.0:
                        active.add(market_id)
            for market in world.markets:
                if market.id in active:
                    expected = market.shares * v_pre[market.id]
                    if abs(sums[market.id] - expected) > 1e-12 * max(expected, 1.0):
                        violations.append(
                            f"run {run}: market {market.id} revenue "
                            f"{sums[market.id]} != {expected}"
                        )
            # SFM trades conserve bundles: firms + stock totals never move
            totals = _resource_totals(world)
            for base, now in zip(base_totals, totals):
                if abs(now - base) > 1e-9 * max(base, 1.0):
                    violations.append(f"run {run}: resource total drifted {base} -> {now}")
            # total_perf is exactly the running sum of instant ROA
            for firm in world.firms:
                if firm.alive and firm.total_perf != prev_perf[firm.id] + firm.instant_perf:
                    violations.append(f"run {run}: firm {firm.id} perf sum broken")
                prev_perf[firm.id] = firm.total_perf
    ok = not violations
    _report(
        6, "conservation and bookkeeping", ok,
        f"{len(violations)} violations over 10 full runs",
    )
    assert ok, violations[:5]


def _resource_totals(world):
    totals = list(world.sfm.stock.as_tuple())
    for firm in world.firms:
        for i, q in enumerate(firm.resources.as_tuple()):
            totals[i] += q
    return tuple(totals)


def test_criterion_7_full_scale_throughput(tmp_path):
    workers = min(8, os.cpu_count() or 1)
    batch = BatchConfig(
        n_runs=1008, base_seed=0, sim=SimConfig(), parallelism=workers
    )
    start = time.perf_counter()
    summaries, _ = run_batch(batch, out_dir=str(tmp_path / "full"))
    elapsed = time.perf_counter() - start
    ok = elapsed < 600.0 and len(summaries) == 1008
    _report(
        7, "full-scale throughput", ok,
        f"1008 runs in {elapsed:.0f}s with {workers} worker(s) (limit 600s)",
    )
    assert len(summaries) == 1008
    assert elapsed < 600.0, f"full batch took {elapsed:.0f}s (limit 600s)"


def test_criterion_8_rbv_profile_sanity(batch100):
    summaries, _ = batch100
    counts = {"wallflower": 0.0, "convenience": 0.0, "soul_mate": 0.0}
    perf_sums = dict(counts)
    for s in summaries:
        stats = s.checkpoints[200]
        for key in counts:
            n = stats[f"n_{key}"]
            counts[key] += n
            if n:
                perf_sums[key] += stats[f"perf_{key}"] * n
    means = {k: perf_sums[k] / counts[k] for k in counts if counts[k]}
    all_present = all(counts[k] > 0 for k in counts)
    ordered = (
        all_present
        and means["soul_mate"] > means["convenience"] > means["wallflower"]
    )
    ok = all_present and ordered
    _report(
        8, "RBV profile sanity", ok,
        f"counts {({k: int(v) for k, v in counts.items()})}, "
        f"mean perf {({k: round(float(v), 3) for k, v in means.items()})}",
    )
    assert all_present, f"missing profiles: {counts}"
    assert ordered, f"profile ordering broken: {means}"
