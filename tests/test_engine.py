"""Engine mechanics: SFM trades, price/value updates, survival,
the per-cycle loop, and whole-run invariants."""

import io
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategem.engine
from strategem.engine import (
    FLOAT_FORMAT,
    World,
    format_field,
    sfm_buy,
    sfm_sell,
    survival_check,
    update_share_value,
    update_sfm_prices,
    write_trace_rows,
)
from strategem.config import DOMAINS, MAX_RATE, MAX_SCALE, SECTIONS, BatchConfig, SimConfig
from strategem.experiment import derive_seed
from strategem.metrics import CHECKPOINT_FIELDS, checkpoint_stats
from strategem.model import (
    Firm,
    Market,
    ResourceBundle,
    SfmState,
    Strategy,
    bundle_value,
    total_asset_value,
)
from strategem.strategy import (
    barrier_deficit,
    io_choose_market,
    rbv_candidate,
    rbv_choose_market,
)


def make_market(mid, shares, value, barrier=(0, 0, 0), occupants=0):
    m = Market(mid, shares, value, ResourceBundle(*barrier))
    m.occupants = occupants
    return m


def make_firm(cash=100.0, resources=(0, 0, 0), strategy=Strategy.IO):
    return Firm(0, strategy, cash, ResourceBundle(*resources))


def make_sfm(pr=1.0, pg=1.0, pb=1.0, stock=1e6):
    return SfmState(ResourceBundle(stock, stock, stock), pr, pg, pb)


def make_world(seed=0, **overrides):
    cfg = SimConfig(**overrides)
    rng = np.random.Generator(np.random.PCG64(seed))
    return World(cfg, rng)


def recount_occupants(world):
    """Occupant counts recomputed from firm attachments (alive only)."""
    counts = {m.id: 0 for m in world.markets}
    for firm in world.firms:
        if firm.alive and firm.market is not None:
            counts[firm.market] += 1
    return counts


class TestUpdateShareValue:
    def test_empty_market_reverts_to_initial(self):
        m = make_market(0, 10, 1.5, occupants=0)
        m.share_value = 0.2
        assert update_share_value(m, crowding=0.05, noise=1.0, floor=0.01) == 1.5

    def test_crowding_halves_value(self):
        m = make_market(0, 10, 1.0, occupants=20)
        assert update_share_value(m, crowding=0.05, noise=1.0, floor=0.01) == pytest.approx(0.5)

    def test_floor_clamp(self):
        m = make_market(0, 10, 1.0, occupants=10**6)
        assert update_share_value(m, crowding=1.0, noise=1.0, floor=0.01) == 0.01

    def test_monotone_in_occupancy_without_noise(self):
        m = make_market(0, 10, 1.0)
        values = []
        for occ in range(0, 50, 5):
            m.occupants = occ
            values.append(update_share_value(m, 0.05, 1.0, 0.01))
        assert values == sorted(values, reverse=True)


class TestSfmBuy:
    def test_empty_purchase(self):
        firm = make_firm(cash=10.0)
        assert sfm_buy(firm, ResourceBundle(), make_sfm()) == 0.0
        assert firm.cash == 10.0

    def test_full_purchase(self):
        firm = make_firm(cash=10.0)
        sfm = make_sfm(pr=3.0, stock=5.0)
        assert sfm_buy(firm, ResourceBundle(2, 0, 0), sfm) == pytest.approx(6.0)
        assert firm.cash == pytest.approx(4.0)
        assert firm.resources.red == pytest.approx(2.0)
        assert sfm.stock.red == pytest.approx(3.0)

    def test_exact_cash_buys_everything(self):
        firm = make_firm(cash=12.0)
        assert sfm_buy(firm, ResourceBundle(4, 0, 0), make_sfm(pr=3.0)) == 12.0
        assert firm.cash == 0.0
        assert firm.resources.red == 4.0

    def test_unaffordable_buys_nothing(self):
        firm = make_firm(cash=6.0)
        sfm = make_sfm(pr=3.0)
        assert sfm_buy(firm, ResourceBundle(4, 0, 0), sfm) is None
        assert firm.cash == 6.0
        assert firm.resources.as_tuple() == (0.0, 0.0, 0.0)
        assert sfm.stock.red == 1e6

    def test_no_cash_no_transfer(self):
        firm = make_firm(cash=0.0)
        assert sfm_buy(firm, ResourceBundle(4, 0, 0), make_sfm()) is None
        assert firm.resources.as_tuple() == (0.0, 0.0, 0.0)

    def test_short_stock_buys_nothing(self):
        # one short component refuses the whole bundle, the others included
        firm = make_firm(cash=100.0)
        sfm = make_sfm(stock=1.0)
        assert sfm_buy(firm, ResourceBundle(1, 5, 0), sfm) is None
        assert firm.cash == 100.0
        assert firm.resources.as_tuple() == (0.0, 0.0, 0.0)
        assert sfm.stock.as_tuple() == (1.0, 1.0, 1.0)

    @given(
        st.floats(0, 100), st.floats(0, 100), st.floats(0, 100),
        st.floats(0, 500),
        st.floats(0.01, 10), st.floats(0.01, 10), st.floats(0.01, 10),
    )
    @settings(max_examples=200)
    def test_never_negative_cash_and_conserves(self, r, g, b, cash, pr, pg, pb):
        firm = make_firm(cash=cash)
        sfm = make_sfm(pr, pg, pb, stock=50.0)
        before_total = tuple(
            f + s
            for f, s in zip(firm.resources.as_tuple(), sfm.stock.as_tuple())
        )
        cash_before = firm.cash
        cost = sfm_buy(firm, ResourceBundle(r, g, b), sfm)
        assert firm.cash >= 0.0
        if cost is None:  # all or nothing
            assert firm.cash == cash_before
            assert firm.resources.as_tuple() == (0.0, 0.0, 0.0)
        else:
            assert firm.resources.as_tuple() == (r, g, b)
        after_total = tuple(
            f + s
            for f, s in zip(firm.resources.as_tuple(), sfm.stock.as_tuple())
        )
        for x, y in zip(before_total, after_total):
            assert x == pytest.approx(y, rel=1e-12, abs=1e-9)


class TestSfmSell:
    def test_noop(self):
        firm = make_firm(cash=1.0, resources=(1, 1, 1))
        assert sfm_sell(firm, ResourceBundle(), make_sfm()) == 0.0
        assert firm.cash == 1.0

    def test_unit_sale(self):
        firm = make_firm(cash=0.0, resources=(1, 1, 1))
        assert sfm_sell(firm, ResourceBundle(1, 1, 1), make_sfm()) == pytest.approx(3.0)
        assert firm.cash == pytest.approx(3.0)

    def test_rejects_overdraw(self):
        firm = make_firm(resources=(1, 0, 0))
        with pytest.raises(ValueError):
            sfm_sell(firm, ResourceBundle(2, 0, 0), make_sfm())

    def test_sell_then_buy_round_trip_at_frozen_prices(self):
        firm = make_firm(cash=50.0, resources=(3, 4, 5))
        sfm = make_sfm(1.5, 0.5, 2.0)
        sfm_sell(firm, ResourceBundle(3, 4, 5), sfm)
        sfm_buy(firm, ResourceBundle(3, 4, 5), sfm)
        assert firm.cash == pytest.approx(50.0)
        assert firm.resources.as_tuple() == pytest.approx((3, 4, 5))


class TestUpdateSfmPrices:
    def test_balanced_market_unchanged(self):
        sfm = make_sfm(2.0, 2.0, 2.0)
        update_sfm_prices(sfm, (5, 5, 5), (5, 5, 5), 0.1, (1, 1, 1), 0.01)
        assert sfm.prices == pytest.approx((2.0, 2.0, 2.0))

    def test_excess_demand_raises_price(self):
        sfm = make_sfm(1.0, 1.0, 1.0)
        update_sfm_prices(sfm, (10, 0, 0), (0, 0, 0), 0.1, (1, 1, 1), 0.01)
        assert sfm.price_red == pytest.approx(1.0 + 0.1 * 10 / 11)
        assert sfm.price_green == 1.0

    def test_floor_clamp(self):
        sfm = make_sfm(0.02, 0.02, 0.02)
        update_sfm_prices(sfm, (0, 0, 0), (1e9, 1e9, 1e9), 1.0, (0.5, 0.5, 0.5), 0.01)
        assert all(p == 0.01 for p in sfm.prices)


class TestSurvival:
    def test_zero_assets_dead(self):
        firm = make_firm()
        assert not survival_check(firm, 0.0, grace=10)

    def test_persistent_negative_cash_dies_at_grace(self):
        firm = make_firm(cash=-5.0)
        for _ in range(9):
            assert survival_check(firm, 10.0, grace=10)
        assert not survival_check(firm, 10.0, grace=10)

    def test_recovery_resets_streak(self):
        firm = make_firm(cash=-5.0)
        for _ in range(3):
            assert survival_check(firm, 10.0, grace=10)
        firm.cash = 1.0
        assert survival_check(firm, 10.0, grace=10)
        assert firm.negative_cash_streak == 0


def _controlled_world(**extra):
    """Two firms, one market, no noise or costs: closed-form trajectory."""
    overrides = dict(
        n_firms=2,
        n_markets=1,
        n_cycles=3,
        market_size_choices=(10,),
        share_value_range=(2.0, 2.0),
        barrier_sum_range=(0.0, 0.0),
        resource_sum_range=(0.0, 0.0),
        initial_cash=100.0,
        noise_amplitude=0.0,
        value_noise=0.0,
        crowding=0.0,
        maintenance_rate=0.0,
        checkpoint_cycles=(),
    )
    overrides.update(extra)
    return make_world(seed=5, **overrides)


class TestStepCycle:
    def test_hand_stepped_duopoly(self):
        # Barrier is zero, so both firms enter the single market in cycle 1
        # and split revenue 10 shares * value 2 = 20. With zero costs:
        # cash_n = 100 + 10 n and roa_n = 10 / cash_n.
        world = _controlled_world()
        expected_total = [0.0, 0.0]
        for n in range(1, 4):
            world.step_cycle()
            for i, firm in enumerate(world.firms):
                cash = 100.0 + 10.0 * n
                assert firm.cash == pytest.approx(cash, rel=1e-12)
                expected_total[i] += 10.0 / cash
                assert firm.instant_perf == pytest.approx(10.0 / cash, rel=1e-12)
                assert firm.total_perf == pytest.approx(expected_total[i], rel=1e-12)
        assert world.markets[0].occupants == 2
        assert world.markets[0].share_value == pytest.approx(2.0)

    def test_no_firms_world_reverts_values(self):
        world = _controlled_world(value_noise=0.0, crowding=0.5)
        world.firms = []
        world.markets[0].share_value = 0.3
        world.step_cycle()
        assert world.markets[0].share_value == pytest.approx(2.0)

    def test_determinism_same_seed_same_reports(self):
        traces = []
        for _ in range(2):
            world = make_world(seed=11)
            out = io.StringIO()
            for _ in range(30):
                world.step_cycle()
                write_trace_rows(out, world)
            traces.append(out.getvalue())
        assert traces[0] == traces[1]

    def test_entry_refused_without_full_shortfall_budget(self):
        # The 300-unit barrier costs 300 at price 1, and each firm has 1 cash:
        # the IO firm's entry is refused and the RBV firm sells output.
        world = _controlled_world(
            barrier_sum_range=(300.0, 300.0), initial_cash=1.0, initial_price=1.0
        )
        (firm,) = [f for f in world.firms if f.strategy is Strategy.IO]
        market = world.markets[0]
        cash_before = firm.cash
        bundle_before = firm.resources.as_tuple()
        stock_before = world.sfm.stock.as_tuple()
        prices_before = world.sfm.prices
        world.step_cycle()
        assert firm.market is None
        assert firm.cash == cash_before
        assert firm.resources.as_tuple() == bundle_before
        assert market.occupants == 0
        assert world.sfm.stock.as_tuple() == stock_before
        # A refused buy books no demand, so no price moves.
        assert world.sfm.prices == prices_before

    def test_step_cycle_adds_no_world_attributes(self):
        world = make_world(seed=3)
        attributes = set(vars(world))
        for _ in range(5):
            world.step_cycle()
        assert set(vars(world)) == attributes

    def test_step_cycle_runs_its_four_phases_in_order(self, monkeypatch):
        phases = ("_prepare", "_act", "_revalue", "_settle")
        order = []

        def recording(name, method):
            def wrapper(self, *args):
                order.append(name)
                return method(self, *args)

            return wrapper

        for name in phases:
            monkeypatch.setattr(World, name, recording(name, getattr(World, name)))
        world = make_world(seed=3)
        cycles = 4
        for _ in range(cycles):
            world.step_cycle()
        assert order == list(phases) * cycles

    def _recording_buys(self, monkeypatch):
        buys = []

        def recording(firm, wanted, sfm):
            cost = sfm_buy(firm, wanted, sfm)
            buys.append((firm.id, wanted.as_tuple(), cost))
            return cost

        monkeypatch.setattr(strategem.engine, "sfm_buy", recording)
        return buys

    @pytest.mark.parametrize(
        "entry_state",
        [
            pytest.param(lambda b: (b, b), id="at-barrier"),
            pytest.param(
                lambda b: (b, tuple(math.nextafter(v, math.inf) for v in b)), id="above-barrier"
            ),
            # 0.0 - -0.0 is 0.0, and -0.0 - 0.0 is -0.0: neither is short
            pytest.param(lambda b: ((0.0, b[1], b[2]), (-0.0, b[1], b[2])), id="neg-zero-holding"),
            pytest.param(lambda b: ((b[0], -0.0, b[2]), (b[0], 0.0, b[2])), id="neg-zero-barrier"),
        ],
    )
    def test_zero_deficit_joins_without_buying(self, monkeypatch, entry_state):
        # Both firms meet the barrier in every component, so entry is free:
        # each splits 10 shares * value 2 and no cost is booked.
        buys = self._recording_buys(monkeypatch)
        world = _controlled_world(barrier_sum_range=(300.0, 300.0))
        market = world.markets[0]
        drawn = market.barrier.as_tuple()
        assert min(drawn) < max(drawn)
        barrier, holdings = entry_state(drawn)
        market.barrier = ResourceBundle(*barrier)
        for firm in world.firms:
            firm.resources = ResourceBundle(*holdings)
        assert max(barrier_deficit(world.firms[0], market)) <= 0.0
        stock_before = world.sfm.stock.as_tuple()
        world.step_cycle()
        assert buys == []
        assert world.sfm.stock.as_tuple() == stock_before
        assert market.occupants == 2
        for firm in world.firms:
            assert firm.market == 0
            assert _signed(firm.resources.as_tuple()) == _signed(holdings)
            assert firm.cost == 0.0
            assert firm.cash == 100.0 + 10.0

    @pytest.mark.parametrize(
        "entry_state",
        [
            pytest.param(lambda b: (b, (0.0, 0.0, 0.0)), id="empty"),
            pytest.param(lambda b: (b, (b[0], b[1], 0.0)), id="two-components-met"),
            pytest.param(lambda b: ((1e-323, b[1], b[2]), (5e-324, 0.0, 0.0)), id="gap-5e-324"),
            pytest.param(
                lambda b: (b, (b[0], math.nextafter(b[1], 0.0), b[2])), id="one-ulp-short"
            ),
            # 0.0 - -0.0 is 0.0, and -0.0 - 0.0 is -0.0, which stays -0.0
            pytest.param(lambda b: ((0.0, -0.0, b[2]), (-0.0, 0.0, 0.0)), id="signed-zero"),
        ],
    )
    def test_affordable_deficit_buys_exactly_the_deficit(self, monkeypatch, entry_state):
        # Both firms hold part of the barrier and have 100 cash; the deficit
        # costs at most 3 at the initial price of 0.01.
        buys = self._recording_buys(monkeypatch)
        world = _controlled_world(barrier_sum_range=(300.0, 300.0), initial_price=0.01)
        market = world.markets[0]
        barrier, holdings = entry_state(market.barrier.as_tuple())
        market.barrier = ResourceBundle(*barrier)
        for firm in world.firms:
            firm.resources = ResourceBundle(*holdings)
        deficit = barrier_deficit(world.firms[0], market)
        assert max(deficit) > 0.0
        cost = bundle_value(ResourceBundle(*deficit), world.sfm)
        assert cost == pytest.approx(0.01 * sum(deficit), rel=1e-12)
        stock_before = world.sfm.stock.as_tuple()
        world.step_cycle()
        assert sorted(firm_id for firm_id, _, _ in buys) == [0, 1]
        for firm_id, wanted, bought_at in buys:
            firm = world.firms[firm_id]
            assert _signed(wanted) == _signed(deficit)
            assert bought_at == cost
            assert firm.market == 0
            assert firm.resources.as_tuple() == tuple(h + d for h, d in zip(holdings, deficit))
            assert firm.cost == cost
            assert firm.cash == 100.0 - cost + 10.0
        for before, after, wanted in zip(stock_before, world.sfm.stock.as_tuple(), deficit):
            assert after == before - wanted - wanted

    def test_settlement_pays_at_the_old_prices_and_values_at_the_new(self):
        # A locked-in RBV firm neither acts nor trades, so its cost is the
        # maintenance alone: a share of its assets at the prices the cycle
        # opened with. Its ROA divides by its assets at the updated prices.
        world = make_world(seed=6)
        for _ in range(5):
            world.step_cycle()
        locked = [
            f
            for f in world.firms
            if f.alive and f.strategy is Strategy.RBV and f.market is not None
        ]
        assert locked
        before = {f.id: (f.cash, f.resources.as_tuple()) for f in locked}
        pr, pg, pb = world.sfm.prices
        world.step_cycle()
        assert world.sfm.prices != (pr, pg, pb)
        pr2, pg2, pb2 = world.sfm.prices
        rate = world.config.maintenance_rate
        for firm in locked:
            cash, (r, g, b) = before[firm.id]
            assert firm.resources.as_tuple() == (r, g, b)
            assert firm.cost == rate * (cash + (r * pr + g * pg + b * pb))
            assert firm.profit == firm.revenue - firm.cost
            assert firm.cash == cash + (firm.revenue - firm.cost)
            assert firm.instant_perf == firm.profit / (firm.cash + (r * pr2 + g * pg2 + b * pb2))

    def test_settle_pays_from_the_snapshot_it_is_handed(self):
        # `_settle` pays the payout list and charges maintenance at the
        # prices it is handed, not at the live column and factor prices; it
        # values the ROA's assets at the live prices.
        world = make_world(seed=6)
        for _ in range(5):
            world.step_cycle()
        locked = [
            f
            for f in world.firms
            if f.alive and f.strategy is Strategy.RBV and f.market is not None
        ]
        assert locked
        payouts = [1000.0 + j for j in range(len(world.markets))]
        pr, pg, pb = prices = (0.25, 4.0, 16.0)
        live_prices = world.sfm.prices
        assert prices != live_prices
        # Called outside a cycle, `_settle` adds to the costs already booked.
        before = {f.id: (f.cash, f.cost, f.total_perf, f.resources.as_tuple()) for f in locked}
        world._settle(payouts, prices)
        assert world.sfm.prices == live_prices
        rate = world.config.maintenance_rate
        for firm in locked:
            cash, cost, total, (r, g, b) = before[firm.id]
            maintenance = rate * (cash + (r * pr + g * pg + b * pb))
            assert firm.revenue == payouts[firm.market]
            assert firm.cost == cost + maintenance
            assert firm.cash == cash + (payouts[firm.market] - maintenance)
            assert firm.instant_perf == firm.profit / total_asset_value(firm, world.sfm)
            assert firm.total_perf == total + firm.instant_perf

    def test_no_assets_read_zero_roa_and_die_that_cycle(self):
        # With no cash and no bundle, every barrier out of reach and output
        # sales worth nothing, no firm earns or owns anything: each settles
        # at 0 assets, where profit / assets would divide by zero. Its ROA
        # reads 0.0 and it dies at once, well inside the bankruptcy grace.
        world = make_world(
            seed=4, initial_cash=0.0, resource_sum_range=(0.0, 0.0), output_fraction=0.0
        )
        assert world.config.bankruptcy_grace > 1
        world.step_cycle()
        for firm in world.firms:
            assert total_asset_value(firm, world.sfm) <= 0.0
            assert firm.instant_perf == 0.0
            assert firm.total_perf == 0.0
            assert not firm.alive

    @pytest.mark.parametrize("rate", [0.0, 0.1], ids=["no-profit", "loss"])
    def test_an_idle_firm_reads_its_profit_over_its_cash(self, rate):
        # Both firms are priced out of the 300-unit barrier, hold no bundle
        # and sell no output, so they earn nothing and pay only maintenance:
        # profit is -rate * 100, assets are the cash left, and the ROA is
        # their quotient, 0.0 with no maintenance and negative with it.
        world = _controlled_world(
            barrier_sum_range=(300.0, 300.0),
            initial_price=1.0,
            maintenance_rate=rate,
            output_fraction=0.0,
        )
        world.step_cycle()
        for firm in world.firms:
            assert firm.market is None
            assert firm.revenue == 0.0
            assert firm.profit == -rate * 100.0
            assert firm.cash == 100.0 - rate * 100.0
            assert firm.instant_perf == firm.profit / firm.cash
            assert firm.total_perf == firm.instant_perf
            assert firm.alive
        assert (world.firms[0].instant_perf < 0.0) == (rate > 0.0)

    def test_negative_assets_read_zero_roa_and_die_that_cycle(self):
        # Firms that start 50 in debt, with no bundle and no way to earn,
        # settle at negative assets. Maintenance on negative cash is a
        # credit, so profit is 5 and assets are -45: the ROA reads 0.0, not
        # their quotient, and the firm dies at once, inside the grace.
        world = _controlled_world(
            barrier_sum_range=(300.0, 300.0),
            initial_price=1.0,
            maintenance_rate=0.1,
            output_fraction=0.0,
        )
        assert world.config.bankruptcy_grace > 1
        for firm in world.firms:
            firm.cash = -50.0
        world.step_cycle()
        for firm in world.firms:
            assert firm.profit == 5.0
            assert total_asset_value(firm, world.sfm) == -45.0
            assert firm.instant_perf == 0.0
            assert firm.total_perf == 0.0
            assert not firm.alive
        assert world.markets[0].occupants == 0

    def test_a_full_purchase_joins_when_its_sum_rounds_short(self):
        # At this scale the bought bundle r + (b - r) lands 1.9e-06 below the
        # barrier b, past any absolute tolerance of 1e-9. The firm paid the
        # whole deficit, so it joins.
        world = _controlled_world(initial_cash=1e12, initial_stock=1e13)
        market = world.markets[0]
        market.barrier = ResourceBundle(13219659846.212645, 0.0, 0.0)
        (firm,) = [f for f in world.firms if f.strategy is Strategy.IO]
        firm.resources = ResourceBundle(4412109731.363244, 0.0, 0.0)
        b, r = market.barrier.red, firm.resources.red
        assert b - (r + (b - r)) > 1e-6
        cost = bundle_value(ResourceBundle(b - r, 0.0, 0.0), world.sfm)
        world.step_cycle()
        assert firm.market == 0
        assert firm.resources.as_tuple() == (r + (b - r), 0.0, 0.0)
        assert firm.cost == cost
        assert firm.cash == (1e12 - cost) + firm.revenue
        assert firm.revenue > 0.0


def _signed(values):
    """`values` with the sign of each, so that 0.0 and -0.0 differ."""
    return [(v, math.copysign(1.0, v)) for v in values]


class TestTracerHooks:
    """`step_cycle` reaches these functions through `strategem.engine`'s
    module globals, as often as a function-wrapping tracer counts them."""

    HOOKS = (
        "sfm_buy",
        "sfm_sell",
        "update_share_value",
        "update_sfm_prices",
        "survival_check",
        "total_asset_value",
    )

    def test_step_cycle_calls_the_module_hooks(self, monkeypatch):
        calls = dict.fromkeys(self.HOOKS, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in self.HOOKS:
            monkeypatch.setattr(
                strategem.engine, name, counting(name, getattr(strategem.engine, name))
            )
        world = make_world(seed=9)
        cycles, alive_at_settlement = 5, 0
        for _ in range(cycles):
            alive_at_settlement += sum(firm.alive for firm in world.firms)
            world.step_cycle()
        assert calls["update_share_value"] == cycles * len(world.markets)
        assert calls["update_sfm_prices"] == cycles
        assert calls["survival_check"] == alive_at_settlement
        assert calls["sfm_buy"] > 0
        assert calls["total_asset_value"] > 0


class _RecordingRng:
    """Forwards to a Generator and records the name and positional
    arguments of each method called."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def recorded(*args, **kwargs):
            self.calls.append((name, args))
            return method(*args, **kwargs)

        return recorded


class TestCycleMechanics:
    @pytest.mark.parametrize("initial_cash", [1000.0, 1000], ids=["float", "int"])
    def test_state_stays_python_floats(self, initial_cash):
        world = make_world(seed=3, initial_cash=initial_cash)
        values = [firm.cash for firm in world.firms]
        for _ in range(3):
            world.step_cycle()
        values += world.sfm.prices
        for firm in world.firms:
            values += [firm.cash, firm.revenue, firm.cost, firm.profit]
            values += [firm.instant_perf, firm.total_perf, *firm.resources.as_tuple()]
        assert {type(v) for v in values} == {float}

    @pytest.mark.parametrize(
        "overrides,deaths",
        [
            pytest.param({"noise_amplitude": 0.3}, False, id="0.3"),
            pytest.param({"noise_amplitude": 0.0}, False, id="0.0"),
            # noise_amplitude / cycle is above zero in cycle 1 only
            pytest.param({"noise_amplitude": 5e-324}, False, id="5e-324"),
            # firms die within the first cycles, and the dead draw nothing
            pytest.param({"initial_cash": 0.0, "bankruptcy_grace": 1}, True, id="deaths"),
        ],
    )
    def test_one_random_call_per_cycle(self, overrides, deaths):
        rng = _RecordingRng(np.random.Generator(np.random.PCG64(4)))
        world = World(SimConfig(**overrides), rng)
        n_markets = len(world.markets)
        for cycle in range(1, 6):
            live = [f for f in world.firms if f.alive]
            io_firms = sum(f.strategy is Strategy.IO for f in live)
            waiting = sum(f.strategy is Strategy.RBV and f.market is None for f in live)
            firm_draws = n_markets * io_firms + waiting
            if not world.config.noise_amplitude / cycle > 0.0:
                firm_draws = 0
            rng.calls.clear()
            world.step_cycle()
            assert rng.calls == [("random", (firm_draws + n_markets + 3,))]
        assert deaths == (not all(f.alive for f in world.firms))

    def test_dead_firms_stay_frozen(self, monkeypatch):
        # From the cycle after its death, a firm's flows read 0.0 and its
        # cash, bundle, market and total_perf stop moving; no chooser sees it.
        chosen = []

        def recording(choose):
            def chooser(firm, *args):
                chosen.append(firm.id)
                return choose(firm, *args)

            return chooser

        monkeypatch.setattr(strategem.engine, "io_choose_market", recording(io_choose_market))
        monkeypatch.setattr(strategem.engine, "rbv_choose_market", recording(rbv_choose_market))
        world = make_world(seed=4, initial_cash=0.0, bankruptcy_grace=1)
        frozen: dict[int, tuple] = {}
        for _ in range(12):
            chosen.clear()
            world.step_cycle()
            assert frozen.keys().isdisjoint(chosen)
            for firm in world.firms:
                state = (firm.cash, firm.resources.as_tuple(), firm.market, firm.total_perf)
                if firm.id in frozen:
                    assert not firm.alive
                    flows = (firm.revenue, firm.cost, firm.profit, firm.instant_perf)
                    assert flows == (0.0, 0.0, 0.0, 0.0)
                    assert state == frozen[firm.id]
                elif not firm.alive:
                    frozen[firm.id] = state
        assert 0 < len(frozen) < len(world.firms)

    @pytest.mark.parametrize("n_markets", [1, 2, 7, 20, 64])
    def test_market_ids_are_list_positions(self, n_markets):
        # io_choose_market returns a position in the attractiveness column,
        # which the entry block reads as a market id.
        world = make_world(seed=n_markets, n_markets=n_markets)
        assert [m.id for m in world.markets] == list(range(n_markets))

    def test_every_live_io_firm_chooses_through_io_choose_market(self, monkeypatch):
        chosen = []

        def recording(firm, *args):
            chosen.append(firm.id)
            return io_choose_market(firm, *args)

        monkeypatch.setattr(strategem.engine, "io_choose_market", recording)
        world = make_world(seed=5)
        for _ in range(3):
            live_io = [f.id for f in world.firms if f.alive and f.strategy is Strategy.IO]
            chosen.clear()
            world.step_cycle()
            assert chosen == live_io

    @pytest.mark.parametrize("literal_sign", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_remembered_rbv_candidate_equals_a_fresh_scan(
        self, monkeypatch, seed, literal_sign
    ):
        chosen = []

        def checking(firm, candidate, deficit, *args):
            assert candidate is rbv_candidate(firm, world.markets, literal_sign)
            assert _signed(deficit.as_tuple()) == _signed(barrier_deficit(firm, candidate))
            chosen.append(firm.id)
            return rbv_choose_market(firm, candidate, deficit, *args)

        monkeypatch.setattr(strategem.engine, "rbv_choose_market", checking)
        world = make_world(seed=seed, literal_distance_sign=literal_sign)
        for _ in range(60):
            unattached = [
                f.id
                for f in world.firms
                if f.alive and f.strategy is Strategy.RBV and f.market is None
            ]
            chosen.clear()
            world.step_cycle()
            assert chosen == unattached

    def test_rbv_candidate_memo_hits_and_rescans(self, monkeypatch):
        scans, choices = [], []

        def counting_candidate(firm, *args):
            scans.append((firm.id, firm.resources.as_tuple()))
            return rbv_candidate(firm, *args)

        def counting_choose(firm, *args, **kwargs):
            choices.append(firm.id)
            return rbv_choose_market(firm, *args, **kwargs)

        monkeypatch.setattr(strategem.engine, "rbv_candidate", counting_candidate)
        monkeypatch.setattr(strategem.engine, "rbv_choose_market", counting_choose)
        world = make_world(seed=0)
        for _ in range(world.config.n_cycles):
            world.step_cycle()
        assert len(scans) < len(choices)
        # A firm is scanned again only once its bundle has changed.
        last_scanned: dict[int, tuple] = {}
        rescans = 0
        for firm_id, bundle in scans:
            if firm_id in last_scanned:
                assert last_scanned[firm_id] != bundle
                rescans += 1
            last_scanned[firm_id] = bundle
        assert rescans > 0


def _fielded_rows(world):
    """`world`'s trace rows built field by field with `format_field`."""
    lines = []
    for firm in world.firms:
        res = firm.resources
        row = (
            world.run_id,
            world.cycle,
            firm.id,
            firm.strategy.value,
            "" if firm.market is None else firm.market,
            firm.cash,
            res.red,
            res.green,
            res.blue,
            firm.revenue,
            firm.cost,
            firm.profit,
            firm.instant_perf,
            firm.total_perf,
            "true" if firm.alive else "false",
        )
        lines.append(",".join(format_field(v) for v in row) + "\n")
    return "".join(lines)


def _trace_text(world):
    out = io.StringIO()
    write_trace_rows(out, world)
    return out.getvalue()


class TestTraceRows:
    @given(st.floats(allow_nan=False))
    def test_float_format_equals_format_17g(self, value):
        assert FLOAT_FORMAT % value == format(value, ".17g")

    def test_edge_values_match_per_field_rows(self):
        world = make_world(seed=2, n_firms=4, n_markets=2)
        world.step_cycle()
        unplaced, extreme, nan, dead = world.firms
        unplaced.market = None
        extreme.market = 1
        extreme.cash = math.inf
        extreme.revenue = -math.inf
        extreme.cost = -0.0
        extreme.profit = 5e-324
        extreme.instant_perf = -5e-324
        extreme.resources = ResourceBundle(-0.0, 5e-324, math.inf)
        nan.cash = math.nan
        nan.total_perf = math.nan
        nan.resources = ResourceBundle(math.nan, 1.0, 2.0)
        dead.alive = False
        dead.market = 0
        text = _trace_text(world)
        assert text == _fielded_rows(world)
        lines = text.splitlines()
        assert lines[0].split(",")[4] == ""
        assert lines[1].split(",")[5:12] == [
            "inf", "-0", "4.9406564584124654e-324", "inf", "-inf", "-0",
            "4.9406564584124654e-324",
        ]
        nan_fields = lines[2].split(",")
        assert (nan_fields[5], nan_fields[6], nan_fields[13]) == ("", "", "")
        assert lines[3].endswith(",false")

    @pytest.mark.parametrize(
        "cash,expected",
        [
            pytest.param(1000, "1000", id="1000"),
            pytest.param(10**17, "1e+17", id="100000000000000000"),
        ],
    )
    def test_int_initial_cash_at_cycle_zero(self, cash, expected):
        # An int initial_cash starts every firm on its float, as a float
        # initial_cash of the same value would.
        world = make_world(seed=3, n_firms=4, n_markets=2, initial_cash=cash)
        text = _trace_text(world)
        assert text == _fielded_rows(world)
        assert text == _trace_text(
            make_world(seed=3, n_firms=4, n_markets=2, initial_cash=float(cash))
        )
        assert {line.split(",")[5] for line in text.splitlines()} == {expected}

    def test_bundle_text_follows_in_place_trades(self):
        world = make_world(seed=4, n_firms=4, n_markets=2)
        world.step_cycle()
        firm = world.firms[1]
        assert _trace_text(world) == _fielded_rows(world)
        before = firm.resources.as_tuple()
        assert sfm_buy(firm, ResourceBundle(1.0, 0.0, 2.0), world.sfm) is not None
        assert _trace_text(world) == _fielded_rows(world)
        assert firm.resources.as_tuple() != before
        sfm_sell(firm, ResourceBundle(0.5, 0.0, 0.0), world.sfm)
        text = _trace_text(world)
        assert text == _fielded_rows(world)
        res = firm.resources
        assert text.splitlines()[1].split(",")[6:9] == [
            format_field(res.red), format_field(res.green), format_field(res.blue)
        ]
        # Equal values can print differently, so a new object is a new text.
        res.green = -0.0
        assert _trace_text(world).splitlines()[1].split(",")[7] == "-0"
        res.green = 0.0
        assert _trace_text(world).splitlines()[1].split(",")[7] == "0"

    def test_payout_text_follows_the_revenue_object(self):
        world = make_world(seed=5, n_firms=6, n_markets=2)
        world.step_cycle()
        zero = 0.0
        *shared, unplaced, negative, nan = world.firms
        for firm in shared:
            firm.market, firm.revenue = 0, zero
        unplaced.market, unplaced.revenue = None, 1.5
        # Equal to the shared payout, but printed differently.
        negative.market, negative.revenue = 0, -0.0
        nan.market, nan.cash = 1, math.nan
        text = _trace_text(world)
        assert text == _fielded_rows(world)
        assert text.splitlines()[4].split(",")[9] == "-0"
        # The NaN fallback covers one cycle's write only.
        nan.cash = 1.0
        assert _trace_text(world) == _fielded_rows(world)

    def test_default_world_text_holds_no_n(self):
        # The NaN fallback runs whenever a cycle's text holds an "n"; a
        # token with one (such as "none") would send every cycle down it.
        world = make_world(seed=6)
        for _ in range(4):
            assert "n" not in _trace_text(world)
            world.step_cycle()

    def test_inf_without_nan_matches_per_field_rows(self):
        world = make_world(seed=7, n_firms=4, n_markets=2)
        world.step_cycle()
        world.firms[0].cash = math.inf
        world.firms[2].total_perf = -math.inf
        text = _trace_text(world)
        assert "nan" not in text
        assert text == _fielded_rows(world)
        assert text.splitlines()[0].split(",")[5] == "inf"

    def test_run_cycle_and_firm_texts_follow_the_run(self):
        # Dead firms and alive firms without a market by cycle 12.
        cfg = SimConfig(
            n_firms=20, n_markets=5, maintenance_rate=0.05, initial_cash=1.0, bankruptcy_grace=3
        )
        world = World(cfg, np.random.Generator(np.random.PCG64(8)), run_id=123456789)
        for _ in range(12):
            world.step_cycle()
            text = _trace_text(world)
            assert text == _fielded_rows(world)
        assert {line[:13] for line in text.splitlines()} == {"123456789,12,"}
        assert any(not firm.alive for firm in world.firms)
        assert any(firm.alive and firm.market is None for firm in world.firms)


class TestWholeRunInvariants:
    def test_long_run_bookkeeping(self):
        world = make_world(seed=7)
        tags = [f.strategy for f in world.firms]
        rbv_attach: dict[int, int] = {}
        prev_total = {f.id: 0.0 for f in world.firms}
        for _ in range(60):
            world.step_cycle()
            for firm in world.firms:
                # bundles stay non-negative through every engine operation
                assert min(firm.resources.as_tuple()) >= 0.0
                if firm.alive:
                    # total_perf moves by exactly instant_perf
                    assert firm.total_perf - prev_total[firm.id] == pytest.approx(
                        firm.instant_perf, abs=1e-15
                    )
                prev_total[firm.id] = firm.total_perf
                # RBV lock-in: once attached, never moves
                if firm.strategy is Strategy.RBV and firm.market is not None:
                    assert rbv_attach.setdefault(firm.id, firm.market) == firm.market
            # occupant counters equal a from-scratch recount
            recount = recount_occupants(world)
            assert all(m.occupants == recount[m.id] for m in world.markets)
        # strategy tags never mutate
        assert [f.strategy for f in world.firms] == tags


def _resource_totals(world):
    """Per-type totals held by all firms (dead ones too) plus the stock."""
    totals = list(world.sfm.stock.as_tuple())
    for firm in world.firms:
        for i, q in enumerate(firm.resources.as_tuple()):
            totals[i] += q
    return tuple(totals)


# The largest sizes drawn, so that an example runs in milliseconds.
_SIZE_CAPS = {"n_firms": 24, "n_markets": 6, "n_cycles": 40}


def _scalars(name, kind):
    """Values inside `name`'s DOMAINS interval: its ends, or the nearest
    values inside an open end; log-uniform magnitudes, of both signs where
    the interval allows; and uniform draws."""
    if kind is bool:
        return st.booleans()
    left, lo, hi, right = DOMAINS[name]
    if name in _SIZE_CAPS:
        hi, right = _SIZE_CAPS[name], "]"
    if kind is int:
        first = lo if left == "[" else lo + 1
        last = int(hi) if math.isfinite(hi) else 10**18
        magnitudes = st.floats(0, math.log10(last)).map(lambda e: int(10**e))
        return st.one_of(
            st.sampled_from([first, last]),
            magnitudes.filter(lambda v: v >= first),
            st.integers(first, last),
        )
    first = lo if left == "[" else math.nextafter(lo, hi)
    last = hi if right == "]" else math.nextafter(hi, lo)
    top = min(308.0, math.log10(max(abs(first), abs(last))))
    magnitudes = st.floats(-300.0, top).map(lambda e: 10.0**e)
    signed = [magnitudes.map(lambda m: -m)] if first < 0 else []
    if last > 0:
        signed.append(magnitudes)
    return st.one_of(
        st.sampled_from([first, last]),
        st.one_of(signed).filter(lambda v: first <= v <= last),
        st.floats(first, last),
    )


def _field(name, kind):
    """Values of one config field of declared type `kind` that validate()
    accepts: None where the type admits it, each `*_range` with start <= end,
    and a non-empty `market_size_choices`."""
    args = typing.get_args(kind)
    if type(None) in args:
        (kind,) = (a for a in args if a is not type(None))
        return st.none() | _field(name, kind)
    if typing.get_origin(kind) is not tuple:
        return _scalars(name, kind)
    if args[-1] is Ellipsis:
        min_size = 1 if name == "market_size_choices" else 0
        return st.lists(_scalars(name, args[0]), min_size=min_size, max_size=3).map(tuple)
    pair = st.tuples(*(_scalars(name, a) for a in args))
    return pair.map(lambda p: tuple(sorted(p))) if name.endswith("_range") else pair


# Every key of every config section, each drawn over its DOMAINS interval;
# n_firms is made even, since firms split 50/50 IO/RBV.
config_values = st.fixed_dictionaries(
    {name: _field(name, kind) for types in SECTIONS.values() for name, kind in types.items()}
).map(lambda v: {**v, "n_firms": v["n_firms"] + v["n_firms"] % 2})


class TestRandomConfigInvariants:
    @given(config_values)
    @settings(max_examples=800, deadline=None, derandomize=True)
    def test_invariants_hold_every_cycle(self, values):
        assert set(values) == set(DOMAINS)  # a key the strategy misses fails
        cfg = SimConfig(**{name: values[name] for name in SECTIONS["sim"]})
        batch = BatchConfig(sim=cfg, **{name: values[name] for name in SECTIONS["batch"]})
        batch.validate()
        seed = derive_seed(batch.base_seed, 0)
        world = World(cfg, np.random.Generator(np.random.PCG64(seed)))
        base_totals = _resource_totals(world)
        for cycle in range(1, cfg.n_cycles + 1):
            v_pre = {m.id: m.share_value for m in world.markets}
            world.step_cycle()
            assert _trace_text(world) == _fielded_rows(world)
            for firm in world.firms:
                assert min(firm.resources.as_tuple()) >= 0.0
                assert math.isfinite(firm.cash)
                assert math.isfinite(firm.instant_perf)
                assert math.isfinite(firm.total_perf)
            assert all(m.share_value > 0.0 for m in world.markets)
            assert min(world.sfm.prices) > 0.0
            recount = recount_occupants(world)
            assert all(m.occupants == recount[m.id] for m in world.markets)
            for base, now in zip(base_totals, _resource_totals(world)):
                assert now == pytest.approx(base, rel=1e-9, abs=1e-9)
            # each market that paid an occupant paid every occupant the
            # same share, NP * v in all (a firm that died this cycle was
            # paid before it died)
            paid: dict[int, list[float]] = {}
            for firm in world.firms:
                if firm.market is not None and (firm.alive or firm.revenue != 0.0):
                    paid.setdefault(firm.market, []).append(firm.revenue)
            for market_id, revenues in paid.items():
                assert len(set(revenues)) == 1
                market = world.markets[market_id]
                expected = market.shares * v_pre[market_id]
                assert sum(revenues) == pytest.approx(expected, rel=1e-12)
            if cycle in cfg.checkpoint_cycles:
                assert sorted(checkpoint_stats(world.firms)) == sorted(CHECKPOINT_FIELDS)


# Bundles and barriers at the largest validate() accepts, drawn either way.
_RANGES_AT_BOUND = {
    "sum": dict(
        resource_sum_range=(MAX_SCALE, MAX_SCALE), barrier_sum_range=(MAX_SCALE, MAX_SCALE)
    ),
    "cube": dict(
        resource_sum_range=None,
        barrier_sum_range=None,
        resource_init_range=(MAX_SCALE, MAX_SCALE),
        barrier_range=(MAX_SCALE, MAX_SCALE),
    ),
}


class TestValuesAtTheirBounds:
    @pytest.mark.parametrize("ranges", sorted(_RANGES_AT_BOUND))
    @pytest.mark.parametrize("price_alpha", [MAX_RATE, -MAX_RATE])
    @pytest.mark.parametrize("value_noise", [MAX_RATE, -MAX_RATE])
    @pytest.mark.parametrize("output_fraction", [MAX_RATE, -MAX_RATE])
    @pytest.mark.parametrize("n_firms,n_markets", [(20, 5), (200, 20)])
    def test_full_run_stays_far_from_overflow(
        self, n_firms, n_markets, output_fraction, value_noise, price_alpha, ranges
    ):
        """Market sizes, share values, prices, cash, bundles and barriers at
        the largest that validate() accepts, and the three rates at either
        end of theirs: 200 cycles keep every amount below 1e250."""
        cfg = SimConfig(
            n_firms=n_firms,
            n_markets=n_markets,
            market_size_choices=(10**100,),
            share_value_range=(MAX_SCALE, MAX_SCALE),
            value_floor=MAX_SCALE,
            initial_price=MAX_SCALE,
            price_floor=MAX_SCALE,
            initial_cash=MAX_SCALE,
            initial_stock=0.0,
            price_alpha=price_alpha,
            value_noise=value_noise,
            output_fraction=output_fraction,
            **_RANGES_AT_BOUND[ranges],
        )
        world = World(cfg, np.random.Generator(np.random.PCG64(0)))
        for _ in range(cfg.n_cycles):
            world.step_cycle()
            amounts = [*world.sfm.prices, *(m.share_value for m in world.markets)]
            for firm in world.firms:
                amounts += [firm.cash, firm.revenue, firm.cost, firm.profit]
                amounts += [firm.instant_perf, firm.total_perf]
            assert max(map(abs, amounts)) < 1e250
