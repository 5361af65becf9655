"""Chooser examples, brute-force oracles, and invariance properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategem.model import Firm, Market, ResourceBundle, SfmState, Strategy
from strategem.strategy import (
    Action,
    barrier_deficit,
    io_choose_market,
    market_attractiveness,
    rbv_candidate,
    rbv_choose_market,
    resource_shortfall,
)


def make_market(mid, shares, value, barrier=(0, 0, 0), occupants=0):
    m = Market(mid, shares, value, ResourceBundle(*barrier))
    m.occupants = occupants
    return m


def make_firm(strategy=Strategy.IO, cash=1000.0, resources=(0, 0, 0)):
    return Firm(0, strategy, cash, ResourceBundle(*resources))


def make_sfm(pr=1.0, pg=1.0, pb=1.0):
    return SfmState(ResourceBundle(1e6, 1e6, 1e6), pr, pg, pb)


def column(markets):
    """The attractiveness column `World.step_cycle` keeps for `markets`,
    which must be in id order with ids equal to their positions."""
    return np.array([market_attractiveness(m) for m in markets])


class TestMarketAttractiveness:
    """The per-occupant share a market promises is also what it pays."""

    def test_equal_split(self):
        assert market_attractiveness(make_market(0, 100, 1.0, occupants=4)) == 25.0

    def test_monopoly(self):
        assert market_attractiveness(make_market(0, 10, 2.0, occupants=1)) == 20.0

    @given(
        st.sampled_from([10, 100, 1000]),
        st.floats(0.01, 5.0),
        st.integers(1, 200),
    )
    def test_conservation(self, shares, value, occupants):
        market = make_market(0, shares, value, occupants=occupants)
        share = market_attractiveness(market)
        assert share * occupants == pytest.approx(shares * value, rel=1e-12)


class TestIoChooser:
    def test_prefers_higher_expected_profit(self):
        a = make_market(0, 10, 2.0, occupants=4)   # 10*2/4 = 5
        b = make_market(1, 100, 1.0, occupants=50)  # 100*1/50 = 2
        choice = io_choose_market(make_firm(), column([a, b]), None)
        assert choice.market == 0
        assert choice.score == pytest.approx(5.0)
        assert choice.action is Action.ENTER

    def test_empty_market_divisor_floored_at_one(self):
        m = make_market(0, 10, 1.0, occupants=0)
        choice = io_choose_market(make_firm(), column([m]), None)
        assert choice.market == 0
        assert choice.score == pytest.approx(10.0)

    def test_tie_breaks_to_lowest_id(self):
        markets = [
            make_market(0, 10, 1.0, occupants=2),
            make_market(1, 10, 1.0, occupants=1),
            make_market(2, 10, 1.0, occupants=1),
        ]
        assert io_choose_market(make_firm(), column(markets), None).market == 1

    def test_matches_brute_force_argmax(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(500):
            markets = [
                make_market(
                    j,
                    int(rng.choice([10, 100, 1000])),
                    float(rng.uniform(0.1, 3.0)),
                    occupants=int(rng.integers(0, 30)),
                )
                for j in range(20)
            ]
            choice = io_choose_market(make_firm(), column(markets), None)
            scores = [market_attractiveness(m) for m in markets]
            best = max(scores)
            oracle = min(m.id for m, s in zip(markets, scores) if s == best)
            assert choice.market == oracle

    def test_noisy_choice_matches_first_maximum_scan(self):
        # Few share values, occupancies and noise levels make exact ties
        # common.
        rng = np.random.Generator(np.random.PCG64(2))
        tied = 0
        for _ in range(500):
            n = int(rng.integers(1, 12))
            markets = [
                make_market(
                    j,
                    int(rng.choice([10, 100])),
                    float(rng.choice([0.5, 1.0, 2.0])),
                    occupants=int(rng.integers(0, 4)),
                )
                for j in range(n)
            ]
            noise = [float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.7, 1.3)])) for _ in range(n)]
            choice = io_choose_market(make_firm(), column(markets), np.array(noise))

            best_id, best = None, -math.inf
            scores = []
            for m, factor in zip(markets, noise):
                score = market_attractiveness(m) * factor
                scores.append(score)
                if score > best:
                    best_id, best = m.id, score
            tied += scores.count(best) > 1
            assert choice.market == best_id
            assert choice.score == best
        assert tied > 50

    def test_list_and_array_inputs_choose_alike(self):
        # `World` passes lists below `engine._LIST_MARKETS` markets and
        # arrays from there up; both must give the same first maximum, as
        # an `int` market and a Python `float` score. Few distinct values
        # make exact ties common.
        rng = np.random.Generator(np.random.PCG64(3))
        tied = 0
        for _ in range(500):
            n = int(rng.integers(1, 25))
            values = [0.5, 1.0, 2.0, float(rng.uniform(0.1, 50.0))]
            factors = [0.5, 1.0, 1.5, float(rng.uniform(0.7, 1.3))]
            attractiveness = [float(rng.choice(values)) for _ in range(n)]
            noise = [float(rng.choice(factors)) for _ in range(n)]
            for row in (noise, None):
                array_row = None if row is None else np.array(row)
                from_list = io_choose_market(make_firm(), attractiveness, row)
                from_array = io_choose_market(make_firm(), np.array(attractiveness), array_row)
                assert from_list == from_array
                assert type(from_list.market) is int and type(from_array.market) is int
                assert type(from_list.score) is float and type(from_array.score) is float
                scores = attractiveness
                if row is not None:
                    scores = [a * f for a, f in zip(attractiveness, row)]
                assert from_list.market == scores.index(max(scores))
                tied += scores.count(max(scores)) > 1
        assert tied > 100

    @given(st.floats(0.1, 100.0))
    def test_invariant_under_value_rescaling(self, scale):
        markets = [
            make_market(0, 10, 1.3, occupants=2),
            make_market(1, 100, 0.4, occupants=7),
            make_market(2, 1000, 0.9, occupants=40),
        ]
        base = io_choose_market(make_firm(), column(markets), None).market
        for m in markets:
            m.share_value *= scale
        assert io_choose_market(make_firm(), column(markets), None).market == base


class TestResourceShortfall:
    def test_zero_when_firm_dominates(self):
        firm = make_firm(resources=(5, 5, 5))
        market = make_market(0, 10, 1.0, barrier=(3, 3, 3))
        assert resource_shortfall(firm, market, literal_sign=False) == 0.0

    def test_clamped_euclidean(self):
        firm = make_firm(resources=(5, 2, 0))
        market = make_market(0, 10, 1.0, barrier=(3, 4, 2))
        assert resource_shortfall(firm, market, literal_sign=False) == pytest.approx(math.sqrt(8))

    def test_zero_zero(self):
        firm = make_firm(resources=(0, 0, 0))
        market = make_market(0, 10, 1.0, barrier=(0, 0, 0))
        assert resource_shortfall(firm, market, literal_sign=False) == 0.0

    def test_literal_sign_flips_orientation(self):
        firm = make_firm(resources=(5, 2, 0))
        market = make_market(0, 10, 1.0, barrier=(3, 4, 2))
        # surplus components: (5-3, 0, 0) -> 2
        assert resource_shortfall(firm, market, literal_sign=True) == pytest.approx(2.0)

    def test_deficit_and_its_cost_in_the_entry_score(self):
        # The deficit (0, 2, 2) costs 2 * 3 + 2 * 5 = 16, which the ENTER
        # score nets out of the expected profit 100 * 1.0 / 1.
        firm = make_firm(Strategy.RBV, resources=(5, 2, 0))
        market = make_market(0, 100, 1.0, barrier=(3, 4, 2))
        assert barrier_deficit(firm, market).as_tuple() == (0.0, 2.0, 2.0)
        deficit = barrier_deficit(firm, market)
        choice = rbv_choose_market(firm, market, deficit, make_sfm(1, 3, 5), 0.05, 1.0)
        assert choice.action is Action.ENTER
        assert choice.score == pytest.approx(100.0 - 16.0)


class TestRbvChooser:
    def test_exact_barrier_match_enters(self):
        firm = make_firm(Strategy.RBV, resources=(3, 3, 3))
        markets = [
            make_market(0, 10, 1.0, barrier=(9, 9, 9)),
            make_market(1, 10, 1.0, barrier=(3, 3, 3)),
        ]
        candidate = rbv_candidate(firm, markets, False)
        assert candidate.id == 1
        deficit = barrier_deficit(firm, candidate)
        choice = rbv_choose_market(firm, candidate, deficit, make_sfm(), 0.05, 1.0)
        assert choice.action is Action.ENTER
        assert choice.market == 1

    def test_none_when_no_action_pays(self):
        # No cash for the deficit, nothing to liquidate, no output sales.
        firm = make_firm(Strategy.RBV, cash=0.0)
        market = make_market(0, 100, 1.0, barrier=(1, 0, 0))
        deficit = barrier_deficit(firm, market)
        choice = rbv_choose_market(firm, market, deficit, make_sfm(), 0.0, 1.0)
        assert choice.action is Action.NONE
        assert choice.market is None

    def test_unaffordable_entry_falls_back(self):
        # Entry costs 300 > cash 10; liquidating the bundle is worth 5,
        # selling output is worth output_fraction * expected profit.
        firm = make_firm(Strategy.RBV, cash=10.0, resources=(5, 0, 0))
        market = make_market(0, 100, 1.0, barrier=(100, 100, 105))
        deficit = barrier_deficit(firm, market)
        choice = rbv_choose_market(firm, market, deficit, make_sfm(), 0.0, 1.0)
        assert choice.action is Action.SELL_RESOURCE
        assert choice.score == pytest.approx(5.0)

    def test_candidate_matches_brute_force_argmin(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(500):
            firm = make_firm(Strategy.RBV, resources=tuple(rng.uniform(0, 100, 3)))
            markets = [
                make_market(j, 10, 1.0, barrier=tuple(rng.uniform(0, 100, 3)))
                for j in range(20)
            ]
            candidate = rbv_candidate(firm, markets, False)
            dists = [resource_shortfall(firm, m, literal_sign=False) for m in markets]
            best = min(dists)
            oracle = min(m.id for m, d in zip(markets, dists) if d == best)
            assert candidate.id == oracle

    @given(st.floats(0.0, 50.0))
    @settings(max_examples=30)
    def test_candidate_invariant_under_common_translation(self, shift):
        firm = make_firm(Strategy.RBV, resources=(10, 40, 5))
        barriers = [(30, 20, 50), (5, 60, 10), (45, 45, 0)]
        markets = [make_market(j, 10, 1.0, barrier=b) for j, b in enumerate(barriers)]
        base = rbv_candidate(firm, markets, False).id
        firm2 = make_firm(
            Strategy.RBV, resources=tuple(c + shift for c in (10, 40, 5))
        )
        markets2 = [
            make_market(j, 10, 1.0, barrier=tuple(c + shift for c in b))
            for j, b in enumerate(barriers)
        ]
        assert rbv_candidate(firm2, markets2, False).id == base

    def test_dominating_firm_gets_zero_shortfall_candidate(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(200):
            barriers = [tuple(rng.uniform(0, 100, 3)) for _ in range(10)]
            dominated = barriers[int(rng.integers(0, 10))]
            firm = make_firm(
                Strategy.RBV, resources=tuple(c + 1.0 for c in dominated)
            )
            markets = [make_market(j, 10, 1.0, barrier=b) for j, b in enumerate(barriers)]
            candidate = rbv_candidate(firm, markets, False)
            assert resource_shortfall(firm, candidate, literal_sign=False) == 0.0
