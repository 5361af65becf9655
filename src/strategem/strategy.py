"""Entry-strategy decision rules.

IO firms rank markets by expected per-occupant profit and re-choose every
cycle. RBV firms rank markets by how little resource investment entry would
take, pick once, and are locked in for good; before entering they weigh
entry against liquidating their largest resource holding or selling output
off-market.

The IO rule has one home, `io_choose_market`: the first maximum of a column
of market attractiveness, times a row of noise factors when there is one.
The engine passes it the attractiveness column it keeps; called without
one, it builds the column from `market_attractiveness`. Likewise the RBV
candidate rule has one home, `rbv_candidate`: the engine passes
`rbv_choose_market` the candidate it remembers; called without one, it
scans the markets.

Both choosers are pure functions of the snapshots they are given. They take
optional noise factors for the imperfect-information model; tests call them
noise-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .model import Firm, Market, ResourceBundle, SfmState, bundle_value


class Action(Enum):
    ENTER = "enter"
    SELL_RESOURCE = "sell_resource"
    SELL_OUTPUT = "sell_output"
    STAY = "stay"
    NONE = "none"


@dataclass
class MarketChoice:
    """Outcome of one firm's choice phase.

    `score` is the expected per-cycle profit for IO choices and for RBV
    the value of the selected action (entry distance feeds candidate
    selection but the score reports the action's value estimate).
    """

    market: int | None
    score: float
    action: Action


def pos(x: float) -> float:
    """Positive part: x when x >= 0, else 0."""
    return x if x >= 0.0 else 0.0


def market_attractiveness(market: Market) -> float:
    """Expected per-occupant profit: shares * value / occupant count.

    An empty market promises its full value to a sole entrant, so the
    divisor is floored at 1.
    """
    occupants = market.occupants
    return market.shares * market.share_value / (occupants if occupants > 1 else 1)


def io_choose_market(
    firm: Firm,
    markets: Sequence[Market],
    noise: Sequence[float] | None = None,
    attractiveness: np.ndarray | None = None,
) -> MarketChoice:
    """Pick the market with the highest expected per-occupant profit: the
    first maximum of `attractiveness * noise`, or of `attractiveness` alone
    without noise.

    `noise` optionally multiplies each market's estimate, position for
    position. Without `attractiveness` the column is built from
    `market_attractiveness` in market-id order, so ties break toward the
    lowest id whatever the order of `markets`. A given `attractiveness`
    column must hold those values for `markets` already in id order, as
    `World` keeps them.
    """
    if not markets:
        raise ValueError("io_choose_market requires at least one market")
    if attractiveness is None:
        order = sorted(range(len(markets)), key=lambda i: markets[i].id)
        markets = [markets[i] for i in order]
        attractiveness = np.array([market_attractiveness(m) for m in markets])
        if noise is not None:
            noise = np.asarray(noise, dtype=float)[order]
    scores = attractiveness if noise is None else attractiveness * noise
    j = int(scores.argmax())
    return MarketChoice(markets[j].id, scores.item(j), Action.ENTER)


def barrier_deficit(firm: Firm, market: Market) -> tuple[float, float, float]:
    """Per-type amounts (red, green, blue) by which the firm's bundle falls
    short of the market barrier; zero where the barrier is already met."""
    res = firm.resources
    barrier = market.barrier
    return (
        pos(barrier.red - res.red),
        pos(barrier.green - res.green),
        pos(barrier.blue - res.blue),
    )


def resource_shortfall(
    firm: Firm,
    market: Market,
    literal_sign: bool = False,
) -> float:
    """Clamped Euclidean distance from the firm's bundle to the barrier.

    Components where the firm already meets the barrier contribute nothing.
    `literal_sign` flips the orientation to pos(holding - barrier), kept
    only for comparison runs.
    """
    if literal_sign:
        res = firm.resources
        barrier = market.barrier
        dr = pos(res.red - barrier.red)
        dg = pos(res.green - barrier.green)
        db = pos(res.blue - barrier.blue)
    else:
        dr, dg, db = barrier_deficit(firm, market)
    return math.sqrt(dr * dr + dg * dg + db * db)


def largest_holding(resources: ResourceBundle, sfm: SfmState) -> tuple[int, float]:
    """The resource type worth most at current prices, as (kind, value).

    Kind 0, 1, 2 is red, green, blue; ties go to the earlier type. This is
    the holding an RBV firm liquidates when it sells resources.
    """
    values = (
        resources.red * sfm.price_red,
        resources.green * sfm.price_green,
        resources.blue * sfm.price_blue,
    )
    value = max(values)
    return values.index(value), value


def rbv_candidate(
    firm: Firm,
    markets: Sequence[Market],
    literal_sign: bool = False,
) -> tuple[Market, float]:
    """Market minimizing the resource shortfall, ties toward the lowest id."""
    best = None
    best_dist = math.inf
    for market in markets:
        dist = resource_shortfall(firm, market, literal_sign)
        if dist < best_dist or (dist == best_dist and best is not None and market.id < best.id):
            best = market
            best_dist = dist
    return best, best_dist


def rbv_choose_market(
    firm: Firm,
    markets: Sequence[Market],
    sfm: SfmState,
    output_fraction: float = 0.5,
    noise: float = 1.0,
    literal_sign: bool = False,
    candidate: tuple[Market, float] | None = None,
) -> MarketChoice:
    """RBV step: find the best-fitting market, then value the three actions.

    A firm already attached to a market stays there (lock-in). Otherwise the
    candidate is the shortfall-minimizing market, and the firm picks the
    highest-valued action among:

    - entering the candidate (expected profit share with itself counted in,
      net of the resource purchase needed to pass the barrier; requires the
      purchase to fit within cash),
    - liquidating its most abundant resource type on the factor market,
    - selling output off-market at `output_fraction` of the entry estimate.

    When no action has positive value the firm does nothing (a wallflower).
    `noise` scales the profit estimates, not the shortfall.

    `candidate` is the `(market, dist)` pair `rbv_candidate` returns for
    this firm, `markets` and `literal_sign`; `World` passes the one it
    remembers while the firm's bundle is unchanged. Without it the markets
    are scanned here.
    """
    if firm.market is not None:
        return MarketChoice(market=firm.market, score=0.0, action=Action.STAY)
    if not markets:
        return MarketChoice(market=None, score=0.0, action=Action.NONE)

    if candidate is None:
        candidate = rbv_candidate(firm, markets, literal_sign)
    market, _dist = candidate
    expected_profit = market.shares * market.share_value / (market.occupants + 1)
    expected_profit *= noise

    cost = bundle_value(ResourceBundle(*barrier_deficit(firm, market)), sfm)
    enter_value = expected_profit - cost if cost <= firm.cash else -math.inf

    _kind, sell_resource_value = largest_holding(firm.resources, sfm)
    sell_output_value = output_fraction * expected_profit

    best_value = max(enter_value, sell_resource_value, sell_output_value)
    if best_value <= 0.0:
        return MarketChoice(market=None, score=best_value, action=Action.NONE)
    if enter_value == best_value:
        return MarketChoice(market=market.id, score=enter_value, action=Action.ENTER)
    if sell_resource_value == best_value:
        return MarketChoice(market=None, score=sell_resource_value, action=Action.SELL_RESOURCE)
    return MarketChoice(market=market.id, score=sell_output_value, action=Action.SELL_OUTPUT)
