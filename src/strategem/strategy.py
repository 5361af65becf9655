"""Entry-strategy decision rules.

IO firms rank markets by expected per-occupant profit and re-choose every
cycle. RBV firms rank markets by how little resource investment entry would
take, pick once, and are locked in for good; before entering they weigh
entry against liquidating their largest resource holding or selling output
off-market.

Each rule takes the inputs `World.step_cycle` keeps and no others.
`io_choose_market` takes the column of `market_attractiveness` values in
market-id order, whose positions are the market ids, as a list or an
array, and picks its first maximum, times a row of noise factors when
there is one. `rbv_candidate` scans the markets, in id order, for the
best-fitting one, and `rbv_choose_market` values the three actions
against the candidate and the `ResourceBundle` that `barrier_deficit`
returns there, both given to it and both remembered by `World` while the
firm's bundle is unchanged.
Both choosers are pure functions of the snapshots they are given; the
noise factors model imperfect information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import mul
from typing import Sequence

import numpy as np

from .model import Firm, Market, ResourceBundle, SfmState, bundle_value


class Action(Enum):
    ENTER = "enter"
    SELL_RESOURCE = "sell_resource"
    SELL_OUTPUT = "sell_output"
    NONE = "none"


# The members bound once: a lookup on the `Enum` class costs about ten
# times a global's.
ENTER, SELL_RESOURCE, SELL_OUTPUT, NONE = Action


@dataclass(slots=True)
class MarketChoice:
    """Outcome of one firm's choice phase.

    `score` is the expected per-cycle profit for IO choices and for RBV
    the value of the selected action (entry distance feeds candidate
    selection but the score reports the action's value estimate).
    """

    market: int | None
    score: float
    action: Action


def market_attractiveness(market: Market) -> float:
    """Expected per-occupant profit: shares * value / occupant count.

    An empty market promises its full value to a sole entrant, so the
    divisor is floored at 1.
    """
    occupants = market.occupants
    return market.shares * market.share_value / (occupants if occupants > 1 else 1)


def io_choose_market(
    firm: Firm,
    attractiveness: list[float] | np.ndarray,
    noise: list[float] | np.ndarray | None,
) -> MarketChoice:
    """Pick the market with the highest expected per-occupant profit: the
    first maximum of `attractiveness * noise`, or of `attractiveness` alone
    without noise, so ties break toward the lowest id.

    `attractiveness` holds `market_attractiveness` of each market in id
    order, as `World` keeps it, and the chosen market is its position.
    `noise` multiplies each market's estimate, position for position.

    Both come as Python lists or both as numpy arrays (`World` uses lists
    below `engine._LIST_MARKETS` markets). The two paths multiply the same
    doubles and return the same `int` market and Python `float` score:
    `max` then `index`, like `argmax`, take the first maximum, and the two
    could differ only on NaN. Under `SimConfig.validate()` no score is NaN:
    shares are at most 1e100, share values stay finite above a positive
    floor, and the noise factors lie in (0, 2), so every score is positive
    and finite.
    """
    if type(attractiveness) is list:
        scores = attractiveness if noise is None else list(map(mul, attractiveness, noise))
        best = max(scores)
        return MarketChoice(scores.index(best), best, ENTER)
    scores = attractiveness if noise is None else attractiveness * noise
    j = int(scores.argmax())
    return MarketChoice(j, scores.item(j), ENTER)


def _positive_gap(need: ResourceBundle, have: ResourceBundle) -> tuple[float, float, float]:
    """The per-type positive parts (red, green, blue) of `need - have`, each
    `d if d >= 0.0 else 0.0`, so a `-0.0` difference stays `-0.0`."""
    dr = need.red - have.red
    dg = need.green - have.green
    db = need.blue - have.blue
    return (dr if dr >= 0.0 else 0.0, dg if dg >= 0.0 else 0.0, db if db >= 0.0 else 0.0)


def barrier_deficit(firm: Firm, market: Market) -> ResourceBundle:
    """The bundle by which the firm's holding falls short of the market
    barrier, per type; zero where the barrier is already met.

    Its components are `_positive_gap(barrier, holding)`.
    """
    return ResourceBundle(*_positive_gap(market.barrier, firm.resources))


def resource_shortfall(firm: Firm, market: Market, literal_sign: bool) -> float:
    """Clamped Euclidean distance from the firm's bundle to the barrier.

    Components where the firm already meets the barrier contribute nothing.
    `literal_sign` flips the orientation to the positive part of
    holding - barrier, kept only for comparison runs.
    """
    if literal_sign:
        dr, dg, db = _positive_gap(firm.resources, market.barrier)
    else:
        dr, dg, db = _positive_gap(market.barrier, firm.resources)
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


def rbv_candidate(firm: Firm, markets: Sequence[Market], literal_sign: bool) -> Market:
    """The first market, in the given id order, that minimizes the
    resource shortfall, so ties go to the lowest id."""
    return min(markets, key=lambda market: resource_shortfall(firm, market, literal_sign))


def rbv_choose_market(
    firm: Firm,
    market: Market,
    deficit: ResourceBundle,
    sfm: SfmState,
    output_fraction: float,
    noise: float,
) -> MarketChoice:
    """RBV step: value the three actions against the candidate `market`
    (see `rbv_candidate`) and pick the highest-valued one:

    - entering the candidate (expected profit share with itself counted in,
      net of the resource purchase needed to pass the barrier; requires the
      purchase to fit within cash),
    - liquidating its most abundant resource type on the factor market,
    - selling output off-market at `output_fraction` of the entry estimate.

    `deficit` is the firm's `barrier_deficit` at `market`, priced here at
    current prices. When no action has positive value the firm does nothing
    (a wallflower). `noise` scales the profit estimates, not the shortfall.
    """
    expected_profit = market.shares * market.share_value / (market.occupants + 1)
    expected_profit *= noise

    cost = bundle_value(deficit, sfm)
    enter_value = expected_profit - cost if cost <= firm.cash else -math.inf

    _kind, sell_resource_value = largest_holding(firm.resources, sfm)
    sell_output_value = output_fraction * expected_profit

    best_value = max(enter_value, sell_resource_value, sell_output_value)
    if best_value <= 0.0:
        return MarketChoice(None, best_value, NONE)
    if enter_value == best_value:
        return MarketChoice(market.id, enter_value, ENTER)
    if sell_resource_value == best_value:
        return MarketChoice(None, sell_resource_value, SELL_RESOURCE)
    return MarketChoice(market.id, sell_output_value, SELL_OUTPUT)
