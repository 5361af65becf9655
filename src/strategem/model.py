"""Core domain types: firms, markets, resource bundles and the strategic
factor market. The run configuration lives in `config`.

All mutation of these objects is owned by the engine; everything here is a
plain value type safe to snapshot. Each record is a slotted dataclass that
compares and hashes by identity (`eq=False`); bundles compare by
`as_tuple()`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Strategy(Enum):
    """A firm's strategic orientation, fixed for its whole life."""

    IO = "IO"
    RBV = "RBV"


@dataclass(slots=True, eq=False)
class ResourceBundle:
    """Quantities of the three colored resource types a firm can hold.

    Components are non-negative reals; every engine operation preserves that.
    """

    red: float = 0.0
    green: float = 0.0
    blue: float = 0.0

    def __post_init__(self):
        if self.red < 0 or self.green < 0 or self.blue < 0:
            raise ValueError("resource quantities must be non-negative")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.red, self.green, self.blue)


@dataclass(slots=True, eq=False)
class Firm:
    """One firm agent.

    `total_perf` is maintained as the exact running sum of `instant_perf`
    over cycles; the engine never recomputes it from scratch. A dead firm
    (alive=False) is frozen: it takes no actions, and its cash, bundle,
    market tag and `total_perf` stop moving.

    `revenue`, `cost` and `profit` hold the current cycle's booking:
    revenue from the firm's market or an output sale, cost as maintenance
    plus resource purchases, and profit = revenue - cost. The engine zeroes
    them on every firm at the start of each cycle. Once a firm has been dead
    for a full cycle they read 0.0, and so does `instant_perf`, while
    `total_perf` stays frozen.
    """

    id: int
    strategy: Strategy
    cash: float
    resources: ResourceBundle
    market: int | None = field(default=None, init=False)
    instant_perf: float = field(default=0.0, init=False)
    total_perf: float = field(default=0.0, init=False)
    alive: bool = field(default=True, init=False)
    # Consecutive cycles spent with cash <= 0; drives the bankruptcy rule.
    negative_cash_streak: int = field(default=0, init=False)
    revenue: float = field(default=0.0, init=False)
    cost: float = field(default=0.0, init=False)
    profit: float = field(default=0.0, init=False)


@dataclass(slots=True, eq=False)
class Market:
    """A goods market with a fixed share count and entry barrier.

    `shares` and `barrier` never change during a run. `initial_value` is
    the `share_value` it was made with. `occupants` counts the alive firms
    currently attached to this market.
    """

    id: int
    shares: int
    share_value: float
    initial_value: float = field(init=False)
    barrier: ResourceBundle
    occupants: int = field(default=0, init=False)

    def __post_init__(self):
        if self.shares < 1:
            raise ValueError("share count must be >= 1")
        if self.share_value <= 0:
            raise ValueError("share value must be positive")
        self.initial_value = self.share_value


@dataclass(slots=True, eq=False)
class SfmState:
    """The strategic factor market: per-type stocks and prices."""

    stock: ResourceBundle
    price_red: float = 1.0
    price_green: float = 1.0
    price_blue: float = 1.0

    def __post_init__(self):
        if min(self.price_red, self.price_green, self.price_blue) <= 0:
            raise ValueError("resource prices must be positive")

    @property
    def prices(self) -> tuple[float, float, float]:
        return (self.price_red, self.price_green, self.price_blue)


def bundle_value(bundle: ResourceBundle, sfm: SfmState) -> float:
    """Monetary value of a bundle at current factor-market prices."""
    return (
        bundle.red * sfm.price_red
        + bundle.green * sfm.price_green
        + bundle.blue * sfm.price_blue
    )


def total_asset_value(firm: Firm, sfm: SfmState) -> float:
    """Cash plus the bundle valued at current factor-market prices.

    This is the denominator of the instant ROA.
    """
    return firm.cash + bundle_value(firm.resources, sfm)
