"""Core domain types: firms, markets, resource bundles and the strategic
factor market. The run configuration lives in `config`.

All mutation of these objects is owned by the engine; everything here is a
plain value type safe to snapshot. Bundles compare by `as_tuple()`.
"""

from __future__ import annotations

from enum import Enum


class Strategy(Enum):
    """A firm's strategic orientation, fixed for its whole life."""

    IO = "IO"
    RBV = "RBV"


class ResourceBundle:
    """Quantities of the three colored resource types a firm can hold.

    Components are non-negative reals; every engine operation preserves that.
    """

    __slots__ = ("red", "green", "blue")

    def __init__(self, red: float = 0.0, green: float = 0.0, blue: float = 0.0):
        if red < 0 or green < 0 or blue < 0:
            raise ValueError("resource quantities must be non-negative")
        self.red = red
        self.green = green
        self.blue = blue

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.red, self.green, self.blue)

    def __repr__(self):
        return f"ResourceBundle({self.red!r}, {self.green!r}, {self.blue!r})"


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

    __slots__ = (
        "id",
        "strategy",
        "cash",
        "resources",
        "market",
        "instant_perf",
        "total_perf",
        "alive",
        "negative_cash_streak",
        "revenue",
        "cost",
        "profit",
    )

    def __init__(
        self,
        id: int,
        strategy: Strategy,
        cash: float,
        resources: ResourceBundle,
    ):
        self.id = id
        self.strategy = strategy
        self.cash = cash
        self.resources = resources
        self.market: int | None = None
        self.instant_perf = 0.0
        self.total_perf = 0.0
        self.alive = True
        # Consecutive cycles spent with cash <= 0; drives the bankruptcy rule.
        self.negative_cash_streak = 0
        self.revenue = 0.0
        self.cost = 0.0
        self.profit = 0.0

    def __repr__(self):
        return (
            f"Firm(id={self.id}, {self.strategy.value}, cash={self.cash:.2f}, "
            f"market={self.market}, total_perf={self.total_perf:.4f}, "
            f"alive={self.alive})"
        )


class Market:
    """A goods market with a fixed share count and entry barrier.

    `shares` and `barrier` never change during a run. `occupants` counts the
    alive firms currently attached to this market.
    """

    __slots__ = ("id", "shares", "share_value", "initial_value", "barrier", "occupants")

    def __init__(self, id: int, shares: int, share_value: float, barrier: ResourceBundle):
        if shares < 1:
            raise ValueError("share count must be >= 1")
        if share_value <= 0:
            raise ValueError("share value must be positive")
        self.id = id
        self.shares = shares
        self.share_value = share_value
        self.initial_value = share_value
        self.barrier = barrier
        self.occupants = 0

    def __repr__(self):
        return (
            f"Market(id={self.id}, shares={self.shares}, "
            f"value={self.share_value:.4f}, occupants={self.occupants})"
        )


class SfmState:
    """The strategic factor market: per-type stocks and prices."""

    __slots__ = ("stock", "price_red", "price_green", "price_blue")

    def __init__(
        self,
        stock: ResourceBundle,
        price_red: float = 1.0,
        price_green: float = 1.0,
        price_blue: float = 1.0,
    ):
        if min(price_red, price_green, price_blue) <= 0:
            raise ValueError("resource prices must be positive")
        self.stock = stock
        self.price_red = price_red
        self.price_green = price_green
        self.price_blue = price_blue

    @property
    def prices(self) -> tuple[float, float, float]:
        return (self.price_red, self.price_green, self.price_blue)

    def __repr__(self):
        return f"SfmState(prices={self.prices}, stock={self.stock!r})"


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
