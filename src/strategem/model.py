"""Core domain types: firms, markets, resource bundles, the strategic factor
market, and the run configuration.

All mutation of these objects is owned by the engine; everything here is a
plain value type safe to snapshot and compare.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
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

    def __eq__(self, other):
        if not isinstance(other, ResourceBundle):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

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


# The largest market size, share value, factor price, initial cash, bundle
# or barrier range end, and the largest |price_alpha|, |value_noise| or
# |output_fraction|, that `SimConfig.validate()` accepts. Past them money
# and prices can overflow to inf, and ROA to NaN, within a run; with every
# one of them at its bound a 200-cycle run peaks near 1e216 (tests/test_engine.py).
MAX_SCALE = 1e100
MAX_RATE = 1e6


@dataclass
class SimConfig:
    """All tunables for a single simulation run.

    Defaults follow the reference scenario: 200 firms (half IO, half RBV),
    20 markets of size 10/100/1000, 200 cycles, checkpoints at 20 and 200.
    """

    n_firms: int = 200
    n_markets: int = 20
    n_cycles: int = 200
    market_size_choices: tuple[int, ...] = (10, 100, 1000)
    initial_cash: float = 1000.0
    resource_init_range: tuple[float, float] = (0.0, 100.0)
    barrier_range: tuple[float, float] = (0.0, 100.0)
    # When set, barriers are drawn as a uniform random mix (simplex
    # direction) scaled to a total drawn from this interval, so every
    # market demands a comparable resource budget but a different blend.
    barrier_sum_range: tuple[float, float] | None = (220.0, 350.0)
    # Same scheme for firms' initial bundles: specialists with diverse
    # resource mixes rather than bundles clustered around the cube center.
    resource_sum_range: tuple[float, float] | None = (60.0, 160.0)
    # Dirichlet concentration for the simplex mixes above. Values below 1
    # push draws toward the corners (stronger specialisation), values
    # above 1 pull them toward an even blend.
    barrier_mix_alpha: float = 1.0
    resource_mix_alpha: float = 0.55
    noise_amplitude: float = 0.3
    maintenance_rate: float = 0.001
    checkpoint_cycles: tuple[int, ...] = (20, 200)

    # Market value dynamics
    share_value_range: tuple[float, float] = (0.5, 2.0)
    crowding: float = 0.15
    value_noise: float = 0.2
    value_floor: float = 0.01

    # Strategic factor market
    initial_price: float = 0.01
    initial_stock: float = 1e6
    price_alpha: float = 0.2
    price_floor: float = 0.01

    # RBV action valuation and survival
    output_fraction: float = 0.05
    bankruptcy_grace: int = 10

    # Restores the literal sign max(r - R, 0) in the entry-distance formula
    # for comparison runs; the default orientation is the shortfall max(R - r, 0).
    literal_distance_sign: bool = False

    def validate(self) -> None:
        for name in ("n_firms", "n_markets", "n_cycles", "bankruptcy_grace"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
        # NaN passes every comparison below; an infinite stock is unlimited supply.
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v) and (v != math.inf or f.name != "initial_stock"):
                    raise ValueError(f"{f.name} must be finite, not {v}")
        if self.n_firms < 1 or self.n_markets < 1:
            raise ValueError("n_firms and n_markets must be >= 1")
        if self.n_firms % 2 != 0:
            raise ValueError("n_firms must be even (firms split 50/50 IO/RBV)")
        if self.n_cycles < 0:
            raise ValueError("n_cycles must be >= 0")
        if any(c < 1 for c in self.checkpoint_cycles):
            raise ValueError("checkpoint_cycles must be >= 1")
        if not self.market_size_choices:
            raise ValueError("market_size_choices must be non-empty")
        if any(s < 1 for s in self.market_size_choices):
            raise ValueError("market sizes must be >= 1")
        if not (0.0 <= self.noise_amplitude < 1.0):
            raise ValueError("noise_amplitude must be in [0, 1)")
        if not (0.0 <= self.maintenance_rate < 1.0):
            raise ValueError("maintenance_rate must be in [0, 1)")
        if self.resource_init_range[0] < 0 or self.resource_init_range[1] < self.resource_init_range[0]:
            raise ValueError("resource_init_range must be a non-negative interval")
        if self.barrier_range[0] < 0 or self.barrier_range[1] < self.barrier_range[0]:
            raise ValueError("barrier_range must be a non-negative interval")
        if self.barrier_sum_range is not None and (
            self.barrier_sum_range[0] < 0
            or self.barrier_sum_range[1] < self.barrier_sum_range[0]
        ):
            raise ValueError("barrier_sum_range must be a non-negative interval")
        if self.resource_sum_range is not None and (
            self.resource_sum_range[0] < 0
            or self.resource_sum_range[1] < self.resource_sum_range[0]
        ):
            raise ValueError("resource_sum_range must be a non-negative interval")
        if self.barrier_mix_alpha <= 0 or self.resource_mix_alpha <= 0:
            raise ValueError("mix alphas must be > 0")
        if self.share_value_range[0] <= 0 or self.share_value_range[1] < self.share_value_range[0]:
            raise ValueError("share_value_range must be a positive interval")
        if self.initial_cash < 0:
            raise ValueError("initial_cash must be >= 0")
        if self.bankruptcy_grace < 1:
            raise ValueError("bankruptcy_grace must be >= 1")
        # Below these bounds a run divides by zero (1 + crowding * occupants),
        # drives share values or factor prices to zero or below, or fails
        # while the world is built.
        if self.crowding < 0:
            raise ValueError("crowding must be >= 0")
        if self.value_floor <= 0:
            raise ValueError("value_floor must be > 0")
        if self.initial_price <= 0 or self.price_floor <= 0:
            raise ValueError("initial_price and price_floor must be > 0")
        if self.initial_stock < 0:
            raise ValueError("initial_stock must be >= 0")
        for name in ("market_size_choices", "share_value_range", "value_floor",
                     "initial_price", "price_floor", "initial_cash", "resource_init_range",
                     "barrier_range", "resource_sum_range", "barrier_sum_range"):
            value = getattr(self, name)
            if value is not None and max(value if isinstance(value, tuple) else (value,)) > MAX_SCALE:
                raise ValueError(f"{name} must be <= {MAX_SCALE:g}")
        for name in ("price_alpha", "value_noise", "output_fraction"):
            if abs(getattr(self, name)) > MAX_RATE:
                raise ValueError(f"{name} must be within [-{MAX_RATE:g}, {MAX_RATE:g}]")


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
