"""Single-run simulation engine.

One `World` owns all mutable state for a run and a private RNG stream;
`step_cycle` advances it one period in a fixed order, so two worlds built
from the same config and seed produce bit-identical histories.

Cycle order: four phases, each a method that hands the next what it needs
as arguments and return values. `_prepare` zeroes the cycle's flows and
draws its random numbers, in `_act` firms choose, trade and enter in
ascending id, `_revalue` updates share values and factor prices, and
`_settle` pays, charges and scores each live firm and settles its
survival. The payout reads the column and the prices that `_act` left,
taken before `_revalue`, and `_revalue` reads no firm state, so this
order gives the bytes of the model's order (pay out, then update).

The calls that a function-wrapping tracer counts by name stay calls, as
often as before: in `_act`, the choosers once per actor and `sfm_buy` and
`sfm_sell` once per trade; in `_revalue`, `update_share_value` once per
market and `update_sfm_prices` once per cycle; in `_settle`,
`total_asset_value` and `survival_check` once per firm alive at
settlement (`tests/test_engine.py::TestTracerHooks` and
`perfbench/tracer.py`). The phases call them by their names on this
module, so a function swapped there for a run is the one called.

A world of fewer than `_LIST_MARKETS` markets keeps `_act`'s
attractiveness column and noise factors as Python lists, a larger one as
numpy arrays. Both hold the same doubles, of which `io_choose_market`
takes the same first maximum, so the two give the same bytes; on a few
markets numpy's cost per call outweighs its per-element gain.
"""

from __future__ import annotations

import math
from typing import IO

import numpy as np

from .config import SimConfig
from .model import (
    Firm,
    Market,
    ResourceBundle,
    SfmState,
    Strategy,
    bundle_value,
    total_asset_value,
)
from .strategy import (
    ENTER,
    SELL_OUTPUT,
    SELL_RESOURCE,
    barrier_deficit,
    io_choose_market,
    largest_holding,
    market_attractiveness,
    rbv_candidate,
    rbv_choose_market,
)

TRACE_COLUMNS = (
    "run_id",
    "cycle",
    "firm_id",
    "strategy",
    "market_id",
    "cash",
    "red",
    "green",
    "blue",
    "tr",
    "tc",
    "profit",
    "roa",
    "total_perf",
    "alive",
)

# The CSV float format: 17 significant digits, so `float()` reads every
# double back exactly.
FLOAT_FORMAT = "%.17g"

# One trace row after the cycle's "run_id,cycle," text: the firm's
# "id,strategy" text, market, cash, the bundle's "red,green,blue" text, the
# tr text, tc, profit, roa, total_perf, alive.
_TRACE_ROW = "%s,%s,{0},%s,%s,{0},{0},{0},{0},%s\n".format(FLOAT_FORMAT)
_BUNDLE_TEXT = "{0},{0},{0}".format(FLOAT_FORMAT)

# The fewest markets whose column and noise factors are numpy arrays (see
# the module docstring). Over whole 200-cycle runs of 20 firms, lists took
# less CPU time than arrays up to 8 markets, about as much at 10, and more
# from 12 on (2-CPU Xeon, Python 3.11, numpy 2.4).
_LIST_MARKETS = 10


def update_share_value(
    market: Market,
    crowding: float,
    noise: float,
    floor: float,
) -> float:
    """Share value reverts to its initial level, depressed by crowding.

    v = v0 / (1 + crowding * occupants) * noise, clamped to a positive
    floor. With no occupants and unit noise the value returns to v0.
    """
    value = market.initial_value / (1.0 + crowding * market.occupants) * noise
    return max(value, floor)


def sfm_buy(firm: Firm, wanted: ResourceBundle, sfm: SfmState) -> float | None:
    """Buy all of `wanted` from the factor market, or nothing.

    Returns None and moves nothing when any component of `wanted` exceeds
    the stock or its cost at current prices exceeds the firm's cash;
    otherwise moves the whole bundle and returns its cost. Cash never goes
    below zero, since cost <= cash.
    """
    stock = sfm.stock
    if wanted.red > stock.red or wanted.green > stock.green or wanted.blue > stock.blue:
        return None
    cost = bundle_value(wanted, sfm)
    if cost > firm.cash:
        return None
    stock.red -= wanted.red
    stock.green -= wanted.green
    stock.blue -= wanted.blue
    res = firm.resources
    res.red += wanted.red
    res.green += wanted.green
    res.blue += wanted.blue
    firm.cash -= cost
    return cost


def sfm_sell(firm: Firm, offered: ResourceBundle, sfm: SfmState) -> float:
    """Sell all of `offered` to the factor market at current prices and
    return the proceeds.

    Offers exceeding the firm's holdings are rejected.
    """
    res = firm.resources
    if offered.red > res.red or offered.green > res.green or offered.blue > res.blue:
        raise ValueError("cannot sell more than the firm holds")
    proceeds = bundle_value(offered, sfm)
    res.red -= offered.red
    res.green -= offered.green
    res.blue -= offered.blue
    stock = sfm.stock
    stock.red += offered.red
    stock.green += offered.green
    stock.blue += offered.blue
    firm.cash += proceeds
    return proceeds


def update_sfm_prices(
    sfm: SfmState,
    demand: tuple[float, float, float],
    supply: tuple[float, float, float],
    alpha: float,
    noise: tuple[float, float, float],
    floor: float,
) -> None:
    """Move each price by the relative demand/supply imbalance, with noise.

    price' = price * (1 + alpha * (D - S) / (D + S + 1)) * noise, clamped
    to a positive floor. Balanced trade with unit noise leaves the price
    unchanged.
    """
    dr, dg, db = demand
    sr, sg, sb = supply
    nr, ng, nb = noise
    sfm.price_red = max(sfm.price_red * (1.0 + alpha * (dr - sr) / (dr + sr + 1.0)) * nr, floor)
    sfm.price_green = max(sfm.price_green * (1.0 + alpha * (dg - sg) / (dg + sg + 1.0)) * ng, floor)
    sfm.price_blue = max(sfm.price_blue * (1.0 + alpha * (db - sb) / (db + sb + 1.0)) * nb, floor)


def survival_check(firm: Firm, asset_value: float, grace: int) -> bool:
    """A firm dies when its assets hit zero or cash stays non-positive
    for `grace` consecutive cycles."""
    if asset_value <= 0.0:
        return False
    if firm.cash <= 0.0:
        firm.negative_cash_streak += 1
        if firm.negative_cash_streak >= grace:
            return False
    else:
        firm.negative_cash_streak = 0
    return True


def _draw_bundle(
    rng: np.random.Generator,
    cube: tuple[float, float],
    sum_range: tuple[float, float] | None,
    mix_alpha: float,
) -> ResourceBundle:
    """An initial bundle or barrier: a Dirichlet(mix_alpha) mix scaled to a
    total drawn from `sum_range`, or, with no sum range, each component
    drawn uniformly from `cube`."""
    if sum_range is not None:
        total = rng.uniform(*sum_range)
        mix = rng.dirichlet((mix_alpha, mix_alpha, mix_alpha))
        return ResourceBundle(
            float(total * mix[0]), float(total * mix[1]), float(total * mix[2])
        )
    lo, hi = cube
    return ResourceBundle(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi))


class World:
    """All mutable state for one run plus its RNG stream."""

    def __init__(self, config: SimConfig, rng: np.random.Generator):
        config.validate()
        self.config = config
        self.rng = rng
        self.cycle = 0
        self.markets = self._init_markets()
        self.firms = self._init_firms()
        # RBV firm id -> (bundle, its rbv_candidate market, its barrier_deficit
        # there); see `_act`
        self.rbv_candidates: dict[int, tuple[tuple[float, ...], Market, ResourceBundle]] = {}
        self.sfm = SfmState(
            stock=ResourceBundle(
                config.initial_stock, config.initial_stock, config.initial_stock
            ),
            price_red=config.initial_price,
            price_green=config.initial_price,
            price_blue=config.initial_price,
        )

    def _init_markets(self) -> list[Market]:
        cfg = self.config
        rng = self.rng
        vlo, vhi = cfg.share_value_range
        sizes = list(cfg.market_size_choices)
        markets = []
        for j in range(cfg.n_markets):
            shares = sizes[rng.integers(0, len(sizes))]
            value = rng.uniform(vlo, vhi)
            barrier = _draw_bundle(
                rng, cfg.barrier_range, cfg.barrier_sum_range, cfg.barrier_mix_alpha
            )
            markets.append(Market(j, int(shares), value, barrier))
        return markets

    def _init_firms(self) -> list[Firm]:
        cfg = self.config
        rng = self.rng
        half = cfg.n_firms // 2
        tags = np.array([0] * half + [1] * (cfg.n_firms - half))
        rng.shuffle(tags)
        firms = []
        for i in range(cfg.n_firms):
            bundle = _draw_bundle(
                rng, cfg.resource_init_range, cfg.resource_sum_range, cfg.resource_mix_alpha
            )
            strategy = Strategy.IO if tags[i] == 0 else Strategy.RBV
            firms.append(Firm(i, strategy, float(cfg.initial_cash), bundle))
        return firms

    # -- per-cycle machinery -------------------------------------------------

    def step_cycle(self) -> None:
        """Advance the world one period: the four phases, in order."""
        self.cycle += 1
        actors, eps, draws, k = self._prepare()
        column, demand, supply, eps_p = self._act(actors, eps, draws, k)
        # The payout's snapshots, taken before `_revalue` moves the prices.
        payouts = column if type(column) is list else column.tolist()
        prices = self.sfm.prices
        self._revalue(draws[k:].tolist(), demand, supply, eps_p)
        self._settle(payouts, prices)

    def _prepare(self) -> tuple[list[Firm], float, np.ndarray, int]:
        """Return the actors, the estimation error `eps`, the cycle's draw
        block and `k`, the size of its actor part.

        The prepare pass walks every firm once. It zeroes the cycle's
        `revenue`, `cost` and `profit` on every firm, and `instant_perf` on
        the dead, which is what keeps a dead firm frozen at 0.0 flows (see
        `Firm`). It lists the actors, in ascending id: the live IO firms and
        the live RBV firms with no market. Locked-in RBV firms and the dead
        never reach `_act`. Nothing in `_act` changes a firm's `alive` flag or
        the market of any firm but the one acting, so the list holds for the
        whole phase.

        Each cycle draws all its random numbers with one `rng.random` call.
        The block holds, in actor order, `n_markets` draws for each IO actor
        and one for each RBV actor, only while `eps = noise_amplitude / cycle`
        is above zero; after those come `n_markets` share-value draws and 3
        price draws. The pass counts its size, and the block holds the same
        doubles that separate draws in that order would give. Every firm was
        founded at cycle 0, so all share one age, and older firms estimate
        better.
        """
        n_markets = len(self.markets)
        eps = self.config.noise_amplitude / self.cycle
        # A local: a lookup on the `Enum` class is slow once per firm.
        io = Strategy.IO
        actors = []
        k = 0
        for firm in self.firms:
            firm.revenue = firm.cost = firm.profit = 0.0
            if not firm.alive:
                firm.instant_perf = 0.0
            elif firm.strategy is io:
                actors.append(firm)
                k += n_markets
            elif firm.market is None:
                actors.append(firm)
                k += 1
        if not eps > 0.0:
            k = 0
        return actors, eps, self.rng.random(k + n_markets + 3), k

    def _act(
        self, actors: list[Firm], eps: float, draws: np.ndarray, k: int
    ) -> tuple[list[float] | np.ndarray, tuple, tuple, float]:
        """(1)-(3) the actors choose, trade and enter in ascending id: each
        decision sees the occupancy left by every earlier mover, so a crowd
        disperses instead of piling onto one opportunity. Returns the column,
        the units bought and sold per type, and `eps_p`. The actors walk the
        noise of `draws[:k]` with a cursor, never read while k is 0.

        IO firms choose with `strategy.io_choose_market` over a column of
        `market_attractiveness` values, built at the top of the phase and
        rewritten by its entry block for the markets joined and left. The
        column and the noise factors are lists below `_LIST_MARKETS`
        markets and numpy arrays from there up; RBV actors read their noise
        factor through one accessor, as a Python float either way.
        `_init_markets` gives each market its list position as its id, so the
        column's positions are the market ids. Nothing else moves occupancy or
        share values in this phase, so the same column then pays each
        occupant its equal share, `shares * share_value / occupants`.

        RBV firms choose with `strategy.rbv_choose_market`, passed the
        candidate market of `strategy.rbv_candidate` and the firm's
        `strategy.barrier_deficit` there, the `ResourceBundle` that it
        returns and the chooser prices. `World.rbv_candidates` remembers
        both for the bundle they were found for, so the many output sales
        by firms whose bundle has not moved rebuild neither. Both depend only on the bundle, the
        barriers and `literal_distance_sign`; barriers are drawn once in
        `_init_markets` and the sign is fixed per run, so a bundle key is
        enough. A firm whose bundle differs from its key, after any trade, is
        scanned afresh; the key is the bundle's values, so no trade path has
        to clear it. (Bundles equal in value can differ in a zero's sign, and
        their deficits then only at a `-0.0` barrier component, which
        `_draw_bundle` never draws.)

        Both strategies enter through one block at the end of the loop. It
        buys only when the bundle is short of the barrier in some component,
        which, the components being finite, is exactly when
        `strategy.barrier_deficit` has a component above zero (a `-0.0`
        against a `0.0` is short in neither order). It buys that deficit
        bundle through `sfm_buy` and books its components in the phase's
        trade tallies; a bundle that meets the barrier joins without buying. Every
        full purchase joins too: it leaves each component at
        `r + max(b - r, 0)`, the barrier up to the rounding of that one sum,
        so the block does not test the bundle against the barrier again. Such
        a test would need a tolerance, and for barriers as large as
        `validate()` accepts the rounding passes any absolute one (1e-9 near
        `b` = 1e10), so the test would keep out a firm that had paid.
        """
        cfg = self.config
        markets = self.markets
        sfm = self.sfm
        n_markets = len(markets)
        io = Strategy.IO
        # The noise factors 1.0 + eps * (2.0 * u - 1.0) in one array, built
        # in place by the same double operations, so to the same values.
        noises = draws[:k] * 2.0
        noises -= 1.0
        noises *= eps
        noises += 1.0
        pos = 0
        column = [market_attractiveness(m) for m in markets]
        if n_markets < _LIST_MARKETS:
            noises = noises.tolist()
            rbv_noise = noises.__getitem__
        else:
            column = np.array(column)
            rbv_noise = noises.item

        # The cycle's factor-market book: units bought and sold per type, and
        # the units bought with their eps-weighted sum, for `eps_p`.
        demand_red = demand_green = demand_blue = 0.0
        supply_red = supply_green = supply_blue = 0.0
        demand_eps_weight = demand_units = 0.0
        candidates = self.rbv_candidates
        literal_sign, output_fraction = cfg.literal_distance_sign, cfg.output_fraction
        for firm in actors:
            if firm.strategy is io:
                noise = noises[pos:pos + n_markets] if k else None
                pos += n_markets
                choice = io_choose_market(firm, column, noise)
                if choice.market == firm.market:
                    continue
            else:
                noise = rbv_noise(pos) if k else 1.0
                pos += 1
                bundle = firm.resources.as_tuple()
                memo = candidates.get(firm.id)
                if memo is None or memo[0] != bundle:
                    candidate = rbv_candidate(firm, markets, literal_sign)
                    deficit = barrier_deficit(firm, candidate)
                    memo = candidates[firm.id] = (bundle, candidate, deficit)
                choice = rbv_choose_market(firm, memo[1], memo[2], sfm, output_fraction, noise)
                action = choice.action
                if action is not ENTER:
                    if action is SELL_RESOURCE:
                        res = firm.resources
                        kind, _value = largest_holding(res, sfm)
                        offer = ResourceBundle(
                            res.red if kind == 0 else 0.0,
                            res.green if kind == 1 else 0.0,
                            res.blue if kind == 2 else 0.0,
                        )
                        sfm_sell(firm, offer, sfm)
                        supply_red += offer.red
                        supply_green += offer.green
                        supply_blue += offer.blue
                    elif action is SELL_OUTPUT:
                        firm.revenue = choice.score
                    continue
            # Entry, for both strategies: a bundle short of the barrier buys
            # its `barrier_deficit`, and the firm joins the market. A firm
            # that cannot buy the whole deficit stays out this cycle and
            # retries later; no partial siege purchases. The firm leaves its
            # previous market only on a join.
            market = markets[choice.market]
            barrier, res = market.barrier, firm.resources
            if res.red < barrier.red or res.green < barrier.green or res.blue < barrier.blue:
                deficit = barrier_deficit(firm, market)
                cost = sfm_buy(firm, deficit, sfm)
                if cost is None:
                    continue
                firm.cost += cost
                dr, dg, db = deficit.red, deficit.green, deficit.blue
                demand_red += dr
                demand_green += dg
                demand_blue += db
                units = dr + dg + db
                demand_eps_weight += units * eps
                demand_units += units
            # The two column cells the join moves.
            if firm.market is not None:
                left = markets[firm.market]
                left.occupants -= 1
                column[left.id] = market_attractiveness(left)
            firm.market = market.id
            market.occupants += 1
            column[market.id] = market_attractiveness(market)

        # A units-weighted mean of `eps`, not `eps` itself: the two differ in
        # the last bits, and the golden outputs pin these.
        eps_p = demand_eps_weight / demand_units if demand_units > 0.0 else 0.0
        demand = (demand_red, demand_green, demand_blue)
        return column, demand, (supply_red, supply_green, supply_blue), eps_p

    def _revalue(self, draws: list[float], demand: tuple, supply: tuple, eps_p: float) -> None:
        """(6) share values and factor prices update, from the draw block's
        tail: one draw per market, then 3 price draws."""
        cfg = self.config
        markets = self.markets
        value_noise, crowding, value_floor = cfg.value_noise, cfg.crowding, cfg.value_floor
        for market, u in zip(markets, draws):
            noise = 1.0 + value_noise * (2.0 * u - 1.0)
            market.share_value = update_share_value(market, crowding, noise, value_floor)
        u_red, u_green, u_blue = draws[len(markets):]
        price_noise = (
            1.0 + eps_p * (2.0 * u_red - 1.0),
            1.0 + eps_p * (2.0 * u_green - 1.0),
            1.0 + eps_p * (2.0 * u_blue - 1.0),
        )
        update_sfm_prices(
            self.sfm, demand, supply, cfg.price_alpha, price_noise, cfg.price_floor
        )

    def _settle(self, payouts: list[float], prices: tuple[float, float, float]) -> None:
        """One settlement pass: (4)-(5) each live firm is paid its market's
        entry of `payouts` and charged a share of its assets at `prices`;
        (7)-(8) its ROA at the live prices, then survival.

        One formula is restated inline: the maintenance base, cash plus the
        bundle at `prices`, in the operation order of
        `model.total_asset_value`. A call would need those prices in an
        `SfmState` of their own, and costs more per run than the inline sum.
        The ROA, `profit / assets` or 0.0 for assets at or below zero,
        restates nothing: this is its one definition.
        """
        markets = self.markets
        sfm = self.sfm
        price_red, price_green, price_blue = prices
        maintenance_rate, grace = self.config.maintenance_rate, self.config.bankruptcy_grace
        for firm in self.firms:
            if not firm.alive:
                continue
            market_id = firm.market
            revenue = firm.revenue if market_id is None else payouts[market_id]
            res = firm.resources
            cash = firm.cash
            maintenance = maintenance_rate * (
                cash + (res.red * price_red + res.green * price_green + res.blue * price_blue)
            )
            cost = firm.cost + maintenance
            profit = revenue - cost
            firm.revenue, firm.cost, firm.profit = revenue, cost, profit
            # Purchases already left the cash account in sfm_buy, so only
            # the flow part moves cash here.
            firm.cash = cash + (revenue - maintenance)
            assets = total_asset_value(firm, sfm)
            roa = 0.0 if assets <= 0.0 else profit / assets
            firm.instant_perf = roa
            firm.total_perf += roa
            if not survival_check(firm, assets, grace):
                # The market tag stays on the corpse (profiling reads it),
                # but only alive firms count as occupants.
                firm.alive = False
                if market_id is not None:
                    markets[market_id].occupants -= 1


def format_field(value) -> str:
    """One CSV field. Floats carry 17 significant digits so a replay can be
    compared byte for byte, and NaN is blank; anything else prints as `str`."""
    if isinstance(value, float):
        return "" if math.isnan(value) else FLOAT_FORMAT % value
    return str(value)


def write_trace_rows(
    out: IO[str], world: World, run_id: int, texts: dict[int, tuple]
) -> None:
    """Append one CSV row per firm of `world`, in TRACE_COLUMNS order, with
    one format and one write.

    The cycle's "run_id,cycle," text (each `%s` of its value) starts the
    row template, and the cycle's other values go into one flat list,
    formatted by that template repeated once per firm. Texts are kept in
    `texts`, the caller's memo, one dict per run: firm id -> ("id,strategy"
    text, red, green, blue, their "r,g,b" text). A firm's "id,strategy" text
    is made once per run (neither changes in a run) and its bundle text by
    object identity, since an untouched value stays the same object while
    equal values can print differently (0.0 and -0.0): the bundle text is
    made again once any component is another object. The `tr` text is kept
    per market for this call, as the occupants of a market hold its one
    payout float. NaN is blank because the cycle's text drops "nan", which
    `%.17g` prints for every NaN; beside "IO", "RBV", "true", "false" and
    the exponent "e", the text's only letters are those of "nan" and "inf".
    The float columns start as floats (`_init_firms` converts
    `initial_cash`) and the engine stores only floats in them.
    """
    prefix = "%s,%s," % (run_id, world.cycle)
    payouts = {}
    values = []
    for firm in world.firms:
        res = firm.resources
        red, green, blue = res.red, res.green, res.blue
        memo = texts.get(firm.id)
        if memo is None or memo[1] is not red or memo[2] is not green or memo[3] is not blue:
            memo = texts[firm.id] = (
                "%s,%s" % (firm.id, firm.strategy.value) if memo is None else memo[0],
                red,
                green,
                blue,
                _BUNDLE_TEXT % (red, green, blue),
            )
        market, revenue = firm.market, firm.revenue
        payout = payouts.get(market)
        if payout is None or payout[0] is not revenue:
            payout = payouts[market] = (revenue, FLOAT_FORMAT % revenue)
        values += (
            memo[0],
            "" if market is None else market,
            firm.cash,
            memo[4],
            payout[1],
            firm.cost,
            firm.profit,
            firm.instant_perf,
            firm.total_perf,
            "true" if firm.alive else "false",
        )
    text = (prefix + _TRACE_ROW) * len(world.firms) % tuple(values)
    out.write(text.replace("nan", ""))
