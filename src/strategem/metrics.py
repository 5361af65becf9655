"""Leaderboard statistics, the RBV profile classifier, and the checkpoint
row that runs.csv records.

Firms rank by `total_perf`, the running sum of the instant ROA that the
engine's settlement pass computes (its one definition). Rankings include
dead firms at their frozen total performance; the population averages are
meant to feel the drag of firms that never got going.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

from .model import Firm, Strategy


class RbvProfile(Enum):
    """An RBV firm's fate; the value is the suffix of its checkpoint columns."""

    WALLFLOWER = "wallflower"
    CONVENIENCE_MARRIAGE = "convenience"
    SOUL_MATE = "soul_mate"


# Relative-difference columns -> the (IO, RBV) columns they compare. Their
# signs feed aggregate.csv's IO-vs-RBV tallies; where the RBV value is
# negative, the sign of (IO - RBV) / RBV is the reverse of IO > RBV.
RELATIVE_DIFF_FIELDS = {
    "rd_best": ("best_io", "best_rbv"),
    "rd_avg5": ("avg5_io", "avg5_rbv"),
    "rd_avg10": ("avg10_io", "avg10_rbv"),
    "rd_all": ("avg_all_io", "avg_all_rbv"),
}

# The columns of `checkpoint_stats`, in CSV order: the leaderboard of
# `top_k_snapshot`, the relative differences, then the count (n_*) and mean
# total performance (perf_*) of each RBV profile.
CHECKPOINT_FIELDS = (
    "io_in_top10", "rbv_in_top10", "best_io", "best_rbv", "best_is_rbv",
    "avg5_io", "avg5_rbv", "avg10_io", "avg10_rbv", "avg_all_io", "avg_all_rbv",
    *RELATIVE_DIFF_FIELDS,
    *(f"n_{profile.value}" for profile in RbvProfile),
    *(f"perf_{profile.value}" for profile in RbvProfile),
)


def relative_diff(io_value: float, rbv_value: float) -> float:
    """(IO - RBV) / RBV; NaN (a blank CSV field) for a zero RBV value."""
    return (io_value - rbv_value) / rbv_value if rbv_value != 0 else math.nan


def _ranked(firms: Sequence[Firm]) -> list[Firm]:
    """Descending by total performance, ties toward the lower firm id."""
    return sorted(firms, key=lambda f: (-f.total_perf, f.id))


def _avg(values: Sequence[float]) -> float:
    """Mean, added left to right: builtin `sum()` of floats compensates from
    Python 3.12 on, so it would give other bytes on other versions."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


def top_k_snapshot(firms: Sequence[Firm]) -> dict[str, float]:
    """Top-10 counts and per-strategy best/top-5/top-10/overall means.

    All firms rank, dead or alive. When a strategy fields fewer than 5 or
    10 firms the averages use whatever is available. `best_is_rbv` is 1.0
    when the top-ranked firm of all (ties toward the lower id) is RBV.
    """
    ranking = _ranked(firms)
    top10 = ranking[:10]
    io_count = sum(1 for f in top10 if f.strategy is Strategy.IO)

    io_perfs = [f.total_perf for f in ranking if f.strategy is Strategy.IO]
    rbv_perfs = [f.total_perf for f in ranking if f.strategy is Strategy.RBV]
    return {
        "io_in_top10": io_count,
        "rbv_in_top10": len(top10) - io_count,
        "best_io": io_perfs[0] if io_perfs else 0.0,
        "best_rbv": rbv_perfs[0] if rbv_perfs else 0.0,
        "best_is_rbv": 1.0 if ranking[0].strategy is Strategy.RBV else 0.0,
        "avg5_io": _avg(io_perfs[:5]),
        "avg5_rbv": _avg(rbv_perfs[:5]),
        "avg10_io": _avg(io_perfs[:10]),
        "avg10_rbv": _avg(rbv_perfs[:10]),
        "avg_all_io": _avg(io_perfs),
        "avg_all_rbv": _avg(rbv_perfs),
    }


def classify_rbv(firm: Firm, firms: Sequence[Firm]) -> RbvProfile:
    """Bin an RBV firm into one of the three observed profiles.

    Wallflower: never attached to any market. Soul mate: attached to a
    market shared with alive IO firms and outperforming their mean total
    performance. Everything else (RBV-only markets, or underperforming on
    a mixed market) is a convenience marriage.
    """
    if firm.strategy is not Strategy.RBV:
        raise ValueError("classify_rbv applies to RBV firms only")
    if firm.market is None:
        return RbvProfile.WALLFLOWER
    io_perfs = [
        f.total_perf
        for f in firms
        if f.alive and f.market == firm.market and f.strategy is Strategy.IO
    ]
    if not io_perfs:
        return RbvProfile.CONVENIENCE_MARRIAGE
    if firm.total_perf > _avg(io_perfs):
        return RbvProfile.SOUL_MATE
    return RbvProfile.CONVENIENCE_MARRIAGE


def checkpoint_stats(firms: Sequence[Firm]) -> dict[str, float]:
    """One run's CHECKPOINT_FIELDS at a checkpoint cycle. A profile that no
    RBV firm falls into reads a NaN (blank) mean."""
    stats = top_k_snapshot(firms)
    for name, (io_col, rbv_col) in RELATIVE_DIFF_FIELDS.items():
        stats[name] = relative_diff(stats[io_col], stats[rbv_col])

    # Each RBV firm is classified against the firms on its own market, in
    # firm order; classify_rbv keeps the alive IO ones.
    by_market: dict[int | None, list[Firm]] = {}
    for firm in firms:
        by_market.setdefault(firm.market, []).append(firm)
    perfs: dict[RbvProfile, list[float]] = {profile: [] for profile in RbvProfile}
    for firm in firms:
        if firm.strategy is Strategy.RBV:
            perfs[classify_rbv(firm, by_market[firm.market])].append(firm.total_perf)
    for profile, values in perfs.items():
        stats[f"n_{profile.value}"] = len(values)
        stats[f"perf_{profile.value}"] = _avg(values) if values else math.nan
    return stats
