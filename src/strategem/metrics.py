"""Leaderboard statistics and the RBV profile classifier.

Firms rank by `total_perf`, the running sum of the instant ROA that the
engine's settlement pass computes (its one definition). Rankings include
dead firms at their frozen total performance; the population averages are
meant to feel the drag of firms that never got going.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .model import Firm, Strategy


class RbvProfile(Enum):
    WALLFLOWER = "wallflower"
    CONVENIENCE_MARRIAGE = "convenience_marriage"
    SOUL_MATE = "soul_mate"


@dataclass
class StrategySnapshot:
    """Leaderboard statistics for one checkpoint cycle."""

    io_in_top10: int
    rbv_in_top10: int
    best_io: float
    best_rbv: float
    # Whether the top-ranked firm of all (ties toward the lower id) is RBV.
    best_is_rbv: bool
    avg5_io: float
    avg5_rbv: float
    avg10_io: float
    avg10_rbv: float
    avg_all_io: float
    avg_all_rbv: float


def relative_diff(io_value: float, rbv_value: float) -> float:
    """(IO - RBV) / RBV. The caller must filter out a zero RBV value."""
    if rbv_value == 0:
        raise ZeroDivisionError("relative_diff undefined for rbv_value == 0")
    return (io_value - rbv_value) / rbv_value


def _ranked(firms: Sequence[Firm]) -> list[Firm]:
    """Descending by total performance, ties toward the lower firm id."""
    return sorted(firms, key=lambda f: (-f.total_perf, f.id))


def _avg(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def top_k_snapshot(firms: Sequence[Firm]) -> StrategySnapshot:
    """Top-10 counts and per-strategy best/top-5/top-10/overall means.

    All firms rank, dead or alive. When a strategy fields fewer than 5 or
    10 firms the averages use whatever is available.
    """
    ranking = _ranked(firms)
    top10 = ranking[:10]
    io_count = sum(1 for f in top10 if f.strategy is Strategy.IO)

    io_perfs = [f.total_perf for f in ranking if f.strategy is Strategy.IO]
    rbv_perfs = [f.total_perf for f in ranking if f.strategy is Strategy.RBV]
    return StrategySnapshot(
        io_in_top10=io_count,
        rbv_in_top10=len(top10) - io_count,
        best_io=io_perfs[0] if io_perfs else 0.0,
        best_rbv=rbv_perfs[0] if rbv_perfs else 0.0,
        best_is_rbv=ranking[0].strategy is Strategy.RBV,
        avg5_io=_avg(io_perfs[:5]),
        avg5_rbv=_avg(rbv_perfs[:5]),
        avg10_io=_avg(io_perfs[:10]),
        avg10_rbv=_avg(rbv_perfs[:10]),
        avg_all_io=_avg(io_perfs),
        avg_all_rbv=_avg(rbv_perfs),
    )


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
