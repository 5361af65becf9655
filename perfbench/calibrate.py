"""Host speed: a fixed kernel timed between the program's items, to take
the host's drift out of the end-to-end times.

The 2-core host the benchmark was built on runs the same code up to a
third faster or slower from one minute to the next (README, Sizing
traps), and CPU time drifts with wall time, so the cores themselves
change speed. A kernel that does the same kind of work as the engine
(attribute reads on a list of objects, float arithmetic, a dict, small
numpy reductions), timed just before and just after an item, tracks that
speed: over 20-45 s windows, an item's time over its bracketing kernel
time spread 2-3 times less than the item's time alone.

The kernel is part of the benchmark, not of the program, so no change to
strategem moves it. `REFERENCE_UNIT_S` is one unit's median time on the
host the baseline was taken on; `HostClock.factor` turns an item's wall
seconds into seconds on that reference host.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Median time of one `unit()` on the baseline host (2 vCPUs of an Intel
# Xeon, Python 3.11.7, numpy 2.4.6). Only ratios against it matter.
REFERENCE_UNIT_S = 0.1
# Share of each item's time spent on the kernel after it.
DUTY = 0.2


class _Firm:
    __slots__ = ("value", "cash", "market")

    def __init__(self, i: int):
        self.value = float(i)
        self.cash = 1.0
        self.market = i % 20


def unit() -> float:
    """A fixed piece of work, about 0.1 s on the baseline host."""
    firms = [_Firm(i) for i in range(200)]
    weights = np.random.Generator(np.random.PCG64(7)).random(20)
    acc = 0.0
    for _ in range(1900):
        best: dict[int, float] = {}
        for firm in firms:
            score = firm.value * 0.5 + firm.cash
            if score > best.get(firm.market, -1.0):
                best[firm.market] = score
            firm.cash = score % 3.0
        values = np.array(list(best.values()))
        acc += float((values * weights[: len(values)]).sum())
        weights = np.sqrt(weights + 0.1)
    return acc


class HostClock:
    """Times the kernel in blocks and reports the host's speed around items.

    `tick(after_s)` runs a block of units sized to `DUTY` of the item just
    timed (at least one unit) and keeps its per-unit time. The garbage
    collector is off during a block, so the program's heap cannot slow the
    kernel.
    """

    def __init__(self):
        self.blocks: list[float] = []

    def tick(self, after_s: float = 0.0) -> float:
        units = max(1, round(DUTY * after_s / REFERENCE_UNIT_S))
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(units):
                unit()
            per_unit = (time.perf_counter() - start) / units
        finally:
            if enabled:
                gc.enable()
        self.blocks.append(per_unit)
        return per_unit

    def factor(self, before: float, after: float) -> float:
        """Reference seconds per wall second for an item between two blocks."""
        return REFERENCE_UNIT_S / ((before + after) / 2)

    def median_unit_s(self) -> float:
        return statistics.median(self.blocks)
