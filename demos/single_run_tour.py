"""A guided tour of one simulation run.

Steps a single world for 200 cycles and prints the leaderboard at the two
checkpoint cycles, plus a map of where firms ended up. Run with:

    python3 demos/single_run_tour.py [seed]
"""

import sys

import numpy as np

from strategem import SimConfig, Strategy, World, top_k_snapshot
from strategem.experiment import derive_seed


def leaderboard(world, k=10):
    ranked = sorted(world.firms, key=lambda f: (-f.total_perf, f.id))[:k]
    for rank, firm in enumerate(ranked, 1):
        market = f"market {firm.market}" if firm.market is not None else "no market"
        print(
            f"  {rank:2d}. firm {firm.id:3d} [{firm.strategy.value:3s}] "
            f"total perf {firm.total_perf:8.3f}  ({market})"
        )


def main():
    base_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    config = SimConfig()
    rng = np.random.Generator(np.random.PCG64(derive_seed(base_seed, 0)))
    world = World(config, rng)

    for cycle in range(1, config.n_cycles + 1):
        world.step_cycle()
        if cycle in config.checkpoint_cycles:
            snap = top_k_snapshot(world.firms)
            print(f"\n=== cycle {cycle}: {snap['io_in_top10']} IO / "
                  f"{snap['rbv_in_top10']} RBV in the top 10 ===")
            leaderboard(world)

    print("\n=== final market map ===")
    for market in world.markets:
        occupants = [f for f in world.firms if f.alive and f.market == market.id]
        io = sum(1 for f in occupants if f.strategy is Strategy.IO)
        rbv = len(occupants) - io
        if occupants:
            print(
                f"  market {market.id:2d}: {market.shares:4d} shares, "
                f"value {market.share_value:5.2f}, {io:3d} IO + {rbv:3d} RBV"
            )
    wallflowers = sum(
        1
        for f in world.firms
        if f.strategy is Strategy.RBV and f.market is None
    )
    print(f"\n{wallflowers} RBV firms never found a market (wallflowers).")


if __name__ == "__main__":
    main()
