"""The three fates of a resource-driven firm.

Runs one simulation and sorts the RBV population into wallflowers (never
entered a market), convenience marriages (on a market with no live IO
occupant, or on a shared market without beating the mean total
performance of its live IO occupants), and soul mates (beating that mean
on a shared market). Run with:

    python3 demos/rbv_profiles.py [seed]
"""

import sys

import numpy as np

from strategem import RbvProfile, SimConfig, Strategy, World, classify_rbv
from strategem.experiment import derive_seed
from strategem.metrics import checkpoint_stats


def main():
    base_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    config = SimConfig()
    rng = np.random.Generator(np.random.PCG64(derive_seed(base_seed, 0)))
    world = World(config, rng)
    for _ in range(config.n_cycles):
        world.step_cycle()

    bins = {profile: [] for profile in RbvProfile}
    for firm in world.firms:
        if firm.strategy is Strategy.RBV:
            bins[classify_rbv(firm, world.firms)].append(firm)

    # The count and mean of each profile as runs.csv records them
    stats = checkpoint_stats(world.firms)
    print(f"RBV profiles after {config.n_cycles} cycles:\n")
    for profile, firms in bins.items():
        print(f"  {profile.value:20s}: {stats[f'n_{profile.value}']:3d} firms, "
              f"mean total perf {stats[f'perf_{profile.value}']:7.3f}")
        for firm in sorted(firms, key=lambda f: -f.total_perf)[:3]:
            where = (
                f"market {firm.market}" if firm.market is not None else "no market"
            )
            print(f"      e.g. firm {firm.id:3d}: perf {firm.total_perf:7.3f} ({where})")
    print(
        "\nSoul mates beat the mean of the live IO firms on their market;"
        "\nconvenience marriages hold a market with no live IO firm, or do not"
        "\nbeat that mean on a shared one; wallflowers never found a fit and"
        "\nbleed maintenance costs."
    )


if __name__ == "__main__":
    main()
