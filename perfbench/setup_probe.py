"""Set-up of a fresh process, timed from its first line: import strategem,
load and validate the workload's config, build the first World. Prints
the seconds taken.

    python3 perfbench/setup_probe.py perfbench/configs/default.ini SEED
"""

import time

start = time.perf_counter()

import sys  # noqa: E402

import program  # noqa: E402

strategem = program.load()
import numpy as np  # noqa: E402

batch = strategem.config.load_config(sys.argv[1])
batch.validate()
seed = strategem.derive_seed(int(sys.argv[2]), 0)
strategem.World(batch.sim, np.random.Generator(np.random.PCG64(seed)))
print(time.perf_counter() - start)
