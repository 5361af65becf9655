"""Golden-output fence: SHA-256 digests of a default-config batch, of a
short traced run whose initial bundles and barriers are drawn uniformly
from the cube ranges instead of as Dirichlet mixes, of a short traced run
without estimation noise (no IO or RBV draws in the cycle's block),
of one whose noise amplitude is so small that the cycle's estimation
error underflows to zero from cycle 2, of one whose RBV firms
measure the shortfall in the literal pos(holding - barrier) orientation,
and of three runs on 5 markets.

A refactor that moves any output byte (one ulp in any formula, a changed
float format, a reordered random draw) fails here. The digests were taken
from the code as it stood before any engine refactor; change them only in
a change that says which outputs it alters and why.
"""

import hashlib
import io
import os

import pytest

from strategem.config import BatchConfig, SimConfig
from strategem.experiment import derive_seed, run_batch, run_one

GOLDEN = {
    "runs.csv": "daf3f441c6d515f4fc37984be30b4e130d1e49e7f6058a0984a93270ccaaab08",
    "aggregate.csv": "657da30c25680538072a5aeb3874514eeac29b7012910af5649d05767bebcfd7",
    "traces/run_0.csv": "ad18d941df93edecd35c86d26fb12566accc0abcdc5721bee778805a2bcd85b3",
    "traces/run_1.csv": "799dd1f9ae02b83af1af4af9a29a337197b908fa069257973a864284323c9619",
    "traces/run_2.csv": "2e0ff5e43bc8130ed88d156cc1760ba8fed7a6c6e90112370ea4c59299634441",
}

# Trace of run 0 (seed derive_seed(0, 0)), 20 cycles, default config except
# barrier_sum_range = resource_sum_range = None.
GOLDEN_UNIFORM_CUBE_TRACE = (
    "0b786974794bc6472475a4db88152136a3e64b2440e0091a38a0fcfdf78d689c"
)

# Trace of run 0 (seed derive_seed(0, 0)), 20 cycles, default config except
# noise_amplitude = 0.0.
GOLDEN_NOISE_FREE_TRACE = (
    "d929ca007d73c4ad66e5ff4c1a3bffb31a3b45f148f73ae1ce981b3b0aeeb1e0"
)

# Trace of run 0 (seed derive_seed(0, 0)), 20 cycles, default config except
# noise_amplitude = 5e-324, the smallest subnormal double: the cycle's error
# noise_amplitude / cycle is zero from cycle 2, and then no firm draws
# noise.
GOLDEN_SUBNORMAL_NOISE_TRACE = (
    "44607ea96f8c5eff73f7959b8f8d2a4fdb37fa47ba2b2dd3444e892c48829b0b"
)

# Trace of run 0 (seed derive_seed(0, 0)), 20 cycles, default config except
# literal_distance_sign = True.
GOLDEN_LITERAL_SIGN_TRACE = (
    "4a4964fa566d3dd0c3daf8c559641050179e69dcece4c307039512e4dc796cc4"
)

# Traces of run 0 (seed derive_seed(0, 0)) on 5 markets, where `World` keeps
# its attractiveness column and noise factors as lists: 20 cycles of the
# default config except n_markets = 5, the same without estimation noise,
# and 200 cycles of 20 firms (the benchmark's small world). Taken from the
# code as it stood before worlds of fewer than 10 markets used lists.
GOLDEN_FIVE_MARKET_TRACES = {
    "default": "c9f32799b5fb7f1b0b6cd1e4a2108e0a9e0b3d4311aa557cfc60fbbf0bd48def",
    "noise-free": "bcf0c25ce4a00cd14d21525f25790ee926fff95f8f8399eec2e506f9709056f5",
    "small-world": "4e1049a3365f70b4b166ceae675584603c3f083c77d3b458a5d06753dc7184de",
}
FIVE_MARKET_CONFIGS = {
    "default": SimConfig(n_cycles=20, n_markets=5),
    "noise-free": SimConfig(n_cycles=20, n_markets=5, noise_amplitude=0.0),
    "small-world": SimConfig(n_firms=20, n_markets=5, n_cycles=200),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_default_batch_outputs_match_golden_digests(tmp_path):
    batch = BatchConfig(n_runs=20, base_seed=0, sim=SimConfig(), parallelism=2)
    run_batch(batch, out_dir=str(tmp_path), trace=True)
    digests = {name: _sha256(os.path.join(tmp_path, name)) for name in GOLDEN}
    assert digests == GOLDEN


def _trace_digest(config):
    out = io.StringIO()
    run_one(derive_seed(0, 0), config, run_id=0, trace_out=out)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_uniform_cube_trace_matches_golden_digest():
    config = SimConfig(n_cycles=20, barrier_sum_range=None, resource_sum_range=None)
    assert _trace_digest(config) == GOLDEN_UNIFORM_CUBE_TRACE


def test_noise_free_trace_matches_golden_digest():
    config = SimConfig(n_cycles=20, noise_amplitude=0.0)
    assert _trace_digest(config) == GOLDEN_NOISE_FREE_TRACE


def test_subnormal_noise_trace_matches_golden_digest():
    config = SimConfig(n_cycles=20, noise_amplitude=5e-324)
    assert _trace_digest(config) == GOLDEN_SUBNORMAL_NOISE_TRACE


def test_literal_sign_trace_matches_golden_digest():
    config = SimConfig(n_cycles=20, literal_distance_sign=True)
    assert _trace_digest(config) == GOLDEN_LITERAL_SIGN_TRACE


@pytest.mark.parametrize("name", sorted(FIVE_MARKET_CONFIGS))
def test_five_market_trace_matches_golden_digest(name):
    assert _trace_digest(FIVE_MARKET_CONFIGS[name]) == GOLDEN_FIVE_MARKET_TRACES[name]
