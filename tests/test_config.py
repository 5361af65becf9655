"""INI config parsing, dumping, override handling, and the interval,
non-finite, checkpoint-cycle and magnitude rules."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from strategem.config import (
    DOMAINS,
    MAX_RATE,
    MAX_SCALE,
    SECTIONS,
    BatchConfig,
    ConfigError,
    SimConfig,
    apply_override,
    dump_config,
    load_config,
)
from strategem.engine import World


class TestRoundTrip:
    def test_defaults_round_trip(self, tmp_path):
        original = BatchConfig()
        path = tmp_path / "cfg.ini"
        path.write_text(dump_config(original))
        loaded = load_config(str(path))
        assert loaded.sim == original.sim
        assert loaded.n_runs == original.n_runs
        assert loaded.base_seed == original.base_seed

    def test_modified_values_round_trip(self, tmp_path):
        original = BatchConfig(
            n_runs=12,
            base_seed=99,
            sim=SimConfig(
                n_cycles=50,
                barrier_sum_range=None,  # optional tuple unset
                literal_distance_sign=True,
                market_size_choices=(10, 1000),
            ),
        )
        path = tmp_path / "cfg.ini"
        path.write_text(dump_config(original))
        loaded = load_config(str(path))
        assert loaded.sim == original.sim
        assert loaded.n_runs == 12

    def test_no_file_gives_defaults(self):
        assert load_config(None).sim == SimConfig()

    def test_shipped_default_ini_is_the_defaults(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.ini"
        assert dump_config(load_config(str(path))) == dump_config(load_config(None))


class TestParsing:
    def test_missing_keys_keep_defaults(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[sim]\nn_cycles = 5\n")
        loaded = load_config(str(path))
        assert loaded.sim.n_cycles == 5
        assert loaded.sim.n_firms == SimConfig().n_firms

    def test_none_literal_for_optional_tuples(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[sim]\nbarrier_sum_range = none\n")
        assert load_config(str(path)).sim.barrier_sum_range is None

    @pytest.mark.parametrize(
        "body",
        [
            "[sim]\nbogus_key = 1\n",
            "[sim]\nn_cycles = few\n",
            "[sim]\nliteral_distance_sign = maybe\n",
            "[weird]\nx = 1\n",
            "[batch]\nsim = 3\n",
        ],
    )
    def test_malformed_rejected(self, tmp_path, body):
        path = tmp_path / "cfg.ini"
        path.write_text(body)
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.ini")


class TestOverrides:
    def test_sim_and_batch_overrides(self):
        batch = BatchConfig()
        apply_override(batch, "sim.n_cycles", "7")
        apply_override(batch, "batch.n_runs", "3")
        apply_override(batch, "sim.resource_sum_range", "none")
        assert batch.sim.n_cycles == 7
        assert batch.n_runs == 3
        assert batch.sim.resource_sum_range is None

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n_cycles", "7"),  # no section prefix
            ("sim.bogus", "1"),
            ("batch.sim", "x"),
            ("other.n_runs", "1"),
            ("sim.n_firms", "none"),  # none only where the type admits None
            ("sim.literal_distance_sign", "none"),
            ("sim.share_value_range", "1"),  # tuple lengths are checked
            ("sim.resource_init_range", "1,2,3"),
        ],
    )
    def test_bad_overrides_rejected(self, key, value):
        with pytest.raises(ConfigError):
            apply_override(BatchConfig(), key, value)


def _non_finite_cases():
    """(field, value) for NaN and +-inf in each float field and in each
    element of each tuple field, less the accepted `initial_stock = inf`."""
    defaults = SimConfig()
    for f in dataclasses.fields(defaults):
        value = getattr(defaults, f.name)
        for bad in (math.nan, math.inf, -math.inf):
            if isinstance(value, float):
                if not (f.name == "initial_stock" and bad == math.inf):
                    yield pytest.param(f.name, bad, id=f"{f.name}={bad}")
            elif isinstance(value, tuple):
                for i in range(len(value)):
                    bad_tuple = value[:i] + (bad,) + value[i + 1:]
                    yield pytest.param(f.name, bad_tuple, id=f"{f.name}[{i}]={bad}")


class TestCheckpointCycles:
    @pytest.mark.parametrize("cycles", [(0,), (-5,), (20, 0), (0, -5)])
    def test_below_one_rejected(self, cycles):
        with pytest.raises(ValueError, match="checkpoint_cycles"):
            SimConfig(checkpoint_cycles=cycles).validate()

    @pytest.mark.parametrize("cycles", [(), (1,), (20, 200)])
    def test_accepted(self, cycles):
        SimConfig(checkpoint_cycles=cycles).validate()


class TestMagnitudeBounds:
    @pytest.mark.parametrize(
        "name,value",
        [
            ("value_floor", 1e305),
            ("initial_price", 1e308),
            ("share_value_range", (1e308, 1e308)),
            ("share_value_range", (0.5, 2 * MAX_SCALE)),
            ("market_size_choices", (10, 10**400)),
            ("price_floor", 2 * MAX_SCALE),
            ("initial_cash", 2 * MAX_SCALE),
            ("initial_cash", 10**400),
            ("price_alpha", -2e102),
            ("price_alpha", 2 * MAX_RATE),
            ("value_noise", -2 * MAX_RATE),
            ("output_fraction", 2 * MAX_RATE),
            ("barrier_range", (1e200, 1e200)),
            ("resource_init_range", (0.0, 2 * MAX_SCALE)),
            ("barrier_sum_range", (220.0, 2 * MAX_SCALE)),
            ("resource_sum_range", (60.0, 2 * MAX_SCALE)),
        ],
    )
    def test_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{name: value}).validate()


class TestNonFinite:
    @pytest.mark.parametrize("name,value", _non_finite_cases())
    def test_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{name: value}).validate()

    def test_infinite_stock_runs_finite(self):
        config = SimConfig(initial_stock=math.inf)
        config.validate()
        world = World(config, np.random.Generator(np.random.PCG64(3)))
        for _ in range(30):
            world.step_cycle()
        for firm in world.firms:
            assert math.isfinite(firm.cash) and math.isfinite(firm.total_perf)


class TestDomains:
    """One interval per field: `validate()` accepts an included end, rejects
    an excluded one, and names the field, its interval and the value."""

    def test_every_field_has_one_domain(self):
        assert sorted(DOMAINS) == sorted([*SECTIONS["sim"], *SECTIONS["batch"]])

    @pytest.mark.parametrize(
        "name,value", [("share_value_range", (5e-324, 1.0)), ("barrier_mix_alpha", 5e-324)]
    )
    def test_accepts_a_value_just_inside_an_excluded_end(self, name, value):
        SimConfig(**{name: value}).validate()

    def test_mix_alphas_at_their_bound_draw_bundles_of_their_drawn_total(self):
        # numpy's dirichlet returns [0, 0, 0] from 1e308 on; at the bound the
        # mix is still the even thirds it tends to.
        config = SimConfig(
            n_firms=4, n_markets=3, barrier_mix_alpha=MAX_SCALE, resource_mix_alpha=MAX_SCALE
        )
        config.validate()
        world = World(config, np.random.Generator(np.random.PCG64(0)))
        for bundles, (lo, hi) in (
            ([m.barrier for m in world.markets], config.barrier_sum_range),
            ([f.resources for f in world.firms], config.resource_sum_range),
        ):
            for bundle in bundles:
                assert lo <= sum(bundle.as_tuple()) <= hi

    @pytest.mark.parametrize(
        "make,name,value,message",
        [
            (SimConfig, "noise_amplitude", 1.0, "noise_amplitude must be in [0, 1), not 1.0"),
            (SimConfig, "maintenance_rate", 1.0, "maintenance_rate must be in [0, 1), not 1.0"),
            (BatchConfig, "parallelism", 65, "parallelism must be in [1, 64], not 65"),
            (SimConfig, "barrier_mix_alpha", 0.0, "barrier_mix_alpha must be in (0, 1e+100], not 0.0"),
            (SimConfig, "barrier_mix_alpha", 1e308,
             "barrier_mix_alpha must be in (0, 1e+100], not 1e+308"),
            (SimConfig, "share_value_range", (0.0, 1.0),
             "share_value_range must be in (0, 1e+100] elementwise, start <= end, not (0.0, 1.0)"),
            (SimConfig, "barrier_range", (5.0, 1.0),
             "barrier_range must be in [0, 1e+100] elementwise, start <= end, not (5.0, 1.0)"),
            (SimConfig, "crowding", math.nan, "crowding must be in [0, inf), not nan"),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_rejection_names_the_field_its_interval_and_the_value(self, make, name, value, message):
        with pytest.raises(ValueError) as info:
            make(**{name: value}).validate()
        assert str(info.value) == message


class TestIntegerCounts:
    @pytest.mark.parametrize(
        "make,name",
        [(SimConfig, n) for n in ("n_firms", "n_markets", "n_cycles", "bankruptcy_grace")]
        + [(BatchConfig, n) for n in ("n_runs", "base_seed", "parallelism")],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_rejects_a_whole_float(self, make, name):
        # The default as a float: only the type is wrong.
        value = float(getattr(make(), name))
        with pytest.raises(ValueError, match=name):
            make(**{name: value}).validate()


class TestDeclaredTypes:
    """`validate()` holds a config built in Python to the declared types:
    a value is valid only if its own INI round trip returns it unchanged."""

    @pytest.mark.parametrize(
        "make,name,value",
        [
            (SimConfig, "market_size_choices", (10.5, 100.7)),
            (SimConfig, "checkpoint_cycles", (20.5, 30)),
            (SimConfig, "literal_distance_sign", "false"),
            (SimConfig, "bankruptcy_grace", True),
            (BatchConfig, "parallelism", True),
            (SimConfig, "crowding", "0.1"),
            (SimConfig, "barrier_sum_range", (1.0,)),
            (SimConfig, "checkpoint_cycles", [20, 200]),
            (SimConfig, "resource_init_range", [0.0, 100.0]),
            (SimConfig, "checkpoint_cycles", np.int64(20)),  # a TypeError before
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_rejected(self, make, name, value):
        with pytest.raises(ValueError, match=name):
            make(**{name: value}).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_cash": 1000},
            {"initial_cash": 10**17},
            {"initial_stock": math.inf},
            {"noise_amplitude": np.float64(0.3), "barrier_range": (np.float64(0.0), 50.0)},
            {"n_firms": np.int64(20), "checkpoint_cycles": (np.int64(20),)},
        ],
    )
    def test_accepted(self, kwargs):
        SimConfig(**kwargs).validate()

    def test_numpy_values_round_trip(self, tmp_path):
        batch = BatchConfig(
            n_runs=np.int64(3),
            sim=SimConfig(
                noise_amplitude=np.float64(0.3),
                n_firms=np.int64(20),
                share_value_range=(np.float64(0.5), np.float64(2.5)),
            ),
        )
        batch.validate()
        text = dump_config(batch)
        assert "np." not in text
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        loaded = load_config(str(path))
        loaded.validate()
        assert dump_config(loaded) == text

    def test_config_imports_nothing_from_the_package(self):
        source = (Path(__file__).resolve().parent.parent / "src" / "strategem" / "config.py").read_text()
        assert not [line for line in source.splitlines() if line.lstrip().startswith("from .")]
