"""The run configuration (`SimConfig`, `BatchConfig` and their bounds) and
its flat INI form: [sim] and [batch] sections keyed by the field names.

Each field declares its interval with its default; `DOMAINS` maps each
field to it, and `SECTIONS` holds each field's declared type and drives
parsing, dumping and `validate()`. A value is parsed by its type
(`none` only where the type admits None, a tuple only at its declared
length), and `validate()` accepts a value only if its own INI round trip
gives it back unchanged, so a valid config dumps to text that loads back
to an equal config. Missing keys keep their defaults. This module
imports nothing else from the package.
"""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Malformed config file or override."""


# The largest market size, share value, factor price, initial cash, bundle
# or barrier range end, and the largest |price_alpha|, |value_noise| or
# |output_fraction|, that `SimConfig.validate()` accepts. Past them money
# and prices can overflow to inf, and ROA to NaN, within a run; with every
# one of them at its bound a 200-cycle run peaks near 1e216 (tests/test_engine.py).
MAX_SCALE = 1e100
MAX_RATE = 1e6

# The most worker processes a batch may ask for, on any host. Criterion 1
# runs 8.
MAX_PARALLELISM = 64


def _within(default, left: str, lo: float, hi: float, right: str):
    """A field defaulting to `default` whose value, or each element of its
    tuple, must lie in the interval (left bracket, lower end, upper end,
    right bracket), recorded as its `domain` metadata for `DOMAINS`.

    A round bracket excludes its end, so only `initial_stock` may be
    infinite (unlimited supply). The lower ends keep a run from dividing by
    zero (1 + crowding * occupants), from driving share values or factor
    prices to zero or below, and from failing while the world is built.
    """
    return field(default=default, metadata={"domain": (left, lo, hi, right)})


@dataclass
class SimConfig:
    """All tunables for a single simulation run.

    Defaults follow the reference scenario: 200 firms (half IO, half RBV),
    20 markets of size 10/100/1000, 200 cycles, checkpoints at 20 and 200.
    """

    n_firms: int = _within(200, "[", 1, math.inf, ")")
    n_markets: int = _within(20, "[", 1, math.inf, ")")
    n_cycles: int = _within(200, "[", 0, math.inf, ")")
    market_size_choices: tuple[int, ...] = _within((10, 100, 1000), "[", 1, MAX_SCALE, "]")
    initial_cash: float = _within(1000.0, "[", 0, MAX_SCALE, "]")
    resource_init_range: tuple[float, float] = _within((0.0, 100.0), "[", 0, MAX_SCALE, "]")
    barrier_range: tuple[float, float] = _within((0.0, 100.0), "[", 0, MAX_SCALE, "]")
    # When set, barriers are drawn as a uniform random mix (simplex
    # direction) scaled to a total drawn from this interval, so every
    # market demands a comparable resource budget but a different blend.
    barrier_sum_range: tuple[float, float] | None = _within((220.0, 350.0), "[", 0, MAX_SCALE, "]")
    # Same scheme for firms' initial bundles: specialists with diverse
    # resource mixes rather than bundles clustered around the cube center.
    resource_sum_range: tuple[float, float] | None = _within((60.0, 160.0), "[", 0, MAX_SCALE, "]")
    # Dirichlet concentration for the simplex mixes above. Values below 1
    # push draws toward the corners (stronger specialisation), values
    # above 1 pull them toward an even blend. They stop at MAX_SCALE because
    # numpy's `dirichlet` returns [0, 0, 0] from 1e308 on, so every barrier
    # or bundle would be (0, 0, 0) instead of summing to its drawn total.
    barrier_mix_alpha: float = _within(1.0, "(", 0, MAX_SCALE, "]")
    resource_mix_alpha: float = _within(0.55, "(", 0, MAX_SCALE, "]")
    noise_amplitude: float = _within(0.3, "[", 0, 1, ")")
    maintenance_rate: float = _within(0.001, "[", 0, 1, ")")
    checkpoint_cycles: tuple[int, ...] = _within((20, 200), "[", 1, math.inf, ")")

    # Market value dynamics
    share_value_range: tuple[float, float] = _within((0.5, 2.0), "(", 0, MAX_SCALE, "]")
    crowding: float = _within(0.15, "[", 0, math.inf, ")")
    value_noise: float = _within(0.2, "[", -MAX_RATE, MAX_RATE, "]")
    value_floor: float = _within(0.01, "(", 0, MAX_SCALE, "]")

    # Strategic factor market
    initial_price: float = _within(0.01, "(", 0, MAX_SCALE, "]")
    initial_stock: float = _within(1e6, "[", 0, math.inf, "]")
    price_alpha: float = _within(0.2, "[", -MAX_RATE, MAX_RATE, "]")
    price_floor: float = _within(0.01, "(", 0, MAX_SCALE, "]")

    # RBV action valuation and survival
    output_fraction: float = _within(0.05, "[", -MAX_RATE, MAX_RATE, "]")
    bankruptcy_grace: int = _within(10, "[", 1, math.inf, ")")

    # Restores the literal sign max(r - R, 0) in the entry-distance formula
    # for comparison runs; the default orientation is the shortfall max(R - r, 0).
    literal_distance_sign: bool = _within(False, "[", 0, 1, "]")

    def validate(self) -> None:
        _check(self, "sim")
        if self.n_firms % 2 != 0:
            raise ValueError(f"n_firms must be even (firms split 50/50 IO/RBV), not {self.n_firms!r}")
        if not self.market_size_choices:
            raise ValueError(f"market_size_choices must be non-empty, not {self.market_size_choices!r}")


@dataclass
class BatchConfig:
    n_runs: int = _within(1008, "[", 1, math.inf, ")")
    base_seed: int = _within(0, "[", 0, math.inf, ")")
    sim: SimConfig = field(default_factory=SimConfig)
    parallelism: int = _within(1, "[", 1, MAX_PARALLELISM, "]")

    def validate(self) -> None:
        _check(self, "batch")
        self.sim.validate()


# Field -> the interval that its value, or each element of its tuple, must
# lie in, in field order; see `_within`.
DOMAINS = {
    f.name: f.metadata["domain"] for c in (SimConfig, BatchConfig) for f in fields(c) if f.metadata
}

# Section -> its keys' declared types, in field order. `BatchConfig.sim` is
# the [sim] section, not a key of [batch].
SECTIONS = {
    "sim": typing.get_type_hints(SimConfig),
    "batch": {
        name: kind
        for name, kind in typing.get_type_hints(BatchConfig).items()
        if kind is not SimConfig
    },
}


def _parse_scalar(raw: str, kind):
    if kind is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"bad value {raw!r}: not a boolean")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r}: {exc}") from exc


def _parse_value(raw: str, kind):
    """Parse `raw` as the declared type `kind`: a scalar, a tuple, or
    either of those or None."""
    raw = raw.strip()
    args = typing.get_args(kind)
    if type(None) in args:
        if raw.lower() == "none":
            return None
        (kind,) = (a for a in args if a is not type(None))
        args = typing.get_args(kind)
    if typing.get_origin(kind) is not tuple:
        return _parse_scalar(raw, kind)
    parts = raw.replace(",", " ").split()
    if args[-1] is Ellipsis:
        args = (args[0],) * len(parts)
    elif len(parts) != len(args):
        raise ConfigError(f"bad value {raw!r}: expected {len(args)} values, got {len(parts)}")
    return tuple(_parse_scalar(p, t) for p, t in zip(parts, args))


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr names its type
    return str(value)


def _check(obj, section: str) -> None:
    """Hold each field to its declared type and to its interval in DOMAINS,
    and each `*_range` to an end not below its start."""
    for name, kind in SECTIONS[section].items():
        value = getattr(obj, name)
        items = () if value is None else value if isinstance(value, tuple) else (value,)
        # NaN fails the round trip (nan != nan), so its interval rejects it.
        nan = any(v != v for v in items if isinstance(v, float))
        if not nan:
            try:
                parsed = _parse_value(_format_value(value), kind)
                same = isinstance(parsed, tuple) == isinstance(value, tuple) and parsed == value
            except ValueError:
                same = False
            if not same:
                shown = kind.__name__ if isinstance(kind, type) else kind
                raise ValueError(f"{name} must be of type {shown}, not {value!r}")
        left, lo, hi, right = DOMAINS[name]
        inside = not nan and all(
            (lo <= v if left == "[" else lo < v) and (v <= hi if right == "]" else v < hi) for v in items
        )
        ranged = name.endswith("_range") and value is not None
        if not inside or ranged and value[1] < value[0]:
            rule = (" elementwise" if isinstance(value, tuple) else "") + (", start <= end" if ranged else "")
            raise ValueError(f"{name} must be in {left}{lo:g}, {hi:g}{right}{rule}, not {value!r}")


def _section_object(batch: BatchConfig, section: str):
    return batch.sim if section == "sim" else batch


def _apply_section(batch: BatchConfig, section: str, items) -> None:
    types = SECTIONS[section]
    obj = _section_object(batch, section)
    for key, raw in items:
        if key not in types:
            raise ConfigError(f"unknown key [{section}] {key}")
        try:
            value = _parse_value(raw, types[key])
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
        setattr(obj, key, value)


def load_config(path: str | None = None) -> BatchConfig:
    """Build a BatchConfig from an INI file, or pure defaults without one."""
    batch = BatchConfig(sim=SimConfig())
    if path is None:
        return batch
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    if parser.defaults():
        raise ConfigError("unknown config section [DEFAULT]")
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        _apply_section(batch, section, parser.items(section))
    return batch


def apply_override(batch: BatchConfig, key: str, raw: str) -> None:
    """Apply one `section.name=value` override on top of a loaded config."""
    if "." not in key:
        raise ConfigError(f"override key must be sim.NAME or batch.NAME: {key!r}")
    section, name = key.split(".", 1)
    if section not in SECTIONS:
        raise ConfigError(f"unknown config section {section!r}")
    _apply_section(batch, section, [(name, raw)])


def dump_config(batch: BatchConfig) -> str:
    """Serialize the effective configuration; loading it gives the same dump."""
    blocks = []
    for section, types in SECTIONS.items():
        obj = _section_object(batch, section)
        lines = [f"[{section}]"]
        lines += [f"{name} = {_format_value(getattr(obj, name))}" for name in types]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
