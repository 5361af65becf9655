"""Flat INI config files for simulation and batch settings.

Two sections, [sim] and [batch], whose keys mirror the SimConfig and
BatchConfig field names. Missing keys keep their defaults. Every value is
parsed by its field's declared type, so `none` is accepted only where the
type admits None and a tuple must have its declared length. A config built
from INI text and overrides therefore dumps to text that loads back to a
config with the same dump.
"""

from __future__ import annotations

import configparser
import typing

from .experiment import BatchConfig
from .model import SimConfig


class ConfigError(ValueError):
    """Malformed config file or override."""


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
        return repr(value)
    return str(value)


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
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
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
