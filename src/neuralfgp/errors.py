"""Exception hierarchy shared across the package.

Each raised class carries its CLI contract as two class attributes: `label`, the prefix of its
one stderr line, and `exit_code`, the status cli.main returns. ConfigError is exit 2, DataError
exit 3 and NumericError exit 4; DimensionError is a ConfigError. cli.main also reports a
MemoryError, from sizes too large for this machine, with ConfigError's code, and any other
OSError, such as an unwritable output path, with DataError's. A --jobs worker process that dies
(a BrokenProcessPool, as when the system kills it for its memory) is a ConfigError from
backtest.walk_forward.

Every numeric setting of the package is checked where it is constructed, by one rule: check()
holds a value to its declared domain, and a dataclass declares a field's domain with bounded().
"""

import dataclasses
import math
import numbers


class NeuralFgpError(Exception):
    """Base class for all package errors; never raised itself.

    cli.main prints one line, f"{exc.label}: {exc}", to stderr and returns exc.exit_code.
    """


class ConfigError(NeuralFgpError):
    """Invalid configuration or arguments."""

    label, exit_code = "configuration error", 2


class DataError(NeuralFgpError):
    """Bad or insufficient market data."""

    label, exit_code = "data error", 3


class NumericError(NeuralFgpError):
    """Non-finite values or numerical breakdown."""

    label, exit_code = "numeric error", 4


class DimensionError(ConfigError):
    """Shape mismatch between operands or parameters."""


def check(name, value, low, kind=int, strict=False):
    """value, if it lies in the domain of the setting name, else a ConfigError naming it.

    An int setting takes an integer, numpy's included, and a float setting a real; neither
    takes a bool. The value must lie in [low, inf), or in (low, inf) when strict, so NaN and
    infinities fail.
    """
    number = not isinstance(value, bool) and isinstance(value, numbers.Integral if kind is int else numbers.Real)
    if not (number and (low < value < math.inf if strict else low <= value < math.inf)):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{name} must be {what} {'>' if strict else '>='} {low}, got {value!r}")
    return value


def bounded(default, low, strict=False):
    """A dataclass field whose domain for check() is [low, inf), or (low, inf) when strict, and
    whose kind is its default's type, int or float."""
    return dataclasses.field(default=default, metadata={"domain": (low, type(default), strict)})


def check_fields(config):
    """check() each bounded field of config, a dataclass instance, against its declared domain;
    a config's __post_init__ calls check_fields(self)."""
    for f in dataclasses.fields(config):
        if "domain" in f.metadata:
            check(f.name, getattr(config, f.name), *f.metadata["domain"])
