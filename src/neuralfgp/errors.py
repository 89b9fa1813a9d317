"""Exception hierarchy shared across the package.

Each raised class carries its CLI contract as two class attributes: `label`, the prefix of its
one stderr line, and `exit_code`, the status cli.main returns. ConfigError is exit 2, DataError
exit 3 and NumericError exit 4; DimensionError is a ConfigError. Data too short for a window is
a DataError in every command, and so is a market weight that is not positive, one that
underflows to 0 included. cli.main also reports a MemoryError, from sizes too large for this
machine, with ConfigError's code, and any other OSError, such as an unwritable output path, with
DataError's. A --jobs worker process that dies (a BrokenProcessPool, as when the system kills it
for its memory) is a ConfigError from backtest.walk_forward. A relative wealth that overflows to
inf or underflows to 0 is a NumericError from backtest's wealth core, never numpy's
RuntimeWarning and an inf in a report. A closed-form map of fgp given the neural generator is a
ConfigError.

A weight path, whether backtest or training reads it, is held to one rule, fgp.check_path: one
that is not 2-D is a DimensionError, one of fewer than 2 rows a DataError. A point or path with
an entry that is not finite and positive is a DataError from fgp.check_positive, which every
generator map of fgp (the closed-form maps, neural_weights and path_map) runs on its input, for
every kind. A neural fgp.Generator without an icnn.ICNNParams is a ConfigError when it is built.
A summary.csv row whose average is not finite or whose K is below 1 is a DataError from
backtest.read_summary_csv.

Every numeric setting of the package is checked where it is constructed, by one rule: check()
holds a value to its declared domain, and a dataclass declares a field's domain with bounded().
fgp.Generator holds its diversity exponent p to check() as well, plus its bound p < 1.
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
