"""Exception hierarchy shared across the package.

Each raised class carries its CLI contract as two class attributes: `label`, the prefix of its
one stderr line, and `exit_code`, the status cli.main returns. ConfigError is exit 2, DataError
exit 3 and NumericError exit 4; DimensionError is a ConfigError. cli.main also reports a
MemoryError, from sizes too large for this machine, with ConfigError's code, and any other
OSError, such as an unwritable output path, with DataError's.
"""


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
