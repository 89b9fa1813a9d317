"""Exception hierarchy shared across the package.

Each class maps to a CLI exit code: cli.main turns ConfigError into
EXIT_CONFIG (2), DataError into EXIT_DATA (3) and NumericError into
EXIT_NUMERIC (4).
"""


class NeuralFgpError(Exception):
    """Base class for all package errors."""


class ConfigError(NeuralFgpError):
    """Invalid configuration or arguments. Exit code 2."""


class DataError(NeuralFgpError):
    """Bad or insufficient market data. Exit code 3."""


class NumericError(NeuralFgpError):
    """Non-finite values or numerical breakdown. Exit code 4."""


class DimensionError(ConfigError):
    """Shape mismatch between operands or parameters."""
