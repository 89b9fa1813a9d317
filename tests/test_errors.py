"""Every public constructor holds its numeric settings to their domains, by errors.check.

An int setting takes an integer (numpy's too) and a float setting a finite real; neither takes
a bool, and each lies at or above its bound. A failure is a ConfigError naming the setting,
never a numpy warning or a TypeError later on.
"""

import math

import numpy as np
import pytest

from neuralfgp import backtest, cli, errors, icnn, market_data, training
from neuralfgp.errors import ConfigError

pytestmark = pytest.mark.filterwarnings("error")  # a numpy warning on the way is a failure too


def keyword(cls, name):
    return lambda value: cls(**{name: value})


# (constructor.setting, build with that one value, kind, a valid value, a value below the bound)
SETTINGS = [
    ("TrainConfig.lambda_l2", keyword(training.TrainConfig, "lambda_l2"), float, 0.3, -0.1),
    ("TrainConfig.learning_rate", keyword(training.TrainConfig, "learning_rate"), float, 1e-3, 0.0),
    ("TrainConfig.epochs", keyword(training.TrainConfig, "epochs"), int, 3, 0),
    ("WalkForwardConfig.train_days", keyword(backtest.WalkForwardConfig, "train_days"), int, 20, 1),
    ("WalkForwardConfig.test_days", keyword(backtest.WalkForwardConfig, "test_days"), int, 5, 0),
    ("WalkForwardConfig.seed", keyword(backtest.WalkForwardConfig, "seed"), int, 0, -1),
    ("WalkForwardConfig.jobs", keyword(backtest.WalkForwardConfig, "jobs"), int, 1, 0),
    ("WalkForwardConfig.widths", lambda m: backtest.WalkForwardConfig(widths=(4, m)), int, 2, 0),
    ("GbmConfig.n_assets", keyword(market_data.GbmConfig, "n_assets"), int, 3, 1),
    ("GbmConfig.n_days", keyword(market_data.GbmConfig, "n_days"), int, 10, 1),
    ("GbmConfig.dt", keyword(market_data.GbmConfig, "dt"), float, 0.01, 0.0),
    ("GbmConfig.seed", keyword(market_data.GbmConfig, "seed"), int, 0, -1),
    ("RunConfig.seed", keyword(cli.RunConfig, "seed"), int, 0, -1),
    ("RunConfig.years", keyword(cli.RunConfig, "years"), int, 1, 0),
    ("init.n", lambda n: icnn.init(n, (4,), seed=0), int, 3, 1),
    ("init.widths", lambda m: icnn.init(3, (4, m), seed=0), int, 2, 0),
    ("init.seed", lambda seed: icnn.init(3, (4,), seed=seed), int, 0, -1),
]


def bad_values():
    for setting, build, kind, _, below in SETTINGS:
        values = [True, math.nan, math.inf, -math.inf, "3", below] + ([2.5] if kind is int else [])
        for value in values:
            yield pytest.param(setting, build, value, id=f"{setting}={value!r}")


@pytest.mark.parametrize("setting,build,value", bad_values())
def test_constructor_rejects_a_value_outside_the_domain(setting, build, value):
    name = setting.split(".")[1]
    with pytest.raises(ConfigError, match=rf"^{name} must be"):
        build(value)


@pytest.mark.parametrize("setting,build,kind,valid", [s[:4] for s in SETTINGS], ids=[s[0] for s in SETTINGS])
def test_constructor_accepts_numpy_scalars(setting, build, kind, valid):
    build(np.int64(valid) if kind is int else np.float64(valid))


def test_numpy_sizes_are_stored_as_python_ints():
    # a to_json document holds n and widths as JSON integers
    theta = icnn.init(np.int64(3), (np.int64(4),), seed=np.int64(0))
    assert type(theta.n) is int and all(type(m) is int for m in theta.widths)
    icnn.from_json(icnn.to_json(theta))


@pytest.mark.parametrize(
    "value,low,kind,strict,ok",
    [
        (0, 0, int, False, True), (0, 0, int, True, False), (1, 0, int, True, True),
        (0.0, 0.0, float, False, True), (0.0, 0.0, float, True, False), (5e-324, 0.0, float, True, True),
        (1.7e308, 0.0, float, True, True), (2, 1.0, float, False, True), (10**30, 1, int, False, True),
        (np.bool_(True), 0, int, False, False), (np.float64(2.0), 1, int, False, False),
    ],
)
def test_check_bounds_and_kinds(value, low, kind, strict, ok):
    if ok:
        assert errors.check("x", value, low, kind, strict) is value
    else:
        with pytest.raises(ConfigError, match="^x must be"):
            errors.check("x", value, low, kind, strict)


@pytest.mark.parametrize("build", [lambda: icnn.init(3, (), seed=0), lambda: backtest.WalkForwardConfig(widths=())])
def test_no_hidden_layer_is_config_error(build):
    with pytest.raises(ConfigError, match="^widths must name at least one layer"):
        build()
