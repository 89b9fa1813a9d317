import numpy as np
import pytest

from neuralfgp import market_data as md
from neuralfgp.errors import ConfigError, DataError


def test_gbm_deterministic_limit_tiny_vol():
    cfg = md.GbmConfig(
        n_assets=2, n_days=3, drift_range=(0.1, 0.1), vol_range=(1e-12, 1e-12), seed=5
    )
    path = md.gbm_simulate(cfg)
    expected = np.exp(0.1 * cfg.dt)
    ratios = path.prices[1:] / path.prices[:-1]
    np.testing.assert_allclose(ratios, expected, atol=1e-9)


def test_gbm_same_seed_bit_identical():
    cfg = md.GbmConfig(n_assets=4, n_days=50, seed=123)
    a = md.gbm_simulate(cfg)
    b = md.gbm_simulate(cfg)
    assert np.array_equal(a.prices, b.prices)


def test_gbm_reference_setup_shape():
    path = md.gbm_simulate(md.GbmConfig(n_assets=5, n_days=1000, seed=0))
    assert path.prices.shape == (1000, 5)
    assert np.all(path.prices > 0)


def test_gbm_invalid_config():
    with pytest.raises(ConfigError):
        md.GbmConfig(n_days=1)
    with pytest.raises(ConfigError):
        md.GbmConfig(dt=0.0)
    with pytest.raises(ConfigError):
        md.GbmConfig(vol_range=(0.0, 0.4))
    with pytest.raises(ConfigError):
        md.GbmConfig(drift_range=(0.2, 0.1))


@pytest.mark.parametrize(
    "row,expected",
    [
        ([2.0, 2.0], [0.5, 0.5]),
        ([1.0, 3.0], [0.25, 0.75]),
        ([2.0, 3.0, 5.0], [0.2, 0.3, 0.5]),
    ],
)
def test_normalize_single_rows(row, expected):
    prices = np.array([row, row])
    path = md.PricePath([0, 1], prices, [f"A{i}" for i in range(len(row))])
    w = md.normalize_to_weights(path)
    np.testing.assert_allclose(w.weights[0], expected, atol=1e-15)


def test_normalize_rows_sum_to_one_and_floored():
    path = md.gbm_simulate(md.GbmConfig(n_assets=5, n_days=300, seed=9))
    w = md.normalize_to_weights(path)
    np.testing.assert_allclose(w.weights.sum(axis=1), 1.0, atol=1e-12)
    assert w.weights.min() >= md.MARKET_WEIGHT_FLOOR


def test_normalize_scale_invariance():
    rng = np.random.default_rng(2)
    prices = rng.uniform(1.0, 10.0, (5, 4))
    base = md.normalize_to_weights(md.PricePath(list(range(5)), prices, list("abcd")))
    for lam in (1e-6, 0.5, 3.0, 1e6):
        scaled = md.normalize_to_weights(
            md.PricePath(list(range(5)), prices * lam, list("abcd"))
        )
        np.testing.assert_allclose(scaled.weights, base.weights, atol=1e-15)


def test_price_path_invariants():
    with pytest.raises(DataError):
        md.PricePath([0, 1], np.array([[1.0, -1.0], [1.0, 1.0]]), ["a", "b"])
    with pytest.raises(DataError):
        md.PricePath([1, 0], np.ones((2, 2)), ["a", "b"])
    with pytest.raises(DataError):
        md.PricePath([0], np.ones((1, 2)), ["a", "b"])


CSV_CLEAN = """date,AAA,BBB
2024-01-02,10,20
2024-01-03,11,21
2024-01-04,12,22
"""


def test_csv_identity(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text(CSV_CLEAN)
    path = md.load_prices_csv(f)
    assert path.tickers == ["AAA", "BBB"]
    np.testing.assert_array_equal(path.prices, [[10, 20], [11, 21], [12, 22]])
    assert path.dates == ["2024-01-02", "2024-01-03", "2024-01-04"]


def test_csv_forward_fill():
    text = "date,AAA,BBB\n2024-01-02,10,20\n2024-01-03,,21\n2024-01-04,12,22\n"
    path = md.parse_prices_csv(text)
    assert path.prices[1, 0] == 10.0


def test_csv_leading_gap_dropped():
    text = "date,AAA,BBB\n2024-01-02,,20\n2024-01-03,11,21\n2024-01-04,12,22\n"
    path = md.parse_prices_csv(text)
    assert path.prices.shape == (2, 2)
    assert path.dates[0] == "2024-01-03"


def test_csv_zero_price_names_cell():
    text = "date,AAA,BBB\n2024-01-02,10,20\n2024-01-03,0,21\n"
    with pytest.raises(DataError, match="2024-01-03.*'AAA'"):
        md.parse_prices_csv(text)


def test_csv_unknown_ticker():
    with pytest.raises(DataError, match="ZZZ"):
        md.parse_prices_csv(CSV_CLEAN, tickers=["AAA", "ZZZ"])


def test_csv_ticker_selection_order():
    path = md.parse_prices_csv(CSV_CLEAN, tickers=["BBB", "AAA"])
    np.testing.assert_array_equal(path.prices[0], [20, 10])


def test_csv_unparsable_cell():
    text = "date,AAA,BBB\n2024-01-02,10,20\n2024-01-03,oops,21\n"
    with pytest.raises(DataError, match="row 3.*'AAA'"):
        md.parse_prices_csv(text)


def test_csv_too_few_rows():
    with pytest.raises(DataError, match="fewer than 2"):
        md.parse_prices_csv("date,AAA,BBB\n2024-01-02,10,20\n")


def test_csv_round_trip(tmp_path):
    path = md.gbm_simulate(md.GbmConfig(n_assets=3, n_days=10, seed=4))
    f = tmp_path / "out.csv"
    md.write_prices_csv(f, path)
    back = md.load_prices_csv(f)
    np.testing.assert_array_equal(back.prices, path.prices)
