import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfgp import market_data as md
from neuralfgp.errors import ConfigError, DataError


def test_gbm_deterministic_limit_tiny_vol(monkeypatch):
    monkeypatch.setattr(md, "DRIFT_RANGE", (0.1, 0.1))
    monkeypatch.setattr(md, "VOL_RANGE", (1e-12, 1e-12))
    cfg = md.GbmConfig(n_assets=2, n_days=3, seed=5)
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


def test_floored_weights_stay_in_the_open_simplex():
    # the floor lifts B to 1e-12, and renormalising puts it just below: still a valid path
    n = 2
    path = md.PricePath([0, 1, 2], [[1, 1e-15], [1, 2e-15], [1, 1]], ["A", "B"])
    w = md.normalize_to_weights(path).weights
    assert w[:2, 1].max() < md.MARKET_WEIGHT_FLOOR
    assert w.min() >= md.MARKET_WEIGHT_FLOOR / (1 + n * md.MARKET_WEIGHT_FLOOR)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for bad in ([[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [1.5, -0.5]]):
        with pytest.raises(DataError, match="positive"):
            md.MarketWeightPath([0, 1], np.array(bad), ["A", "B"])


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


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_csv_non_finite_cell_names_cell(cell):
    text = f"date,AAA,BBB\n2024-01-02,10,20\n2024-01-03,11,{cell}\n"
    with pytest.raises(DataError, match=f"non-finite cell at row 3, column 'BBB': '{cell}'"):
        md.parse_prices_csv(text)


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


@pytest.mark.parametrize(
    "text",
    [
        "date,AAA,BBB\n1,10,20\n2,11,21\n3,12,22\n",
        "date,AAA,BBB\r1,10,20\r2,11,21\r3,12,22\r",
        "date,AAA,BBB\r\n1,10,20\r\n2,11,21\r\n3,12,22\r\n",
    ],
    ids=["lf", "cr", "crlf"],
)
def test_csv_line_endings_parse_alike(text):
    path = md.parse_prices_csv(text)
    assert path.dates == [1, 2, 3]
    np.testing.assert_array_equal(path.prices, [[10, 20], [11, 21], [12, 22]])


@pytest.mark.parametrize(
    "text,match",
    [
        ("date,AAA,BBB\n1," + "9" * 200_000 + ",20\n2,11,21\n", "malformed CSV"),
        ("date,AAA,AAA\n1,10,20\n2,11,21\n", "duplicate tickers"),
        # neither is an integer day index, so they are date strings and cannot follow an integer
        ("date,AAA,BBB\n1,10,20\n\u00b2,11,21\n", "mix integer"),
        ("date,AAA,BBB\n1,10,20\n--5,11,21\n", "mix integer"),
        # PricePath's own checks name the source too
        ("date,AAA,BBB\n2,10,20\n1,11,21\n", "^<string>: dates must be strictly increasing"),
        ("date,AAA,BBB\n1,10,20\n1,11,21\n", "^<string>: dates must be strictly increasing"),
    ],
    ids=[
        "field-over-limit", "duplicate-ticker", "superscript-date", "double-minus-date", "dates-out-of-order",
        "dates-repeated",
    ],
)
def test_csv_malformed_text_is_data_error(text, match):
    with pytest.raises(DataError, match=match):
        md.parse_prices_csv(text)


def test_load_csv_field_over_limit_is_data_error(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("date,AAA,BBB\n1," + "9" * 200_000 + ",20\n2,11,21\n")
    with pytest.raises(DataError, match="cannot read.*field larger"):
        md.load_prices_csv(path)


DEFECTS = st.one_of(
    st.sampled_from(["", " ", " 3 ", "0", "-1", "nan", "inf", "1e400", "abc", '"4"', "2024-01-02"]),
    st.floats().map(repr),
    st.text(max_size=3),
)


@st.composite
def csv_texts(draw):
    """Price CSVs that are mostly well formed, with random defects in the header, row
    lengths, cells, dates and line ends."""
    sometimes = lambda: draw(st.integers(0, 7)) == 0
    width = 1 if sometimes() else draw(st.integers(2, 4))
    header = ["date" if not sometimes() else draw(st.sampled_from([" Date ", "day", ""]))]
    header += draw(st.lists(st.sampled_from(["AAA", "BBB", "CCC", "DDD", ""]), min_size=width, max_size=width, unique=not sometimes()))
    if sometimes():
        dates = draw(st.lists(st.sampled_from(["2024-01-02", "2024-01-03", "-", "--5", "x", "\u00b2"]), max_size=6))
    else:
        dates = sorted(draw(st.lists(st.integers(-3, 40), unique=True, min_size=2, max_size=6)))
    rows = []
    for d in dates:
        cells = draw(st.lists(st.floats(1e-3, 1e6).map(repr), min_size=width, max_size=width))
        if sometimes():
            cells[draw(st.integers(0, width - 1))] = draw(DEFECTS)
        if sometimes():
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        rows.append([str(d)] + cells)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(",".join(row) for row in [header] + rows) + draw(st.sampled_from(["", end]))


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(st.text(max_size=40), csv_texts()))
def test_random_csv_text_gives_price_path_or_data_error(text):
    try:
        path = md.parse_prices_csv(text)
    except DataError:
        return
    assert path.prices.shape == (len(path.dates), len(path.tickers))
    assert np.isfinite(path.prices).all() and (path.prices > 0).all()
