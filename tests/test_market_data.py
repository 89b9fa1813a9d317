import csv

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


def test_normalize_is_each_row_over_its_total():
    # no weight is repaired: a 1e-15 weight stays 1e-15, and every row keeps the bytes of one division
    gbm = md.gbm_simulate(md.GbmConfig(n_assets=5, n_days=300, seed=9)).prices
    for prices in (gbm, np.array([[1, 1e-15], [1, 2e-15], [1, 1]])):
        dates, tickers = list(range(prices.shape[0])), [f"A{i}" for i in range(prices.shape[1])]
        w = md.normalize_to_weights(md.PricePath(dates, prices, tickers))
        assert w.weights.tobytes() == (prices / prices.sum(axis=1, keepdims=True)).tobytes()
        np.testing.assert_allclose(w.weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "weights,message",
    [([[0.5, 0.5], [1.0, 0.0]], "non-positive weight at date 1, column 'B'"),
     ([[0.5, 0.5], [1.5, -0.5]], "non-positive weight at date 1, column 'B'"),
     ([[0.0, 1.0], [0.5, 0.5]], "non-positive weight at date 0, column 'A'"),
     ([[0.5, 0.5], [np.nan, 0.5]], "non-finite weight at date 1, column 'A'")],
    ids=["zero", "negative", "zero-on-the-first-date", "nan"],
)
def test_weight_path_names_its_first_bad_weight(weights, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        md.MarketWeightPath([0, 1], np.array(weights), ["A", "B"])


def test_normalize_weight_that_underflows_is_data_error():
    # B's share of row 1, 1e-300 / 1e300, underflows to 0: the run ends there, naming it
    path = md.PricePath([0, 1, 2], [[1.0, 1.0], [1e300, 1e-300], [1.0, 1.0]], ["A", "B"])
    with pytest.raises(DataError, match="^non-positive weight at date 1, column 'B'$"):
        md.normalize_to_weights(path)


@pytest.mark.parametrize(
    "dates,weights,tickers,message",
    [
        ([0, 1], [0.5, 0.5], ["A", "B"], r"2-D with at least 2 columns, got shape \(2,\)"),
        ([0, 1], [[1.0], [1.0]], ["A"], r"2-D with at least 2 columns, got shape \(2, 1\)"),
        ([0, 1, 2], [[0.5, 0.5], [0.5, 0.5]], ["A", "B"], "dates length does not match"),
        ([0, 1], [[0.5, 0.5], [0.5, 0.5]], ["A"], "tickers length does not match"),
        ([1, 0], [[0.5, 0.5], [0.5, 0.5]], ["A", "B"], "dates must be strictly increasing"),
        ([0, 0], [[0.5, 0.5], [0.5, 0.5]], ["A", "B"], "dates must be strictly increasing"),
        ([], np.empty((0, 2)), ["A", "B"], r"at least 2 rows, got shape \(0, 2\)"),
        ([0], [[0.5, 0.5]], ["A", "B"], r"at least 2 rows, got shape \(1, 2\)"),
    ],
    ids=["1-D", "one-asset", "dates", "tickers", "decreasing-dates", "repeated-date", "no-rows", "one-row"],
)
def test_weight_path_checks_its_shape_and_labels(dates, weights, tickers, message):
    with pytest.raises(DataError, match=message):
        md.MarketWeightPath(dates, np.array(weights), tickers)


def test_normalize_row_sum_overflow_is_data_error():
    # each price is finite, but row 1's total overflows float64; row 0's, at 1.7e308, does not
    prices = np.array([[1e308, 6e307, 1e307], [1e308, 5e307, 1e308], [1.0, 2.0, 3.0]])
    with pytest.raises(DataError, match="prices at date 1 sum past the float64 range"):
        md.normalize_to_weights(md.PricePath([0, 1, 2], prices, list("abc")))
    w = md.normalize_to_weights(md.PricePath([0, 2], prices[[0, 2]], list("abc"))).weights
    np.testing.assert_array_equal(w[0], prices[0] / prices[0].sum())


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


@pytest.mark.parametrize(
    "price,kind",
    [(0.0, "non-positive"), (-1.0, "non-positive"), (-np.inf, "non-positive"), (np.inf, "non-finite"),
     (np.nan, "non-finite")],
)
def test_price_path_names_a_bad_price(price, kind):
    prices = np.array([[1.0, 1.0], [1.0, price], [np.inf, 0.0]])
    with pytest.raises(DataError, match=f"^{kind} price at date 1, column 'b'$"):
        md.PricePath([0, 1, 2], prices, ["a", "b"])


def test_gbm_overflowing_price_is_data_error_without_a_warning():
    # dt = 1e4 gives log-price steps in the thousands, so exp overflows to inf; a warning
    # would be an error here too (pyproject's filterwarnings)
    with pytest.raises(DataError, match="non-finite price at date 2, column 'A0'"):
        md.gbm_simulate(md.GbmConfig(n_assets=2, n_days=3, dt=1e4, seed=0))


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


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    f = tmp_path / "p.csv"
    f.write_bytes(b"\xef\xbb\xbf" + CSV_CLEAN.encode("utf-8"))
    path = md.load_prices_csv(f)
    assert path.tickers == ["AAA", "BBB"]
    np.testing.assert_array_equal(path.prices, [[10, 20], [11, 21], [12, 22]])


@pytest.mark.parametrize("error", [csv.Error("the caller's"), OSError("the caller's")], ids=["csv", "os"])
def test_read_csv_passes_the_callers_own_errors_through(tmp_path, error):
    # raised while the caller handles a row, not by the read: read_csv does not relabel it
    f = tmp_path / "p.csv"
    f.write_text(CSV_CLEAN)
    with pytest.raises(type(error)) as exc:
        for _ in md.read_csv(f):
            raise error
    assert exc.value is error


def test_csv_forward_fill():
    text = "date,AAA,BBB\n2024-01-02,10,20\n2024-01-03,,21\n2024-01-04,12,22\n"
    path = md.parse_prices_csv(text)
    assert path.prices[1, 0] == 10.0
    cases = [
        # consecutive gaps in one column all take the last value above them
        ("date,AAA,BBB\n1,10,20\n2,,21\n3,,22\n4,,23\n5,14,24\n",
         [1, 2, 3, 4, 5], [[10, 20], [10, 21], [10, 22], [10, 23], [14, 24]]),
        # gaps in two columns of one row, each filled from its own column
        ("date,AAA,BBB,CCC\n1,10,20,30\n2,,,31\n3,12,22,\n",
         [1, 2, 3], [[10, 20, 30], [10, 20, 31], [12, 22, 31]]),
        # the first complete row is complete only through a fill from the leading row it drops
        ("date,AAA,BBB\n1,,20\n2,11,\n3,12,22\n",
         [2, 3], [[11, 20], [12, 22]]),
    ]
    for text, dates, prices in cases:
        path = md.parse_prices_csv(text)
        assert path.dates == dates
        assert path.prices.tobytes() == np.array(prices, dtype=np.float64).tobytes(), text


def test_csv_skips_rows_of_blank_fields():
    text = "date,AAA,BBB\n2024-01-02,10,20\n\n , ,\n,,\n2024-01-03,11,21\n"
    path = md.parse_prices_csv(text)
    assert path.dates == ["2024-01-02", "2024-01-03"]


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
