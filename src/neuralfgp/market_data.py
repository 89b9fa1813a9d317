"""Market-weight paths from a GBM simulator or from ingested price CSVs.

All functions are pure; the simulator's PRNG state is local to each call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

MARKET_WEIGHT_FLOOR = 1e-12  # market weights are floored here, then renormalised
DRIFT_RANGE = (-0.05, 0.15)  # GBM drifts and volatilities are drawn uniformly from these
VOL_RANGE = (0.20, 0.80)
FETCH_TIMEOUT_S = 30


@dataclass(frozen=True)
class PricePath:
    """Strictly positive capitalisations, rows = trading days, columns = assets.

    dates are integer day indices for synthetic data, ISO-8601 strings for real data.
    """

    dates: list
    prices: np.ndarray
    tickers: list

    def __post_init__(self):
        p = np.asarray(self.prices, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] < 2 or p.shape[1] < 2:
            raise DataError(f"price matrix must be at least 2x2, got shape {p.shape}")
        if len(self.dates) != p.shape[0]:
            raise DataError("dates length does not match number of price rows")
        if len(self.tickers) != p.shape[1]:
            raise DataError("tickers length does not match number of price columns")
        if not all(a < b for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("dates must be strictly increasing")
        if not np.all(p > 0):
            r, c = np.argwhere(~(p > 0))[0]
            raise DataError(f"non-positive price at date {self.dates[r]}, column {self.tickers[c]!r}")
        object.__setattr__(self, "prices", p)


@dataclass(frozen=True)
class MarketWeightPath:
    """Rows live in the open unit simplex (entries > 0, sums within 1e-12 of 1); same index
    as the source PricePath."""

    dates: list
    weights: np.ndarray
    tickers: list

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if not np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            raise DataError("weight rows must sum to 1 within 1e-12")
        if not np.all(w > 0):
            raise DataError("weights must be positive")
        object.__setattr__(self, "weights", w)

    @property
    def n_assets(self):
        return self.weights.shape[1]

    def __len__(self):
        return self.weights.shape[0]


@dataclass(frozen=True)
class GbmConfig:
    n_assets: int = 5
    n_days: int = 1000
    dt: float = 1.0 / 252.0
    seed: int = 0

    def __post_init__(self):
        if self.n_assets < 2:
            raise ConfigError("n_assets must be >= 2")
        if self.n_days < 2:
            raise ConfigError("n_days must be >= 2")
        if self.n_assets * self.n_days > np.iinfo(np.intp).max // 8:
            raise ConfigError(f"{self.n_days} days x {self.n_assets} assets do not fit in one float64 array")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")


def gbm_simulate(cfg: GbmConfig) -> PricePath:
    """Simulate independent GBM paths, per-asset drift and vol drawn from DRIFT_RANGE, VOL_RANGE.

    Uses numpy's PCG64 generator, so a fixed seed reproduces the path exactly.
    Per asset i the log-price increment is (m_i - s_i^2/2) dt + s_i sqrt(dt) Z.
    """
    rng = np.random.default_rng(cfg.seed)
    drifts = rng.uniform(*DRIFT_RANGE, cfg.n_assets)
    vols = rng.uniform(*VOL_RANGE, cfg.n_assets)
    z = rng.standard_normal((cfg.n_days - 1, cfg.n_assets))
    increments = (drifts - 0.5 * vols**2) * cfg.dt + vols * np.sqrt(cfg.dt) * z
    log_prices = np.vstack([np.zeros(cfg.n_assets), increments]).cumsum(axis=0)  # prices start at 1
    tickers = [f"A{i}" for i in range(cfg.n_assets)]
    return PricePath(list(range(cfg.n_days)), np.exp(log_prices), tickers)


def normalize_to_weights(path: PricePath) -> MarketWeightPath:
    """Divide each price row by its total; floor at 1e-12 and renormalise, so a floored entry
    ends at or just below the floor, never below 1e-12 / (1 + n * 1e-12)."""
    w = path.prices / path.prices.sum(axis=1, keepdims=True)
    if np.any(w < MARKET_WEIGHT_FLOOR):
        w = np.maximum(w, MARKET_WEIGHT_FLOOR)
        w = w / w.sum(axis=1, keepdims=True)
    return MarketWeightPath(path.dates, w, path.tickers)


def load_prices_csv(path) -> PricePath:
    """Read every column of a wide-format price CSV: header `date,<t1>,<t2>,...`, empty cell = missing.

    Missing cells are forward-filled from the previous row; leading rows that
    still contain gaps are dropped.
    """
    with read_csv(path) as reader:
        return _parse_prices(reader, str(path))


def parse_prices_csv(text) -> PricePath:
    """Same as load_prices_csv but from an in-memory string."""
    try:
        return _parse_prices(csv.reader(io.StringIO(text, newline="")), "<string>")
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"<string>: malformed CSV: {exc}") from None


def _parse_prices(reader, name):
    header = next(reader, [])
    if len(header) < 3 or header[0].strip().lower() != "date":
        raise DataError(f"{name}: expected header 'date,<ticker>,...' with >= 2 tickers")
    tickers = [h.strip() for h in header[1:]]
    if len(set(tickers)) < len(tickers):
        raise DataError(f"{name}: duplicate tickers in header {tickers}")

    dates = []
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataError(f"{name}: row {lineno} has {len(row)} fields, expected {len(header)}")
        parsed = []
        for t, cell in zip(tickers, map(str.strip, row[1:])):
            if not cell:
                parsed.append(np.nan)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{name}: unparsable cell at row {lineno}, column {t!r}: {cell!r}") from None
            if not math.isfinite(value):  # only an empty cell marks a missing value
                raise DataError(f"{name}: non-finite cell at row {lineno}, column {t!r}: {cell!r}")
            parsed.append(value)
        date = row[0].strip()
        # synthetic CSVs carry integer day indices; restore them so ordering is numeric
        dates.append(int(date) if date.removeprefix("-").isdecimal() else date)
        rows.append(parsed)

    prices = np.array(rows, dtype=np.float64)
    if prices.size == 0:
        raise DataError(f"{name}: no data rows")
    if len({type(d) for d in dates}) > 1:
        raise DataError(f"{name}: dates mix integer day indices and date strings")

    # forward-fill, then drop the leading rows that still have gaps: every later row is complete
    for i in range(1, prices.shape[0]):
        gap = np.isnan(prices[i])
        prices[i, gap] = prices[i - 1, gap]
    keep = ~np.isnan(prices).any(axis=1)
    first = int(np.argmax(keep)) if keep.any() else len(keep)
    prices, dates = prices[first:], dates[first:]
    if prices.shape[0] < 2:
        raise DataError(f"{name}: fewer than 2 usable rows after forward-fill")
    try:
        return PricePath(dates, prices, tickers)
    except DataError as exc:  # name the file in PricePath's own checks
        raise DataError(f"{name}: {exc}") from None


def write_prices_csv(path, price_path: PricePath):
    """Write the wide-format CSV schema consumed by load_prices_csv."""
    rows = ([date, *row] for date, row in zip(price_path.dates, price_path.prices))
    write_csv(path, ["date", *price_path.tickers], rows)


@contextlib.contextmanager
def read_csv(path):
    """Stream the rows of a CSV file in write_csv's format, as a csv.reader that builds no list.

    A file that cannot be opened, is not UTF-8 or is not well-formed CSV, such as a field over
    csv.field_size_limit(), is a one-line DataError naming the path, raised on open or on the
    row that fails. An OSError, UnicodeDecodeError or csv.Error raised by the caller's own code
    inside the with block is mapped the same way, so that block should parse rows and do no
    other I/O.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield csv.reader(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def write_csv(path, header, rows):
    """The package's one CSV format: UTF-8, csv's default dialect, a float cell (np.float64
    included) as repr(float(x)), so it reads back bit for bit, and every other cell unchanged."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(x)) if isinstance(x, float) else x for x in row] for row in rows)


def fetch_csv(url, out_path):
    """Download a wide-format price CSV from a URL (http, https or file).

    Opt-in network use; validates the payload parses before writing it out.
    """
    import http.client  # imported here so the other commands skip their import cost
    import urllib.parse
    import urllib.request

    try:
        scheme = urllib.parse.urlsplit(url).scheme
        if scheme not in ("http", "https", "file"):
            raise ValueError("the scheme must be http, https or file")
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
            payload = resp.read()
    except ValueError as exc:
        raise ConfigError(f"bad URL {url!r}: {exc}") from None
    # URLError, HTTPError and timeouts are OSErrors; a broken response raises HTTPException
    except (OSError, http.client.HTTPException) as exc:
        raise DataError(f"cannot fetch {url}: {exc}") from None
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{url}: not UTF-8 text") from None
    parse_prices_csv(text)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return out_path
