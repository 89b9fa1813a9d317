"""Command-line entry point: simulate, fetch, train, backtest, report.

Every flag has a config-file equivalent (flat key=value lines, keys in
snake_case); command-line flags override file values. All randomness funnels
through one master seed: it seeds the data simulation itself and per-window
training at the fixed offset TRAIN_SEED_OFFSET.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

from . import backtest, icnn, market_data, training
from .errors import ConfigError, DataError, NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

TRAIN_SEED_OFFSET = 1000


@dataclass(frozen=True)
class RunConfig:
    use_real: bool = False
    n: int = 5
    y: int = 5
    p_vals: tuple = (0.3, 0.5, 0.8)
    days: int = 1000
    data_path: str = None
    seed: int = 0
    train_days: int = 200
    test_days: int = 20
    epochs: int = 150
    lr: float = 1e-3
    lam: float = 0.3
    widths: tuple = (64, 64)
    warm_start: bool = True
    jobs: int = 1
    out: str = "out"
    svg: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if any(not (0.0 < p < 1.0) for p in self.p_vals):
            raise ConfigError(f"p_vals must lie in (0, 1), got {self.p_vals}")
        if self.use_real and self.y < 1:
            raise ConfigError("y (years of history) must be >= 1 for real data")


def float_list(text):
    """Comma-separated floats, e.g. '0.3,0.5'; empty items are skipped."""
    return tuple(float(v) for v in text.split(",") if v.strip())


def int_list(text):
    """Comma-separated integers, e.g. '64,64'; empty items are skipped."""
    return tuple(int(v) for v in text.split(",") if v.strip())


_BOOL_KEYS = {"use_real", "svg", "warm_start"}
# parsers of the other non-string keys; the command-line flags use the same ones
_PARSERS = dict.fromkeys(("n", "y", "days", "seed", "train_days", "test_days", "epochs", "jobs"), int)
_PARSERS.update(lr=float, lam=float, p_vals=float_list, widths=int_list)


def _coerce(key, raw):
    if key in _BOOL_KEYS:
        if str(raw).strip().lower() in ("1", "true", "yes", "on"):
            return True
        if str(raw).strip().lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {raw!r}")
    try:
        return _PARSERS.get(key, str)(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r}") from None


def parse_config_file(path):
    """Flat key=value lines; '#' starts a comment; unknown keys rejected."""
    known = {f.name for f in fields(RunConfig)}
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # a missing, unreadable or non-text file
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key == "lambda":
            key = "lam"
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def build_run_config(args):
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for f in fields(RunConfig):
        cli_val = getattr(args, f.name, None)
        if cli_val is not None:
            values[f.name] = cli_val
    return RunConfig(**values)


def _simulate(cfg: RunConfig):
    return market_data.gbm_simulate(market_data.GbmConfig(n_assets=cfg.n, n_days=cfg.days, seed=cfg.seed))


def _load_weights(cfg: RunConfig):
    """Market weights from the configured source (CSV or seeded GBM)."""
    if not (cfg.use_real or cfg.data_path):
        return market_data.normalize_to_weights(_simulate(cfg))
    if not cfg.data_path:
        raise ConfigError("use_real requires --data (a price CSV); live fetching is opt-in via `fetch`")
    prices = market_data.load_prices_csv(cfg.data_path)
    if cfg.use_real:  # the last 252 * y rows, or the whole file if it is shorter
        rows = 252 * cfg.y
        prices = market_data.PricePath(prices.dates[-rows:], prices.prices[-rows:], prices.tickers)
    return market_data.normalize_to_weights(prices)


def _train_config(cfg: RunConfig):
    return training.TrainConfig(lambda_l2=cfg.lam, learning_rate=cfg.lr, epochs=cfg.epochs)


def _walk_config(cfg: RunConfig):
    return backtest.WalkForwardConfig(
        train_days=cfg.train_days,
        test_days=cfg.test_days,
        p_vals=cfg.p_vals,
        widths=cfg.widths,
        train=_train_config(cfg),
        seed=cfg.seed + TRAIN_SEED_OFFSET,
        warm_start=cfg.warm_start,
        jobs=cfg.jobs,
    )


def cmd_simulate(args):
    cfg = build_run_config(args)
    prices = _simulate(cfg)
    out = args.out or "prices.csv"
    market_data.write_prices_csv(out, prices)
    print(f"wrote {prices.prices.shape[0]} days x {prices.prices.shape[1]} assets (seed {cfg.seed}) to {out}")
    return EXIT_OK


def cmd_fetch(args):
    out = market_data.fetch_csv(args.url, args.out or "prices.csv")
    print(f"fetched {args.url} -> {out}")
    return EXIT_OK


def cmd_train(args):
    cfg = build_run_config(args)
    train_cfg = _train_config(cfg)
    weights = _load_weights(cfg)
    needed = cfg.train_days + 1
    if len(weights) < needed:
        raise DataError(f"training needs {needed} rows, data has {len(weights)}")
    window = weights.weights[:needed]
    theta0 = icnn.init(weights.n_assets, cfg.widths, seed=cfg.seed + TRAIN_SEED_OFFSET)
    theta, log_rows = training.train_window(theta0, window, train_cfg)
    os.makedirs(cfg.out, exist_ok=True)
    icnn.save(theta, os.path.join(cfg.out, "theta.json"))
    training.write_training_log(os.path.join(cfg.out, "training_log.csv"), log_rows)
    best = min(row[1] for row in log_rows)
    print(f"trained {cfg.epochs} epochs on {cfg.train_days} days; best loss {best:.6g}")
    print(f"artifacts in {cfg.out}/: theta.json, training_log.csv")
    return EXIT_OK


def cmd_backtest(args):
    cfg = build_run_config(args)
    walk_cfg = _walk_config(cfg)
    report = backtest.walk_forward(_load_weights(cfg), walk_cfg)
    os.makedirs(cfg.out, exist_ok=True)
    backtest.write_window_csv(os.path.join(cfg.out, "windows.csv"), report)
    backtest.write_summary_csv(os.path.join(cfg.out, "summary.csv"), report)
    if cfg.svg:
        backtest.write_svg(os.path.join(cfg.out, "terminal_wealth.svg"), report)
    _print_summary(backtest.summarize(report))
    print(f"reports in {cfg.out}/")
    return EXIT_OK


def cmd_report(args):
    path = os.path.join(args.report_dir, "summary.csv")
    if not os.path.exists(path):
        raise DataError(f"no summary.csv under {args.report_dir}")
    rows = backtest.read_summary_csv(path)
    _print_summary(rows)
    return EXIT_OK


def _print_summary(rows):
    width = max(len(r[0]) for r in rows)
    print(f"{'Strategy'.ljust(width)}  avg log relative return      K")
    for label, avg, k in rows:
        print(f"{label.ljust(width)}  {avg: .10g}{'':>12}{k:>5}")


def _add_common_flags(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--use-real", dest="use_real", action="store_const", const=True, default=None)
    p.add_argument("--n", type=int, default=None, help="number of assets")
    p.add_argument("--years", dest="y", type=int, default=None, help="years of real history")
    p.add_argument("--p-vals", dest="p_vals", type=float_list, default=None, help="comma-separated diversity exponents")
    p.add_argument("--days", type=int, default=None, help="synthetic path length")
    p.add_argument("--data", dest="data_path", default=None, help="wide-format price CSV")
    p.add_argument("--train-days", dest="train_days", type=int, default=None)
    p.add_argument("--test-days", dest="test_days", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="l2 penalty coefficient")
    p.add_argument("--widths", type=int_list, default=None, help="comma-separated hidden layer widths")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--warm-start", dest="warm_start", action="store_const", const=True, default=None,
        help="carry parameters across walk-forward windows (default)",
    )
    p.add_argument(
        "--no-warm-start", dest="warm_start", action="store_const", const=False,
        help="train each window from a fresh seeded init",
    )
    p.add_argument("--jobs", type=int, default=None, help="parallel walk-forward workers")
    p.add_argument("--out", default=None, help="output file (simulate/fetch) or directory")
    p.add_argument("--svg", action="store_const", const=True, default=None, help="also write an SVG chart")


class _Parser(argparse.ArgumentParser):
    """argparse with the CLI's error contract: a malformed flag is one stderr line, exit 2.

    Subcommand parsers are built from the same class, so they inherit it.
    """

    def error(self, message):
        self.exit(EXIT_CONFIG, f"configuration error: {self.prog}: {message}\n")


def build_parser():
    parser = _Parser(
        prog="neuralfgp",
        description="Learn a neural generating function and benchmark it against classical "
        "functionally generated portfolios in a walk-forward backtest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic GBM price CSV")
    _add_common_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fetch", help="download a price CSV over HTTP (opt-in network use)")
    p.add_argument("--url", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("train", help="train one window and save the parameters")
    _add_common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("backtest", help="run the walk-forward benchmark and write reports")
    _add_common_flags(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("report", help="print the summary table from a report directory")
    p.add_argument("report_dir")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # sizes numpy can index but this machine cannot hold
        print(f"configuration error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # e.g. an output path under a missing directory or a regular file
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
