"""Command-line entry point: simulate, fetch, train, backtest, report.

Every flag has a config-file key (flat key=value lines): the flag without its leading dashes and
with dashes turned into underscores, so --train-days is train_days and --lambda is lambda. Flags
override file values. All randomness funnels through one master seed: it seeds the data
simulation itself and per-window training at the fixed offset TRAIN_SEED_OFFSET.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields

from . import backtest, icnn, market_data, training
from .errors import ConfigError, DataError, NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

TRAIN_SEED_OFFSET = 1000


def float_list(text):
    """Comma-separated floats, e.g. '0.3,0.5'; empty items are skipped."""
    return tuple(float(v) for v in text.split(",") if v.strip())


def int_list(text):
    """Comma-separated integers, e.g. '64,64'; empty items are skipped."""
    return tuple(int(v) for v in text.split(",") if v.strip())


def boolean(text):
    """'1', 'true', 'yes' or 'on' and '0', 'false', 'no' or 'off', in any case."""
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected a boolean, got {text!r}")
    return word in ("1", "true", "yes", "on")


def setting(default, flag, parse, help):
    """A RunConfig field with its flag, the parser of its flag and config-file value, and its help."""
    return field(default=default, metadata={"flag": flag, "parse": parse, "help": help})


@dataclass(frozen=True)
class RunConfig:
    """One run's settings; GbmConfig, TrainConfig and WalkForwardConfig own their defaults and checks."""

    use_real: bool = setting(False, "--use-real", boolean, "read the last 252 * years rows of --data")
    n: int = setting(market_data.GbmConfig.n_assets, "--n", int, "number of assets")
    years: int = setting(5, "--years", int, "years of real history")
    p_vals: tuple = setting(
        backtest.WalkForwardConfig.p_vals, "--p-vals", float_list, "comma-separated diversity exponents"
    )
    days: int = setting(market_data.GbmConfig.n_days, "--days", int, "synthetic path length")
    data: str = setting(None, "--data", str, "wide-format price CSV")
    train_days: int = setting(backtest.WalkForwardConfig.train_days, "--train-days", int, "rows per training window")
    test_days: int = setting(backtest.WalkForwardConfig.test_days, "--test-days", int, "rows per test slice")
    epochs: int = setting(training.TrainConfig.epochs, "--epochs", int, "training epochs per window")
    lr: float = setting(training.TrainConfig.learning_rate, "--lr", float, "Adam learning rate")
    lam: float = setting(training.TrainConfig.lambda_l2, "--lambda", float, "l2 penalty coefficient")
    widths: tuple = setting(
        backtest.WalkForwardConfig.widths, "--widths", int_list, "comma-separated hidden layer widths"
    )
    seed: int = setting(0, "--seed", int, "master seed of the simulation and of training")
    warm_start: bool = setting(
        backtest.WalkForwardConfig.warm_start, "--warm-start", boolean,
        "carry parameters across walk-forward windows (default)",
    )
    jobs: int = setting(backtest.WalkForwardConfig.jobs, "--jobs", int, "parallel walk-forward workers")
    out: str = setting(None, "--out", str, "output file of simulate (default prices.csv) or directory (default out)")
    svg: bool = setting(False, "--svg", boolean, "also write an SVG chart")

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.use_real and self.years < 1:
            raise ConfigError("years (of history) must be >= 1 for real data")


OPTIONS = {f.name: f.metadata for f in fields(RunConfig)}
# config key -> field name; every key but lambda, a Python keyword, is its field's name
KEYS = {opt["flag"][2:].replace("-", "_"): name for name, opt in OPTIONS.items()}


def parse_config_file(path):
    """Flat key=value lines; '#' starts a comment; unknown keys rejected. Returns field name -> value."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
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
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:  # the value's bytes decoded as argv is, so a file name names the file its flag would
            values[KEYS[key]] = OPTIONS[KEYS[key]]["parse"](os.fsdecode(raw.encode("utf-8")))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: config key {key}: cannot parse {raw!r}") from None
    return values


def build_run_config(args):
    values = parse_config_file(args.config) if args.config else {}
    values.update((name, getattr(args, name)) for name in OPTIONS if getattr(args, name, None) is not None)
    return RunConfig(**values)


def _simulate(cfg: RunConfig):
    return market_data.gbm_simulate(market_data.GbmConfig(n_assets=cfg.n, n_days=cfg.days, seed=cfg.seed))


def _load_weights(cfg: RunConfig):
    """Market weights from the configured source (CSV or seeded GBM)."""
    if not (cfg.use_real or cfg.data):
        return market_data.normalize_to_weights(_simulate(cfg))
    if not cfg.data:
        raise ConfigError("use_real requires --data (a price CSV); live fetching is opt-in via `fetch`")
    prices = market_data.load_prices_csv(cfg.data)
    if cfg.use_real:  # the last 252 * years rows, or the whole file if it is shorter
        rows = 252 * cfg.years
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
    out = cfg.out or "prices.csv"
    market_data.write_prices_csv(out, prices)
    print(f"wrote {prices.prices.shape[0]} days x {prices.prices.shape[1]} assets (seed {cfg.seed}) to {out}")
    return EXIT_OK


def cmd_fetch(args):
    out = market_data.fetch_csv(args.url, args.out or "prices.csv")
    print(f"fetched {args.url} -> {out}")
    return EXIT_OK


def cmd_train(args):
    cfg = build_run_config(args)
    out = cfg.out or "out"
    train_cfg = backtest.WalkForwardConfig(train_days=cfg.train_days, train=_train_config(cfg)).train  # train_days >= 2
    weights = _load_weights(cfg)
    needed = cfg.train_days + 1
    if len(weights) < needed:
        raise DataError(f"training needs {needed} rows, data has {len(weights)}")
    window = weights.weights[:needed]
    theta0 = icnn.init(weights.n_assets, cfg.widths, seed=cfg.seed + TRAIN_SEED_OFFSET)
    theta, log_rows = training.train_window(theta0, window, train_cfg)
    os.makedirs(out, exist_ok=True)
    icnn.save(theta, os.path.join(out, "theta.json"))
    training.write_training_log(os.path.join(out, "training_log.csv"), log_rows)
    best = min(row[1] for row in log_rows)
    print(f"trained {cfg.epochs} epochs on {cfg.train_days} days; best loss {best:.6g}")
    print(f"artifacts in {out}/: theta.json, training_log.csv")
    return EXIT_OK


def cmd_backtest(args):
    cfg = build_run_config(args)
    out = cfg.out or "out"
    walk_cfg = _walk_config(cfg)
    report = backtest.walk_forward(_load_weights(cfg), walk_cfg)
    os.makedirs(out, exist_ok=True)
    backtest.write_window_csv(os.path.join(out, "windows.csv"), report)
    backtest.write_summary_csv(os.path.join(out, "summary.csv"), report)
    if cfg.svg:
        backtest.write_svg(os.path.join(out, "terminal_wealth.svg"), report)
    _print_summary(backtest.summarize(report))
    print(f"reports in {out}/")
    return EXIT_OK


def cmd_report(args):
    rows = backtest.read_summary_csv(os.path.join(args.report_dir, "summary.csv"))
    _print_summary(rows)
    return EXIT_OK


def _print_summary(rows):
    # a label character that stdout cannot encode, as under an ASCII locale, prints as its escape
    encoding = sys.stdout.encoding or "utf-8"
    labels = [label.encode(encoding, "backslashreplace").decode(encoding) for label, _, _ in rows]
    width = max(map(len, labels))
    print(f"{'Strategy'.ljust(width)}  avg log relative return      K")
    for label, (_, avg, k) in zip(labels, rows):
        print(f"{label.ljust(width)}  {avg: .10g}{'':>12}{k:>5}")


def _add_common_flags(p):
    p.add_argument("--config", help="flat key=value config file")
    for name, opt in OPTIONS.items():
        if opt["parse"] is boolean:
            p.add_argument(opt["flag"], dest=name, action="store_const", const=True, help=opt["help"])
        else:
            p.add_argument(opt["flag"], dest=name, type=opt["parse"], help=opt["help"])
    p.add_argument(
        "--no-warm-start", dest="warm_start", action="store_const", const=False,
        help="train each window from a fresh seeded init",
    )


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
    p.add_argument("--url", required=True, help="URL of a wide-format price CSV")
    p.add_argument("--out", default=None, help="output file (default prices.csv)")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("train", help="train one window and save the parameters")
    _add_common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("backtest", help="run the walk-forward benchmark and write reports")
    _add_common_flags(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("report", help="print the summary table from a report directory")
    p.add_argument("report_dir", help="directory holding a backtest's summary.csv")
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
