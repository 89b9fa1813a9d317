import argparse
import contextlib
import io
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfgp import backtest, cli, icnn, market_data as md, training
from neuralfgp.backtest import read_summary_csv
from neuralfgp.errors import ConfigError, DataError, DimensionError, NumericError

FAST = ["--train-days", "20", "--test-days", "10", "--widths", "3", "--epochs", "2"]
SRC = str(Path(cli.__file__).resolve().parents[1])


def run(argv):
    return cli.main(argv)


# --- simulate -------------------------------------------------------------------


def test_simulate_writes_expected_shape(tmp_path, capsys):
    out = tmp_path / "prices.csv"
    assert run(["simulate", "--n", "3", "--days", "25", "--seed", "7", "--out", str(out)]) == 0
    path = md.load_prices_csv(out)
    assert path.prices.shape == (25, 3)
    assert "25 days x 3 assets" in capsys.readouterr().out


def test_simulate_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--n", "4", "--days", "30", "--seed", "11"]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_invalid_days_is_config_error(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run(["simulate", "--days", "1", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err


# --- config file -----------------------------------------------------------------


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\ndays = 40  # comment\nseed = 5\nlambda = 0.7\n")
    out = tmp_path / "p.csv"
    # flag overrides the file value of n, file supplies days/seed
    run(["simulate", "--config", str(cfg), "--n", "4", "--out", str(out)])
    assert md.load_prices_csv(out).prices.shape == (40, 4)

    direct = tmp_path / "q.csv"
    run(["simulate", "--n", "4", "--days", "40", "--seed", "5", "--out", str(direct)])
    assert out.read_bytes() == direct.read_bytes()


def test_config_file_with_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfseed = 5\nn = 3\ndays = 40\n")
    out, direct = tmp_path / "p.csv", tmp_path / "q.csv"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    run(["simulate", "--n", "3", "--days", "40", "--seed", "5", "--out", str(direct)])
    assert out.read_bytes() == direct.read_bytes()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "p.csv")]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["y", "data_path", "lam"])
def test_config_file_field_names_that_are_not_keys_are_unknown(tmp_path, capsys, key):
    # the keys are years, data and lambda: the flags without "--", dashes turned into underscores
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr().err == f"configuration error: {cfg}:1: unknown config key {key!r}\n"


def test_config_keys_flags_and_fields_build_the_same_run_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"years = 2\ndata = {tmp_path / 'prices.csv'}\nlambda = 0.7\n")
    from_file = cli.build_run_config(cli.build_parser().parse_args(["backtest", "--config", str(cfg)]))
    argv = ["backtest", "--years", "2", "--data", str(tmp_path / "prices.csv"), "--lambda", "0.7"]
    from_flags = cli.build_run_config(cli.build_parser().parse_args(argv))
    assert from_file == from_flags == cli.RunConfig(years=2, data=str(tmp_path / "prices.csv"), lam=0.7)


def test_simulate_takes_out_from_the_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("n = 3\ndays = 20\nout = x.csv\n")
    assert run(["simulate", "--config", "run.cfg"]) == 0
    assert md.load_prices_csv(tmp_path / "x.csv").prices.shape == (20, 3)
    assert not (tmp_path / "prices.csv").exists()


def test_each_command_has_its_default_output(tmp_path, monkeypatch):
    # simulate writes ./prices.csv; train and backtest write under ./out/
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--n", "2", "--days", "60", "--seed", "3"]) == 0
    assert md.load_prices_csv(tmp_path / "prices.csv").prices.shape == (60, 2)
    assert run(["train", "--n", "2", "--days", "30", "--seed", "3", *FAST]) == 0
    assert (tmp_path / "out" / "theta.json").exists() and (tmp_path / "out" / "training_log.csv").exists()
    assert run(["backtest", "--n", "2", "--days", "60", "--seed", "3", *FAST]) == 0
    assert read_summary_csv(tmp_path / "out" / "summary.csv")[0][0] == "FGP"
    assert (tmp_path / "out" / "windows.csv").exists()


def test_config_file_unparsable_value_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nseed = abc\n")
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr().err == f"configuration error: {cfg}:2: config key seed: cannot parse 'abc'\n"


# --- train -----------------------------------------------------------------------


def test_train_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["train", "--n", "2", "--days", "30", "--seed", "3", *FAST]
    assert run(argv + ["--out", str(out)]) == 0
    theta = icnn.load(out / "theta.json")
    assert theta.widths == (3,)
    log_lines = (out / "training_log.csv").read_text().strip().splitlines()
    assert len(log_lines) == 3  # header + 2 epochs
    # the loss printed is the saved theta's, here the final iterate's, which beats every logged epoch
    cfg = cli.build_run_config(cli.build_parser().parse_args(argv))
    saved = training.loss(theta, cli._load_weights(cfg).weights[:21], cfg.walk.train).total
    assert saved < min(float(line.split(",")[1]) for line in log_lines[1:])
    assert f"best loss {saved:.6g}\n" in capsys.readouterr().out


def test_train_saved_params_reload_identically(tmp_path):
    out = tmp_path / "run"
    run(["train", "--n", "2", "--days", "30", "--seed", "3", "--out", str(out)] + FAST)
    a = icnn.load(out / "theta.json")
    b = icnn.load(out / "theta.json")
    x = np.array([0.4, 0.6])
    assert -icnn.forward(a, x) == -icnn.forward(b, x)


def test_train_trains_window_0_of_the_same_backtest(tmp_path):
    # one seed offset: train's theta.json is the theta that a backtest's window 0 hands over
    argv = ["--n", "2", "--days", "60", "--seed", "3", *FAST]
    assert run(["train", *argv, "--out", str(tmp_path)]) == 0
    cfg = cli.build_run_config(cli.build_parser().parse_args(["backtest", *argv]))
    W, walk = cli._load_weights(cfg).weights, cfg.walk
    test_end = walk.train_days + walk.test_days
    _, theta_json = backtest._run_window((W[: walk.train_days + 1], W[walk.train_days : test_end + 1], walk, 0, None))
    assert (tmp_path / "theta.json").read_text(encoding="utf-8") == theta_json


def test_train_insufficient_data_is_data_error(tmp_path, capsys):
    # data too short for one window is the same error in every command that needs a window
    messages = {"train": "training needs 21 rows, data has 10",
                "backtest": "need more than 30 rows for one walk-forward window, got 10"}
    for command, message in messages.items():
        assert run([command, "--n", "2", "--days", "10", "--out", str(tmp_path / "run")] + FAST) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"


@pytest.mark.parametrize("train_days,code", [("251", 0), ("252", 3)])
def test_use_real_keeps_the_last_252_rows_per_year(tmp_path, train_days, code):
    # a 300-row CSV trimmed to one year: 251 training days need 252 rows, 252 need 253
    prices = tmp_path / "prices.csv"
    run(["simulate", "--n", "3", "--days", "300", "--seed", "9", "--out", str(prices)])
    argv = ["train", "--use-real", "--data", str(prices), "--years", "1", *FAST, "--train-days", train_days]
    assert run(argv + ["--out", str(tmp_path / "run")]) == code


def test_use_real_without_data_is_config_error(tmp_path, capsys):
    code = run(["train", "--use-real", "--out", str(tmp_path / "run")] + FAST)
    assert code == 2
    assert "--data" in capsys.readouterr().err


# --- backtest / report -------------------------------------------------------------


def backtest_args(out, seed="3"):
    return ["backtest", "--n", "2", "--days", "60", "--seed", seed, "--out", str(out)] + FAST


def test_backtest_reports(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(backtest_args(out)) == 0
    rows = read_summary_csv(out / "summary.csv")
    labels = [r[0] for r in rows]
    assert labels == ["FGP", "EWP", "Market", "DWP p=0.3", "DWP p=0.5", "DWP p=0.8"]
    market = dict((r[0], r[1]) for r in rows)["Market"]
    assert abs(market) < 1e-6
    assert all(k == 3 for _, _, k in rows)  # (60 - 30) // 10 windows
    text = capsys.readouterr().out
    assert "Strategy" in text and "FGP" in text


def test_backtest_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(backtest_args(a))
    run(backtest_args(b))
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "windows.csv").read_bytes() == (b / "windows.csv").read_bytes()


def test_backtest_jobs_flag_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(backtest_args(a) + ["--no-warm-start"])
    run(backtest_args(b) + ["--no-warm-start", "--jobs", "2"])
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


def test_backtest_jobs_needs_no_warm_start(tmp_path, capsys):
    assert run(backtest_args(tmp_path / "run") + ["--jobs", "2"]) == 2
    assert "--no-warm-start" in capsys.readouterr().err


RUN_WINDOW = backtest._run_window


def run_window_or_die(args):
    """backtest._run_window, except in a --jobs worker process, which exits at once, as one the
    system kills for its memory does."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return RUN_WINDOW(args)


def test_backtest_dead_jobs_worker_is_one_line(tmp_path, capfd, monkeypatch):
    monkeypatch.setattr(backtest, "_run_window", run_window_or_die)
    assert run(backtest_args(tmp_path / "run") + ["--no-warm-start", "--jobs", "2"]) == 2
    err = capfd.readouterr().err  # the workers' file descriptors too
    assert err.startswith("configuration error: ") and "--jobs" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_backtest_svg_flag(tmp_path):
    out = tmp_path / "run"
    run(backtest_args(out) + ["--svg"])
    assert (out / "terminal_wealth.svg").read_text().startswith("<svg")


def test_backtest_real_data_csv(tmp_path):
    # real-data mode reads the same wide CSV schema simulate writes
    prices = tmp_path / "prices.csv"
    run(["simulate", "--n", "3", "--days", "60", "--seed", "9", "--out", str(prices)])
    out = tmp_path / "run"
    code = run(
        ["backtest", "--use-real", "--data", str(prices), "--years", "1", "--out", str(out)]
        + FAST
    )
    assert code == 0
    assert (out / "summary.csv").exists()


def test_backtest_of_a_concentrating_market_reports_its_true_wealth(tmp_path, capsys):
    # A grows 340x a day, so B's and C's market weights fall toward 1e-250: EWP, a third in each,
    # loses about log 3 a day against the market. Its log wealth per window, straight from prices:
    # sum over steps of log(mean of price ratios) - log(ratio of price totals)
    t = np.arange(100.0)
    prices = np.column_stack([340.0**t, np.ones(100), 1 + 0.01 * (t % 3)])
    md.write_prices_csv(tmp_path / "f8.csv", md.PricePath(list(range(100)), prices, ["A", "B", "C"]))
    argv = ["backtest", "--data", str(tmp_path / "f8.csv"), "--train-days", "40", "--test-days", "20"]
    assert run(argv + ["--widths", "4", "--epochs", "3", "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""
    rows = [row.split(",") for row in (tmp_path / "run" / "windows.csv").read_text().splitlines()[1:]]
    got = [float(row[3]) for row in rows if row[1] == "EWP"]
    totals = prices.sum(axis=1)
    step = np.log(np.mean(prices[1:] / prices[:-1], axis=1)) - np.log(totals[1:] / totals[:-1])
    want = [step[start:start + 20].sum() for start in (40, 60)]  # windows test on rows 40-60 and 60-80
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert max(want) < -21.8


def test_report_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    run(backtest_args(out))
    backtest_out = capsys.readouterr().out
    assert run(["report", str(out)]) == 0
    report_out = capsys.readouterr().out
    for line in report_out.strip().splitlines():
        assert line.split()[0] in backtest_out


def test_report_missing_dir_is_data_error(tmp_path, capsys):
    assert run(["report", str(tmp_path / "nothing")]) == 3
    assert "summary.csv" in capsys.readouterr().err


# --- bad input ends in an exit code and one line, never a traceback -------------


@pytest.mark.parametrize(
    "files,argv,code",
    [
        ({}, ["train", "--data", "{tmp}/missing.csv"], 3),
        ({}, ["simulate", "--config", "{tmp}/missing.cfg"], 2),
        ({"run/summary.csv": "strategy,avg_log_relative_return,K\nFGP,abc,3\n"}, ["report", "{tmp}/run"], 3),
        ({"mixed.csv": "date,AAA,BBB\n0,10,20\n2024-01-03,11,21\n"}, ["train", "--data", "{tmp}/mixed.csv"], 3),
        ({"latin1.csv": "date,AAA,BBB\n2024-01-02,10,20\n2024-01-03,11,\u00e9\n"}, ["train", "--data", "{tmp}/latin1.csv"], 3),
        ({"latin1.cfg": "n = 3  # \u00e9\n"}, ["simulate", "--config", "{tmp}/latin1.cfg"], 2),
        ({}, ["simulate", "--n", "3", "--days", "10", "--out", "{tmp}/no-such-dir/x.csv"], 3),
        ({"afile": ""}, ["train", "--n", "2", "--days", "45", *FAST, "--out", "{tmp}/afile/run"], 3),
        ({"afile": ""}, ["backtest", "--n", "2", "--days", "45", *FAST, "--out", "{tmp}/afile/run"], 3),
        ({"run/summary.csv": "strategy,avg_log_relative_return,K\n"}, ["report", "{tmp}/run"], 3),
        ({"run/summary.csv": "strategy,avg_log_relative_return,K\nF\u00e9,0.1,3\n"}, ["report", "{tmp}/run"], 3),
        ({"run/summary.csv": "strategy,avg_log_relative_return,K\n" + "F" * 200_000 + ",0.1,3\n"}, ["report", "{tmp}/run"], 3),
        # a non-finite hyperparameter is rejected before the data is read: exit 2, not the missing file's 3
        ({}, ["train", "--data", "{tmp}/missing.csv", "--lambda", "nan"], 2),
        ({}, ["backtest", "--data", "{tmp}/missing.csv", "--lr", "inf"], 2),
        # argparse's own errors: a malformed value, and "-inf", which argparse reads as a flag
        ({}, ["backtest", "--n", "abc"], 2),
        ({}, ["backtest", "--lambda", "-inf"], 2),
        # a negative seed, from the command line or a config file
        ({}, ["simulate", "--seed", "-1"], 2),
        ({"neg-seed.cfg": "seed = -1\n"}, ["backtest", "--config", "{tmp}/neg-seed.cfg"], 2),
        # a malformed item in a comma-separated list
        ({}, ["backtest", "--p-vals", "0.5,abc"], 2),
        ({}, ["backtest", "--widths", "4,x"], 2),
        # an exponent outside (0, 1) is rejected before the data is read: exit 2, not 3
        ({}, ["backtest", "--data", "{tmp}/missing.csv", "--p-vals", "0.5,1.5"], 2),
        # two exponents that print the same label would merge into one report row
        ({}, ["backtest", "--data", "{tmp}/missing.csv", "--p-vals", "0.5,0.50000001"], 2),
        # a learning rate so large that the third Adam step overflows the parameters
        ({}, ["train", "--n", "3", "--days", "60", *FAST, "--epochs", "3", "--lr", "1e308", "--out", "{tmp}/run"], 4),
        # sizes no numpy array can hold: a price path and a parameter vector
        ({}, ["simulate", "--n", "99999999999999999999", "--days", "10", "--out", "{tmp}/p.csv"], 2),
        ({}, ["backtest", "--n", "3", "--days", "60", *FAST, "--widths", "3,99999999999999999999", "--out", "{tmp}/run"], 2),
        # train checks train_days >= 2 as the walk-forward does, before any data is read
        ({}, ["train", "--n", "3", "--days", "30", "--train-days", "-5", "--epochs", "2", "--widths", "4"], 2),
        ({}, ["train", "--data", "{tmp}/missing.csv", "--train-days", "1"], 2),
        # the walk-forward rejects a width below 1 before the data is read
        ({}, ["backtest", "--data", "{tmp}/missing.csv", "--widths", "0"], 2),
        # every command checks every common flag when it builds its run config, before any file is touched
        ({}, ["train", "--data", "{tmp}/missing.csv", "--widths", "4,0"], 2),
        ({}, ["train", "--data", "{tmp}/missing.csv", "--test-days", "0"], 2),
        ({}, ["simulate", "--p-vals", "1.5", "--out", "{tmp}/p.csv"], 2),
        ({}, ["simulate", "--use-real"], 2),
        # a NUL byte, which no file name can hold, reaches a file name only from a config file
        ({"nul.cfg": "out = a\0b.csv\n"}, ["simulate", "--n", "3", "--days", "10", "--config", "{tmp}/nul.cfg"], 2),
        ({"nul.cfg": "out = a\0b\n"}, ["backtest", "--n", "2", "--days", "45", *FAST, "--config", "{tmp}/nul.cfg"], 2),
        ({"nul.cfg": "data = a\0b.csv\n"}, ["train", *FAST, "--config", "{tmp}/nul.cfg"], 2),
        # a simulated price that overflows float64, and finite prices whose row sum does
        ({}, ["simulate", "--n", "2", "--days", "1700000", "--seed", "1390", "--out", "{tmp}/p.csv"], 3),
        ({"y.csv": "date,A,B,C\n" + "".join(f"{i},1e308,{5 + i % 3}e307,1e308\n" for i in range(80))},
         ["backtest", "--data", "{tmp}/y.csv", "--train-days", "40", "--test-days", "10", "--widths", "6",
          "--epochs", "5", "--out", "{tmp}/run"], 3),
        # prices that swap between 1 and 1e13 each day: the EWP's relative wealth overflows float64
        ({"flip.csv": "date,A,B\n" + "".join(f"{i},{'1,1e13' if i % 2 else '1e13,1'}\n" for i in range(200))},
         ["backtest", "--data", "{tmp}/flip.csv", "--train-days", "40", "--test-days", "30", "--widths", "4",
          "--epochs", "3", "--out", "{tmp}/run"], 4),
    ],
    ids=[
        "missing-data", "missing-config", "malformed-summary", "mixed-dates", "non-utf8-data", "non-utf8-config",
        "simulate-out-missing-dir", "train-out-under-file", "backtest-out-under-file", "empty-summary",
        "non-utf8-summary", "oversized-summary-field", "lambda-nan", "lr-inf", "n-not-int", "lambda-minus-inf",
        "seed-negative", "seed-negative-config", "p-vals-not-float", "widths-not-int", "p-vals-out-of-range",
        "p-vals-same-label",
        "lr-overflows-step", "n-too-large", "widths-too-large", "train-days-negative", "train-days-1",
        "widths-zero-backtest", "widths-zero-train", "test-days-zero-train", "p-vals-out-of-range-simulate",
        "use-real-simulate",
        "nul-in-simulate-out", "nul-in-backtest-out", "nul-in-train-data", "simulated-price-overflows",
        "price-row-sum-overflows", "wealth-overflows",
    ],
)
def test_bad_input_exits_with_one_line(tmp_path, files, argv, code):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="latin-1")
    proc = subprocess.run(
        [sys.executable, "-m", "neuralfgp.cli", *(a.format(tmp=tmp_path) for a in argv)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1 and "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    if code == 2:  # a configuration error ends the run before it writes a file
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == sorted(files)


def test_importing_cli_loads_no_process_pool():
    # only a backtest with --jobs > 1 starts a pool, and it imports one then
    code = (
        "import sys, neuralfgp.cli; pool = [m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')]; assert not pool, pool"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch):
    # a size numpy can index but the machine cannot hold; raised here without allocating
    def out_of_memory(cfg):
        raise MemoryError(f"Unable to allocate an array with shape ({cfg.n_days - 1}, {cfg.n_assets})")

    monkeypatch.setattr(md, "gbm_simulate", out_of_memory)
    assert run(["simulate", "--n", "5", "--days", "10000000000000", "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: out of memory") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "error,line,code",
    [
        (ConfigError("bad n"), "configuration error: bad n", 2),
        (DimensionError("shape (2,) vs (3,)"), "configuration error: shape (2,) vs (3,)", 2),
        (DataError("no rows"), "data error: no rows", 3),
        (NumericError("loss is nan"), "numeric error: loss is nan", 4),
    ],
    ids=["config", "dimension", "data", "numeric"],
)
def test_package_error_is_one_line_with_its_class_exit_code(tmp_path, capsys, monkeypatch, error, line, code):
    def fail(cfg):
        raise error

    monkeypatch.setattr(md, "gbm_simulate", fail)
    assert run(["simulate", "--out", str(tmp_path / "p.csv")]) == code
    assert capsys.readouterr().err == line + "\n"


def test_overflow_inside_training_prints_no_warning(tmp_path, capsys):
    # at lr 1e300 the second epoch squares G past the float range inside the loss adjoint;
    # the gradient stays finite (that term goes to 0), so training ends normally and quietly
    argv = ["train", "--n", "3", "--days", "60", *FAST, "--lr", "1e300", "--out", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flag,value", [("--p-vals", "0.5,abc"), ("--widths", "4,x")])
def test_malformed_list_flag_names_the_flag(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["backtest", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "<lambda>" not in err


def test_config_file_lists_parse_like_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_vals = 0.2, 0.4,\nwidths = 8,4\n")
    assert cli.parse_config_file(cfg) == {"p_vals": (0.2, 0.4), "widths": (8, 4)}
    args = cli.build_parser().parse_args(["backtest", "--p-vals", "0.2, 0.4,", "--widths", "8,4"])
    assert (args.p_vals, args.widths) == ((0.2, 0.4), (8, 4))


def test_config_file_switches_parse_like_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("svg = on\nwarm_start = no\n")
    assert cli.parse_config_file(cfg) == {"svg": True, "warm_start": False}
    from_file = cli.build_run_config(cli.build_parser().parse_args(["backtest", "--config", str(cfg)]))
    from_flags = cli.build_run_config(cli.build_parser().parse_args(["backtest", "--svg", "--no-warm-start"]))
    assert from_file == from_flags == cli.RunConfig(svg=True, warm_start=False)


# the common flags in their --help order
HELP_FLAGS = [
    "--use-real", "--n", "--years", "--p-vals", "--days", "--data", "--train-days", "--test-days", "--epochs",
    "--lr", "--lambda", "--widths", "--seed", "--warm-start", "--jobs", "--out", "--svg",
]


def test_option_table_matches_run_config_and_gives_every_flag_help(capsys):
    parser = argparse.ArgumentParser()
    cli._add_common_flags(parser)
    assert all(action.help for action in parser._actions)
    for command in ("simulate", "train", "backtest"):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(opt["flag"] in out for opt in cli.OPTIONS.values())
        assert re.findall(r"^  (--[\w-]+)", out, re.M) == ["--config", *HELP_FLAGS, "--no-warm-start"]


def test_every_argument_of_every_subcommand_has_help():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"simulate", "fetch", "train", "backtest", "report"}
    for command, parser in sub.choices.items():
        bare = [action.dest for action in parser._actions if not action.help]
        assert not bare, (command, bare)


# --- random bad input through cli.main ---------------------------------------------

HUGE = ["10000000000000000000", "99999999999999999999999"]
BAD_INT = ["abc", "", "1e3", "-1", "0", "nan", "inf", "-inf"]
# values per config key: small valid ones, then malformed text, negatives, nan/inf and sizes
# >= 10**19. No size lies in between, where it could allocate real memory. The epoch count
# is never huge: that is valid input that only takes long.
VALUES = {
    "n": ["2", "3"] + BAD_INT + HUGE,
    "days": ["2", "30", "60"] + BAD_INT + HUGE,
    "years": ["1", "2"] + BAD_INT + HUGE,
    "train_days": ["10", "20"] + BAD_INT + HUGE,
    "test_days": ["10", "20"] + BAD_INT + HUGE,
    "epochs": ["1", "2"] + BAD_INT,
    "jobs": ["1", "2"] + BAD_INT + HUGE,
    "seed": ["0", "7"] + BAD_INT + HUGE,
    "widths": ["3", "2,2", "", "0", "4,x", "3,-1"] + HUGE + ["2," + HUGE[0]],
    "lr": ["1e-3", "0.1", "abc", "", "-1", "0", "nan", "inf", "-inf", "1e308"],
    "lambda": ["0.3", "0", "abc", "-1", "nan", "inf", "-inf"],
    "p_vals": ["0.3,0.5", "0.5", "", "0.5,abc", "1.5", "0", "nan", "-0.5"],
    "data": ["{tmp}/prices.csv"],
}
SWITCHES = ["--use-real", "--warm-start", "--no-warm-start", "--svg"]
BOOLS = {"use_real": ["yes", "0", "maybe"], "warm_start": ["no", "true", ""], "svg": ["on", "2"]}
CSV_TEXTS = ["", "date,AAA\n0,1\n", "date,AAA,BBB\n0,1,2\n1,x,3\n", "date,AAA,BBB\n0,1,2\n1,-1,3\n"]
SMALL_RUN = "n = 2\ndays = 60\ntrain_days = 20\ntest_days = 10\nwidths = 3\nepochs = 1\n"


@st.composite
def bad_runs(draw):
    """(argv, files): a command, a config file that keeps a valid run small, then random
    config lines and flags; {tmp} stands for a scratch directory."""
    command = draw(st.sampled_from(["simulate", "train", "backtest", "report", "fetch"]))
    files = {"prices.csv": draw(st.sampled_from(CSV_TEXTS + [None]))}
    if command == "report":
        files["run/summary.csv"] = draw(st.sampled_from([None, "", "strategy,avg_log_relative_return,K\nFGP,x,3\n"]))
        return ["report", "{tmp}/run"], files
    if command == "fetch":
        url = draw(st.sampled_from(["not-a-url", "foo://x", "file://{tmp}/prices.csv", "file://{tmp}/none.csv"]))
        return ["fetch", "--url", url, "--out", "{tmp}/fetched.csv"], files
    keys = st.sampled_from(sorted(VALUES) + sorted(BOOLS) + ["bogus"])
    lines = [SMALL_RUN]
    for key in draw(st.lists(keys, max_size=4)):
        lines.append(f"{key} = {draw(st.sampled_from({**VALUES, **BOOLS}.get(key, ['1'])))}\n")
    lines += draw(st.lists(st.sampled_from(["no equals sign\n", "# a comment\n", "lambda = nan\n"]), max_size=1))
    files["run.cfg"] = draw(st.sampled_from(["".join(lines)] * 4 + [None, "\x00\xe9"]))
    argv = [command, "--config", "{tmp}/run.cfg", "--out", "{tmp}/out"]
    for key in draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=4)):  # each key's flag
        argv += ["--" + key.replace("_", "-"), draw(st.sampled_from(VALUES[key]))]
    return argv + draw(st.lists(st.sampled_from(SWITCHES), max_size=2)), files


@settings(max_examples=150, deadline=None)
@given(run_case=bad_runs())
def test_random_bad_input_exits_with_one_line(run_case):
    argv, files = run_case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            if text is not None:
                (Path(tmp) / name).parent.mkdir(exist_ok=True)
                (Path(tmp) / name).write_text(text.replace("{tmp}", tmp), encoding="latin-1")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([a.replace("{tmp}", tmp) for a in argv])
            except SystemExit as exc:  # argparse's own errors
                code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code:
        assert len(err.getvalue().strip().splitlines()) == 1, (argv, err.getvalue())


# --- fetch -------------------------------------------------------------------------


def test_fetch_file_url(tmp_path, capsys):
    src = tmp_path / "src.csv"
    run(["simulate", "--n", "3", "--days", "20", "--seed", "2", "--out", str(src)])
    out = tmp_path / "fetched.csv"
    assert run(["fetch", "--url", src.as_uri(), "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()
    assert "fetched" in capsys.readouterr().out


def test_fetch_drops_a_byte_order_mark(tmp_path):
    src = tmp_path / "src.csv"
    run(["simulate", "--n", "3", "--days", "20", "--seed", "2", "--out", str(src)])
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
    out = tmp_path / "fetched.csv"
    assert run(["fetch", "--url", bom.as_uri(), "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_fetch_unreachable_url_is_data_error(tmp_path, capsys):
    missing = (tmp_path / "missing.csv").as_uri()
    assert run(["fetch", "--url", missing, "--out", str(tmp_path / "out.csv")]) == 3
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_fetch_bad_url_is_config_error(tmp_path, capsys):
    for url in ("not-a-url", "foo://x"):
        assert run(["fetch", "--url", url, "--out", str(tmp_path / "out.csv")]) == 2
        assert "bad URL" in capsys.readouterr().err


def test_fetch_broken_response_is_data_error(tmp_path, capsys, monkeypatch):
    import http.client
    import urllib.request

    def broken(url, timeout):
        raise http.client.IncompleteRead(b"")

    monkeypatch.setattr(urllib.request, "urlopen", broken)
    assert run(["fetch", "--url", "http://127.0.0.1:9/p.csv", "--out", str(tmp_path / "out.csv")]) == 3
    assert "data error" in capsys.readouterr().err


def test_utf8_files_under_an_ascii_locale(tmp_path):
    # every text file is read and written as UTF-8, whatever the locale's encoding
    prices = np.exp(np.cumsum(np.random.default_rng(3).normal(0.0, 0.01, (40, 2)), axis=0))
    lines = ["date,S\u00e9,B"] + [f"{i},{a!r},{b!r}" for i, (a, b) in enumerate(prices.tolist())]
    (tmp_path / "u.csv").write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    env.update(PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
    for argv in (
        ["fetch", "--url", (tmp_path / "u.csv").as_uri(), "--out", "f.csv"],
        ["train", "--data", "u.csv", "--out", "t", *FAST],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "neuralfgp.cli", *argv], cwd=tmp_path, env=env, capture_output=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "u.csv").read_bytes()


def test_non_ascii_config_file_name_under_an_ascii_locale(tmp_path):
    # a config value names the file its flag would: the name's UTF-8 bytes, whatever the locale
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    env.update(PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
    for name, text, argv in (
        ("s.cfg", "out = pr\u00e9.csv\n", ["simulate", "--n", "3", "--days", "60"]),
        ("t.cfg", "data = pr\u00e9.csv\nout = t\n", ["train", *FAST]),
        ("b.cfg", "out = b\u00e9\n", ["backtest", "--n", "2", "--days", "45", *FAST]),
    ):
        (tmp_path / name).write_bytes(text.encode("utf-8"))
        proc = subprocess.run(
            [sys.executable, "-m", "neuralfgp.cli", *argv, "--config", name],
            cwd=tmp_path, env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    root = os.fsencode(tmp_path)
    assert sorted(os.listdir(root)) == [b"b.cfg", b"b\xc3\xa9", b"pr\xc3\xa9.csv", b"s.cfg", b"t", b"t.cfg"]
    assert sorted(os.listdir(root + b"/t")) == [b"theta.json", b"training_log.csv"]
    assert sorted(os.listdir(root + b"/b\xc3\xa9")) == [b"summary.csv", b"windows.csv"]


def test_report_prints_a_non_ascii_label_under_an_ascii_locale(tmp_path):
    # the label's character cannot be encoded on stdout, so it prints as its escape
    (tmp_path / "summary.csv").write_bytes("strategy,avg_log_relative_return,K\nFé,0.1,3\nEWP,0.2,3\n".encode("utf-8"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.update(PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run(
        [sys.executable, "-m", "neuralfgp.cli", "report", str(tmp_path)], env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode("ascii").splitlines()[1:] == [
        "F\\xe9      0.1                         3",
        "EWP        0.2                         3",
    ]


def test_report_aligns_each_k_under_the_header(capsys):
    rows = [("FGP", 0.00836647483, 3), ("EWP", 0.004617702826, 3), ("DWP p=0.3", -1.2345678901e-120, 39),
            ("A much longer label", 0.0, 12345), ("M", 3.0, 7)]
    cli._print_summary(rows)
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.endswith(" K") and len(lines) == len(rows)
    for line, (_, _, k) in zip(lines, rows):
        assert len(line) == len(header) and line.endswith(f" {k}"), (header, line)
