import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neuralfgp import cli, icnn, market_data as md
from neuralfgp.backtest import read_summary_csv

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


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "p.csv")]) == 2
    assert "bogus" in capsys.readouterr().err


# --- train -----------------------------------------------------------------------


def test_train_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(
        ["train", "--n", "2", "--days", "30", "--seed", "3", "--out", str(out)] + FAST
    )
    assert code == 0
    theta = icnn.load(out / "theta.json")
    assert theta.widths == (3,)
    log_lines = (out / "training_log.csv").read_text().strip().splitlines()
    assert len(log_lines) == 3  # header + 2 epochs
    assert "best loss" in capsys.readouterr().out


def test_train_saved_params_reload_identically(tmp_path):
    out = tmp_path / "run"
    run(["train", "--n", "2", "--days", "30", "--seed", "3", "--out", str(out)] + FAST)
    a = icnn.load(out / "theta.json")
    b = icnn.load(out / "theta.json")
    x = np.array([0.4, 0.6])
    assert icnn.generating_function(a, x) == icnn.generating_function(b, x)


def test_train_insufficient_data_is_data_error(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["train", "--n", "2", "--days", "10", "--out", str(out)] + FAST)
    assert code == 3
    assert "data error" in capsys.readouterr().err


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
    ],
    ids=[
        "missing-data", "missing-config", "malformed-summary", "mixed-dates", "non-utf8-data", "non-utf8-config",
        "simulate-out-missing-dir", "train-out-under-file", "backtest-out-under-file", "empty-summary",
        "non-utf8-summary", "lambda-nan", "lr-inf", "n-not-int", "lambda-minus-inf",
        "seed-negative", "seed-negative-config", "p-vals-not-float", "widths-not-int",
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


# --- fetch -------------------------------------------------------------------------


def test_fetch_file_url(tmp_path, capsys):
    src = tmp_path / "src.csv"
    run(["simulate", "--n", "3", "--days", "20", "--seed", "2", "--out", str(src)])
    out = tmp_path / "fetched.csv"
    assert run(["fetch", "--url", src.as_uri(), "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()
    assert "fetched" in capsys.readouterr().out


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
