import csv

import numpy as np
import pytest

from neuralfgp import backtest, fgp, market_data as md, training
from neuralfgp.errors import ConfigError, DataError


def market_fn(x):
    return fgp.classical_weights(fgp.Generator("constant"), x)


def ewp_fn(x):
    return fgp.classical_weights(fgp.Generator("equal"), x)


def weights_from_gbm(**kwargs):
    return md.normalize_to_weights(md.gbm_simulate(md.GbmConfig(**kwargs)))


def fast_walk_config(**kwargs):
    base = dict(
        train_days=20,
        test_days=10,
        widths=(3,),
        train=training.TrainConfig(epochs=2),
        seed=0,
    )
    base.update(kwargs)
    return backtest.WalkForwardConfig(**base)


# --- relative wealth ----------------------------------------------------------


def test_market_portfolio_has_unit_relative_wealth():
    path = weights_from_gbm(n_assets=5, n_days=300, seed=3)
    v = backtest.relative_wealth(market_fn, path.weights)
    np.testing.assert_allclose(v.v, 1.0, atol=1e-9)


def test_ewp_hand_example():
    W = np.array([[0.5, 0.5], [0.8, 0.2], [0.5, 0.5]])
    v = backtest.relative_wealth(ewp_fn, W)
    # step 1: 0.5*(0.8/0.5) + 0.5*(0.2/0.5) = 1; step 2: 0.5*(0.5/0.8) + 0.5*(0.5/0.2)
    assert v.v[1] == pytest.approx(1.0, abs=1e-14)
    assert v.terminal == pytest.approx(1.5625, abs=1e-12)


def test_relative_wealth_is_multiplicative():
    path = weights_from_gbm(n_assets=3, n_days=40, seed=7)
    W = path.weights
    full = backtest.relative_wealth(ewp_fn, W).terminal
    first = backtest.relative_wealth(ewp_fn, W[:21]).terminal
    second = backtest.relative_wealth(ewp_fn, W[20:]).terminal
    assert full == pytest.approx(first * second, rel=1e-12)


def test_relative_wealth_rejects_short_input():
    with pytest.raises(DataError):
        backtest.relative_wealth(ewp_fn, np.array([[0.5, 0.5]]))


# --- window layout ------------------------------------------------------------


def test_window_count_reference_values():
    assert backtest.window_count(1000) == 39
    assert backtest.window_count(1260) == 52
    with pytest.raises(ConfigError):
        backtest.window_count(220)


def test_window_boundaries():
    path = weights_from_gbm(n_assets=2, n_days=260, seed=1)
    cfg = fast_walk_config(train_days=200, test_days=20)
    report = backtest.walk_forward(path, cfg)
    assert report.n_windows == 2
    assert report.boundaries == ((0, 200, 220), (20, 220, 240))


# --- summaries ----------------------------------------------------------------


def make_report(terminal):
    labels = tuple(terminal)
    k = len(next(iter(terminal.values())))
    return backtest.WalkForwardReport(
        labels,
        {lbl: np.asarray(v, dtype=np.float64) for lbl, v in terminal.items()},
        tuple((i, i, i) for i in range(k)),
    )


def test_summarize_hand_values():
    report = make_report({"A": [np.e, np.e], "B": [1.0, 1.0], "C": [np.e, 1 / np.e]})
    rows = dict((label, avg) for label, avg, _ in backtest.summarize(report))
    assert rows["A"] == pytest.approx(1.0, abs=1e-14)
    assert rows["B"] == 0.0
    assert rows["C"] == pytest.approx(0.0, abs=1e-14)


# --- master equation -------------------------------------------------------------


def test_master_constant_generator_is_exact():
    path = weights_from_gbm(n_assets=3, n_days=50, seed=2)
    dec = backtest.master_residual(fgp.Generator("constant"), path.weights)
    assert (dec.log_v, dec.log_g_ratio, dec.drift_integral, dec.residual) == (0, 0, 0, 0)


def test_master_constant_path_all_terms_vanish():
    W = np.tile([0.2, 0.3, 0.5], (15, 1))
    for gen in (fgp.Generator("equal"), fgp.Generator("entropy")):
        dec = backtest.master_residual(gen, W)
        assert abs(dec.log_v) < 1e-12
        assert abs(dec.log_g_ratio) < 1e-12
        assert abs(dec.drift_integral) < 1e-12


@pytest.mark.parametrize("gen", [fgp.Generator("equal"), fgp.Generator("entropy")])
def test_master_residual_shrinks_with_step(gen):
    # one fine trajectory per seed, observed at three resolutions: the
    # aggregate decomposition error must fall as the sampling step shrinks
    # (per-path residuals carry random signs, so the comparison is pooled)
    sums = {4: 0.0, 2: 0.0, 1: 0.0}
    for seed in range(10):
        fine = weights_from_gbm(n_assets=3, n_days=241, dt=1.0 / 1008.0, seed=seed).weights
        for stride in (4, 2, 1):
            r = abs(backtest.master_residual(gen, fine[::stride]).residual)
            sums[stride] += r
            assert r < 1e-3
    assert sums[1] < sums[2] < sums[4]


def test_master_terms_nontrivial_on_volatile_path():
    path = weights_from_gbm(n_assets=3, n_days=400, seed=11)
    dec = backtest.master_residual(fgp.Generator("entropy"), path.weights)
    assert dec.log_v != 0.0
    assert dec.log_v == pytest.approx(dec.log_g_ratio + dec.drift_integral, abs=5e-2)


# --- walk-forward --------------------------------------------------------------


def test_walk_forward_strategy_labels():
    path = weights_from_gbm(n_assets=2, n_days=60, seed=4)
    report = backtest.walk_forward(path, fast_walk_config())
    assert report.labels == ("FGP", "EWP", "Market", "DWP p=0.3", "DWP p=0.5", "DWP p=0.8")
    assert report.n_windows == backtest.window_count(60, 20, 10)
    for label in report.labels:
        assert np.all(report.terminal[label] > 0)


def test_walk_forward_market_terminal_is_one():
    path = weights_from_gbm(n_assets=3, n_days=80, seed=5)
    report = backtest.walk_forward(path, fast_walk_config())
    np.testing.assert_allclose(report.terminal["Market"], 1.0, atol=1e-9)


def test_walk_forward_no_lookahead():
    # rows strictly after the last test slice must not influence any window
    path = weights_from_gbm(n_assets=2, n_days=260, seed=6)
    cfg = fast_walk_config(train_days=200, test_days=20)
    base = backtest.walk_forward(path, cfg)

    W = path.weights.copy()
    W[242:] = W[242:][::-1]  # scramble the unused tail
    scrambled = md.MarketWeightPath(path.dates, W, path.tickers)
    other = backtest.walk_forward(scrambled, cfg)
    for label in base.labels:
        np.testing.assert_array_equal(base.terminal[label], other.terminal[label])


def test_walk_forward_deterministic():
    path = weights_from_gbm(n_assets=2, n_days=70, seed=8)
    cfg = fast_walk_config()
    a = backtest.walk_forward(path, cfg)
    b = backtest.walk_forward(path, cfg)
    for label in a.labels:
        np.testing.assert_array_equal(a.terminal[label], b.terminal[label])


def test_walk_forward_parallel_matches_serial():
    path = weights_from_gbm(n_assets=2, n_days=70, seed=9)
    cfg1 = fast_walk_config(warm_start=False, jobs=1)
    cfg2 = fast_walk_config(warm_start=False, jobs=2)
    a = backtest.walk_forward(path, cfg1)
    b = backtest.walk_forward(path, cfg2)
    for label in a.labels:
        np.testing.assert_array_equal(a.terminal[label], b.terminal[label])


def test_walk_forward_pool_has_at_most_one_worker_per_window(monkeypatch):
    # a fake pool records its size and maps serially, so no process is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(backtest, "ProcessPoolExecutor", SerialPool)
    path = weights_from_gbm(n_assets=2, n_days=70, seed=9)
    a = backtest.walk_forward(path, fast_walk_config(warm_start=False, jobs=1))
    b = backtest.walk_forward(path, fast_walk_config(warm_start=False, jobs=99999999999))
    assert sizes == [a.n_windows]
    for label in a.labels:
        np.testing.assert_array_equal(a.terminal[label], b.terminal[label])


# --- report files ----------------------------------------------------------------


def test_csv_outputs_round_trip(tmp_path):
    path = weights_from_gbm(n_assets=2, n_days=60, seed=10)
    report = backtest.walk_forward(path, fast_walk_config())
    windows = tmp_path / "windows.csv"
    summary = tmp_path / "summary.csv"
    backtest.write_window_csv(windows, report)
    backtest.write_summary_csv(summary, report)

    lines = windows.read_text().strip().splitlines()
    assert lines[0] == "window,strategy,V_Tk,log_V_Tk"
    assert len(lines) == 1 + report.n_windows * len(report.labels)
    for k, label, v, log_v in csv.reader(lines[1:]):
        assert float(v) == report.terminal[label][int(k) - 1]
        assert float(log_v) == np.log(float(v))

    rows = backtest.read_summary_csv(summary)
    assert [r[0] for r in rows] == list(report.labels)
    for label, avg, k in rows:
        assert avg == report.average_log_return(label)
        assert k == report.n_windows


def test_svg_output(tmp_path):
    path = weights_from_gbm(n_assets=2, n_days=60, seed=12)
    report = backtest.walk_forward(path, fast_walk_config())
    out = tmp_path / "chart.svg"
    backtest.write_svg(out, report)
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == len(report.labels)
    assert backtest.write_svg(out, report) is None
    assert out.read_text() == text  # deterministic bytes
