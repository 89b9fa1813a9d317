import concurrent.futures
import csv
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neuralfgp import backtest, fgp, icnn, market_data as md, training
from neuralfgp.errors import ConfigError, DataError, DimensionError, NumericError


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


def asset_0_fn(x):
    """Every weight on asset 0, so step s earns W[s, 0] / W[s - 1, 0]."""
    return fgp.PortfolioWeights(np.eye(x.shape[-1])[np.zeros(len(x), dtype=int)])


def path_with(row, values, rows=8):
    W = np.full((rows, 3), 1.0 / 3.0)
    W[row] = values
    return W


# each valid input passes one combined test; a failing one must still name the first check it
# fails, in the checks' order (finite, sum, sign; start, sign; the first bad step)
@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: fgp.PortfolioWeights([[0.5, 0.5, 0.0], [np.nan, -0.5, 1.5]]), NumericError, "must be finite"),
        (lambda: fgp.PortfolioWeights([[np.inf, 0.0, 0.0]]), NumericError, "must be finite"),
        (
            lambda: fgp.PortfolioWeights([[1.5, -0.5, 0.0], [0.5, 0.5, 0.25], [0.5, 0.5, 0.5]]),
            NumericError,
            re.escape(f"sum to {np.float64(1.25)!r}, not 1"),
        ),
        (lambda: fgp.PortfolioWeights([0.5, 0.75]), NumericError, re.escape(f"sum to {np.float64(1.25)!r}, not 1")),
        (lambda: fgp.PortfolioWeights([[0.5, 0.5, 0.0], [1.5, -0.5, 0.0]]), NumericError, "must be nonnegative"),
        (lambda: backtest.RelativeWealthPath(np.array([1.5, 2.0])), NumericError, "must start at 1"),
        (lambda: backtest.RelativeWealthPath(np.array([0.5, -1.0])), NumericError, "must start at 1"),
        (lambda: backtest.RelativeWealthPath(np.array([np.nan, 1.0])), NumericError, "must start at 1"),
        (lambda: backtest.RelativeWealthPath(np.array([1.0, 2.0, 0.0])), NumericError, "must stay positive"),
        (lambda: backtest.RelativeWealthPath(np.array([1.0, np.nan])), NumericError, "must stay positive"),
        # W[2, 0] = 0: step 2 earns 0 and step 3 earns 1/0
        (lambda: backtest.relative_wealth(asset_0_fn, path_with(2, [0.0, 0.5, 0.5])), DataError, "at step 2$"),
        (lambda: backtest.relative_wealth(ewp_fn, path_with(4, [np.nan, 0.5, 0.5])), DataError, "at step 4$"),
        (lambda: backtest.relative_wealth(ewp_fn, path_with(7, [np.inf, 0.5, 0.5])), DataError, "at step 7$"),
    ],
    ids=[
        "weights-nan-and-negative",
        "weights-inf",
        "weights-first-bad-sum-before-sign",
        "weights-point-bad-sum",
        "weights-negative",
        "wealth-start",
        "wealth-start-before-sign",
        "wealth-nan-start",
        "wealth-zero",
        "wealth-nan",
        "steps-zero-then-inf",
        "steps-nan",
        "steps-inf",
    ],
)
def test_failing_checks_name_the_first_failure(build, error, message):
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("row, step", [(7, 7), (0, 1)], ids=["zero-last-step", "infinite-first-step"])
def test_relative_wealth_rejects_a_lone_zero_or_infinite_step(row, step):
    # W[row, 0] = 0 with every weight on asset 0: the last step earns 0, or the first earns 1/0,
    # and every other step is sound, so each bound of the step check is met alone
    with np.errstate(divide="ignore"), pytest.raises(DataError, match=f"at step {step}$"):
        backtest.relative_wealth(asset_0_fn, path_with(row, [0.0, 0.5, 0.5]))


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


KINDS = [
    fgp.Generator("constant"), fgp.Generator("equal"), fgp.Generator("diversity", p=0.5), fgp.Generator("entropy"),
    fgp.Generator("neural", theta=icnn.init(3, (4,), seed=0)),
]


@pytest.mark.parametrize("gen", KINDS, ids=lambda gen: gen.kind)
@pytest.mark.parametrize(
    "W,message",
    [
        (np.array([[0.2, 0.3, 0.5]]), "at least 2 rows"),
        (np.array([0.2, 0.3, 0.5]), "at least 2 rows"),
        (np.array([[0.2, 0.3, 0.5], [np.nan, 0.3, 0.5], [0.2, 0.3, 0.5]]), "finite and positive"),
    ],
    ids=["one-row", "1-d", "nan"],
)
def test_master_residual_checks_the_slice_for_every_kind(gen, W, message):
    # the constant kind's exact zeros come only after the same check as every other kind
    with pytest.raises(DataError, match=message):
        backtest.master_residual(gen, W)


@pytest.mark.parametrize("gen", KINDS, ids=lambda gen: gen.kind)
@pytest.mark.parametrize("value", [0.0, np.inf], ids=["zero", "inf"])
def test_master_residual_rejects_a_zero_or_infinite_weight(gen, value):
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(DataError, match="finite and positive"):
        backtest.master_residual(gen, path_with(3, [value, 0.5, 0.5]))


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


def split_from_public_maps(gen, W):
    """The decomposition as the public maps give it: weights and G from their own calls, the
    Hessian from generator_hessian over rows 0..T-1."""
    log_v = float(np.log(backtest.relative_wealth(lambda x: fgp.neural_weights(gen.theta, x), W).terminal))
    G = fgp.generator_value(gen, W)
    log_g_ratio = float(np.log(G[-1] / G[0]))
    x_dlog = W[:-1] * np.diff(np.log(W), axis=0)
    drift = float(np.einsum("s,sij,si,sj->", -0.5 / G[:-1], fgp.generator_hessian(gen, W[:-1]), x_dlog, x_dlog))
    return backtest.MasterDecomposition(log_v, log_g_ratio, drift, log_v - log_g_ratio - drift)


@pytest.mark.parametrize("widths", [(8,), (16, 8, 4), (64, 64)])
@pytest.mark.parametrize("n", [3, 5])
def test_neural_master_residual_matches_the_public_maps_bit_for_bit(widths, n):
    # master_residual takes the weights and the Hessian from one neural_map of rows 0..T-1, and G
    # from its own pass over all T+1 rows: a 1-row pass for G[T], or one (T+1)-row map, would
    # change bits, since the gemm result depends on the row count
    gen = fgp.Generator("neural", theta=icnn.init(n, widths, seed=n))
    for T in (1, 7, 20, 200):
        W = weights_from_gbm(n_assets=n, n_days=T + 1, seed=T).weights
        got, want = backtest.master_residual(gen, W), split_from_public_maps(gen, W)
        assert np.array(dataclasses.astuple(got)).tobytes() == np.array(dataclasses.astuple(want)).tobytes(), T
        assert got.log_v != 0.0 and got.drift_integral != 0.0
    with pytest.raises(DimensionError):
        backtest.master_residual(gen, np.full((8, n + 1), 1.0 / (n + 1)))


def no_net_binds(theta, W):
    """True when no safety net of the neural map binds on any row of W: the neural FGP is then the
    one its G generates, and the pathwise decomposition holds for it."""
    nm = fgp.neural_map(theta, W)
    return bool(
        (nm.G > fgp.G_FLOOR).all()
        and (np.abs(nm.grad_log_g) < fgp.GRAD_CLIP).all()
        and (nm.pi_raw > fgp.PORTFOLIO_WEIGHT_FLOOR).all()
    )


def neural_thetas():
    """Init thetas of three widths, seeds 0-2, and one theta trained for 20 epochs on its own path."""
    thetas = [icnn.init(3, widths, seed) for widths in ((8,), (16, 8), (64, 64)) for seed in range(3)]
    train = weights_from_gbm(n_assets=3, n_days=201, seed=100).weights
    trained, _ = training.train_window(icnn.init(3, (16, 8), seed=0), train, training.TrainConfig(epochs=20))
    return thetas + [trained]


def test_neural_master_residual_shrinks_with_step():
    # criterion 7's fine paths for the neural FGP: the pooled residual falls at every halving of the
    # step and stays far below |log V|. Bounds from path seeds 5-24 over 164 dev thetas where no net
    # binds: per-path |residual| at most 4.3e-5, pooled |residual| at most 7.8e-4 of pooled |log V|
    fines = [weights_from_gbm(n_assets=3, n_days=241, dt=1.0 / 1008.0, seed=seed).weights for seed in range(5)]
    for theta in neural_thetas():
        gen = fgp.Generator("neural", theta=theta)
        assert all(no_net_binds(theta, W) for W in fines)
        sums, log_v = {4: 0.0, 2: 0.0, 1: 0.0}, 0.0
        for W in fines:
            for stride in (4, 2, 1):
                dec = backtest.master_residual(gen, W[::stride])
                assert abs(dec.residual) < 1e-4
                sums[stride] += abs(dec.residual)
            log_v += abs(dec.log_v)  # of the stride-1 split
        assert sums[1] < sums[2] < sums[4], (theta.widths, sums)
        assert sums[1] < 5e-3 * log_v, (theta.widths, sums, log_v)


def test_neural_log_g_ratio_is_g_from_the_icnn():
    # G = -f straight from icnn.forward, with the floor spelled as np.where: a slice where no net
    # binds gives the ratio's exact bits, and rows where -f falls below the floor read G_FLOOR
    for theta in neural_thetas():
        for seed in range(3):
            W = weights_from_gbm(n_assets=3, n_days=21, seed=seed).weights
            assert no_net_binds(theta, W)
            G = -icnn.forward(theta, W)
            dec = backtest.master_residual(fgp.Generator("neural", theta=theta), W)
            assert dec.log_g_ratio == float(np.log(G[-1] / G[0]))
    theta = icnn.init(3, (8,), seed=0)
    W = weights_from_gbm(n_assets=3, n_days=21, seed=0).weights
    theta.c[...] += np.median(-icnn.forward(theta, W))  # G - median(G): half the rows fall below 0
    G = -icnn.forward(theta, W)
    assert (G < fgp.G_FLOOR).any() and (G > fgp.G_FLOOR).any()
    got = fgp.generator_value(fgp.Generator("neural", theta=theta), W)
    assert got.tobytes() == np.where(G > fgp.G_FLOOR, G, fgp.G_FLOOR).tobytes()


def shift_u_along_ones(theta, lam):
    """u + lam * 1 and c - lam: f is unchanged on the simplex, grad f moves along its normal."""
    moved = icnn.ICNNParams(theta.flat.copy(), theta.n, theta.widths)
    moved.u[...] += lam
    moved.c[...] -= lam
    return moved


def scale_output_layer(theta, alpha):
    """alpha * (w, u, c): G is scaled by alpha > 0, so grad log G and H / G are unchanged."""
    moved = icnn.ICNNParams(theta.flat.copy(), theta.n, theta.widths)
    for view in (moved.w, moved.u, moved.c):
        view[...] *= alpha
    return moved


@settings(max_examples=60, deadline=None)
@given(
    widths=st.sampled_from([(4,), (16, 8), (8, 8, 4)]),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    transform=st.one_of(
        st.tuples(st.just(shift_u_along_ones), st.floats(-10.0, 10.0)),
        st.tuples(st.just(scale_output_layer), st.floats(0.01, 100.0)),
    ),
)
def test_neural_map_and_split_invariant_under_theta_symmetries(widths, n, seed, transform):
    # two changes of theta leave the neural FGP and its pathwise split unchanged in exact
    # arithmetic, on rows where no safety net binds; the tape cannot check this, it encodes the map
    move, value = transform
    theta = icnn.init(n, widths, seed=seed)
    moved = move(theta, value)
    W = weights_from_gbm(n_assets=n, n_days=21, seed=seed).weights
    assume(no_net_binds(theta, W) and no_net_binds(moved, W))
    pi, pi_moved = fgp.neural_weights(theta, W).pi, fgp.neural_weights(moved, W).pi
    assert np.abs(pi_moved - pi).max() < 1e-12
    dec = backtest.master_residual(fgp.Generator("neural", theta=theta), W)
    dec_moved = backtest.master_residual(fgp.Generator("neural", theta=moved), W)
    assert abs(dec_moved.log_g_ratio - dec.log_g_ratio) < 1e-12
    assert abs(dec_moved.drift_integral - dec.drift_integral) <= 1e-12 * abs(dec.drift_integral)


def hessian_with_mask(gen, x):
    """The classical Hessians as first written: an (m, n, n) outer product and an np.eye mask for every kind."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    diag = np.eye(n, dtype=bool)
    outer = x[..., :, None] * x[..., None, :]
    if gen.kind == "constant":
        return np.zeros_like(outer)
    if gen.kind == "equal":
        G = np.expand_dims(fgp.generator_value(gen, x), -1)
        off = G[..., None] / (n * n * outer)
        return np.where(diag, (G * (1.0 - n) / (n * n * x * x))[..., None, :], off)
    if gen.kind == "diversity":
        p = gen.p
        S = np.sum(x**p, axis=-1, keepdims=True)
        xp1 = x ** (p - 1.0)
        H = (1.0 - p) * S[..., None] ** (1.0 / p - 2.0) * (xp1[..., :, None] * xp1[..., None, :])
        return H + np.where(diag, ((p - 1.0) * S ** (1.0 / p - 1.0) * x ** (p - 2.0))[..., None, :], 0.0)
    return np.where(diag, (-1.0 / x)[..., None, :], 0.0)


def wealth_by_cumprod(gen, W):
    """The relative wealth path as a cumprod of 1 followed by the step returns."""
    r = (fgp.weights(gen, W[:-1]).pi[:, None, :] @ (W[1:] / W[:-1])[:, :, None]).ravel()
    return np.cumprod(np.concatenate([[1.0], r]))


def split_by_first_formulas(gen, W):
    """master_residual for a classical generator, spelled with the cumprod wealth, np.diff log
    increments and the masked Hessian."""
    if gen.kind == "constant":
        return backtest.MasterDecomposition(0.0, 0.0, 0.0, 0.0)
    log_v = float(np.log(wealth_by_cumprod(gen, W)[-1]))
    G = fgp.generator_value(gen, W)
    log_g_ratio = float(np.log(G[-1] / G[0]))
    x_dlog = W[:-1] * np.diff(np.log(W), axis=0)
    drift = float(np.einsum("s,sij,si,sj->", -0.5 / G[:-1], hessian_with_mask(gen, W[:-1]), x_dlog, x_dlog))
    return backtest.MasterDecomposition(log_v, log_g_ratio, drift, log_v - log_g_ratio - drift)


CLASSICAL = [fgp.Generator("equal"), fgp.Generator("constant"), fgp.Generator("entropy")]
CLASSICAL += [fgp.Generator("diversity", p=p) for p in (0.3, 0.5, 0.8)]


@pytest.mark.parametrize("gen", CLASSICAL, ids=lambda gen: gen.label)
@pytest.mark.parametrize("n", [2, 5])
def test_classical_master_residual_matches_the_first_formulas_bit_for_bit(gen, n):
    for T in (1, 7, 20, 200):
        W = weights_from_gbm(n_assets=n, n_days=T + 1, seed=T).weights
        got, want = backtest.master_residual(gen, W), split_by_first_formulas(gen, W)
        assert np.array(dataclasses.astuple(got)).tobytes() == np.array(dataclasses.astuple(want)).tobytes(), T
        wealth = backtest.relative_wealth(lambda x: fgp.weights(gen, x), W).v
        assert wealth.tobytes() == wealth_by_cumprod(gen, W).tobytes(), T
        for x in (W, W[0]):  # a batch and a point
            assert fgp.generator_hessian(gen, x).tobytes() == hessian_with_mask(gen, x).tobytes(), T
    if gen.kind != "constant":  # the T = 200 split is not trivially equal
        assert got.log_v != 0.0 and got.drift_integral != 0.0


def test_master_terms_nontrivial_on_volatile_path():
    path = weights_from_gbm(n_assets=3, n_days=400, seed=11)
    dec = backtest.master_residual(fgp.Generator("entropy"), path.weights)
    assert dec.log_v != 0.0
    assert dec.log_v == pytest.approx(dec.log_g_ratio + dec.drift_integral, abs=5e-2)


# --- walk-forward --------------------------------------------------------------


def test_walk_forward_accepts_the_smallest_windows():
    # two training days give a training window of 3 rows (T = 2), one test day a 2-row slice
    path = weights_from_gbm(n_assets=3, n_days=8, seed=5)
    report = backtest.walk_forward(path, fast_walk_config(train_days=2, test_days=1))
    assert report.n_windows == backtest.window_count(8, 2, 1) == 5
    assert report.boundaries[-1] == (4, 6, 7)


@pytest.mark.parametrize("p_vals", [(1.5,), (0.5, 0.0), (float("nan"),)])
def test_walk_forward_config_checks_exponents_before_any_window_trains(p_vals):
    with pytest.raises(ConfigError, match="diversity exponent"):
        backtest.WalkForwardConfig(p_vals=p_vals)


@pytest.mark.parametrize("p_vals", [(0.5, 0.5), (0.5, 0.50000001), (0.3, 0.8, 0.30000000001)])
def test_walk_forward_config_refuses_two_strategies_with_one_label(p_vals):
    # the report keys terminal wealth by label, so a second DWP of the same label would replace the first
    with pytest.raises(ConfigError, match="label 'DWP p=0.[35]'"):
        backtest.WalkForwardConfig(p_vals=p_vals)


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
    # a fake pool records its size and maps serially, so no process is started; it drops the
    # initializer, which would run BLAS on one thread in this process for good
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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


@pytest.mark.parametrize(
    "body, message",
    [
        # past the reader's first buffered chunk, so the decode error is raised while the body is parsed
        (b"E" * 20_000 + b",0.2,3\nF\xe9,0.1,3\n", "cannot read .*utf-8"),
        (b"F,x,3\n", "malformed summary: could not convert"),
        (b"F,0.1\n", "malformed summary: not enough values"),
    ],
    ids=["non-utf8-row", "non-numeric-cell", "short-row"],
)
def test_read_summary_csv_names_read_and_parse_errors_apart(tmp_path, body, message):
    summary = tmp_path / "summary.csv"
    summary.write_bytes(b"strategy,avg_log_relative_return,K\n" + body)
    with pytest.raises(DataError, match=message):
        backtest.read_summary_csv(summary)


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
