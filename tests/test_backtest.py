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
from test_icnn import neural_hessian


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
        (lambda: backtest.RelativeWealthPath(np.ones((2, 1))), NumericError, re.escape("got shape (2, 1)")),
        # W[2, 0] = 0: step 2 earns 0 and step 3 earns 1/0
        (lambda: backtest.relative_wealth(asset_0_fn, path_with(2, [0.0, 0.5, 0.5])), DataError, "at step 2$"),
        # asset_0_fn reads no entry of the path, so the NaN reaches the step check
        (lambda: backtest.relative_wealth(asset_0_fn, path_with(4, [np.nan, 0.5, 0.5])), DataError, "at step 4$"),
        (lambda: backtest.relative_wealth(ewp_fn, path_with(7, [np.inf, 0.5, 0.5])), DataError, "at step 7$"),
        # (1/3) / 1e-310 overflows: the step is inf, with no overflow warning
        (lambda: backtest.relative_wealth(ewp_fn, path_with(2, [1e-310, 0.5, 0.5])), DataError, "at step 3$"),
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
        "wealth-2-d",
        "steps-zero-then-inf",
        "steps-nan",
        "steps-inf",
        "steps-ratio-overflows",
    ],
)
def test_failing_checks_name_the_first_failure(build, error, message):
    # under the suite's warnings-as-errors: a zero or non-finite entry warns nowhere on the way
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("row, step", [(7, 7), (0, 1)], ids=["zero-last-step", "infinite-first-step"])
def test_relative_wealth_rejects_a_lone_zero_or_infinite_step(row, step):
    # W[row, 0] = 0 with every weight on asset 0: the last step earns 0, or the first earns 1/0,
    # and every other step is sound, so each bound of the step check is met alone
    with pytest.raises(DataError, match=f"at step {step}$"):
        backtest.relative_wealth(asset_0_fn, path_with(row, [0.0, 0.5, 0.5]))


@pytest.mark.parametrize("value, step", [(0.0, 3), (np.nan, 2), (np.inf, 2), (-np.inf, 2)],
                         ids=["zero", "nan", "inf", "-inf"])
def test_relative_wealth_reports_a_bad_entry_whatever_the_weights(value, step):
    # weights that read no entry of the path: W[2, 0] reaches only the step returns, and ends in
    # the step check's DataError, never numpy's divide or invalid warning (the suite's errors)
    def fixed_fn(x):
        return fgp.PortfolioWeights(np.full_like(x, 1.0 / 3.0))

    with pytest.raises(DataError, match=f"at step {step}$"):
        backtest.relative_wealth(fixed_fn, path_with(2, [value, 0.5, 0.5]))


# The weight and wealth checks on degenerate input: each gives its pinned exception class and
# message, or passes. A 1-d case is a weights row for PortfolioWeights and check_positive,
# the last row of a path for relative_wealth, whose weights are all on asset 0 (so step 3 earns
# the case's first entry over 1/3), and the steps after V_0 = 1 for RelativeWealthPath.
DEGENERATE = {
    "empty": [], "0-d": 0.5, "nan": [np.nan, 0.5, 0.5], "inf": [np.inf, 0.5, 0.5], "-inf": [-np.inf, 0.5, 0.5],
    "-0.0": [-0.0, 0.5, 0.5], "negative": [-0.5, 0.75, 0.75],
}
CHECKS = {
    "PortfolioWeights": fgp.PortfolioWeights,
    "check_positive": fgp.check_positive,
    "relative_wealth": lambda a: backtest.relative_wealth(asset_0_fn, path_with(-1, a, rows=4) if a.size > 1 else a),
    "RelativeWealthPath": lambda a: backtest.RelativeWealthPath(np.r_[1.0, a] if a.size > 1 else a),
}
FINITE = (NumericError, "portfolio weights must be finite")
POSITIVE = (DataError, "weights must be finite and positive")
STEP_3 = (DataError, "non-positive or non-finite relative return at step 3")
NOT_A_PATH = "expected a path of shape (T+1, n), got "
STAYS_POSITIVE = (NumericError, "relative wealth must stay positive")
# per check, the outcome of each DEGENERATE case in order; None passes
CONTRACT = {
    "PortfolioWeights": [
        (NumericError, "portfolio weights sum to np.float64(0.0), not 1"),
        (NumericError, "portfolio weights sum to np.float64(0.5), not 1"),
        FINITE, FINITE, FINITE, None, (NumericError, "portfolio weights must be nonnegative"),
    ],
    "check_positive": [None, None, POSITIVE, POSITIVE, POSITIVE, POSITIVE, POSITIVE],
    "relative_wealth": [
        (DimensionError, NOT_A_PATH + "(0,)"), (DimensionError, NOT_A_PATH + "()"),
        STEP_3, STEP_3, STEP_3, STEP_3, STEP_3,
    ],
    "RelativeWealthPath": [
        (NumericError, "relative wealth must be a nonempty 1-d path, got shape (0,)"),
        (NumericError, "relative wealth must be a nonempty 1-d path, got shape ()"),
        STAYS_POSITIVE, None, STAYS_POSITIVE, STAYS_POSITIVE, STAYS_POSITIVE,
    ],
}


@pytest.mark.parametrize(
    "check, case, outcome",
    [(check, case, outcome) for check, outcomes in CONTRACT.items() for case, outcome in zip(DEGENERATE, outcomes)],
    ids=[f"{check}-{case}" for check in CONTRACT for case in DEGENERATE],
)
def test_weight_and_wealth_checks_keep_their_error_contract(check, case, outcome):
    value = np.array(DEGENERATE[case], dtype=np.float64)
    if outcome is None:
        CHECKS[check](value)
        return
    with pytest.raises(outcome[0]) as info:
        CHECKS[check](value)
    assert (type(info.value), str(info.value)) == outcome


@pytest.mark.parametrize("kind", ["equal", "entropy", "diversity", "neural"])
@pytest.mark.parametrize("n", [5, 9])  # 9 runs past numpy's 8-wide unrolled row reductions
def test_master_log_v_is_the_log_of_relative_wealth_bit_for_bit(kind, n):
    # master_residual's log V and relative_wealth share one wealth core; the constant kind's split
    # is exactly zero and reads no wealth
    theta = icnn.init(n, (16, 8), seed=2) if kind == "neural" else None
    gen = fgp.Generator(kind, p=0.3 if kind == "diversity" else None, theta=theta)
    for T in (1, 20, 200):
        W = weights_from_gbm(n_assets=n, n_days=T + 1, seed=T).weights
        # the weights at rows 0..T-1 from one map of the whole path, as master_residual reads them
        pi = fgp.neural_map(theta, W).pi[:-1] if kind == "neural" else fgp.path_map(gen, W)[0]
        want = np.log(backtest.relative_wealth(lambda x: fgp.PortfolioWeights(pi), W).terminal)
        got = backtest.master_residual(gen, W).log_v
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), T


# --- window layout ------------------------------------------------------------


def test_window_count_reference_values():
    assert backtest.window_count(1000) == 39
    assert backtest.window_count(1260) == 52
    with pytest.raises(DataError, match="need more than 220 rows for one walk-forward window, got 220"):
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
    "W, error, message",
    [
        (np.array([[0.2, 0.3, 0.5]]), DataError, "a path needs at least 2 rows, got 1"),
        (np.array([0.2, 0.3, 0.5]), DimensionError, NOT_A_PATH + "(3,)"),
        (np.array([[0.2, 0.3, 0.5], [np.nan, 0.3, 0.5], [0.2, 0.3, 0.5]]), DataError, POSITIVE[1]),
    ],
    ids=["one-row", "1-d", "nan"],
)
def test_master_residual_checks_the_slice_for_every_kind(gen, W, error, message):
    # the constant kind's exact zeros come only after the same check as every other kind
    with pytest.raises(error) as info:
        backtest.master_residual(gen, W)
    assert (type(info.value), str(info.value)) == (error, message)


# The one path rule at every entry point that takes a weight path: fgp.check_path for its shape,
# then fgp.check_positive for its entries (in relative_wealth, through the weight map of the
# rows 0..T-1, which holds the bad entry W[2, 0]). Each case gives one class and one message,
# under the suite's warnings-as-errors.
def path_with_bad_entry(value):
    W = np.random.default_rng(0).dirichlet(np.ones(3), 6)
    W[2, 0] = value
    return W


PATH_CASES = {
    "1-d": (np.full(3, 1.0 / 3.0), DimensionError, NOT_A_PATH + "(3,)"),
    "3-d": (np.full((2, 2, 3), 1.0 / 3.0), DimensionError, NOT_A_PATH + "(2, 2, 3)"),
    "1-row": (np.full((1, 3), 1.0 / 3.0), DataError, "a path needs at least 2 rows, got 1"),
    **{case: (path_with_bad_entry(value), *POSITIVE)
       for case, value in (("zero", 0.0), ("negative", -0.1), ("nan", np.nan), ("inf", np.inf))},
}
FAST_TRAIN = training.TrainConfig(epochs=2)
PATH_ENTRY_POINTS = {
    **{f"relative_wealth-{gen.kind}": lambda W, gen=gen: backtest.relative_wealth(lambda x: fgp.weights(gen, x), W)
       for gen in KINDS},
    **{f"master_residual-{gen.kind}": lambda W, gen=gen: backtest.master_residual(gen, W) for gen in KINDS},
    **{f"path_map-{gen.kind}": lambda W, gen=gen: fgp.path_map(gen, W) for gen in KINDS},
    "loss": lambda W: training.loss(KINDS[-1].theta, W, FAST_TRAIN),
    "loss_gradients": lambda W: training.loss_gradients(KINDS[-1].theta, W, FAST_TRAIN),
    "train_window": lambda W: training.train_window(KINDS[-1].theta, W, FAST_TRAIN),
}


@pytest.mark.parametrize("case", PATH_CASES)
@pytest.mark.parametrize("entry", PATH_ENTRY_POINTS)
def test_every_path_entry_point_keeps_one_path_rule(entry, case):
    W, error, message = PATH_CASES[case]
    with pytest.raises(error) as info:
        PATH_ENTRY_POINTS[entry](W.copy())
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("gen", KINDS, ids=lambda gen: gen.kind)
@pytest.mark.parametrize("value", [0.0, np.inf], ids=["zero", "inf"])
def test_master_residual_rejects_a_zero_or_infinite_weight(gen, value):
    with pytest.raises(DataError, match="finite and positive"):
        backtest.master_residual(gen, path_with(3, [value, 0.5, 0.5]))


@pytest.mark.parametrize("gen", [fgp.Generator("equal")] + [fgp.Generator("diversity", p=p) for p in (0.3, 0.5, 0.8)],
                         ids=lambda gen: gen.label)
def test_master_residual_of_a_tiny_weight_is_a_numeric_error(gen):
    # a weight of 1e-300 passes check_positive, but x_i x_j underflows to 0 in the equal-weight
    # Hessian and x_i^(p-2) overflows in the diversity one: the caller gets NumericError for the
    # non-finite drift, not a numpy warning from inside generator_hessian
    W = np.array([[0.5, 0.5, 1e-300], [0.4, 0.3, 0.3], [0.5, 0.5, 1e-300]])
    with pytest.raises(NumericError, match="non-finite residual"):
        backtest.master_residual(gen, W)


@pytest.mark.parametrize("gen", [fgp.Generator("equal"), fgp.Generator("diversity", p=0.5)], ids=lambda gen: gen.label)
def test_master_residual_of_wealth_that_underflows_is_a_numeric_error(gen):
    # every entry is finite and positive, and every step earns a finite, positive 1e-20, but 17
    # steps take V below the smallest subnormal: log V would be -inf, so the split stops first
    W = 10.0 ** (170.0 - 20.0 * np.arange(18))[:, None] * np.ones(2)
    with pytest.raises(NumericError, match="^relative wealth must stay positive$"):
        backtest.master_residual(gen, W)


def flip_path(rows):
    """Two assets whose prices swap between 1 and 1e13 each day, as market weights."""
    prices = np.array([[1.0, 1e13], [1e13, 1.0]])[np.arange(rows) % 2]
    return prices / prices.sum(axis=1, keepdims=True)


def test_wealth_that_overflows_is_a_numeric_error():
    # each EWP step earns about 5e12, a finite and positive return, but 30 of them pass the
    # float64 maximum: both callers of the wealth core stop with NumericError, and numpy's
    # overflow warning (an error in this suite) never reaches them
    gen, W = fgp.Generator("equal"), flip_path(31)
    with pytest.raises(NumericError, match="^relative wealth must stay finite$"):
        backtest.relative_wealth(lambda x: fgp.weights(gen, x), W)
    with pytest.raises(NumericError, match="^relative wealth must stay finite$"):
        backtest.master_residual(gen, W)


def test_wealth_whose_steps_would_overflow_alone_keeps_its_bits():
    # all on asset 0, whose weight swaps between 1e-13 and 1: the steps earn 1e13 and 1e-13 in
    # turn, so the largest step to the power T passes the float64 maximum while V stays finite
    W = flip_path(31)
    v = backtest.relative_wealth(asset_0_fn, W).v
    assert v.tobytes() == np.cumprod(np.concatenate([[1.0], W[1:, 0] / W[:-1, 0]])).tobytes()
    assert v.max() < 1e14


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
    """The decomposition as the public maps give it, each over all T+1 rows: the weights and the
    curvature along each step at rows 0..T-1, and G, read over the floor from the ICNN's own
    forward pass."""
    pi = fgp.neural_weights(gen.theta, W).pi[:-1]
    log_v = float(np.log(backtest.relative_wealth(lambda x: fgp.PortfolioWeights(pi), W).terminal))
    G = np.maximum(-icnn.forward(gen.theta, W), fgp.G_FLOOR)
    log_g_ratio = float(np.log(G[-1] / G[0]))
    x_dlog = W[:-1] * np.diff(np.log(W), axis=0)
    q = icnn.input_curvature(gen.theta, fgp.neural_map(gen.theta, W).work, x_dlog)
    drift = float((0.5 / G[:-1]) @ q)
    return backtest.MasterDecomposition(log_v, log_g_ratio, drift, log_v - log_g_ratio - drift)


@pytest.mark.parametrize("widths", [(8,), (16, 8, 4), (64, 64)])
@pytest.mark.parametrize("n", [3, 5])
def test_neural_master_residual_matches_the_public_maps_bit_for_bit(widths, n):
    # master_residual takes the weights, G and the curvature from one neural_map of all T+1 rows:
    # a map of rows 0..T-1 for the weights would change bits, since the gemm result depends on the
    # row count
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


def test_neural_drift_matches_the_hessian_oracle():
    # the drift from one forward-mode pass against -1/(2G) d^T H d over the whole Hessian of G,
    # on slices where no net binds and on one where the G floor binds on some rows (the drift then
    # divides by G_FLOOR there); every term is >= 0, so the sum is compared relative to itself
    floored = icnn.init(3, (8,), seed=0)
    W = weights_from_gbm(n_assets=3, n_days=21, seed=0).weights
    floored.c[...] += np.median(-icnn.forward(floored, W))  # as in the log G ratio test below
    cases = [(icnn.init(3, widths, seed=1), weights_from_gbm(n_assets=3, n_days=21, seed=1).weights)
             for widths in ((8,), (16, 8, 4), (64, 64))] + [(floored, W)]
    for theta, W in cases:
        nm = fgp.neural_map(theta, W)
        binds = not no_net_binds(theta, W)
        assert binds == (theta is floored) == (nm.G < fgp.G_FLOOR).any()
        x_dlog = W[:-1] * np.diff(np.log(W), axis=0)
        G = nm.G_col.reshape(-1)[:-1]
        want = np.einsum("s,sij,si,sj->", -0.5 / G, neural_hessian(theta, nm)[:-1], x_dlog, x_dlog)
        got = backtest.master_residual(fgp.Generator("neural", theta=theta), W).drift_integral
        assert abs(got - want) <= 1e-12 * abs(want), theta.widths


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
    got = fgp.path_map(fgp.Generator("neural", theta=theta), W)[1]
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
@pytest.mark.parametrize("n", [2, 5, 9])  # 9 runs past numpy's 8-wide unrolled row reductions
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
    # a bare exponent, also as a 0-d array, and a string, whose characters are no exponents, are
    # not a sequence of them
    for bare in (p_vals[0], np.array(p_vals[0]), "0.5"):
        with pytest.raises(ConfigError) as info:
            backtest.WalkForwardConfig(p_vals=bare)
        assert str(info.value) == f"p_vals must be a sequence of diversity exponents, got {bare!r}"


def test_walk_forward_config_stores_its_widths_and_exponents_as_tuples():
    # a frozen config is a value: hashable, and equal to the config of the same settings
    cfg = backtest.WalkForwardConfig(widths=np.array([4, 2]), p_vals=[0.3, 0.5])
    assert (cfg.widths, cfg.p_vals) == ((4, 2), (0.3, 0.5)) and type(cfg.widths[0]) is int
    assert cfg == backtest.WalkForwardConfig(widths=(4, 2), p_vals=(0.3, 0.5))
    assert hash(backtest.WalkForwardConfig(widths=[4])) == hash(backtest.WalkForwardConfig(widths=(4,)))


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


def test_walk_forward_hands_windows_views_of_the_path(monkeypatch):
    # no window copies its slices; a read-only path shows that no window writes to them either
    path = weights_from_gbm(n_assets=3, n_days=70, seed=8)
    path.weights.flags.writeable = False
    calls = []
    run_window = backtest._run_window

    def wrapper(args):
        calls.append(args)
        return run_window(args)

    monkeypatch.setattr(backtest, "_run_window", wrapper)
    report = backtest.walk_forward(path, fast_walk_config())
    assert len(calls) == report.n_windows
    for (train_slice, test_slice, *_), (start, test_start, test_end) in zip(calls, report.boundaries):
        assert np.shares_memory(train_slice, path.weights) and np.shares_memory(test_slice, path.weights)
        assert np.array_equal(train_slice, path.weights[start : test_start + 1])
        assert np.array_equal(test_slice, path.weights[test_start : test_end + 1])


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
        # a row that no backtest writes: an average that is not finite, or fewer than 1 window
        (b"E,0.2,3\nFGP,nan,39\n", r"summary.csv: summary row 2 \(FGP\): average nan and K 39 must be finite and >= 1$"),
        (b"EWP,-inf,3\n", r"summary row 1 \(EWP\): average -inf and K 3 must be finite and >= 1$"),
        (b"EWP,0.1,0\n", r"summary row 1 \(EWP\): average 0.1 and K 0 must be finite and >= 1$"),
    ],
    ids=["non-utf8-row", "non-numeric-cell", "short-row", "nan-average", "infinite-average", "zero-k"],
)
def test_read_summary_csv_names_read_and_parse_errors_apart(tmp_path, body, message):
    summary = tmp_path / "summary.csv"
    summary.write_bytes(b"strategy,avg_log_relative_return,K\n" + body)
    with pytest.raises(DataError, match=message):
        backtest.read_summary_csv(summary)


def test_read_summary_csv_accepts_a_single_window(tmp_path):
    summary = tmp_path / "summary.csv"
    summary.write_bytes(b"strategy,avg_log_relative_return,K\nFGP,-0.25,1\n")
    assert backtest.read_summary_csv(summary) == [("FGP", -0.25, 1)]


def test_svg_output(tmp_path):
    path = weights_from_gbm(n_assets=2, n_days=60, seed=12)
    report = backtest.walk_forward(path, fast_walk_config())
    out = tmp_path / "chart.svg"
    backtest.write_svg(out, report)
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == len(report.labels)
    # the extreme values sit 1/22 of the plot height inside the axes, whatever their spread
    ys = [float(pt.split(",")[1]) for pts in re.findall(r'points="([^"]*)"', text) for pt in pts.split()]
    assert max(ys) - min(ys) == pytest.approx((backtest.SVG_HEIGHT - 2 * 60) / 1.1, abs=0.02)
    assert backtest.write_svg(out, report) is None
    assert out.read_text() == text  # deterministic bytes
