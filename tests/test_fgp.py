import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfgp import autodiff as ad
from neuralfgp import backtest, fgp, icnn, training
from neuralfgp.errors import ConfigError, NumericError
from test_icnn import with_arrays, zero_params


def random_simplex(rng, n, size=None):
    return rng.dirichlet(np.ones(n), size)


# --- raw weight map ---------------------------------------------------------


def test_raw_map_zero_gradient_gives_market():
    x = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(fgp.raw_fgp_weights(np.zeros(3), x), x, atol=1e-15)


def test_raw_map_geometric_mean_gradient_gives_equal_weights():
    rng = np.random.default_rng(1)
    for n in (2, 5, 10):
        x = random_simplex(rng, n)
        g = 1.0 / (n * x)
        np.testing.assert_allclose(fgp.raw_fgp_weights(g, x), np.full(n, 1.0 / n), atol=1e-12)


def test_raw_map_hand_example_with_negative_weight():
    pi = fgp.raw_fgp_weights(np.array([2.0, -2.0]), np.array([0.5, 0.5]))
    np.testing.assert_allclose(pi, [1.5, -0.5], atol=1e-14)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_raw_map_always_sums_to_one():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = rng.integers(2, 12)
        x = random_simplex(rng, n)
        g = rng.normal(scale=10.0, size=n)
        assert abs(fgp.raw_fgp_weights(g, x).sum() - 1.0) < 1e-10


def test_neural_map_runs_the_generic_map_bit_for_bit():
    # rows near the simplex's vertices and faces, at scaled networks, so that both the
    # gradient clip and the weight floor bind on some entries and not on others
    rng = np.random.default_rng(21)
    n = 4
    clipped = floored = 0
    for seed, scale in enumerate((1.0, 1.5, 2.0, 3.0, 1.2)):
        X = np.maximum(rng.dirichlet(np.full(n, 0.05), size=1000), 1e-9)
        X /= X.sum(axis=1, keepdims=True)
        theta = icnn.init(n, (8, 8), seed=seed)
        theta = icnn.project_constraints(icnn.ICNNParams(theta.flat * scale, n, theta.widths))
        nm = fgp.neural_map(theta, X)
        g = np.clip(nm.grad_log_g, -fgp.GRAD_CLIP, fgp.GRAD_CLIP)
        assert np.array_equal(nm.pi_raw, fgp.raw_fgp_weights(g, X)), seed
        clipped += np.count_nonzero(g != nm.grad_log_g)
        floored += np.count_nonzero(nm.pi_raw < fgp.PORTFOLIO_WEIGHT_FLOOR)
    assert 0 < clipped < 5 * X.size and 0 < floored < 5 * X.size, (clipped, floored)


# --- weight floor -----------------------------------------------------------


def test_neural_map_floor_binds_near_vertex():
    # at x_i ~ 1e-12 the raw weight is at most (2 * GRAD_CLIP + 1) * x_i, far
    # below the floor; the floored entry over a row total of at most
    # 2 * GRAD_CLIP + 1 + n * floor bounds the renormalised weight from below
    n = 3
    X = np.array([[1e-12, 1e-12, 1.0 - 2e-12], [1e-12, 0.5, 0.5 - 1e-12], [0.3, 1e-12, 0.7 - 1e-12]])
    near_vertex = X < 1e-11
    floor = fgp.PORTFOLIO_WEIGHT_FLOOR
    for seed in range(4):
        theta = icnn.init(n, (8, 8), seed=seed)
        pi = fgp.neural_map(theta, X).pi
        assert pi.min() >= 0
        np.testing.assert_allclose(pi.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert pi[near_vertex].min() >= floor / (2 * fgp.GRAD_CLIP + 1 + n * floor)


# --- classical generators ---------------------------------------------------


def test_diversity_example():
    gen = fgp.Generator("diversity", p=0.5)
    pi = fgp.classical_weights(gen, np.array([0.5, 0.3, 0.2])).pi
    np.testing.assert_allclose(pi, [0.41545, 0.32180, 0.26275], atol=1e-5)


def test_entropy_uniform_point_gives_uniform_weights():
    for n in (2, 5, 9):
        pi = fgp.classical_weights(fgp.Generator("entropy"), np.full(n, 1.0 / n)).pi
        np.testing.assert_allclose(pi, np.full(n, 1.0 / n), atol=1e-14)


def test_constant_generator_is_market():
    x = np.array([0.2, 0.8])
    np.testing.assert_allclose(fgp.classical_weights(fgp.Generator("constant"), x).pi, x, atol=1e-15)


def test_diversity_exponent_validation():
    with pytest.raises(ConfigError):
        fgp.Generator("diversity", p=1.0)
    with pytest.raises(ConfigError):
        fgp.Generator("diversity", p=0.0)
    with pytest.raises(ConfigError):
        fgp.Generator("diversity")


def test_diversity_concentration_grows_with_p():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = random_simplex(rng, 6)
        maxima = [
            fgp.classical_weights(fgp.Generator("diversity", p=p), x).pi.max()
            for p in (0.2, 0.5, 0.9)
        ]
        assert maxima[0] <= maxima[1] + 1e-14
        assert maxima[1] <= maxima[2] + 1e-14


def test_generic_map_reproduces_closed_forms():
    rng = np.random.default_rng(42)
    gens = [
        fgp.Generator("constant"),
        fgp.Generator("equal"),
        fgp.Generator("entropy"),
        fgp.Generator("diversity", p=0.3),
        fgp.Generator("diversity", p=0.5),
        fgp.Generator("diversity", p=0.8),
    ]
    for n in (2, 5, 10):
        X = random_simplex(rng, n, 1000)
        for gen in gens:
            for x in X[:: max(1, n)]:
                g = fgp.analytic_grad_log_g(gen, x)
                via_map = fgp.raw_fgp_weights(g, x)
                closed = fgp.classical_weights(gen, x).pi
                assert np.abs(via_map - closed).max() < 1e-10


# --- neural map -------------------------------------------------------------


def test_neural_constant_network_tracks_market():
    theta = zero_params(n=3, widths=(4,), c=-5.0)
    x = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(fgp.neural_weights(theta, x).pi, x, atol=1e-12)


def test_neural_weights_contract():
    rng = np.random.default_rng(14)
    theta = icnn.init(4, (8, 8), seed=6)
    for _ in range(50):
        x = random_simplex(rng, 4)
        pi = fgp.neural_weights(theta, x).pi
        assert abs(pi.sum() - 1.0) < 1e-10
        assert pi.min() >= fgp.PORTFOLIO_WEIGHT_FLOOR / (1.0 + 4 * fgp.PORTFOLIO_WEIGHT_FLOOR)


def test_neural_weights_match_independent_reimplementation():
    rng = np.random.default_rng(30)
    theta = icnn.project_constraints(icnn.init(2, (3,), seed=17))
    for _ in range(25):
        x = random_simplex(rng, 2)
        got = fgp.neural_weights(theta, x).pi

        # independent straight-line pipeline, no autodiff machinery
        sp = lambda t: np.logaddexp(0.0, t)
        sg = lambda t: 1.0 / (1.0 + np.exp(-t))
        p1 = theta.W[0] @ x + theta.b[0]
        f = theta.w @ sp(p1) + theta.u @ x + theta.c
        grad_f = theta.W[0].T @ (theta.w * sg(p1)) + theta.u
        G = max(-f, fgp.G_FLOOR)
        g = np.clip(-grad_f / G, -fgp.GRAD_CLIP, fgp.GRAD_CLIP)
        pi_raw = (g + 1.0 - x @ g) * x
        pi_ref = np.maximum(pi_raw, fgp.PORTFOLIO_WEIGHT_FLOOR)
        pi_ref = pi_ref / pi_ref.sum()

        assert np.abs(got - pi_ref).max() < 1e-10


def test_neural_hessian_matches_one_layer_closed_form():
    # f = w . softplus(p) + u . x + c with p = W0 x + b0, so the Hessian of
    # G = -f is -W0^T diag(w * s(p) (1 - s(p))) W0, s the logistic sigmoid
    rng = np.random.default_rng(31)
    theta = icnn.init(4, (6,), seed=12)
    theta = with_arrays(theta, b0=rng.normal(size=6))
    gen = fgp.Generator("neural", theta=theta)
    for x in random_simplex(rng, 4, 5):
        s = 1.0 / (1.0 + np.exp(-(theta.W[0] @ x + theta.b[0])))
        ref = -theta.W[0].T @ np.diag(theta.w * s * (1.0 - s)) @ theta.W[0]
        H = fgp.generator_hessian(gen, x)
        assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()


def jacobian_recursion_hessian(theta, x):
    """Hessian of G = -f by an independent numpy recursion over the layer Jacobians.

    J_0 = W_0 and J_k = W_k diag(s_{k-1}) J_{k-1} + U_k are the Jacobians of the
    pre-activations p_k; delta_K = w and delta_{k-1} = W_k^T (s_k * delta_k) are the
    adjoints of the activations; H_f = sum_k J_k^T diag(delta_k s_k (1 - s_k)) J_k,
    with s_k the logistic sigmoid of p_k.
    """
    sg = lambda t: 1.0 / (1.0 + np.exp(-t))
    p = theta.W[0] @ x + theta.b[0]
    P, J = [p], [theta.W[0]]
    for k in range(1, len(theta.widths)):
        J.append(theta.W[k] @ (sg(p)[:, None] * J[-1]) + theta.U[k - 1])
        p = theta.W[k] @ np.logaddexp(0.0, p) + theta.U[k - 1] @ x + theta.b[k]
        P.append(p)
    H_f = np.zeros((x.size, x.size))
    delta = theta.w
    for k in range(len(theta.widths) - 1, -1, -1):
        s = sg(P[k])
        H_f += J[k].T @ ((delta * s * (1.0 - s))[:, None] * J[k])
        if k:
            delta = theta.W[k].T @ (s * delta)
    return -H_f


@pytest.mark.parametrize("widths", [(6,), (6, 5), (7, 5, 4)], ids=["depth1", "depth2", "depth3"])
def test_neural_hessian_matches_jacobian_recursion(widths):
    rng = np.random.default_rng(32)
    theta = icnn.init(4, widths, seed=13)
    theta = with_arrays(theta, **{f"b{k}": rng.normal(size=m) for k, m in enumerate(widths)})
    gen = fgp.Generator("neural", theta=theta)
    X = random_simplex(rng, 4, 6)
    ref = np.array([jacobian_recursion_hessian(theta, x) for x in X])
    assert np.abs(fgp.generator_hessian(gen, X) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("widths", [(6,), (6, 5), (7, 5, 4)], ids=["depth1", "depth2", "depth3"])
def test_neural_hessian_matches_finite_differences_of_grad_f(widths):
    # row i of the Hessian of f is d(grad f)/dx_i; grad f is the numpy input-gradient recursion
    rng = np.random.default_rng(33)
    theta = icnn.init(4, widths, seed=14)
    theta = with_arrays(theta, **{f"b{k}": rng.normal(size=m) for k, m in enumerate(widths)})
    gen = fgp.Generator("neural", theta=theta)

    def grad_f(X):
        work = icnn.Work(len(X), theta.widths)
        _, _, S = icnn.forward_layers(theta, X, work)
        return icnn.input_gradient(theta, S, work)[2]

    h = 1e-5
    for x in random_simplex(rng, 4, 5):
        fd = (grad_f(x + h * np.eye(4)) - grad_f(x - h * np.eye(4))) / (2 * h)
        assert np.abs(fgp.generator_hessian(gen, x) + fd).max() <= 1e-7 * (1.0 + np.abs(fd).max())


def test_importing_fgp_loads_no_tape():
    code = "import sys, neuralfgp.fgp; assert 'neuralfgp.autodiff' not in sys.modules, sorted(sys.modules)"
    src = str(Path(fgp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_numpy_paths_build_no_autodiff_node(monkeypatch):
    # only training.loss(), which builds the tape leaves and build_loss's graph, may build tape nodes
    def refuse(self, *args, **kwargs):
        raise AssertionError("an autodiff Node was built")

    monkeypatch.setattr(ad.Node, "__init__", refuse)
    with pytest.raises(AssertionError, match="Node was built"):
        ad.constant(1.0)
    theta = icnn.init(4, (8, 8), seed=1)
    gen = fgp.Generator("neural", theta=theta)
    X = random_simplex(np.random.default_rng(34), 4, 6)
    for x in (X[0], X):
        icnn.forward(theta, x)
        fgp.neural_weights(theta, x)
        fgp.generator_value(gen, x)
        fgp.generator_hessian(gen, x)
    backtest.master_residual(gen, X)
    training.loss_gradients(theta, X, training.TrainConfig())


def test_weights_dispatch():
    x = np.array([0.4, 0.6])
    assert np.allclose(fgp.weights(fgp.Generator("equal"), x).pi, [0.5, 0.5])
    theta = zero_params(n=2, widths=(3,), c=-2.0)
    assert np.allclose(fgp.weights(fgp.Generator("neural", theta=theta), x).pi, x)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**16),
    c_shift=st.one_of(st.just(2.0), st.floats(-2.0, 6.0)),
    data=st.data(),
)
def test_neural_weights_property(n, seed, c_shift, data):
    # init puts G = 2 at the uniform point, so c_shift >= 2 drives G at or below G_FLOOR there
    theta = icnn.init(n, (8, 8), seed=seed)
    theta = with_arrays(theta, c=theta.c + c_shift)
    cell = st.one_of(st.just(1e-12), st.floats(1e-12, 1.0))
    rows = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=1, max_size=4))
    X = np.array(rows) / np.sum(rows, axis=1, keepdims=True)
    pi = fgp.weights(fgp.Generator("neural", theta=theta), X).pi
    assert np.isfinite(pi).all() and pi.min() >= 0
    np.testing.assert_allclose(pi.sum(axis=1), 1.0, rtol=0, atol=1e-12)


# --- point-or-batch convention ---------------------------------------------


BATCH_GENERATORS = [
    fgp.Generator("constant"),
    fgp.Generator("equal"),
    fgp.Generator("entropy"),
    fgp.Generator("diversity", p=0.3),
    fgp.Generator("diversity", p=0.5),
    fgp.Generator("diversity", p=0.8),
    fgp.Generator("neural", theta=icnn.init(5, (64, 64), seed=3)),
]


@pytest.mark.parametrize("gen", BATCH_GENERATORS, ids=lambda g: g.label)
def test_batch_matches_stacked_points(gen):
    # each batch row must depend on its own point only: no row mixing, so no look-ahead
    X = random_simplex(np.random.default_rng(7), 5, 20)
    maps = [
        lambda x: fgp.weights(gen, x).pi,
        lambda x: fgp.generator_value(gen, x),
        lambda x: fgp.generator_hessian(gen, x),
    ]
    for f in maps:
        np.testing.assert_allclose(f(X), np.array([f(x) for x in X]), rtol=1e-14, atol=0)


def test_portfolio_weights_checks_every_row():
    pi = np.full((4, 5), 0.2)
    fgp.PortfolioWeights(pi)
    pi[2, 0] += 1e-9
    with pytest.raises(NumericError, match="sum to"):
        fgp.PortfolioWeights(pi)


def test_generator_labels():
    assert fgp.Generator("constant").label == "Market"
    assert fgp.Generator("equal").label == "EWP"
    assert fgp.Generator("diversity", p=0.3).label == "DWP p=0.3"
