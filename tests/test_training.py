import numpy as np
import pytest

from neuralfgp import icnn, training
from neuralfgp.errors import ConfigError
from test_icnn import zero_params


def random_window(rng, n, rows):
    return rng.dirichlet(np.ones(n), rows)


def test_config_validation():
    with pytest.raises(ConfigError):
        training.TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        training.TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        training.TrainConfig(lambda_l2=-1.0)


def test_market_numeraire_loss_is_zero():
    # constant network: pi = x, so log V_T vanishes; lambda = 0 and G = 5
    # keeps both penalties inactive
    rng = np.random.default_rng(0)
    window = random_window(rng, 3, 8)
    theta = zero_params(n=3, widths=(4,), c=-5.0)
    cfg = training.TrainConfig(lambda_l2=0.0)
    parts = training.loss(theta, window, cfg)
    assert abs(parts.total) < 1e-12
    assert abs(parts.log_v_term) < 1e-12


def test_window_too_short_rejected():
    theta = zero_params(n=2, widths=(3,), c=-5.0)
    with pytest.raises(ConfigError):
        training.loss(theta, np.array([[0.5, 0.5]]), training.TrainConfig())


def test_loss_matches_hand_computed_tiny_instance():
    # n=2, T=2, linear-only network: every quantity is computable by hand
    theta = zero_params(n=2, widths=(2,), u=np.array([1.0, -1.0]), c=-10.0)
    window = np.array([[0.5, 0.5], [0.6, 0.4], [0.5, 0.5]])
    cfg = training.TrainConfig(lambda_l2=0.01)
    parts = training.loss(theta, window, cfg)

    # independent arithmetic: G = 10 - u.x, grad log G = -u / G
    def pi_of(x):
        G = 10.0 - (x[0] - x[1])
        g = -np.array([1.0, -1.0]) / G
        raw = (g + 1.0 - x @ g) * x
        raw = np.maximum(raw, 1e-6)
        return raw / raw.sum()

    v = 1.0
    for s in (1, 2):
        v *= pi_of(window[s - 1]) @ (window[s] / window[s - 1])
    expected_log_v = -0.5 * np.log(v)
    expected_pen = 0.01 * np.mean(
        [np.linalg.norm(pi_of(window[0])), np.linalg.norm(pi_of(window[1]))]
    )
    assert parts.log_v_term == pytest.approx(expected_log_v, abs=1e-14)
    assert parts.penalty_term == pytest.approx(expected_pen, abs=1e-14)
    assert parts.hinge_term == 0.0  # G is about 10, far above the margin
    assert parts.total == pytest.approx(expected_log_v + expected_pen, abs=1e-14)


def test_full_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    window = random_window(rng, 2, 4)  # T = 3
    cfg = training.TrainConfig()
    worst = 0.0
    for trial in range(20):
        theta = icnn.project_constraints(icnn.init(2, (2,), seed=trial))
        _, grads = training.loss_gradients(theta, window, cfg)
        h = 1e-6
        for name, arr in theta.arrays():
            flat = np.atleast_1d(np.asarray(arr, dtype=np.float64)).reshape(-1)
            for i in range(flat.size):
                def perturbed(eps):
                    vals = {k: v.copy() for k, v in dict(theta.arrays()).items()}
                    f = np.atleast_1d(vals[name]).reshape(-1)
                    f[i] += eps
                    vals[name] = f.reshape(np.shape(arr)) if np.ndim(arr) else f[0]
                    t2 = icnn.from_arrays(vals, theta.widths)
                    return training.loss(t2, window, cfg).total

                fd = (perturbed(h) - perturbed(-h)) / (2 * h)
                g = np.atleast_1d(grads[name]).reshape(-1)[i]
                worst = max(worst, abs(g - fd) / (1.0 + abs(fd)))
    assert worst < 1e-4


# --- Adam -------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params():
    theta = icnn.init(2, (3,), seed=1)
    state = training.AdamState.for_params(theta)
    grads = {name: np.zeros_like(arr) for name, arr in theta.arrays()}
    new_theta, state = training.adam_step(theta, grads, state, training.TrainConfig())
    assert state.step == 1
    for (_, a), (_, b) in zip(theta.arrays(), new_theta.arrays()):
        assert np.array_equal(a, b)


def test_adam_first_step_magnitude():
    # unit gradient on the scalar offset: bias-corrected update is lr exactly
    theta = zero_params(n=2, widths=(2,), c=-5.0)
    state = training.AdamState.for_params(theta)
    grads = {name: np.zeros_like(arr) for name, arr in theta.arrays()}
    grads["c"] = np.asarray(1.0)
    cfg = training.TrainConfig(learning_rate=0.1)
    new_theta, _ = training.adam_step(theta, grads, state, cfg)
    assert new_theta.c == pytest.approx(-5.0 - 0.1, rel=1e-7)


def test_adam_projection_clamps_constrained_entries():
    theta = icnn.project_constraints(icnn.init(2, (2, 2), seed=3))
    state = training.AdamState.for_params(theta)
    grads = {name: np.zeros_like(arr) for name, arr in theta.arrays()}
    grads["W1"] = np.full_like(theta.W[1], 100.0)  # pushes W1 negative
    grads["w"] = np.full_like(theta.w, 100.0)
    cfg = training.TrainConfig(learning_rate=1.0)
    new_theta, _ = training.adam_step(theta, grads, state, cfg)
    assert new_theta.W[1].min() >= 0
    assert new_theta.w.min() >= 0


# --- train_window -----------------------------------------------------------


def test_single_epoch_takes_one_step():
    rng = np.random.default_rng(6)
    window = random_window(rng, 2, 5)
    theta0 = icnn.init(2, (2,), seed=0)
    _, rows = training.train_window(theta0, window, training.TrainConfig(epochs=1))
    assert len(rows) == 1


def test_best_loss_not_worse_than_initial():
    rng = np.random.default_rng(7)
    window = random_window(rng, 3, 30)
    theta0 = icnn.init(3, (4,), seed=2)
    cfg = training.TrainConfig(epochs=25)
    theta, rows = training.train_window(theta0, window, cfg)
    best = training.loss(theta, window, cfg).total
    assert best <= rows[0][1] + 1e-15


def test_training_is_deterministic():
    rng = np.random.default_rng(8)
    window = random_window(rng, 2, 12)
    cfg = training.TrainConfig(epochs=10)
    theta0 = icnn.init(2, (3,), seed=5)
    a, rows_a = training.train_window(theta0, window, cfg)
    b, rows_b = training.train_window(theta0, window, cfg)
    assert rows_a == rows_b
    for (_, x), (_, y) in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)


def test_constraints_hold_after_every_step():
    rng = np.random.default_rng(9)
    window = random_window(rng, 2, 10)
    theta = icnn.init(2, (3, 3), seed=4)
    cfg = training.TrainConfig(epochs=5, learning_rate=0.05)
    state = training.AdamState.for_params(theta)
    for _ in range(cfg.epochs):
        _, grads = training.loss_gradients(theta, window, cfg)
        theta, state = training.adam_step(theta, grads, state, cfg)
        for W in theta.W[1:]:
            assert W.min() >= 0
        assert theta.w.min() >= 0


def test_trained_portfolio_overweights_trending_asset():
    # asset 0's market weight climbs deterministically; after training the
    # neural portfolio should tilt toward it on the training window
    from neuralfgp import fgp

    t = np.arange(60)
    p0 = np.exp(0.01 * t)
    p1 = np.ones_like(p0)
    weights = np.stack([p0, p1], axis=1)
    weights = weights / weights.sum(axis=1, keepdims=True)

    theta0 = icnn.init(2, (4,), seed=11)
    cfg = training.TrainConfig(epochs=200, lambda_l2=0.0, learning_rate=0.01)
    theta, _ = training.train_window(theta0, weights, cfg)
    tilts = [fgp.neural_weights(theta, x).pi[0] - x[0] for x in weights[:-1]]
    assert np.mean(tilts) > 0


def test_training_log_csv(tmp_path):
    rng = np.random.default_rng(10)
    window = random_window(rng, 2, 6)
    theta0 = icnn.init(2, (2,), seed=1)
    _, rows = training.train_window(theta0, window, training.TrainConfig(epochs=3))
    out = tmp_path / "log.csv"
    training.write_training_log(out, rows)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,log_v_term,penalty_term,hinge_term"
    assert len(lines) == 4
