import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from neuralfgp import autodiff as ad
from neuralfgp import fgp, icnn, training
from neuralfgp.errors import ConfigError, DataError, NumericError
from test_icnn import with_arrays, zero_params


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
    # a window is a path, held to fgp.check_path: one row is data too short, as in every command
    theta = zero_params(n=2, widths=(3,), c=-5.0)
    with pytest.raises(DataError, match="^a path needs at least 2 rows, got 1$"):
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


# --- straight-line gradients against the tape -----------------------------


def tape_loss_gradients(theta, window, cfg):
    """The reference: one reverse pass of the autodiff tape over build_loss."""
    nodes = {name: ad.param(arr) for name, arr in theta.arrays()}
    total, parts = training.build_loss(nodes, window, cfg, theta.widths)
    ad.backward(total)
    return parts, icnn.from_arrays({name: node.grad for name, node in nodes.items()}, theta.widths)


def random_case(rng, case):
    """A small network and window; G at the first row is set to a level that
    leaves every safety net slack (4, 1) or pushes G to the hinge (0.06) or the
    G floor (-0.3)."""
    n = int(rng.integers(2, 6))
    widths = tuple(int(rng.choice([1, 4, 16])) for _ in range(1 + case % 3))
    T = int(rng.choice([1, 3, 12]))
    theta = icnn.init(n, widths, seed=case)
    scale = rng.choice([1.0, 3.0])
    arrays = {
        name: arr * scale + (rng.normal(size=arr.shape) if name[0] in "bU" else 0.0)
        for name, arr in theta.arrays()
    }
    window = random_window(rng, n, T + 1)
    probe = icnn.from_arrays(arrays, widths)
    arrays["c"] = probe.c - icnn.forward(probe, window[0]) - rng.choice([4.0, 4.0, 1.0, 0.06, -0.3])
    theta = icnn.project_constraints(icnn.from_arrays(arrays, widths))
    return theta, window, training.TrainConfig(lambda_l2=float(rng.choice([0.0, 0.3])))


def binding_nets(theta, window):
    """Which safety nets bind on some row of the window."""
    X = window[:-1]
    nm = fgp.neural_map(theta, X)
    g, G = nm.grad_log_g, nm.G
    return {
        "clip": bool(np.any(np.abs(g) > fgp.GRAD_CLIP)),
        "weight floor": bool(np.any(nm.pi_raw <= fgp.PORTFOLIO_WEIGHT_FLOOR)),
        "hinge": bool(np.any(G < training.POS_MARGIN)),
        "G floor": bool(np.any(G <= fgp.G_FLOOR)),
    }


def test_loss_gradients_bit_identical_to_tape():
    rng = np.random.default_rng(12)
    bound = {"clip": 0, "weight floor": 0, "hinge": 0, "G floor": 0}
    slack = 0
    for case in range(72):
        theta, window, cfg = random_case(rng, case)
        ref_parts, ref_grads = tape_loss_gradients(theta, window, cfg)
        parts, grads = training.loss_gradients(theta, window, cfg)
        assert parts == ref_parts, case
        for (name, got), (_, ref) in zip(grads.arrays(), ref_grads.arrays()):
            assert np.array_equal(got, ref), (case, name)
        nets = binding_nets(theta, window)
        for net, binds in nets.items():
            bound[net] += binds
        slack += not any(nets.values())
    assert all(0 < count < 72 for count in bound.values()), bound
    assert slack > 0


def test_each_safety_net_passes_no_gradient_where_it_binds():
    # on fgp.neural_map_adjoint, with no hinge adjoint on G: the adjoint on f is zero on rows
    # where the G floor binds, and the adjoint on grad f is zero at entries where the clip binds.
    # Moving weight between two floored entries of a row (both weigh floor / row sum) changes
    # nothing, so that adjoint on pi gives zero adjoints everywhere.
    rng, draws = np.random.default_rng(12), np.random.default_rng(13)
    cases = [random_case(rng, case)[:2] for case in range(72)]
    # G below its floor at a gradient too small to clip, which would zero that row's adjoint anyway
    cases.append((zero_params(3, (4,), c=1.0, u=np.array([1e-9, -2e-9, 1e-9])), random_window(rng, 3, 6)))
    bound = {"G floor": 0, "clip": 0, "weight floor": 0}
    for case, (theta, window) in enumerate(cases):
        X = window[:-1]
        nm = fgp.neural_map(theta, X)
        no_hinge = np.zeros(len(X))
        d_f, d_grad = fgp.neural_map_adjoint(nm, X, draws.normal(size=X.shape), no_hinge)
        G_floored, clipped = nm.G <= fgp.G_FLOOR, np.abs(nm.grad_log_g) >= fgp.GRAD_CLIP
        assert not d_f[G_floored].any() and not d_grad[clipped].any(), case
        floored = nm.pi_raw <= fgp.PORTFOLIO_WEIGHT_FLOOR
        for row in np.flatnonzero(floored.sum(axis=1) >= 2):
            d_pi = np.zeros_like(X)
            d_pi[row, np.flatnonzero(floored[row])[:2]] = 1.0, -1.0
            d_f, d_grad = fgp.neural_map_adjoint(nm, X, d_pi, no_hinge)
            assert not d_f.any() and not d_grad.any(), (case, row)
        for net, binds in zip(bound, (G_floored.any(), clipped.any(), (floored.sum(axis=1) >= 2).any())):
            bound[net] += binds
    assert all(count > 0 for count in bound.values()), bound


def test_loss_gradients_non_finite_loss_is_numeric_error():
    # a valid window and G = -1e200: pi is the market, and the hinge's square overflows to inf
    theta = zero_params(n=2, widths=(2,), c=1e200)
    window = np.array([[0.5, 0.5], [0.4, 0.6]])
    with pytest.raises(NumericError, match="loss is not finite"):
        training.loss_gradients(theta, window, training.TrainConfig())


def test_loss_gradients_non_finite_gradient_is_numeric_error():
    # a dead first unit with a huge output weight: the loss stays finite, but the
    # adjoint of its activation overflows and meets a zero sigmoid slope
    theta = icnn.init(3, (2,), seed=0)
    W0 = theta.W[0].copy()
    W0[0, 0] = -1e300
    theta = with_arrays(theta, W0=W0, w=np.array([1e300, theta.w[1]]))
    window = np.random.default_rng(0).dirichlet(np.ones(3), 5)
    cfg = training.TrainConfig()
    assert np.isfinite(training.loss(theta, window, cfg).total)
    with pytest.raises(NumericError, match="gradient"):
        training.loss_gradients(theta, window, cfg)


def test_overflowing_adam_step_is_numeric_error():
    theta = icnn.init(2, (3,), seed=1)
    state = training.AdamState.for_params(theta)
    grads = icnn.ICNNParams(np.ones_like(theta.flat), theta.n, theta.widths)
    cfg = training.TrainConfig(learning_rate=1.7e308)
    theta, state = training.adam_step(theta, grads, state, cfg)
    with pytest.raises(NumericError, match="step"):
        training.adam_step(theta, grads, state, cfg)


def tape_train_window(theta0, window, cfg):
    """The training loop of train_window, driven by the tape's gradients, with a fresh iterate per step."""
    theta, state = theta0, training.AdamState.for_params(theta0)
    best_theta, best_loss, ref_rows = theta0, np.inf, []
    for epoch in range(cfg.epochs):
        parts, grads = tape_loss_gradients(theta, window, cfg)
        ref_rows.append((epoch, parts.total, parts.log_v_term, parts.penalty_term, parts.hinge_term))
        if parts.total < best_loss:
            best_loss, best_theta = parts.total, theta
        theta, state = training.adam_step(theta, grads, state, cfg)
    if training.loss(theta, window, cfg).total < best_loss:
        best_theta = theta
    return best_theta, ref_rows


def test_train_window_matches_tape_loop():
    rng = np.random.default_rng(13)
    window = rng.dirichlet(np.full(5, 20.0), 201)
    theta0 = icnn.init(5, (64, 64), seed=3)
    cfg = training.TrainConfig(epochs=20)
    best_theta, ref_rows = tape_train_window(theta0, window, cfg)
    got_theta, rows = training.train_window(theta0, window, cfg)
    assert rows == ref_rows
    for (name, a), (_, b) in zip(got_theta.arrays(), best_theta.arrays()):
        assert a.tobytes() == b.tobytes(), name


def test_train_window_returns_an_inner_best_epoch_bit_for_bit():
    # the best epoch lies strictly between the first and the last, so later epochs overwrite the
    # iterate after it: the returned theta must be a copy that no later epoch wrote
    window = np.random.default_rng(3).dirichlet(np.full(4, 20.0), 31)
    theta0 = icnn.init(4, (8, 8), seed=3)
    cfg = training.TrainConfig(epochs=30, learning_rate=0.05)
    best_theta, ref_rows = tape_train_window(theta0, window, cfg)
    got_theta, rows = training.train_window(theta0, window, cfg)
    losses = [row[1] for row in rows]
    assert 0 < losses.index(min(losses)) < cfg.epochs - 1
    assert rows == ref_rows
    assert got_theta.flat.tobytes() == best_theta.flat.tobytes()


@pytest.mark.parametrize("epochs", [1, 2, 5])
def test_train_window_leaves_theta0_unwritten(epochs):
    window = random_window(np.random.default_rng(17), 3, 9)
    theta0 = icnn.init(3, (4, 4), seed=4)
    before = theta0.flat.copy()
    theta, _ = training.train_window(theta0, window, training.TrainConfig(epochs=epochs, learning_rate=0.05))
    assert theta0.flat.tobytes() == before.tobytes()
    assert not np.shares_memory(theta.flat, theta0.flat)


# --- Adam -------------------------------------------------------------------


def zero_grads(theta, **changes):
    return with_arrays(icnn.ICNNParams(np.zeros_like(theta.flat), theta.n, theta.widths), **changes)


def test_adam_zero_gradient_leaves_params():
    theta = icnn.init(2, (3,), seed=1)
    state = training.AdamState.for_params(theta)
    new_theta, state = training.adam_step(theta, zero_grads(theta), state, training.TrainConfig())
    assert state.step == 1
    assert new_theta.flat.tobytes() == theta.flat.tobytes()


def test_adam_first_step_magnitude():
    # unit gradient on the scalar offset: bias-corrected update is lr exactly
    theta = zero_params(n=2, widths=(2,), c=-5.0)
    state = training.AdamState.for_params(theta)
    cfg = training.TrainConfig(learning_rate=0.1)
    new_theta, _ = training.adam_step(theta, zero_grads(theta, c=1.0), state, cfg)
    assert new_theta.c == pytest.approx(-5.0 - 0.1, rel=1e-7)


def test_adam_projection_clamps_constrained_entries():
    theta = icnn.project_constraints(icnn.init(2, (2, 2), seed=3))
    state = training.AdamState.for_params(theta)
    # pushes W1 and w negative
    grads = zero_grads(theta, W1=np.full_like(theta.W[1], 100.0), w=np.full_like(theta.w, 100.0))
    cfg = training.TrainConfig(learning_rate=1.0)
    new_theta, _ = training.adam_step(theta, grads, state, cfg)
    assert new_theta.W[1].min() >= 0
    assert new_theta.w.min() >= 0


def adam_step_per_array(theta, grads, state, cfg):
    """Adam and the projection one named array at a time: the oracle for the flat update."""
    state.step += 1
    t = state.step
    lr, b1, b2 = cfg.learning_rate, training.ADAM_BETA1, training.ADAM_BETA2
    updated = {}
    for name, arr in theta.arrays():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1**t)
        v_hat = state.v[name] / (1.0 - b2**t)
        updated[name] = arr - lr * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)
        if name == "w" or (name[0] == "W" and name != "W0"):
            updated[name] = np.maximum(updated[name], 0.0)
    return icnn.from_arrays(updated, theta.widths)


def test_flat_adam_matches_per_array_loop_bit_for_bit():
    rng = np.random.default_rng(14)
    theta = ref_theta = icnn.init(4, (6, 5), seed=7)
    constrained = icnn.layout(theta.n, theta.widths).lower == 0.0
    cfg = training.TrainConfig(learning_rate=0.05)
    state = training.AdamState.for_params(theta)
    m, v = state.m, state.v
    zeros = {name: np.zeros_like(arr) for name, arr in theta.arrays()}
    ref_state = SimpleNamespace(m=dict(zeros), v=dict(zeros), step=0)
    clamped = 0
    for _ in range(20):
        grads = icnn.ICNNParams(rng.normal(size=theta.flat.size), theta.n, theta.widths)
        old_theta, old_flat = theta, theta.flat.copy()
        theta, state = training.adam_step(theta, grads, state, cfg)
        ref_theta = adam_step_per_array(ref_theta, grads, ref_state, cfg)
        assert theta.flat.tobytes() == ref_theta.flat.tobytes()
        assert old_theta.flat.tobytes() == old_flat.tobytes()  # the iterate handed in is not written
        assert state.m is m and state.v is v  # the moments are updated in place
        clamped += np.count_nonzero(theta.flat[constrained] == 0.0)
    assert state.m.tobytes() == np.concatenate(list(ref_state.m.values()), axis=None).tobytes()
    assert state.v.tobytes() == np.concatenate(list(ref_state.v.values()), axis=None).tobytes()
    assert clamped > 0  # the projection bound on some step


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


def test_warm_loss_gradients_allocates_no_width_sized_arrays():
    # at T=200 each (T, 64) array is 100 KB; a call that allocated its own peaked at 1.9 MB
    window = random_window(np.random.default_rng(15), 5, 201)
    theta = icnn.init(5, (64, 64), seed=0)
    cfg = training.TrainConfig()
    work = icnn.Work(200, theta.widths)
    training.loss_gradients(theta, window, cfg, work)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        training.loss_gradients(theta, window, cfg, work)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_train_window_frees_the_epochs_buffers_before_the_final_loss():
    # at T=200, widths 64,64, the epochs' Work set, gradient and Adam buffers (about 1.3 MB) are
    # freed before the tape builds the final iterate's loss, so the traced peak is the larger of
    # the two footprints (1.83 MB), not their sum (3.15 MB)
    window = random_window(np.random.default_rng(15), 5, 201)
    theta0 = icnn.init(5, (64, 64), seed=0)
    cfg = training.TrainConfig(epochs=2)
    training.train_window(theta0, window, cfg)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        training.train_window(theta0, window, cfg)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_work_arrays_carry_nothing_between_calls():
    rng = np.random.default_rng(16)
    cfg = training.TrainConfig(epochs=5)
    cases = {
        "a": (icnn.init(4, (8, 6), seed=1), random_window(rng, 4, 31)),
        "b": (icnn.init(4, (5,), seed=2), random_window(rng, 4, 12)),
    }
    runs = [{name: training.train_window(*cases[name], cfg) for name in order} for order in ("ab", "ba", "a", "b")]
    for name in "ab":
        ref_theta, ref_rows = runs[0][name]
        for run in runs[1:]:
            if name in run:
                assert run[name][1] == ref_rows
                assert run[name][0].flat.tobytes() == ref_theta.flat.tobytes()

    theta, X = runs[0]["a"][0], cases["a"][1]
    pi, H = fgp.neural_weights(theta, X).pi, fgp.neural_hessian(theta, fgp.neural_map(theta, X))
    kept = pi.tobytes(), H.tobytes()
    fgp.neural_weights(theta, X[::-1])
    fgp.neural_hessian(theta, fgp.neural_map(theta, X[:3]))
    training.train_window(theta, X, cfg)
    assert (pi.tobytes(), H.tobytes()) == kept


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


def test_out_buffers_take_every_entry_of_the_fresh_result():
    # NaN-filled buffers: an entry that the out= path leaves unwritten would show
    window = random_window(np.random.default_rng(18), 3, 13)
    theta = icnn.init(3, (5, 4), seed=6)
    cfg = training.TrainConfig(learning_rate=0.05)

    def nan_params():
        return icnn.ICNNParams(np.full_like(theta.flat, np.nan), theta.n, theta.widths)

    parts, grads = training.loss_gradients(theta, window, cfg)
    buf = nan_params()
    parts_out, grads_out = training.loss_gradients(theta, window, cfg, out=buf)
    assert parts_out == parts and grads_out is buf
    assert buf.flat.tobytes() == grads.flat.tobytes()
    new, _ = training.adam_step(theta, grads, training.AdamState.for_params(theta), cfg)
    buf = nan_params()
    assert training.adam_step(theta, grads, training.AdamState.for_params(theta), cfg, out=buf)[0] is buf
    assert buf.flat.tobytes() == new.flat.tobytes()
