import base64
import copy
import json
import pickle

import numpy as np
import pytest

from neuralfgp import fgp, icnn
from neuralfgp.errors import ConfigError, DimensionError


def zero_params(n=2, widths=(3,), c=0.0, u=None):
    arrays = {name: np.zeros(shape) for name, (_, shape) in icnn.layout(n, widths).slots.items()}
    arrays.update(u=np.zeros(n) if u is None else u, c=c)
    return icnn.from_arrays(arrays, widths)


def with_arrays(theta, **changes):
    """theta with the named arrays replaced, as a new parameter vector."""
    return icnn.from_arrays({**dict(theta.arrays()), **changes}, theta.widths)


def random_simplex(rng, n, size=None):
    return rng.dirichlet(np.ones(n), size)


# --- Hessian oracles -----------------------------------------------------------


def input_hessian(theta, work):
    """Hessian of f (m, n, n) at each row, from the S and A that icnn.forward_layers and
    icnn.input_gradient left in work: the whole matrix that icnn.input_curvature contracts
    with a direction without forming it."""
    # J_0 = W_0 and J_k = W_k diag(S_{k-1}) J_{k-1} + U_k are the Jacobians of the pre-activations;
    # H_f = sum_k J_k^T diag(c_k) J_k with c_k = D_k S_k (1 - S_k) = A_k (1 - S_k). J_k^T is kept
    # as an (m, n, m_k) stack Jt, so each step's product with W_k^T is one gemm over the m n rows,
    # Jt_k = (Jt_{k-1} diag S_{k-1}) W_k^T + U_k^T. J_0 is the same for every row, so the k = 0
    # term is one gemm of c_0 against the outer products of W_0's rows.
    S, A, widths = work.S, work.A, theta.widths
    m, n = len(S[0]), theta.n
    W0 = theta.W[0]
    H = ((A[0] * (1.0 - S[0])) @ (W0[:, :, None] * W0[:, None, :]).reshape(widths[0], n * n)).reshape(m, n, n)
    Jt = np.ascontiguousarray(W0.T)  # so that Jt * S[0] is C-ordered and its reshape is a view
    for k in range(1, len(widths)):
        Jt = ((Jt * S[k - 1][:, None, :]).reshape(m * n, widths[k - 1]) @ theta.W[k].T).reshape(m, n, widths[k])
        Jt += theta.U[k - 1].T
        H += Jt @ np.swapaxes(Jt * (A[k] * (1.0 - S[k]))[:, None, :], -1, -2)
    return H


def neural_hessian(theta, nm):
    """Hessian of G = -f at each row of a neural map's batch, (m, n, n): input_hessian negated."""
    return -input_hessian(theta, nm.work)


# --- init -------------------------------------------------------------------


def test_init_respects_constraints():
    theta = icnn.init(4, (8, 8, 8), seed=1)
    for W in theta.W[1:]:
        assert W.min() >= 0
    assert theta.w.min() >= 0


def test_init_generating_function_above_one_at_uniform():
    for seed in range(5):
        theta = icnn.init(5, (16, 16), seed=seed)
        assert -icnn.forward(theta, np.full(5, 0.2)) > 1.0


def test_init_deterministic():
    a = icnn.init(3, (4, 4), seed=9)
    b = icnn.init(3, (4, 4), seed=9)
    for (_, x), (_, y) in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)


# --- flat parameter vector --------------------------------------------------


def test_named_arrays_are_views_of_the_flat_vector():
    theta = icnn.init(3, (4, 5), seed=2)
    assert theta.flat.dtype == np.float64 and theta.flat.flags.c_contiguous
    for arr in [*theta.W, *theta.U, *theta.b, theta.w, theta.u] + [arr for _, arr in theta.arrays()]:
        assert np.shares_memory(arr, theta.flat)
    assert sum(arr.size for _, arr in theta.arrays()) == theta.flat.size
    for name, arr in theta.arrays():
        assert theta[name] is arr
    assert theta.c == theta["c"] == theta.flat[-1]


def test_views_read_a_vector_written_after_construction():
    # loss_gradients builds its gradient's ICNNParams on an empty vector and then fills it
    flat = np.zeros(icnn.layout(3, (4,)).lower.size)
    theta = icnn.ICNNParams(flat, 3, (4,))
    flat[:] = np.arange(flat.size)
    assert theta.c == flat[-1] == flat.size - 1
    assert theta.c.shape == () and np.shares_memory(theta.c, flat)
    assert (theta.u == flat[-4:-1]).all()


def test_arrays_order_matches_to_json():
    theta = icnn.init(3, (4, 5), seed=2)
    doc = json.loads(icnn.to_json(theta))["arrays"]
    names = [name for name, _ in theta.arrays()]
    assert sorted(names) == sorted(doc)
    assert [doc[name]["shape"] for name in names] == [list(arr.shape) for _, arr in theta.arrays()]
    packed = b"".join(base64.b64decode(doc[name]["data"]) for name in names)
    assert packed == theta.flat.tobytes()


def test_lower_bounds_are_zero_exactly_on_the_constrained_arrays():
    table = icnn.layout(3, (4, 5, 6))
    for name, (sl, _) in table.slots.items():
        constrained = name == "w" or (name[0] == "W" and name != "W0")
        assert (table.lower[sl] == (0.0 if constrained else -np.inf)).all(), name


def test_from_arrays_rejects_a_wrong_shape():
    theta = icnn.init(3, (4,), seed=0)
    with pytest.raises(DimensionError, match="W0"):
        with_arrays(theta, W0=np.zeros((3, 4)))


def test_copies_keep_their_views_on_their_own_vector():
    theta = icnn.init(3, (4, 5), seed=2)
    for copied in (copy.deepcopy(theta), pickle.loads(pickle.dumps(theta))):
        assert copied.flat.tobytes() == theta.flat.tobytes()
        assert not np.shares_memory(copied.flat, theta.flat)
        assert all(np.shares_memory(arr, copied.flat) for _, arr in copied.arrays())


# --- forward ----------------------------------------------------------------


def test_forward_constant_network():
    theta = zero_params(c=5.0)
    for x in ([0.5, 0.5], [0.9, 0.1]):
        f = icnn.forward(theta, np.array(x))
        assert f == 5.0


def test_forward_linear_part_only():
    theta = zero_params(u=np.array([1.0, 2.0]))
    f = icnn.forward(theta, np.array([0.5, 0.5]))
    assert f == pytest.approx(1.5, abs=1e-15)


def test_forward_matches_straight_line_reimplementation():
    rng = np.random.default_rng(21)
    theta = icnn.init(2, (3, 4), seed=33)
    for _ in range(20):
        x = random_simplex(rng, 2)
        f = icnn.forward(theta, x)
        # independent re-evaluation, spelled out step by step
        sp = lambda t: np.logaddexp(0.0, t)
        z1 = sp(theta.W[0] @ x + theta.b[0])
        z2 = sp(theta.W[1] @ z1 + theta.U[0] @ x + theta.b[1])
        f_ref = theta.w @ z2 + theta.u @ x + theta.c
        assert abs(f - f_ref) < 1e-12


def test_forward_batch_rows_match_single_points():
    rng = np.random.default_rng(22)
    theta = icnn.init(4, (8, 8), seed=5)
    X = random_simplex(rng, 4, 30)
    F = icnn.forward(theta, X)
    assert F.shape == (30,)
    for i, x in enumerate(X):
        assert abs(F[i] - icnn.forward(theta, x)) < 1e-13


def test_forward_dimension_mismatch():
    theta = icnn.init(3, (4,), seed=0)
    with pytest.raises(DimensionError):
        icnn.forward(theta, np.array([0.5, 0.5]))


# --- generating function ----------------------------------------------------


def test_generating_function_sign_flip():
    assert -icnn.forward(zero_params(c=-3.0), np.array([0.4, 0.6])) == 3.0
    g = -icnn.forward(zero_params(c=1.0), np.array([0.4, 0.6]))
    assert g == -1.0
    assert max(g, fgp.G_FLOOR) == fgp.G_FLOOR


def test_midpoint_convexity_random_networks():
    rng = np.random.default_rng(5)
    for seed in range(3):
        theta = icnn.project_constraints(icnn.init(4, (8, 8), seed=seed))
        for _ in range(200):
            x, y = random_simplex(rng, 4, 2)
            fx = icnn.forward(theta, x)
            fy = icnn.forward(theta, y)
            fm = icnn.forward(theta, 0.5 * (x + y))
            assert fm <= 0.5 * fx + 0.5 * fy + 1e-10


# --- input gradient of log G ------------------------------------------------


def grad_log_g_at(theta, x):
    """grad_x log max(G, G_FLOOR) at one point, through the neural weight map on a one-row X."""
    return fgp.neural_map(theta, x[None, :]).grad_log_g[0]


def test_grad_log_g_linear_network_closed_form():
    theta = zero_params(u=np.array([1.0, 2.0]), c=-10.0)
    x = np.array([0.5, 0.5])
    # f = u.x - 10 so G = 10 - u.x = 8.5 and grad log G = -u / 8.5
    g = grad_log_g_at(theta, x)
    np.testing.assert_allclose(g, [-1.0 / 8.5, -2.0 / 8.5], atol=1e-14)


def test_grad_log_g_constant_network_is_zero():
    g = grad_log_g_at(zero_params(c=-4.0), np.array([0.3, 0.7]))
    np.testing.assert_array_equal(g, [0.0, 0.0])


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("width", [4, 16, 64])
def test_grad_log_g_matches_finite_differences(depth, width):
    rng = np.random.default_rng(depth * 100 + width)
    n = 5
    theta = icnn.project_constraints(icnn.init(n, (width,) * depth, seed=depth + width))
    x = random_simplex(rng, n)
    g = grad_log_g_at(theta, x)
    h = 1e-6
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        lo = np.log(max(-icnn.forward(theta, x - e), fgp.G_FLOOR))
        hi = np.log(max(-icnn.forward(theta, x + e), fgp.G_FLOOR))
        fd = (hi - lo) / (2 * h)
        assert abs(g[i] - fd) / (1.0 + abs(fd)) < 1e-5


# --- constraint projection --------------------------------------------------


def test_project_clamps_and_is_idempotent():
    theta = icnn.init(3, (4, 4), seed=2)
    dirty = with_arrays(theta, W1=theta.W[1] - 0.3, w=theta.w - 0.5)
    before = copy.deepcopy(dirty)
    once = icnn.project_constraints(dirty)
    assert once is dirty
    assert once.W[1].min() >= 0
    assert once.w.min() >= 0
    # unconstrained parts untouched
    np.testing.assert_array_equal(once.W[0], before.W[0])
    np.testing.assert_array_equal(once.U[0], before.U[0])
    once_flat = once.flat.copy()
    assert icnn.project_constraints(once).flat.tobytes() == once_flat.tobytes()


def test_project_leaves_feasible_params_unchanged():
    theta = icnn.init(3, (4,), seed=8)
    before = theta.flat.copy()
    assert icnn.project_constraints(theta).flat.tobytes() == before.tobytes()


# --- softplus premise -------------------------------------------------------


def test_softplus_convex_and_nondecreasing_on_grid():
    grid = np.linspace(-6.0, 6.0, 241)
    vals = np.logaddexp(0.0, grid)
    first = np.diff(vals)
    second = np.diff(vals, 2)
    assert np.all(first >= 0)
    assert np.all(second >= -1e-12)


# --- serialisation ----------------------------------------------------------


def test_json_round_trip_bit_exact(tmp_path):
    theta = icnn.init(4, (8, 8), seed=77)
    path = tmp_path / "theta.json"
    icnn.save(theta, path)
    back = icnn.load(path)
    assert back.widths == theta.widths
    for (name, a), (_, b) in zip(theta.arrays(), back.arrays()):
        assert np.array_equal(a, b), name


def test_from_json_malformed_document_is_config_error():
    good = json.loads(icnn.to_json(icnn.init(3, (4, 4), seed=1)))
    no_arrays = {k: v for k, v in good.items() if k != "arrays"}
    missing_w = {**good, "arrays": {k: v for k, v in good["arrays"].items() if k != "w"}}
    bad_base64 = {**good, "arrays": {**good["arrays"], "u": {"shape": [3], "data": "@@@"}}}
    bad_shape = {**good, "arrays": {**good["arrays"], "u": {**good["arrays"]["u"], "shape": [1, 3]}}}
    wrong_n = {**good, "n": 4}
    relu = {**good, "activation": "relu"}  # forward_layers computes softplus only
    # a complete document of another format or version
    foreign = [{**good, "format": "other"}, {**good, "version": 2}]
    # sizes that int() would truncate or accept: a fractional width or n, a float n and a boolean width
    sizes = [{**good, "widths": [4.7, 4]}, {**good, "n": 3.9}, {**good, "n": 3.0}, {**good, "widths": [True, 4]}]
    # entries that no trained theta holds: a NaN c, an infinite u, and a negative W1, which
    # makes f non-convex and G not concave
    entries = []
    for name, value in [("c", np.nan), ("u", np.inf), ("W1", -1.0)]:
        theta = icnn.init(3, (4, 4), seed=1)
        theta[name][...] = value
        entries.append(json.loads(icnn.to_json(theta)))
    texts = [json.dumps(doc) for doc in (no_arrays, missing_w, bad_base64, bad_shape, wrong_n, relu, *foreign, *sizes, *entries)]
    for text in texts + ["not json", "[]", '{"format": "icnn-params", "version": 2}']:
        with pytest.raises(ConfigError, match="^malformed parameter document"):
            icnn.from_json(text)
    # a constrained weight at its bound of 0, as the projection leaves it, is feasible
    theta = icnn.init(3, (4, 4), seed=1)
    theta["W1"][...] = 0.0
    assert np.array_equal(icnn.from_json(icnn.to_json(theta)).flat, theta.flat)
