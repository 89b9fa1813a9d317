import numpy as np
import pytest

from neuralfgp import autodiff as ad, icnn
from neuralfgp.errors import DimensionError


def finite_diff(func, x, h=1e-5):
    """Central differences of a scalar function of a flat vector."""
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (func(x + e) - func(x - e)) / (2 * h)
    return g


def test_softplus_value_and_derivative_at_zero():
    x = ad.param(np.array([0.0]))
    y = ad.sum_(ad.softplus(x))
    assert y.item() == pytest.approx(np.log(2.0), abs=1e-12)
    ad.backward(y)
    assert x.grad[0] == pytest.approx(0.5, abs=1e-12)


def test_softplus_sigmoid_bit_identical_to_two_branch_forms():
    # the stable forms the helper replaced: boolean masks pick the branch
    def sigmoid_two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 36.0, -36.0, 1e-300, -1e-300])
    x = np.concatenate([special, 30.0 * np.random.default_rng(0).standard_normal(20000)])
    softplus, sigmoid = icnn.softplus_sigmoid(x)
    ref_softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    ref_sigmoid = sigmoid_two_branch(x)
    for got, ref in ((softplus, ref_softplus), (sigmoid, ref_sigmoid)):
        assert np.array_equal(got, ref, equal_nan=True)
        # signs match too, zeros included; NaN maps to NaN whatever its sign bit
        assert np.array_equal(np.signbit(got[~np.isnan(x)]), np.signbit(ref[~np.isnan(x)]))
    # tape nodes of any rank, 0-d included, use the same helper
    for shape in ((), (3,), (2, 3)):
        v = x[11 : 11 + int(np.prod(shape))].reshape(shape)
        assert np.array_equal(ad.sigmoid(v).value, sigmoid_two_branch(np.atleast_1d(v)).reshape(shape))
        assert np.array_equal(ad.softplus(v).value, np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v))))


def test_dot():
    a = ad.param(np.array([1.0, 2.0]))
    b = ad.constant(np.array([3.0, 4.0]))
    y = ad.dot(a, b)
    assert y.item() == 11.0
    ad.backward(y)
    np.testing.assert_array_equal(a.grad, [3.0, 4.0])


def test_maximum_with_scalar_hinge():
    x = ad.param(np.array([-3.0]))
    y = ad.sum_(ad.maximum(x, 0.0))
    assert y.item() == 0.0
    ad.backward(y)
    assert x.grad[0] == 0.0


def test_product_rule():
    x1 = ad.param(np.array(2.0))
    x2 = ad.param(np.array(3.0))
    y = x1 * x2
    ad.backward(y)
    assert float(x1.grad) == 3.0
    assert float(x2.grad) == 2.0


def test_sum_softplus_gradient():
    v = ad.param(np.zeros(2))
    y = ad.sum_(ad.softplus(v))
    ad.backward(y)
    np.testing.assert_allclose(v.grad, [0.5, 0.5], atol=1e-15)


def _composite(v_node, A, b):
    """A fixed expression exercising most primitives."""
    Av = ad.matmul(ad.constant(A), v_node)
    t1 = ad.sum_(ad.softplus(Av + ad.constant(b)) * ad.sigmoid(Av))
    t2 = ad.l2norm(v_node)
    t3 = ad.mean_(ad.exp(0.3 * v_node))
    t4 = ad.dot(v_node, v_node)
    t5 = ad.sum_(ad.log(ad.maximum(v_node, 0.1) + 1.0))
    t6 = ad.sum_(ad.sqrt(ad.square(v_node) + 1.0))
    t7 = ad.sum_(ad.square(v_node) / (1.0 + ad.square(v_node)))
    return t1 + t2 - t3 + 0.5 * t4 + t5 + t6 + t7


def test_gradient_matches_finite_differences_at_100_random_points():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=4)

        def func(x_flat):
            return _composite(ad.constant(x_flat), A, b).item()

        v = ad.param(x)
        out = _composite(v, A, b)
        ad.backward(out)
        fd = finite_diff(func, x)
        rel = np.abs(v.grad - fd) / (1.0 + np.abs(fd))
        worst = max(worst, rel.max())
    assert worst < 1e-6


def test_matmul_matrix_cases_match_finite_differences():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(5, 3))
    W = rng.normal(size=(4, 3))

    def func(w_flat):
        Wn = ad.constant(w_flat.reshape(4, 3))
        return ad.sum_(ad.square(ad.matmul(ad.constant(X), ad.transpose(Wn)))).item()

    Wn = ad.param(W)
    out = ad.sum_(ad.square(ad.matmul(ad.constant(X), ad.transpose(Wn))))
    ad.backward(out)
    fd = finite_diff(func, W.reshape(-1)).reshape(4, 3)
    np.testing.assert_allclose(Wn.grad, fd, rtol=1e-6, atol=1e-8)


def test_adjoint_linearity_is_exact():
    rng = np.random.default_rng(11)
    x = rng.normal(size=5)
    alpha, beta = 1.75, -0.5

    def grads_of(scale_f, scale_g):
        v = ad.param(x)
        f = ad.sum_(ad.softplus(v))
        g = ad.dot(v, v)
        ad.backward(scale_f * f + scale_g * g)
        return v.grad

    gf = grads_of(1.0, 0.0)
    gg = grads_of(0.0, 1.0)
    combined = grads_of(alpha, beta)
    np.testing.assert_array_equal(combined, alpha * gf + beta * gg)


def test_shared_subexpression_accumulates():
    x = ad.param(np.array(2.0))
    y = x * x + x * x  # diamond: d/dx = 8
    ad.backward(y)
    assert float(x.grad) == 8.0


def test_backward_visits_each_node_once():
    x = ad.param(np.arange(1.0, 4.0))
    y = ad.sum_(ad.square(x)) + ad.sum_(x)
    order = ad.topo_order(y)
    assert len({id(n) for n in order}) == len(order)
    # every parent precedes its child
    pos = {id(n): i for i, n in enumerate(order)}
    for node in order:
        for parent in node.parents:
            assert pos[id(parent)] < pos[id(node)]


def test_shape_mismatch_raises_dimension_error():
    with pytest.raises(DimensionError, match="matmul"):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
    with pytest.raises(DimensionError, match="unsupported ranks"):
        ad.matmul(ad.constant(np.ones(2)), ad.constant(np.ones((2, 3))))
    with pytest.raises(DimensionError, match="dot"):
        ad.dot(ad.constant(np.ones(2)), ad.constant(np.ones(3)))


def test_backward_rejects_non_scalar_output():
    v = ad.param(np.ones(3))
    with pytest.raises(DimensionError, match="scalar"):
        ad.backward(ad.softplus(v))
