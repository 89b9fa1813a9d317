"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A computation builds a DAG of Node objects; backward() walks the graph once
in reverse topological order and accumulates adjoints into the .grad field
of every node that requires gradients. Only the primitives needed to express
the convex-network loss are provided; no broadcasting beyond what numpy does
between scalars, vectors and matrices of compatible shape.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError
from .icnn import softplus_sigmoid


class Node:
    """One value in the computation graph.

    value is fixed at construction; grad (same shape) is filled by backward.
    """

    __slots__ = ("value", "parents", "requires_grad", "grad", "_vjps")

    def __init__(self, value, parents=(), requires_grad=False, vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self.grad = None
        self._vjps = vjps

    def item(self):
        return float(self.value)

    # operator sugar; scalars are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(x):
    """Wrap an array as a non-differentiable graph input."""
    return Node(x)


def param(x):
    """Wrap an array as a differentiable leaf (a parameter)."""
    return Node(x, requires_grad=True)


def _as_node(x):
    return x if isinstance(x, Node) else constant(x)


def _unbroadcast(g, shape):
    """Reduce an adjoint back to the shape of the operand it belongs to."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b):
    a, b = _as_node(a), _as_node(b)
    return Node(
        a.value + b.value,
        (a, b),
        vjps=(
            lambda g: _unbroadcast(g, a.value.shape),
            lambda g: _unbroadcast(g, b.value.shape),
        ),
    )


def sub(a, b):
    a, b = _as_node(a), _as_node(b)
    return Node(
        a.value - b.value,
        (a, b),
        vjps=(
            lambda g: _unbroadcast(g, a.value.shape),
            lambda g: _unbroadcast(-g, b.value.shape),
        ),
    )


def mul(a, b):
    a, b = _as_node(a), _as_node(b)
    return Node(
        a.value * b.value,
        (a, b),
        vjps=(
            lambda g: _unbroadcast(g * b.value, a.value.shape),
            lambda g: _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def div(a, b):
    a, b = _as_node(a), _as_node(b)
    return Node(
        a.value / b.value,
        (a, b),
        vjps=(
            lambda g: _unbroadcast(g / b.value, a.value.shape),
            lambda g: _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
        ),
    )


def matmul(a, b):
    a, b = _as_node(a), _as_node(b)
    av, bv = a.value, b.value
    if av.ndim == 2 and bv.ndim == 2:
        if av.shape[1] != bv.shape[0]:
            raise DimensionError(f"matmul: incompatible shapes {av.shape} @ {bv.shape}")
        vjps = (lambda g: g @ bv.T, lambda g: av.T @ g)
    elif av.ndim == 2 and bv.ndim == 1:
        if av.shape[1] != bv.shape[0]:
            raise DimensionError(f"matmul: incompatible shapes {av.shape} @ {bv.shape}")
        vjps = (lambda g: np.outer(g, bv), lambda g: av.T @ g)
    else:
        raise DimensionError(f"matmul: unsupported ranks {av.shape} @ {bv.shape}")
    return Node(av @ bv, (a, b), vjps=vjps)


def dot(a, b):
    a, b = _as_node(a), _as_node(b)
    if a.value.ndim != 1 or b.value.ndim != 1 or a.value.shape != b.value.shape:
        raise DimensionError(f"dot: need equal-length vectors, got {a.value.shape}, {b.value.shape}")
    return Node(
        a.value @ b.value,
        (a, b),
        vjps=(lambda g: g * b.value, lambda g: g * a.value),
    )


def transpose(a):
    a = _as_node(a)
    if a.value.ndim != 2:
        raise DimensionError(f"transpose: need a matrix, got shape {a.value.shape}")
    return Node(a.value.T, (a,), vjps=(lambda g: g.T,))


def sum_(a, axis=None, keepdims=False):
    a = _as_node(a)
    shape = a.value.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    return Node(a.value.sum(axis=axis, keepdims=keepdims), (a,), vjps=(vjp,))


def mean_(a):
    """Mean over all entries."""
    a = _as_node(a)
    shape, count = a.value.shape, a.value.size
    return Node(a.value.mean(), (a,), vjps=(lambda g: np.broadcast_to(g, shape).copy() / count,))


def log(a):
    a = _as_node(a)
    return Node(np.log(a.value), (a,), vjps=(lambda g: g / a.value,))


def exp(a):
    a = _as_node(a)
    out = np.exp(a.value)
    return Node(out, (a,), vjps=(lambda g: g * out,))


def square(a):
    a = _as_node(a)
    return Node(a.value * a.value, (a,), vjps=(lambda g: 2.0 * g * a.value,))


def sqrt(a):
    a = _as_node(a)
    out = np.sqrt(a.value)
    return Node(out, (a,), vjps=(lambda g: g / (2.0 * out),))


def sigmoid(a):
    a = _as_node(a)
    _, out = softplus_sigmoid(a.value)
    return Node(out, (a,), vjps=(lambda g: g * out * (1.0 - out),))


def softplus(a):
    a = _as_node(a)
    out, sig = softplus_sigmoid(a.value)
    return Node(out, (a,), vjps=(lambda g: g * sig,))


def maximum(a, s):
    """Elementwise max with a scalar. Adjoint is zero where the input ties or loses."""
    a = _as_node(a)
    s = float(s)
    mask = a.value > s
    return Node(np.maximum(a.value, s), (a,), vjps=(lambda g: g * mask,))


def reshape(a, shape):
    a = _as_node(a)
    if int(np.prod(shape)) != a.value.size:
        raise DimensionError(f"reshape: cannot view {a.value.shape} as {shape}")
    old = a.value.shape
    return Node(a.value.reshape(shape), (a,), vjps=(lambda g: g.reshape(old),))


def l2norm(a, axis=None, keepdims=False):
    """Euclidean norm, built from primitives so it stays differentiable."""
    return sqrt(sum_(square(a), axis=axis, keepdims=keepdims))


def topo_order(output):
    """Topologically ordered node list for one forward evaluation (the tape)."""
    order = []
    seen = set()
    stack = [(output, iter(output.parents))]
    seen.add(id(output))
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent.parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(output):
    """Accumulate d(output)/d(node) into .grad for every node needing it.

    output must be scalar-valued. Each tape node is visited exactly once.
    """
    if output.value.size != 1:
        raise DimensionError(f"backward: output must be scalar, got shape {output.value.shape}")
    if not np.isfinite(output.value):
        raise NumericError("backward: output is not finite")
    order = topo_order(output)
    output.grad = np.ones_like(output.value)
    for node in reversed(order):
        if node.grad is None or not node.parents:
            continue
        for parent, vjp in zip(node.parents, node._vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(node.grad)
            if parent.grad is None:
                parent.grad = np.array(contrib, dtype=np.float64, copy=True)
            else:
                parent.grad = parent.grad + contrib
