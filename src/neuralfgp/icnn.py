"""Input-convex network f(x) and the concave generating function G(x) = -f(x).

Convexity comes from the architecture: softplus activations (convex,
nondecreasing) and nonnegative weights on the hidden-state path (every W_k
for k >= 1 and the output vector w). W_0, the passthrough matrices U_k, the
biases, u and c stay unconstrained.

Two numpy passes over the rows of an input batch serve every evaluation:
`forward_layers` gives f with the hidden activations and their slopes, and
`input_gradient` backpropagates f by hand to its input.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import math
from collections import namedtuple

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError

G_FLOOR = 1e-8  # log G reads max(G, G_FLOOR)


Layout = namedtuple("Layout", "slots lower")


@functools.lru_cache
def layout(n, widths) -> Layout:
    """Each name's (slice, shape) in the flat parameter vector, in arrays() order: W0..W{K-1},
    U1..U{K-1}, b0..b{K-1}, w, u, c. lower is 0 on the constrained W[1:] and w, -inf elsewhere."""
    K = len(widths)
    shapes = [("W0", (widths[0], n))] + [(f"W{k}", (widths[k], widths[k - 1])) for k in range(1, K)]
    shapes += [(f"U{k}", (widths[k], n)) for k in range(1, K)] + [(f"b{k}", (widths[k],)) for k in range(K)]
    shapes += [("w", (widths[-1],)), ("u", (n,)), ("c", ())]
    stops = list(itertools.accumulate((math.prod(shape) for _, shape in shapes), initial=0))
    if stops[-1] > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"widths {widths} give {stops[-1]} parameters, too many for one float64 array")
    slots = {name: (slice(stops[i], stops[i + 1]), shape) for i, (name, shape) in enumerate(shapes)}
    constrained = [f"W{k}" for k in range(1, K)] + ["w"]
    lower = np.concatenate([np.full(math.prod(s), 0.0 if name in constrained else -np.inf) for name, s in shapes])
    lower.flags.writeable = False
    return Layout(slots, lower)


class ICNNParams:
    """Parameters as one contiguous float64 vector `flat`, laid out by layout(n, widths). W (K
    matrices: W[0] is m1 x n, W[k] is m_{k+1} x m_k), U (K-1 matrices: U[k-1] is m_{k+1} x n),
    b (K bias vectors), w (length m_K) and u (length n) are views into flat; c is its last
    entry. Treated as an immutable value between steps."""

    def __init__(self, flat, n, widths):
        self.flat, self.n, self.widths, self.c = flat, n, widths, float(flat[-1])
        self._views = {name: flat[sl].reshape(shape) for name, (sl, shape) in layout(n, widths).slots.items()}
        self.W, self.U, self.b = (tuple(v for name, v in self._views.items() if name[0] == p) for p in "WUb")
        self.w, self.u = self._views["w"], self._views["u"]

    def __reduce__(self):  # copies and pickles rebuild the views on the copied vector
        return ICNNParams, (self.flat, self.n, self.widths)

    def __getitem__(self, name):
        return self._views[name]

    def arrays(self):
        """(name, view) pairs in layout order; c as a 0-d view."""
        return list(self._views.items())


def _validate_widths(n, widths):
    if n < 2:
        raise ConfigError("need at least 2 assets")
    widths = tuple(int(m) for m in widths)
    if not widths or any(m < 1 for m in widths):
        raise ConfigError(f"widths must be positive, got {widths}")
    return widths


def init(n, widths=(64, 64), seed=0) -> ICNNParams:
    """Glorot-uniform init (a vector counts as one column); biases and c start at 0.

    Constrained weights take the absolute value of the draw. c is shifted
    after a probe evaluation so that G = -f exceeds 1 at the uniform simplex
    point.
    """
    widths = _validate_widths(n, widths)
    rng = np.random.default_rng(seed)
    table = layout(n, widths)
    flat = np.zeros(table.lower.size)
    for name, (sl, shape) in table.slots.items():
        if name[0] not in "bc":
            a = np.sqrt(6.0 / (shape[0] + (shape[1] if len(shape) == 2 else 1)))
            flat[sl] = rng.uniform(-a, a, shape).reshape(-1)
    flat = np.where(table.lower == 0.0, np.abs(flat), flat)
    flat[-1] = -forward(ICNNParams(flat, n, widths), np.full(n, 1.0 / n)) - 2.0
    return ICNNParams(flat, n, widths)


def project_constraints(theta: ICNNParams) -> ICNNParams:
    """Clamp every constrained entry at zero. Idempotent."""
    return ICNNParams(np.maximum(theta.flat, layout(theta.n, theta.widths).lower), theta.n, theta.widths)


def from_arrays(arrays, widths) -> ICNNParams:
    """Pack a name -> array mapping (see arrays()) into one vector, n being the length of u.
    DimensionError if an array's shape does not match layout(n, widths)."""
    n = np.size(arrays["u"])
    widths = _validate_widths(n, widths)
    slots = layout(n, widths).slots
    for name, (_, shape) in slots.items():
        if np.shape(arrays[name]) != shape:
            raise DimensionError(f"{name}: expected shape {shape}, got {np.shape(arrays[name])}")
    return ICNNParams(np.concatenate([arrays[name] for name in slots], axis=None, dtype=np.float64), n, widths)


# ---------------------------------------------------------------------------
# numpy passes, batched over the rows of an input matrix X (m, n)
# ---------------------------------------------------------------------------


def forward_layers(theta: ICNNParams, X):
    """f (m,) at each row of X, with lists Z of softplus(P_k) and S of sigmoid(P_k), each (m, m_k).

    P_0 = X W_0^T + b_0, P_k = Z_{k-1} W_k^T + X U_k^T + b_k and f = Z_K w + X u + c.
    Returns (f, Z, S).
    """
    Z, S = [], []
    for k, W in enumerate(theta.W):
        P = X @ W.T if k == 0 else Z[-1] @ W.T + X @ theta.U[k - 1].T
        z, s = ad.softplus_sigmoid(P + theta.b[k])
        Z.append(z)
        S.append(s)
    return Z[-1] @ theta.w + X @ theta.u + theta.c, Z, S


def input_gradient(theta: ICNNParams, S):
    """grad_x f at each row, backpropagated by hand through the sigmoids S of forward_layers().

    D[K-1] = w and D[j-1] = A[j] W_j are the adjoints of the activations, A[j] = S[j] * D[j]
    those of the pre-activations. Returns (A, D, grad_f (m, n)).
    """
    K = len(theta.W)
    A, D = [None] * K, [None] * K
    D[-1], grad = theta.w, None
    for j in range(K - 1, -1, -1):
        A[j] = S[j] * D[j]
        term = A[j] @ (theta.U[j - 1] if j else theta.W[0])
        grad = term if grad is None else grad + term
        if j:
            D[j - 1] = A[j] @ theta.W[j]
    return A, D, grad + theta.u


def forward(theta: ICNNParams, x):
    """f at a point of shape (n,), as a float, or at each row of an (m, n) batch, as an (m,) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != theta.n:
        raise DimensionError(f"forward: expected input of shape ({theta.n},) or (m, {theta.n}), got {x.shape}")
    f, _, _ = forward_layers(theta, np.atleast_2d(x))
    return float(f[0]) if x.ndim == 1 else f


def generating_function(theta: ICNNParams, x):
    """G(x) = -f(x), shaped as forward's result. May be nonpositive; downstream logs clamp at G_FLOOR."""
    return -forward(theta, x)


# ---------------------------------------------------------------------------
# serialisation: versioned JSON, arrays base64-encoded row-major float64
# ---------------------------------------------------------------------------


def _encode(arr):
    return base64.b64encode(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).decode("ascii")


def _decode(text, shape):
    return np.frombuffer(base64.b64decode(text), dtype=np.float64).reshape(shape).copy()


def to_json(theta: ICNNParams) -> str:
    doc = {
        "format": "icnn-params",
        "version": 1,
        "activation": "softplus",
        "n": theta.n,
        "widths": list(theta.widths),
        "arrays": {name: {"shape": list(arr.shape), "data": _encode(arr)} for name, arr in theta.arrays()},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def from_json(text) -> ICNNParams:
    """Parse a to_json document; ConfigError if it is malformed."""
    try:
        doc = json.loads(text)
        if doc.get("format") != "icnn-params" or doc.get("version") != 1:
            raise ConfigError("unrecognised parameter document")
        arrays = {name: _decode(rec["data"], tuple(rec["shape"])) for name, rec in doc["arrays"].items()}
        theta = from_arrays(arrays, doc["widths"])
        if theta.n != int(doc["n"]):
            raise DimensionError(f"n is {doc['n']!r}, but u has length {theta.n}")
    except (AttributeError, KeyError, TypeError, ValueError, DimensionError) as exc:
        raise ConfigError(f"malformed parameter document: {exc!r}") from None
    return theta


def save(theta: ICNNParams, path):
    with open(path, "w") as fh:
        fh.write(to_json(theta))


def load(path) -> ICNNParams:
    with open(path) as fh:
        return from_json(fh.read())
