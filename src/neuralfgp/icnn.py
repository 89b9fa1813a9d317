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
import json
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError

G_FLOOR = 1e-8  # log G reads max(G, G_FLOOR)


@dataclass(frozen=True)
class ICNNParams:
    """Constrained parameter set. Treated as an immutable value between steps."""

    W: tuple  # K matrices: W[0] is m1 x n, W[k] is m_{k+1} x m_k
    U: tuple  # K-1 matrices: U[k-1] is m_{k+1} x n
    b: tuple  # K bias vectors
    w: np.ndarray  # length m_K
    u: np.ndarray  # length n
    c: float
    widths: tuple

    @property
    def n(self):
        return self.W[0].shape[1]

    def arrays(self):
        """Flat (name, array) view in a fixed order; c as a 0-d array."""
        out = []
        for k, m in enumerate(self.W):
            out.append((f"W{k}", m))
        for k, m in enumerate(self.U):
            out.append((f"U{k + 1}", m))
        for k, v in enumerate(self.b):
            out.append((f"b{k}", v))
        out.append(("w", self.w))
        out.append(("u", self.u))
        out.append(("c", np.asarray(self.c, dtype=np.float64)))
        return out


def _validate_widths(n, widths):
    if n < 2:
        raise ConfigError("need at least 2 assets")
    widths = tuple(int(m) for m in widths)
    if not widths or any(m < 1 for m in widths):
        raise ConfigError(f"widths must be positive, got {widths}")
    return widths


def _shapes(n, widths):
    """Array shapes by name, in arrays() order."""
    K = len(widths)
    shapes = {"W0": (widths[0], n)}
    shapes.update({f"W{k}": (widths[k], widths[k - 1]) for k in range(1, K)})
    shapes.update({f"U{k}": (widths[k], n) for k in range(1, K)})
    shapes.update({f"b{k}": (widths[k],) for k in range(K)})
    shapes.update(w=(widths[-1],), u=(n,), c=())
    return shapes


def init(n, widths=(64, 64), seed=0) -> ICNNParams:
    """Glorot-uniform init (a vector counts as one column); biases and c start at 0.

    Constrained weights take the absolute value of the draw. c is shifted
    after a probe evaluation so that G = -f exceeds 1 at the uniform simplex
    point.
    """
    widths = _validate_widths(n, widths)
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in _shapes(n, widths).items():
        if name[0] in "bc":
            arrays[name] = np.zeros(shape)
            continue
        a = np.sqrt(6.0 / (shape[0] + (shape[1] if len(shape) == 2 else 1)))
        draw = rng.uniform(-a, a, shape)
        nonneg = name == "w" or (name[0] == "W" and name != "W0")
        arrays[name] = np.abs(draw) if nonneg else draw
    probe = from_arrays(arrays, widths)
    return replace(probe, c=-forward(probe, np.full(n, 1.0 / n)) - 2.0)


def project_constraints(theta: ICNNParams) -> ICNNParams:
    """Clamp every constrained entry at zero. Idempotent."""
    W = (theta.W[0],) + tuple(np.maximum(m, 0.0) for m in theta.W[1:])
    return ICNNParams(W, theta.U, theta.b, np.maximum(theta.w, 0.0), theta.u, theta.c, theta.widths)


def params_to_nodes(theta: ICNNParams) -> dict:
    """Differentiable autodiff leaves for every parameter array."""
    return {name: ad.param(arr) for name, arr in theta.arrays()}


def from_arrays(arrays, widths) -> ICNNParams:
    """Rebuild parameters from a flat name -> array mapping (see arrays())."""
    K = len(widths)
    return ICNNParams(
        tuple(arrays[f"W{k}"] for k in range(K)),
        tuple(arrays[f"U{k}"] for k in range(1, K)),
        tuple(arrays[f"b{k}"] for k in range(K)),
        arrays["w"],
        arrays["u"],
        float(arrays["c"]),
        tuple(widths),
    )


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
        n = int(doc["n"])
        widths = _validate_widths(n, doc["widths"])
        arrays = {name: _decode(rec["data"], tuple(rec["shape"])) for name, rec in doc["arrays"].items()}
        theta = from_arrays(arrays, widths)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed parameter document: {exc!r}") from None
    if [arr.shape for _, arr in theta.arrays()] != list(_shapes(n, widths).values()):
        raise ConfigError("malformed parameter document: array shapes do not match n and widths")
    return theta


def save(theta: ICNNParams, path):
    with open(path, "w") as fh:
        fh.write(to_json(theta))


def load(path) -> ICNNParams:
    with open(path) as fh:
        return from_json(fh.read())
