"""Input-convex network f(x) and the concave generating function G(x) = -f(x).

Convexity comes from the architecture: softplus activations (convex,
nondecreasing) and nonnegative weights on the hidden-state path (every W_k
for k >= 1 and the output vector w). W_0, the passthrough matrices U_k, the
biases, u and c stay unconstrained.

Two numpy passes over the rows of an input batch serve every evaluation:
`forward_layers` gives f, and `input_gradient` backpropagates f by hand to its
input. They leave their activations, slopes and adjoints in a `Work` set, from
which `input_hessian` builds the Hessian of f and `param_gradient` the gradient
of a loss in the parameters.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import math
from collections import namedtuple

import numpy as np

from .errors import ConfigError, DimensionError, check


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
    b (K bias vectors), w (length m_K), u (length n) and c (0-d, its last entry) are views into
    flat, so they read what flat holds now. Treated as an immutable value, except for the
    buffers that training.train_window owns and rewrites every epoch; project_constraints,
    which writes in place, is handed only such a buffer or a fresh one."""

    def __init__(self, flat, n, widths):
        self.flat, self.n, self.widths = flat, n, widths
        self._views = {name: flat[sl].reshape(shape) for name, (sl, shape) in layout(n, widths).slots.items()}
        self.W, self.U, self.b = (tuple(v for name, v in self._views.items() if name[0] == p) for p in "WUb")
        self.w, self.u, self.c = self._views["w"], self._views["u"], self._views["c"]

    def __reduce__(self):  # copies and pickles rebuild the views on the copied vector
        return ICNNParams, (self.flat, self.n, self.widths)

    def __getitem__(self, name):
        return self._views[name]

    def arrays(self):
        """(name, view) pairs in layout order; c as a 0-d view."""
        return list(self._views.items())


def check_widths(widths):
    """widths as a tuple of Python ints, once check() has held each to >= 1; ConfigError if empty."""
    widths = tuple(int(check("widths", m, 1)) for m in widths)
    if not widths:
        raise ConfigError("widths must name at least one layer")
    return widths


def init(n, widths, seed) -> ICNNParams:
    """Glorot-uniform init (a vector counts as one column); biases and c start at 0.

    Constrained weights take the absolute value of the draw. c is shifted
    after a probe evaluation so that G = -f exceeds 1 at the uniform simplex
    point.
    """
    n, widths = int(check("n", n, 2)), check_widths(widths)  # Python ints, as to_json writes them
    rng = np.random.default_rng(check("seed", seed, 0))
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
    """Clamp every constrained entry of theta at zero, in place, and return theta. Idempotent."""
    np.maximum(theta.flat, layout(theta.n, theta.widths).lower, out=theta.flat)
    return theta


def from_arrays(arrays, widths) -> ICNNParams:
    """Pack a name -> array mapping (see arrays()) into one vector, n being the length of u.
    DimensionError if an array's shape does not match layout(n, widths)."""
    n, widths = check("n", np.size(arrays["u"]), 2), check_widths(widths)
    slots = layout(n, widths).slots
    for name, (_, shape) in slots.items():
        if np.shape(arrays[name]) != shape:
            raise DimensionError(f"{name}: expected shape {shape}, got {np.shape(arrays[name])}")
    return ICNNParams(np.concatenate([arrays[name] for name in slots], axis=None, dtype=np.float64), n, widths)


# ---------------------------------------------------------------------------
# numpy passes, batched over the rows of an input matrix X (m, n)
# ---------------------------------------------------------------------------


class Work:
    """(m, m_k) float64 work arrays of the numpy passes over m rows, one list over the layers per
    name: Z and S hold forward_layers' activations and slopes, A and D input_gradient's adjoints
    (D has no last entry: that adjoint is w), and P and E are scratch.

    Whoever owns a batch builds the set and hands it to both passes; a pass overwrites what the
    set held, so a caller that repeats them over one row count, as training does every epoch,
    builds one set for all of them. Only this module reads or writes the arrays. input_hessian
    and param_gradient read what the passes left. param_gradient, the reverse of both passes,
    puts each (m, m_k) adjoint into an array whose value is dead by then: the sigmoid adjoints
    into A, 1 - S[k] into S[k] on its last use, and the rest into P and E. After it only Z and
    D still hold the passes' values, so input_hessian, which reads S and A, runs before it.
    """

    def __init__(self, rows, widths):
        self.Z, self.S, self.A, self.P, self.E = ([np.empty((rows, m)) for m in widths] for _ in range(5))
        self.D = [np.empty((rows, m)) for m in widths[:-1]]


def softplus_sigmoid(x, z=None, s=None, e=None):
    """softplus(x) into z and sigmoid(x) into s, both from one shared e = exp(-|x|), with no
    boolean masks; z, s and the scratch e are fresh arrays when not given. Returns (z, s).

    The sigmoid is the stable two-branch form, 1/(1+e) for x >= 0 and e/(1+e)
    below, bit for bit, including at +-0 and +-inf (NaN stays NaN): since
    0 <= e <= 1, its numerator max(e, x >= 0) is 1 on the first branch and e
    on the second.
    """
    z, s, e = (np.empty(np.shape(x)) if a is None else a for a in (z, s, e))
    np.exp(np.negative(np.abs(x, out=e), out=e), out=e)
    np.add(np.maximum(x, 0.0, out=z), np.log1p(e, out=s), out=z)
    np.maximum(e, np.greater_equal(x, 0.0, out=s), out=s)
    return z, np.divide(s, np.add(1.0, e, out=e), out=s)


def forward_layers(theta: ICNNParams, X, work: Work):
    """f (m,) at each row of X, leaving softplus(P_k) in work.Z and sigmoid(P_k) in work.S.

    P_0 = X W_0^T + b_0, P_k = Z_{k-1} W_k^T + X U_k^T + b_k and f = Z_K w + X u + c.
    """
    Z, S, P, E = work.Z, work.S, work.P, work.E
    for k, W in enumerate(theta.W):
        np.matmul(Z[k - 1] if k else X, W.T, out=P[k])
        if k:
            np.add(P[k], np.matmul(X, theta.U[k - 1].T, out=E[k]), out=P[k])
        softplus_sigmoid(np.add(P[k], theta.b[k], out=P[k]), Z[k], S[k], E[k])
    return Z[-1] @ theta.w + X @ theta.u + theta.c


def input_gradient(theta: ICNNParams, work: Work):
    """grad_x f (m, n) at each row, backpropagated by hand through the sigmoids S that
    forward_layers left in work.

    D[K-1] = w and D[j-1] = A[j] W_j are the adjoints of the activations, A[j] = S[j] * D[j]
    those of the pre-activations; A and D[:-1] are left in work.
    """
    S, A, D = work.S, work.A, work.D + [theta.w]
    grad = None
    for j in range(len(theta.W) - 1, -1, -1):
        np.multiply(S[j], D[j], out=A[j])
        term = A[j] @ (theta.U[j - 1] if j else theta.W[0])
        grad = term if grad is None else grad + term
        if j:
            np.matmul(A[j], theta.W[j], out=D[j - 1])
    return grad + theta.u


def input_hessian(theta: ICNNParams, work: Work):
    """Hessian of f (m, n, n) at each row, from the S and A that forward_layers and
    input_gradient left in work (param_gradient overwrites them)."""
    # J_0 = W_0 and J_k = W_k diag(S_{k-1}) J_{k-1} + U_k are the Jacobians of the pre-activations,
    # (m, m_k, n) stacks; H_f = sum_k J_k^T diag(D_k S_k (1 - S_k)) J_k, where D_k S_k = A_k
    H, S, A = 0.0, work.S, work.A
    for k, W in enumerate(theta.W):
        J = W if k == 0 else W @ (S[k - 1][..., None] * J) + theta.U[k - 1]
        H = H + np.swapaxes(J, -1, -2) @ ((A[k] * (1.0 - S[k]))[..., None] * J)
    return H


def param_gradient(theta: ICNNParams, X, work: Work, d_f, d_grad, out: ICNNParams = None) -> ICNNParams:
    """d/d(theta), in theta's layout, of a loss whose adjoints are d_f (m,) on the f of
    forward_layers and d_grad (m, n) on the grad_f of input_gradient, both run over X into work.

    The reverse applies at each node the vector-Jacobian product the autodiff tape applies
    there, in the same formula and operand layout, so it matches ad.backward bit for bit. It
    spends work's arrays as its scratch (see Work). The gradient is written through the views
    of out, an ICNNParams in theta's layout whose every entry it overwrites (a fresh one when
    out is None), and out is returned.
    """
    Ws, Us, w = theta.W, (None,) + theta.U, theta.w
    K = len(Ws)
    Z, S, A, D, P, E = work.Z, work.S, work.A, work.D + [w], work.P, work.E
    grads = ICNNParams(np.empty_like(theta.flat), theta.n, theta.widths) if out is None else out
    d_W, d_U = grads.W, (None,) + grads.U

    # back through the input-gradient recursion, first term first; d_A and d_D go into P[j],
    # d_sig[j] into A[j] after A[j]'s last read
    np.matmul(A[0].T, d_grad, out=d_W[0])
    for j in range(1, K):
        np.matmul(A[j].T, d_grad, out=d_U[j])
    d_A = np.matmul(d_grad, Ws[0].T, out=P[0])
    for j in range(K):
        np.multiply(d_A, D[j], out=A[j])
        d_D = np.multiply(d_A, S[j], out=d_A)
        if j + 1 < K:
            np.matmul(A[j + 1].T, d_D, out=d_W[j + 1])
            d_A = np.matmul(d_grad, Us[j + 1].T, out=P[j + 1])
            np.add(d_A, np.matmul(d_D, Ws[j + 1].T, out=E[j + 1]), out=d_A)
    d_sig = A
    np.add(Z[-1].T @ d_f, np.add.reduce(d_D, axis=0, out=grads.w), out=grads.w)

    # back through the forward pass, last layer first: d_P = d_Z * S[k] + d_sig[k] * S[k] * (1 - S[k]),
    # op by op in that order; d_Z and d_P go into E[k], and S[k] turns into 1 - S[k] on its last use.
    # A weight's gradient d_P^T Z holds in each entry the same dot product over the rows as the tape's (Z^T d_P)^T
    d_Z = np.multiply(d_f[:, None], w, out=E[-1])
    for k in range(K - 1, -1, -1):
        np.multiply(d_Z, S[k], out=d_Z)
        np.multiply(d_sig[k], S[k], out=d_sig[k])
        np.multiply(d_sig[k], np.subtract(1.0, S[k], out=S[k]), out=d_sig[k])
        d_P = np.add(d_Z, d_sig[k], out=d_Z)
        np.add.reduce(d_P, axis=0, out=grads.b[k])
        if k:
            np.add(d_P.T @ Z[k - 1], d_W[k], out=d_W[k])
            np.add(d_P.T @ X, d_U[k], out=d_U[k])
            d_Z = np.matmul(d_P, Ws[k], out=E[k - 1])
        else:
            np.add(d_P.T @ X, d_W[0], out=d_W[0])

    np.add(X.T @ d_f, np.add.reduce(d_grad, axis=0, out=grads.u), out=grads.u)
    np.add.reduce(d_f, axis=0, out=grads.c)
    return grads


def forward(theta: ICNNParams, x):
    """f at a point of shape (n,), as a float, or at each row of an (m, n) batch, as an (m,) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != theta.n:
        raise DimensionError(f"forward: expected input of shape ({theta.n},) or (m, {theta.n}), got {x.shape}")
    X = np.atleast_2d(x)
    f = forward_layers(theta, X, Work(len(X), theta.widths))
    return float(f[0]) if x.ndim == 1 else f


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
    """Parse a to_json document; ConfigError if it is malformed, including an entry that is not
    finite or a constrained weight below 0, which would make f non-convex."""
    try:
        doc = json.loads(text)
        if doc.get("format") != "icnn-params" or doc.get("version") != 1:
            raise ValueError("not a version-1 icnn-params document")
        if doc["activation"] != "softplus":  # the only activation forward_layers computes
            raise ValueError(f"activation {doc['activation']!r} is not softplus")
        arrays = {name: _decode(rec["data"], tuple(rec["shape"])) for name, rec in doc["arrays"].items()}
        theta = from_arrays(arrays, doc["widths"])  # the widths, like n, are held to check()'s domain
        if theta.n != check("n", doc["n"], 2):
            raise DimensionError(f"n is {doc['n']!r}, but u has length {theta.n}")
        if not (np.isfinite(theta.flat).all() and (theta.flat >= layout(theta.n, theta.widths).lower).all()):
            raise ValueError("an entry is not finite or breaks the convexity constraint")
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:  # DimensionError too
        raise ConfigError(f"malformed parameter document: {exc!r}") from None
    return theta


def save(theta: ICNNParams, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(theta))


def load(path) -> ICNNParams:
    with open(path, encoding="utf-8") as fh:
        return from_json(fh.read())
