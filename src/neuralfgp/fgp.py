"""Portfolio weight maps: the generic functionally-generated rule, the
neural map, and closed-form classical generators with their analytic
gradients and Hessians. The neural generator's Hessian is the negated
icnn.input_hessian, read off the Work set of a neural map.

The input contract is said once for a point and once for a path. check_positive is the rule for
a point: every entry finite and > 0, else a DataError. Every generator map runs it first on its
input (the closed-form maps, neural_weights and path_map), for every kind, so no x**p, log x, 1/x
or ICNN pass reads a point outside the open simplex's domain. check_path is the rule for a path's
shape: a path that is not 2-D is a DimensionError, one of fewer than 2 rows a DataError.
path_map, backtest.relative_wealth, backtest.master_residual and the training window run it.

Each classical closed form (weights and G) is written once, as an unchecked body; a public
closed-form map checks its point and rejects the neural generator (one place, _point), then runs
the body. path_map checks a path once, before the kind matters, and gives its weights, G and
Hessian: a closed-form generator's from its bodies, the neural one's from one neural_map and
neural_hessian.

A slice of a backtest is a few rows, so its cost is calls, not arithmetic. The weight checks, the
closed forms and the neural map's tail reduce with the ufunc's own reduce (np.add.reduce,
np.minimum.reduce, ...), not with ndarray.sum/min/max, np.sum or np.prod: those wrap the same
ufunc reduction in Python, so the bits are the same and only the wrapper's cost goes.

Every map takes a point of shape (n,) or a batch of shape (m, n) and works
row by row on the last axis, so a batch row never reads another row.

Three safety nets guard the neural map, each with zero gradient where it binds. The G floor
reads G as max(G, G_FLOOR), in neural_map alone; the gradient passes where G > G_FLOOR.
The grad clip caps each component of grad log G at +-GRAD_CLIP; it passes where
|grad log G| < GRAD_CLIP. The weight floor takes max(pi_raw, PORTFOLIO_WEIGHT_FLOOR), then
renormalises; it passes where pi_raw > PORTFOLIO_WEIGHT_FLOOR. neural_map_adjoint, the
reverse of the neural map, is where each of these gradient rules is written.
test_loss_gradients_bit_identical_to_tape checks the training gradient's masks against the
autodiff tape on cases where each net binds.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import icnn
from .errors import ConfigError, DataError, DimensionError, NumericError, check

G_FLOOR = 1e-8  # the neural G is read as max(G, G_FLOOR)
GRAD_CLIP = 10.0  # componentwise cap on grad log G for the neural map
PORTFOLIO_WEIGHT_FLOOR = 1e-6  # neural weights are floored here, then renormalised


@dataclass(frozen=True)
class PortfolioWeights:
    """Long-only weights summing to 1: one row (n,) or a batch of rows (m, n)."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64)
        # one test for valid weights (a NaN or inf entry makes its row's sum miss 1 too); only a
        # failure runs the checks one by one, to say which fails
        sums_ok = pi.ndim and (
            np.maximum.reduce(np.abs(np.add.reduce(pi, axis=-1) - 1.0), axis=None, initial=0.0) <= 1e-10
        )
        if not (sums_ok and np.minimum.reduce(pi, axis=None, initial=np.inf) >= 0.0):
            _check_weights(pi)
        object.__setattr__(self, "pi", pi)


def _check_weights(pi):
    """PortfolioWeights' checks one by one, in order of precedence, to say which one fails."""
    if not np.isfinite(pi).all():
        raise NumericError("portfolio weights must be finite")
    sums = np.atleast_1d(pi.sum(axis=-1))
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-10)
    if bad.size:
        raise NumericError(f"portfolio weights sum to {sums[bad[0]]!r}, not 1")
    if np.any(pi < 0):
        raise NumericError("portfolio weights must be nonnegative")


@dataclass(frozen=True)
class Generator:
    """One of the generating-function families.

    kind: 'constant' (market), 'equal', 'diversity', 'entropy' or 'neural'.
    """

    kind: str
    p: float = None
    theta: icnn.ICNNParams = None

    def __post_init__(self):
        if self.kind not in ("constant", "equal", "diversity", "entropy", "neural"):
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.kind == "diversity" and check("diversity exponent p", self.p, 0.0, float, strict=True) >= 1.0:
            raise ConfigError(f"diversity exponent p must be < 1, got {self.p!r}")
        if self.kind == "neural" and not isinstance(self.theta, icnn.ICNNParams):
            raise ConfigError(f"neural generator needs an icnn.ICNNParams, got {type(self.theta).__name__}")

    @property
    def label(self):
        return {
            "constant": "Market",
            "equal": "EWP",
            "entropy": "Entropy",
            "neural": "FGP",
        }.get(self.kind) or f"DWP p={self.p:g}"


def raw_fgp_weights(grad_log_g, x) -> np.ndarray:
    """pi_i = (g_i + (1 - sum_j x_j g_j)) x_i, associated as in training.build_loss. May go negative; sums to 1."""
    g = np.asarray(grad_log_g, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if g.shape != x.shape:
        raise DimensionError(f"raw_fgp_weights: gradient shape {g.shape} vs point shape {x.shape}")
    return _raw_fgp_weights(g, x)


def _raw_fgp_weights(g, x):
    """raw_fgp_weights' body, unchecked: g and x are float64 arrays of one shape."""
    return (g + (1.0 - np.add.reduce(x * g, axis=-1, keepdims=True))) * x


def check_positive(x):
    """x, if every entry is finite and > 0, else a DataError."""
    low, high = np.minimum.reduce(x, axis=None, initial=np.inf), np.maximum.reduce(x, axis=None, initial=0.0)
    if not (low > 0.0 and high < np.inf):  # a NaN fails both
        raise DataError("weights must be finite and positive")
    return x


def check_path(W):
    """W as float64, if it is a path of shape (T+1, n) with T >= 1: a W that is not 2-D is a
    DimensionError, one of fewer than 2 rows a DataError. Its entries are check_positive's."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise DimensionError(f"expected a path of shape (T+1, n), got {W.shape}")
    if len(W) < 2:
        raise DataError(f"a path needs at least 2 rows, got {len(W)}")
    return W


def _point(gen: Generator, x):
    """x as float64 for a closed-form map of gen, if check_positive passes it. The neural
    generator has no closed form: ConfigError."""
    if gen.kind == "neural":
        raise ConfigError("the closed-form maps do not handle the neural generator")
    return check_positive(np.asarray(x, dtype=np.float64))


def _weights(gen: Generator, x):
    """Closed-form weights at each row of x."""
    if gen.kind == "constant":
        w = x
    elif gen.kind == "equal":
        w = np.ones_like(x)
    elif gen.kind == "diversity":
        w = x**gen.p
    else:  # entropy
        w = -x * np.log(x)
    return w / np.add.reduce(w, axis=-1, keepdims=True)


def _value(gen: Generator, x):
    """Closed-form G at each row of x, shape x.shape[:-1]."""
    if gen.kind == "constant":
        return np.ones(x.shape[:-1])
    if gen.kind == "equal":
        return np.multiply.reduce(x ** (1.0 / x.shape[-1]), axis=-1)
    if gen.kind == "diversity":
        return np.add.reduce(x**gen.p, axis=-1) ** (1.0 / gen.p)
    return -np.add.reduce(x * np.log(x), axis=-1)  # entropy


def classical_weights(gen: Generator, x) -> PortfolioWeights:
    """Closed-form weights for the non-neural generators at a point or batch x that
    check_positive passes."""
    return PortfolioWeights(_weights(gen, _point(gen, x)))


def analytic_grad_log_g(gen: Generator, x) -> np.ndarray:
    """grad_x log G for the closed-form generators (used for equivalence tests), at an x that
    check_positive passes."""
    x = _point(gen, x)
    if gen.kind == "constant":
        return np.zeros_like(x)
    if gen.kind == "equal":
        return 1.0 / (x.shape[-1] * x)
    if gen.kind == "diversity":
        # G = (sum x^p)^(1/p): the generator whose weight map is x^p / sum x^p
        return x ** (gen.p - 1.0) / np.add.reduce(x**gen.p, axis=-1, keepdims=True)
    return (-np.log(x) - 1.0) / np.expand_dims(_value(gen, x), -1)  # entropy


def generator_value(gen: Generator, x):
    """G(x) for a closed-form generator: a float for a point (n,), an (m,) array for a batch
    (m, n), at an x that check_positive passes. The neural G, read over the G floor, is
    path_map's or neural_map's."""
    x = _point(gen, x)
    G = _value(gen, x)
    return float(G) if x.ndim == 1 else G


def generator_hessian(gen: Generator, x) -> np.ndarray:
    """Hessian of G for a closed-form generator, (n, n) at a point and (m, n, n) for a batch, at
    an x that check_positive passes; the EWP one reads G from the unchecked closed form, so x is
    checked once. The neural Hessian is path_map's or neural_hessian's."""
    x = _point(gen, x)
    n = x.shape[-1]
    if gen.kind == "constant":
        return np.zeros(x.shape + (n,))
    # the classical kinds write the diagonal of each (n, n) block through a strided view of the
    # fresh, contiguous H. A tiny weight can take an entry past the float64 range without a
    # warning: the caller sees the inf or NaN (master_residual raises NumericError on it)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if gen.kind == "equal":
            G = np.expand_dims(_value(gen, x), -1)
            H = G[..., None] / (n * n * (x[..., :, None] * x[..., None, :]))
            _diagonal(H)[...] = G * (1.0 - n) / (n * n * x * x)
        elif gen.kind == "diversity":
            p = gen.p
            S = np.add.reduce(x**p, axis=-1, keepdims=True)
            xp1 = x ** (p - 1.0)
            H = (1.0 - p) * S[..., None] ** (1.0 / p - 2.0) * (xp1[..., :, None] * xp1[..., None, :])
            diag = _diagonal(H)
            diag += (p - 1.0) * S ** (1.0 / p - 1.0) * x ** (p - 2.0)
        else:  # entropy
            H = np.zeros(x.shape + (n,))
            _diagonal(H)[...] = -1.0 / x
    return H


def _diagonal(H):
    """The diagonal of each (n, n) block of a C-contiguous H (..., n, n), as a writable view."""
    n = H.shape[-1]
    return H.reshape(H.shape[:-2] + (n * n,))[..., :: n + 1]


def path_map(gen: Generator, W):
    """The map of any generator along a path W (T+1, n), in one checked pass: (pi, G, H) with the
    weights pi (T, n) and the Hessian H (T, n, n) at rows 0..T-1, the left end of each step, and
    G (T+1,) at every row. W is checked once, before the kind matters, by check_path and
    check_positive, so every kind rejects a bad path with one class and one message.

    A closed-form generator's maps have the bits of the public ones: the weights and G come from
    the unchecked bodies, and H from the generator_hessian call, which checks rows 0..T-1 once
    more (the EWP Hessian forms its own G there). A neural generator's come from one neural_map
    of all T+1 rows, so the ICNN runs once (its weights and Hessian at row T go unused), with G
    read over the G floor."""
    x = check_positive(check_path(W))
    if gen.kind == "neural":
        nm = neural_map(gen.theta, x)
        return nm.pi[:-1], nm.G_col.reshape(-1), neural_hessian(gen.theta, nm)[:-1]
    return _weights(gen, x[:-1]), _value(gen, x), generator_hessian(gen, x[:-1])


# ---------------------------------------------------------------------------
# neural weight map
# ---------------------------------------------------------------------------


# The neural weight map at each row of a batch X (m, n), with every intermediate its adjoint reads:
# the icnn.Work set that icnn.forward_layers and icnn.input_gradient ran in; -grad f; G = -f;
# G_col = max(G, G_FLOOR) as a column; grad_log_g before the clip; the raw FGP weights, floored
# and row-summed; pi.
NeuralMap = namedtuple("NeuralMap", "work neg_grad_f G G_col grad_log_g pi_raw pi_floored pi_sum pi")


def neural_map(theta: icnn.ICNNParams, X, work: icnn.Work = None) -> NeuralMap:
    """Neural weights at each row of X (m, theta.n): grad log G over the G floor -> clip ->
    generic FGP map (raw_fgp_weights) -> weight floor and renormalise. The values equal those of
    training.build_loss's autodiff graph bit for bit, though its nodes (the clip is two negated
    maxima) differ. The ICNN passes run in work (a fresh set when work is None)."""
    if X.ndim != 2 or X.shape[1] != theta.n:
        raise DimensionError(f"neural map: expected rows of shape (m, {theta.n}), got {X.shape}")
    work = icnn.Work(len(X), theta.widths) if work is None else work
    f = icnn.forward_layers(theta, X, work)
    neg_grad_f = -icnn.input_gradient(theta, work)
    G = -f
    G_col = np.maximum(G, G_FLOOR).reshape(-1, 1)
    grad_log_g = neg_grad_f / G_col
    pi_raw = _raw_fgp_weights(np.minimum(np.maximum(grad_log_g, -GRAD_CLIP), GRAD_CLIP), X)
    pi_floored = np.maximum(pi_raw, PORTFOLIO_WEIGHT_FLOOR)
    pi_sum = np.add.reduce(pi_floored, axis=1, keepdims=True)
    pi = pi_floored / pi_sum
    return NeuralMap(work, neg_grad_f, G, G_col, grad_log_g, pi_raw, pi_floored, pi_sum, pi)


def neural_map_adjoint(nm: NeuralMap, X, d_pi, d_G):
    """The reverse of neural_map over X: from a loss's adjoints d_pi (m, n) on nm.pi and d_G (m,)
    on nm.G through its own terms, the adjoints (d_f (m,), d_grad (m, n)) on the ICNN's f and
    grad f, for icnn.param_gradient. Each safety net passes the gradient only where it does not
    bind (see the module docstring). Each step is the vector-Jacobian product of the autodiff
    tape, in its formula and operand layout."""
    d_floored = d_pi / nm.pi_sum + np.add.reduce(
        -d_pi * nm.pi_floored / (nm.pi_sum * nm.pi_sum), axis=1, keepdims=True
    )
    d_gp = d_floored * (nm.pi_raw > PORTFOLIO_WEIGHT_FLOOR) * X
    d_g = d_gp + -np.add.reduce(d_gp, axis=1, keepdims=True) * X
    d_g_raw = d_g * ((nm.grad_log_g > -GRAD_CLIP) & (nm.grad_log_g < GRAD_CLIP))
    d_G_col = np.add.reduce(-d_g_raw * nm.neg_grad_f / (nm.G_col * nm.G_col), axis=1, keepdims=True)
    return (d_G_col.reshape(-1) * (nm.G > G_FLOOR) + d_G) * -1.0, d_g_raw / nm.G_col * -1.0


def neural_hessian(theta: icnn.ICNNParams, nm: NeuralMap) -> np.ndarray:
    """Hessian of G = -f at each row of a neural map's batch, (m, n, n): icnn.input_hessian negated."""
    return -icnn.input_hessian(theta, nm.work)


def neural_weights(theta: icnn.ICNNParams, x) -> PortfolioWeights:
    """Evaluate the neural weight map at a point (n,) or at each row of a batch (m, n), if
    check_positive passes x."""
    x = check_positive(np.asarray(x, dtype=np.float64))
    return PortfolioWeights(neural_map(theta, np.atleast_2d(x)).pi.reshape(x.shape))


def weights(gen: Generator, x) -> PortfolioWeights:
    """Dispatch to the classical or neural map."""
    if gen.kind == "neural":
        return neural_weights(gen.theta, x)
    return classical_weights(gen, x)
