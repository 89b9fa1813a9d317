"""Portfolio weight maps: the generic functionally-generated rule, the
neural map, and closed-form classical generators with their analytic
gradients and Hessians. The neural generator's Hessian is the negated
icnn.input_hessian, read off the Work set of a neural map.

Every map takes a point of shape (n,) or a batch of shape (m, n) and works
row by row on the last axis, so a batch row never reads another row.

Three safety nets guard the neural map, each with zero gradient where it binds. The G floor
reads G as max(G, G_FLOOR), here and in generator_value; the gradient passes where G > G_FLOOR.
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
from .errors import ConfigError, DataError, DimensionError, NumericError

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
        sums_ok = pi.ndim and np.abs(pi.sum(axis=-1) - 1.0).max(initial=0.0) <= 1e-10
        if not (sums_ok and pi.min(initial=np.inf) >= 0.0):
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
        if self.kind == "diversity" and not (self.p is not None and 0.0 < self.p < 1.0):
            raise ConfigError(f"diversity exponent must lie in (0, 1), got {self.p}")
        if self.kind == "neural" and self.theta is None:
            raise ConfigError("neural generator needs network parameters")

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
    return (g + (1.0 - np.sum(x * g, axis=-1, keepdims=True))) * x


def check_positive(x):
    """x, if every entry is finite and > 0, else a DataError."""
    if not (x.min(initial=np.inf) > 0.0 and x.max(initial=0.0) < np.inf):  # a NaN fails both
        raise DataError("weights must be finite and positive")
    return x


def _point(gen: Generator, x):
    """x as float64, checked by check_positive when gen's closed form reads x (equal, diversity
    and entropy), where x**a, log x or 1/x would warn or mean nothing."""
    x = np.asarray(x, dtype=np.float64)
    return check_positive(x) if gen.kind in ("equal", "diversity", "entropy") else x


def classical_weights(gen: Generator, x) -> PortfolioWeights:
    """Closed-form weights for the non-neural generators. The diversity and entropy maps reject a
    point with an entry that is not finite and positive (check_positive), where x**p or log x
    would warn."""
    x = np.asarray(x, dtype=np.float64)
    if gen.kind == "constant":
        w = x
    elif gen.kind == "equal":
        w = np.ones_like(x)
    elif gen.kind == "diversity":
        w = check_positive(x) ** gen.p
    elif gen.kind == "entropy":
        w = -x * np.log(check_positive(x))
    else:
        raise ConfigError("classical_weights does not handle the neural generator")
    return PortfolioWeights(w / w.sum(axis=-1, keepdims=True))


def analytic_grad_log_g(gen: Generator, x) -> np.ndarray:
    """grad_x log G for the closed-form generators (used for equivalence tests). The equal,
    diversity and entropy kinds reject a point with an entry that is not finite and positive."""
    x = _point(gen, x)
    if gen.kind == "constant":
        return np.zeros_like(x)
    if gen.kind == "equal":
        return 1.0 / (x.shape[-1] * x)
    if gen.kind == "diversity":
        # G = (sum x^p)^(1/p): the generator whose weight map is x^p / sum x^p
        return x ** (gen.p - 1.0) / np.sum(x**gen.p, axis=-1, keepdims=True)
    if gen.kind == "entropy":
        return (-np.log(x) - 1.0) / np.expand_dims(generator_value(gen, x), -1)
    raise ConfigError("no analytic gradient for the neural generator")


def generator_value(gen: Generator, x):
    """G(x) for a generator (neural value is clamped at the log floor): a float
    for a point (n,), an (m,) array for a batch (m, n). The equal, diversity and entropy kinds
    reject a point with an entry that is not finite and positive."""
    x = _point(gen, x)
    if gen.kind == "constant":
        G = np.ones(x.shape[:-1])
    elif gen.kind == "equal":
        G = np.prod(x ** (1.0 / x.shape[-1]), axis=-1)
    elif gen.kind == "diversity":
        G = np.sum(x**gen.p, axis=-1) ** (1.0 / gen.p)
    elif gen.kind == "entropy":
        G = -np.sum(x * np.log(x), axis=-1)
    else:
        G = np.maximum(-icnn.forward(gen.theta, x), G_FLOOR)
    return float(G) if x.ndim == 1 else G


def generator_hessian(gen: Generator, x) -> np.ndarray:
    """Hessian of G, (n, n) at a point and (m, n, n) for a batch. Analytic for classical
    generators; exact for the neural one, by neural_hessian over a neural_map of the rows. The
    equal, diversity and entropy kinds reject a point with an entry that is not finite and
    positive."""
    x = _point(gen, x)
    n = x.shape[-1]
    if gen.kind == "constant":
        return np.zeros(x.shape + (n,))
    if gen.kind == "neural":
        return neural_hessian(gen.theta, neural_map(gen.theta, x.reshape(-1, n))).reshape(x.shape + (n,))
    # the classical kinds write the diagonal of each (n, n) block through its einsum view. A tiny
    # weight can take an entry past the float64 range without a warning: the caller sees the inf
    # or NaN (master_residual raises NumericError on it)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if gen.kind == "equal":
            G = np.expand_dims(generator_value(gen, x), -1)
            H = G[..., None] / (n * n * (x[..., :, None] * x[..., None, :]))
            np.einsum("...ii->...i", H)[...] = G * (1.0 - n) / (n * n * x * x)
        elif gen.kind == "diversity":
            p = gen.p
            S = np.sum(x**p, axis=-1, keepdims=True)
            xp1 = x ** (p - 1.0)
            H = (1.0 - p) * S[..., None] ** (1.0 / p - 2.0) * (xp1[..., :, None] * xp1[..., None, :])
            diag = np.einsum("...ii->...i", H)
            diag += (p - 1.0) * S ** (1.0 / p - 1.0) * x ** (p - 2.0)
        else:  # entropy
            H = np.zeros(x.shape + (n,))
            np.einsum("...ii->...i", H)[...] = -1.0 / x
    return H


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
    pi_raw = raw_fgp_weights(np.minimum(np.maximum(grad_log_g, -GRAD_CLIP), GRAD_CLIP), X)
    pi_floored = np.maximum(pi_raw, PORTFOLIO_WEIGHT_FLOOR)
    pi_sum = pi_floored.sum(axis=1, keepdims=True)
    pi = pi_floored / pi_sum
    return NeuralMap(work, neg_grad_f, G, G_col, grad_log_g, pi_raw, pi_floored, pi_sum, pi)


def neural_map_adjoint(nm: NeuralMap, X, d_pi, d_G):
    """The reverse of neural_map over X: from a loss's adjoints d_pi (m, n) on nm.pi and d_G (m,)
    on nm.G through its own terms, the adjoints (d_f (m,), d_grad (m, n)) on the ICNN's f and
    grad f, for icnn.param_gradient. Each safety net passes the gradient only where it does not
    bind (see the module docstring). Each step is the vector-Jacobian product of the autodiff
    tape, in its formula and operand layout."""
    d_floored = d_pi / nm.pi_sum + (-d_pi * nm.pi_floored / (nm.pi_sum * nm.pi_sum)).sum(axis=1, keepdims=True)
    d_gp = d_floored * (nm.pi_raw > PORTFOLIO_WEIGHT_FLOOR) * X
    d_g = d_gp + -d_gp.sum(axis=1, keepdims=True) * X
    d_g_raw = d_g * ((nm.grad_log_g > -GRAD_CLIP) & (nm.grad_log_g < GRAD_CLIP))
    d_G_col = (-d_g_raw * nm.neg_grad_f / (nm.G_col * nm.G_col)).sum(axis=1, keepdims=True)
    return (d_G_col.reshape(-1) * (nm.G > G_FLOOR) + d_G) * -1.0, d_g_raw / nm.G_col * -1.0


def neural_hessian(theta: icnn.ICNNParams, nm: NeuralMap) -> np.ndarray:
    """Hessian of G = -f at each row of a neural map's batch, (m, n, n): icnn.input_hessian negated."""
    return -icnn.input_hessian(theta, nm.work)


def neural_weights(theta: icnn.ICNNParams, x) -> PortfolioWeights:
    """Evaluate the neural weight map at a simplex point (n,) or at each row of a batch (m, n)."""
    x = np.asarray(x, dtype=np.float64)
    return PortfolioWeights(neural_map(theta, np.atleast_2d(x)).pi.reshape(x.shape))


def weights(gen: Generator, x) -> PortfolioWeights:
    """Dispatch to the classical or neural map."""
    if gen.kind == "neural":
        return neural_weights(gen.theta, x)
    return classical_weights(gen, x)
