"""Portfolio weight maps: the generic functionally-generated rule, the
neural map, and closed-form classical generators with their analytic
gradients and Hessians.

Every map takes a point of shape (n,) or a batch of shape (m, n) and works
row by row on the last axis, so a batch row never reads another row.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import icnn
from .errors import ConfigError, DimensionError, NumericError

PORTFOLIO_WEIGHT_FLOOR = 1e-6  # neural weights are floored here, then renormalised
GRAD_CLIP = 10.0  # componentwise cap on grad log G for the neural map


@dataclass(frozen=True)
class PortfolioWeights:
    """Long-only weights summing to 1: one row (n,) or a batch of rows (m, n)."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64)
        if not np.isfinite(pi).all():
            raise NumericError("portfolio weights must be finite")
        sums = np.atleast_1d(pi.sum(axis=-1))
        bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-10)
        if bad.size:
            raise NumericError(f"portfolio weights sum to {sums[bad[0]]!r}, not 1")
        if np.any(pi < 0):
            raise NumericError("portfolio weights must be nonnegative")
        object.__setattr__(self, "pi", pi)


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


def classical_weights(gen: Generator, x) -> PortfolioWeights:
    """Closed-form weights for the non-neural generators."""
    x = np.asarray(x, dtype=np.float64)
    if gen.kind == "constant":
        w = x
    elif gen.kind == "equal":
        w = np.ones_like(x)
    elif gen.kind == "diversity":
        w = x**gen.p
    elif gen.kind == "entropy":
        w = -x * np.log(x)
    else:
        raise ConfigError("classical_weights does not handle the neural generator")
    return PortfolioWeights(w / w.sum(axis=-1, keepdims=True))


def analytic_grad_log_g(gen: Generator, x) -> np.ndarray:
    """grad_x log G for the closed-form generators (used for equivalence tests)."""
    x = np.asarray(x, dtype=np.float64)
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
    for a point (n,), an (m,) array for a batch (m, n)."""
    x = np.asarray(x, dtype=np.float64)
    if gen.kind == "constant":
        G = np.ones(x.shape[:-1])
    elif gen.kind == "equal":
        G = np.prod(x ** (1.0 / x.shape[-1]), axis=-1)
    elif gen.kind == "diversity":
        G = np.sum(x**gen.p, axis=-1) ** (1.0 / gen.p)
    elif gen.kind == "entropy":
        G = -np.sum(x * np.log(x), axis=-1)
    else:
        G = np.maximum(icnn.generating_function(gen.theta, x), icnn.G_FLOOR)
    return float(G) if x.ndim == 1 else G


def generator_hessian(gen: Generator, x) -> np.ndarray:
    """Hessian of G, (n, n) at a point and (m, n, n) for a batch. Analytic for classical
    generators; exact for the neural one, by the forward Jacobian recursion of the ICNN."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    diag = np.eye(n, dtype=bool)
    outer = x[..., :, None] * x[..., None, :]
    if gen.kind == "constant":
        return np.zeros_like(outer)
    if gen.kind == "equal":
        G = np.expand_dims(generator_value(gen, x), -1)
        off = G[..., None] / (n * n * outer)
        return np.where(diag, (G * (1.0 - n) / (n * n * x * x))[..., None, :], off)
    if gen.kind == "diversity":
        p = gen.p
        S = np.sum(x**p, axis=-1, keepdims=True)
        xp1 = x ** (p - 1.0)
        H = (1.0 - p) * S[..., None] ** (1.0 / p - 2.0) * (xp1[..., :, None] * xp1[..., None, :])
        return H + np.where(diag, ((p - 1.0) * S ** (1.0 / p - 1.0) * x ** (p - 2.0))[..., None, :], 0.0)
    if gen.kind == "entropy":
        return np.where(diag, (-1.0 / x)[..., None, :], 0.0)
    # J_0 = W_0 and J_k = W_k diag(S_{k-1}) J_{k-1} + U_k are the Jacobians of the pre-activations,
    # (m, m_k, n) stacks; H_f = sum_k J_k^T diag(D_k S_k (1 - S_k)) J_k, where D_k S_k = A_k
    theta = gen.theta
    X = x.reshape(-1, n)
    _, _, S = icnn.forward_layers(theta, X)
    A, _, _ = icnn.input_gradient(theta, S)
    H = 0.0
    for k, W in enumerate(theta.W):
        J = W if k == 0 else W @ (S[k - 1][..., None] * J) + theta.U[k - 1]
        H = H + np.swapaxes(J, -1, -2) @ ((A[k] * (1.0 - S[k]))[..., None] * J)
    return -H.reshape(outer.shape)


# ---------------------------------------------------------------------------
# neural weight map
# ---------------------------------------------------------------------------


# The neural weight map at each row of a batch X (m, n), with every intermediate its adjoint reads:
# Z, S, A, D from icnn.forward_layers and icnn.input_gradient; -grad f; G = -f; G_col = max(G,
# G_FLOOR) as a column; grad_log_g before the clip; the raw FGP weights, floored and row-summed; pi.
NeuralMap = namedtuple("NeuralMap", "Z S A D neg_grad_f G G_col grad_log_g pi_raw pi_floored pi_sum pi")


def neural_map(theta: icnn.ICNNParams, X) -> NeuralMap:
    """Neural weights at each row of X: grad log G -> componentwise clip at +-GRAD_CLIP ->
    generic FGP map (raw_fgp_weights) -> floor at PORTFOLIO_WEIGHT_FLOOR and renormalise.

    G is floored at G_FLOOR before the division. The values equal those of the autodiff graph of
    training.build_loss bit for bit, though its nodes (the clip is two negated maxima) differ.
    """
    f, Z, S = icnn.forward_layers(theta, X)
    A, D, grad_f = icnn.input_gradient(theta, S)
    neg_grad_f = -grad_f
    G = -f
    G_col = np.maximum(G, icnn.G_FLOOR).reshape(-1, 1)
    grad_log_g = neg_grad_f / G_col
    pi_raw = raw_fgp_weights(np.clip(grad_log_g, -GRAD_CLIP, GRAD_CLIP), X)
    pi_floored = np.maximum(pi_raw, PORTFOLIO_WEIGHT_FLOOR)
    pi_sum = pi_floored.sum(axis=1, keepdims=True)
    pi = pi_floored / pi_sum
    return NeuralMap(Z, S, A, D, neg_grad_f, G, G_col, grad_log_g, pi_raw, pi_floored, pi_sum, pi)


def neural_weights(theta: icnn.ICNNParams, x) -> PortfolioWeights:
    """Evaluate the neural weight map at a simplex point (n,) or at each row of a batch (m, n)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != theta.n:
        raise DimensionError(f"neural_weights: expected shape ({theta.n},) or (m, {theta.n}), got {x.shape}")
    return PortfolioWeights(neural_map(theta, np.atleast_2d(x)).pi.reshape(x.shape))


def weights(gen: Generator, x) -> PortfolioWeights:
    """Dispatch to the classical or neural map."""
    if gen.kind == "neural":
        return neural_weights(gen.theta, x)
    return classical_weights(gen, x)
