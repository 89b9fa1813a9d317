"""Portfolio weight maps: the generic functionally-generated rule, the
neural map, and closed-form classical generators with their analytic
gradients and Hessians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import icnn
from .errors import ConfigError, DimensionError, NumericError

PORTFOLIO_WEIGHT_FLOOR = 1e-6  # neural weights are floored here, then renormalised
GRAD_CLIP = 10.0  # componentwise cap on grad log G for the neural map
FD_STEP = 1e-4  # central-difference step of the neural Hessian


@dataclass(frozen=True)
class PortfolioWeights:
    """Long-only weights summing to 1."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64)
        if not np.isfinite(pi).all():
            raise NumericError("portfolio weights must be finite")
        if abs(pi.sum() - 1.0) > 1e-10:
            raise NumericError(f"portfolio weights sum to {pi.sum()!r}, not 1")
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
    """pi_i = (g_i + 1 - sum_j x_j g_j) x_i. May go negative; always sums to 1."""
    g = np.asarray(grad_log_g, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if g.shape != x.shape:
        raise DimensionError(f"raw_fgp_weights: gradient shape {g.shape} vs point shape {x.shape}")
    return (g + 1.0 - x @ g) * x


def classical_weights(gen: Generator, x) -> PortfolioWeights:
    """Closed-form weights for the non-neural generators."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if gen.kind == "constant":
        return PortfolioWeights(x / x.sum())
    if gen.kind == "equal":
        return PortfolioWeights(np.full(n, 1.0 / n))
    if gen.kind == "diversity":
        xp = x**gen.p
        return PortfolioWeights(xp / xp.sum())
    if gen.kind == "entropy":
        e = -x * np.log(x)
        return PortfolioWeights(e / e.sum())
    raise ConfigError("classical_weights does not handle the neural generator")


def analytic_grad_log_g(gen: Generator, x) -> np.ndarray:
    """grad_x log G for the closed-form generators (used for equivalence tests)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if gen.kind == "constant":
        return np.zeros(n)
    if gen.kind == "equal":
        return 1.0 / (n * x)
    if gen.kind == "diversity":
        # G = (sum x^p)^(1/p): the generator whose weight map is x^p / sum x^p
        return x ** (gen.p - 1.0) / np.sum(x**gen.p)
    if gen.kind == "entropy":
        return (-np.log(x) - 1.0) / generator_value(gen, x)
    raise ConfigError("no analytic gradient for the neural generator")


def generator_value(gen: Generator, x) -> float:
    """G(x) for a generator (neural value is clamped at the log floor)."""
    x = np.asarray(x, dtype=np.float64)
    if gen.kind == "constant":
        return 1.0
    if gen.kind == "equal":
        return float(np.prod(x ** (1.0 / x.size)))
    if gen.kind == "diversity":
        return float(np.sum(x**gen.p) ** (1.0 / gen.p))
    if gen.kind == "entropy":
        return float(-np.sum(x * np.log(x)))
    return max(icnn.generating_function(gen.theta, x), icnn.G_FLOOR)


def generator_hessian(gen: Generator, x) -> np.ndarray:
    """Hessian of G. Analytic for classical generators; central finite
    differences for the neural one (diagnostics only)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if gen.kind == "constant":
        return np.zeros((n, n))
    if gen.kind == "equal":
        G = generator_value(gen, x)
        H = G / (n * n * np.outer(x, x))
        np.fill_diagonal(H, G * (1.0 - n) / (n * n * x * x))
        return H
    if gen.kind == "diversity":
        p = gen.p
        S = float(np.sum(x**p))
        xp1 = x ** (p - 1.0)
        H = (1.0 - p) * S ** (1.0 / p - 2.0) * np.outer(xp1, xp1)
        H[np.diag_indices(n)] += (p - 1.0) * S ** (1.0 / p - 1.0) * x ** (p - 2.0)
        return H
    if gen.kind == "entropy":
        return np.diag(-1.0 / x)
    return _fd_hessian(gen.theta, x)


def _fd_hessian(theta, x):
    """Central differences of G over the pairs i <= j, all 2n(n+1) stencil points in one batch."""
    n = x.size
    i, j = np.triu_indices(n)
    E = FD_STEP * np.eye(n)
    ei, ej = E[i], E[j]
    stencil = x + np.concatenate([ei + ej, ei - ej, ej - ei, -ei - ej])
    g = icnn.generating_function(theta, stencil).reshape(4, -1)
    H = np.empty((n, n))
    H[i, j] = H[j, i] = (g[0] - g[1] - g[2] + g[3]) / (4.0 * FD_STEP * FD_STEP)
    return H


# ---------------------------------------------------------------------------
# neural weight map, value path and differentiable node path
# ---------------------------------------------------------------------------


def build_neural_pi(nodes, X, widths):
    """Node graph for neural portfolio weights at every row of X.

    Pipeline: grad log G -> componentwise clip at +-GRAD_CLIP -> generic FGP
    map -> floor at PORTFOLIO_WEIGHT_FLOOR and renormalise. Clip and floor use
    the maximum primitive, so the whole map stays differentiable in the
    parameters.

    Returns (pi (T, n), G (T,)).
    """
    g, G, _ = icnn.build_grad_log_g(nodes, X, widths)
    g = ad.maximum(g, -GRAD_CLIP)
    g = -ad.maximum(-g, -GRAD_CLIP)
    xg = ad.sum_(X * g, axis=1, keepdims=True)
    pi_raw = (g + (1.0 - xg)) * X
    pi_floored = ad.maximum(pi_raw, PORTFOLIO_WEIGHT_FLOOR)
    pi = pi_floored / ad.sum_(pi_floored, axis=1, keepdims=True)
    return pi, G


def neural_weights(theta: icnn.ICNNParams, x) -> PortfolioWeights:
    """Evaluate the neural weight map at one simplex point."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (theta.n,):
        raise DimensionError(f"neural_weights: expected shape ({theta.n},), got {x.shape}")
    nodes = icnn.params_to_nodes(theta)
    pi, _ = build_neural_pi(nodes, ad.constant(x[None, :]), theta.widths)
    return PortfolioWeights(pi.value[0].copy())


def weights(gen: Generator, x) -> PortfolioWeights:
    """Dispatch to the classical or neural map."""
    if gen.kind == "neural":
        return neural_weights(gen.theta, x)
    return classical_weights(gen, x)
