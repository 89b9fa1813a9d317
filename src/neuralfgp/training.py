"""Adam-based maximisation of log relative terminal wealth on a training window.

The loss is the negative time-normalised log relative wealth plus an l2
penalty on the weight vectors and a hinge keeping the generating function
positive on the window. Training is full-batch: the objective is a single
path functional, so every epoch takes one gradient step on the whole window.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fgp, icnn
from .errors import ConfigError, NumericError

POS_MARGIN = 0.1  # hinge margin delta keeping G above it
POS_WEIGHT = 1.0  # hinge coefficient
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# a numerical breakdown surfaces as NumericError from a finiteness check, not as numpy warnings
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@dataclass(frozen=True)
class TrainConfig:
    lambda_l2: float = 0.3
    learning_rate: float = 1e-3
    epochs: int = 150

    def __post_init__(self):
        if not (np.isfinite(self.lambda_l2) and self.lambda_l2 >= 0):
            raise ConfigError(f"lambda_l2 must be finite and >= 0, got {self.lambda_l2!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")


@dataclass
class AdamState:
    m: np.ndarray  # first-moment estimate, a flat vector in the parameter layout
    v: np.ndarray  # second-moment estimate, likewise
    step: int = 0

    @classmethod
    def for_params(cls, theta: icnn.ICNNParams):
        return cls(np.zeros_like(theta.flat), np.zeros_like(theta.flat))


@dataclass(frozen=True)
class LossParts:
    total: float
    log_v_term: float
    penalty_term: float
    hinge_term: float


def _window(window_weights):
    W = np.asarray(window_weights, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] < 2:
        raise ConfigError("training window needs at least 2 rows")
    return W


def build_loss(nodes, window_weights, cfg: TrainConfig, widths):
    """Loss graph over a weight window of T+1 rows, on the autodiff tape.

    It spells out loss_gradients' forward pass node for node: the ICNN, its
    input-gradient recursion, the neural weight map (fgp.neural_map) and the
    loss terms. log V_T is accumulated in log-sum form for stability. The
    returned node is scalar and differentiable in every parameter leaf; one
    reverse pass over it is the reference for the hand-written adjoint.
    """
    W = _window(window_weights)
    T = W.shape[0] - 1
    K = len(widths)
    X = ad.constant(W[:-1])
    ratios = ad.constant(W[1:] / W[:-1])

    P = [X @ ad.transpose(nodes["W0"]) + nodes["b0"]]
    Z = ad.softplus(P[0])
    for k in range(1, K):
        P.append(Z @ ad.transpose(nodes[f"W{k}"]) + X @ ad.transpose(nodes[f"U{k}"]) + nodes[f"b{k}"])
        Z = ad.softplus(P[-1])
    f = Z @ nodes["w"] + X @ nodes["u"] + nodes["c"]

    grad, delta = None, nodes["w"]
    for j in range(K - 1, -1, -1):
        a = ad.sigmoid(P[j]) * delta
        term = a @ nodes[f"U{j}" if j else "W0"]
        grad = term if grad is None else grad + term
        if j:
            delta = a @ nodes[f"W{j}"]

    G = -f
    g = -(grad + nodes["u"]) / ad.reshape(ad.maximum(G, icnn.G_FLOOR), (T, 1))
    g = -ad.maximum(-ad.maximum(g, -fgp.GRAD_CLIP), -fgp.GRAD_CLIP)
    pi_raw = (g + (1.0 - ad.sum_(X * g, axis=1, keepdims=True))) * X
    pi_floored = ad.maximum(pi_raw, fgp.PORTFOLIO_WEIGHT_FLOOR)
    pi = pi_floored / ad.sum_(pi_floored, axis=1, keepdims=True)

    log_v_term = (-1.0 / T) * ad.sum_(ad.log(ad.sum_(pi * ratios, axis=1)))
    penalty = cfg.lambda_l2 * ad.mean_(ad.l2norm(pi, axis=1))
    hinge = POS_WEIGHT * ad.mean_(ad.square(ad.maximum(POS_MARGIN - G, 0.0)))
    total = log_v_term + penalty + hinge
    parts = LossParts(total.item(), log_v_term.item(), penalty.item(), hinge.item())
    return total, parts


@_quiet
def loss(theta: icnn.ICNNParams, window_weights, cfg: TrainConfig):
    """Loss value and parts at theta, without differentiating. The parts may be non-finite."""
    nodes = {name: ad.param(arr) for name, arr in theta.arrays()}
    _, parts = build_loss(nodes, window_weights, cfg, theta.widths)
    return parts


@_quiet
def loss_gradients(theta: icnn.ICNNParams, window_weights, cfg: TrainConfig):
    """Loss parts plus d(loss)/d(theta), an ICNNParams of theta's layout, in straight-line numpy.

    The forward pass is fgp.neural_map plus the loss terms. The reverse pass applies
    at each node the vector-Jacobian product the autodiff tape applies there, in
    the same formula and operand layout. Every node has at most two consumers
    and IEEE addition commutes, so the result is bit-identical to
    ad.backward over build_loss, which stays as the reference. NumericError if the
    loss or a gradient entry is not finite.
    """
    W = _window(window_weights)
    T = W.shape[0] - 1
    X, ratios = W[:-1], W[1:] / W[:-1]
    Ws, Us, w = theta.W, (None,) + theta.U, theta.w
    K = len(Ws)
    Z, S, A, D, neg_grad_f, G, G_col, g_raw, pi_raw, pi_floored, pi_sum, pi = fgp.neural_map(theta, X)

    # log wealth, penalty and hinge (build_loss)
    step_returns = (pi * ratios).sum(axis=1)
    log_v_term = (-1.0 / T) * np.log(step_returns).sum()
    norms = np.sqrt((pi * pi).sum(axis=1))
    penalty = cfg.lambda_l2 * norms.mean()
    slack = np.maximum(POS_MARGIN - G, 0.0)
    hinge = POS_WEIGHT * (slack * slack).mean()
    total = log_v_term + penalty + hinge
    if not np.isfinite(total):
        raise NumericError("training loss is not finite")
    parts = LossParts(float(total), float(log_v_term), float(penalty), float(hinge))

    # reverse pass; the seed adjoint 1.0 drops out of every scaling by a constant
    d_pi = ((-1.0 / T) / step_returns)[:, None] * ratios
    d_pi = d_pi + 2.0 * ((cfg.lambda_l2 / T) / (2.0 * norms))[:, None] * pi
    d_floored = d_pi / pi_sum + (-d_pi * pi_floored / (pi_sum * pi_sum)).sum(axis=1, keepdims=True)
    d_gp = d_floored * (pi_raw > fgp.PORTFOLIO_WEIGHT_FLOOR) * X
    d_g = d_gp + -d_gp.sum(axis=1, keepdims=True) * X
    d_g_raw = d_g * ((g_raw > -fgp.GRAD_CLIP) & (g_raw < fgp.GRAD_CLIP))
    d_G_col = (-d_g_raw * neg_grad_f / (G_col * G_col)).sum(axis=1, keepdims=True)
    # the hinge's mask is left out: slack is already zero wherever it is off
    d_G = d_G_col.reshape(T) * (G > icnn.G_FLOOR) + -(2.0 * (POS_WEIGHT / T) * slack)
    d_f = d_G * -1.0
    d_grad = d_g_raw / G_col * -1.0

    # back through the input-gradient recursion, first term first
    d_W = [A[0].T @ d_grad]
    d_U = [None] + [A[j].T @ d_grad for j in range(1, K)]
    d_sig = [None] * K
    d_A = d_grad @ Ws[0].T
    for j in range(K):
        d_sig[j] = d_A * D[j]
        d_D = d_A * S[j]
        if j + 1 < K:
            d_W.append(A[j + 1].T @ d_D)
            d_A = d_grad @ Us[j + 1].T + d_D @ Ws[j + 1].T
    d_w = Z[-1].T @ d_f + d_D.sum(axis=0)

    # back through the ICNN forward, last layer first
    d_b = [None] * K
    d_Z = np.outer(d_f, w)
    for k in range(K - 1, -1, -1):
        d_P = d_Z * S[k] + d_sig[k] * S[k] * (1.0 - S[k])
        d_b[k] = d_P.sum(axis=0)
        if k:
            d_W[k] = (Z[k - 1].T @ d_P).T + d_W[k]
            d_U[k] = (X.T @ d_P).T + d_U[k]
            d_Z = d_P @ Ws[k]
        else:
            d_W[0] = (X.T @ d_P).T + d_W[0]

    grads = {f"W{k}": d_W[k] for k in range(K)}
    grads.update({f"U{k}": d_U[k] for k in range(1, K)})
    grads.update({f"b{k}": d_b[k] for k in range(K)})
    grads.update(w=d_w, u=X.T @ d_f + d_grad.sum(axis=0), c=d_f.sum(axis=0))
    grads = icnn.from_arrays(grads, theta.widths)
    if not np.isfinite(grads.flat).all():
        raise NumericError("training gradient is not finite")
    return parts, grads


@_quiet
def adam_step(theta: icnn.ICNNParams, grads: icnn.ICNNParams, state: AdamState, cfg: TrainConfig):
    """Standard Adam with bias correction on the flat vector, then the convexity projection.

    state.m and state.v are updated in place; theta is not, as train_window may keep it as
    its best iterate. NumericError if the step overflows.
    """
    state.step += 1
    t = state.step
    lr, b1, b2 = cfg.learning_rate, ADAM_BETA1, ADAM_BETA2
    g = grads.flat
    state.m *= b1
    state.m += (1.0 - b1) * g
    state.v *= b2
    state.v += (1.0 - b2) * g * g
    m_hat = state.m / (1.0 - b1**t)
    v_hat = state.v / (1.0 - b2**t)
    updated = theta.flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not np.isfinite(updated).all():
        raise NumericError("training step is not finite")
    return icnn.project_constraints(icnn.ICNNParams(updated, theta.n, theta.widths)), state


def train_window(theta0: icnn.ICNNParams, window_weights, cfg: TrainConfig):
    """Full-batch training; returns (best theta, per-epoch log rows).

    The returned parameters are the ones with the lowest recorded loss, not
    the last iterate. Deterministic given theta0 and the window.
    """
    theta = theta0
    state = AdamState.for_params(theta)
    best_theta, best_loss = theta, np.inf
    log_rows = []
    for epoch in range(cfg.epochs):
        parts, grads = loss_gradients(theta, window_weights, cfg)
        log_rows.append((epoch, parts.total, parts.log_v_term, parts.penalty_term, parts.hinge_term))
        if parts.total < best_loss:
            best_loss, best_theta = parts.total, theta
        theta, state = adam_step(theta, grads, state, cfg)
    if loss(theta, window_weights, cfg).total < best_loss:
        best_theta = theta
    return best_theta, log_rows


def write_training_log(path, log_rows):
    """One CSV row per epoch: epoch, loss, log V_T term, penalty term, hinge term."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "log_v_term", "penalty_term", "hinge_term"])
        for row in log_rows:
            writer.writerow([row[0]] + [repr(v) for v in row[1:]])
