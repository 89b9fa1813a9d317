"""Adam-based maximisation of log relative terminal wealth on a training window.

The loss is the negative time-normalised log relative wealth plus an l2
penalty on the weight vectors and a hinge keeping the generating function
positive on the window. Training is full-batch: the objective is a single
path functional, so every epoch takes one gradient step on the whole window.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import fgp, icnn
from .errors import ConfigError

POS_MARGIN = 0.1  # hinge margin delta keeping G above it
POS_WEIGHT = 1.0  # hinge coefficient
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, theta: icnn.ICNNParams):
        state = cls()
        for name, arr in theta.arrays():
            state.m[name] = np.zeros_like(arr)
            state.v[name] = np.zeros_like(arr)
        return state


@dataclass(frozen=True)
class LossParts:
    total: float
    log_v_term: float
    penalty_term: float
    hinge_term: float


def build_loss(nodes, window_weights, cfg: TrainConfig, widths):
    """Loss graph over a weight window of T+1 rows.

    log V_T is accumulated in log-sum form for stability; the returned node is
    scalar and differentiable in every parameter leaf.
    """
    W = np.asarray(window_weights, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] < 2:
        raise ConfigError("training window needs at least 2 rows")
    T = W.shape[0] - 1
    X = ad.constant(W[:-1])
    ratios = ad.constant(W[1:] / W[:-1])

    pi, G = fgp.build_neural_pi(nodes, X, widths)
    step_returns = ad.sum_(pi * ratios, axis=1)
    log_v = ad.sum_(ad.log(step_returns))
    log_v_term = (-1.0 / T) * log_v
    penalty = cfg.lambda_l2 * ad.mean_(ad.l2norm(pi, axis=1))
    hinge = POS_WEIGHT * ad.mean_(ad.square(ad.maximum(POS_MARGIN - G, 0.0)))
    total = log_v_term + penalty + hinge
    parts = LossParts(total.item(), log_v_term.item(), penalty.item(), hinge.item())
    return total, parts


def loss(theta: icnn.ICNNParams, window_weights, cfg: TrainConfig):
    """Loss value and parts at theta, without differentiating."""
    nodes = icnn.params_to_nodes(theta)
    _, parts = build_loss(nodes, window_weights, cfg, theta.widths)
    return parts


def loss_gradients(theta: icnn.ICNNParams, window_weights, cfg: TrainConfig):
    """One tape evaluation: loss parts plus d(loss)/d(array) for every array."""
    nodes = icnn.params_to_nodes(theta)
    total, parts = build_loss(nodes, window_weights, cfg, theta.widths)
    ad.backward(total)
    grads = {
        name: (node.grad if node.grad is not None else np.zeros_like(node.value))
        for name, node in nodes.items()
    }
    return parts, grads


def adam_step(theta: icnn.ICNNParams, grads, state: AdamState, cfg: TrainConfig):
    """Standard Adam with bias correction, then the convexity projection."""
    state.step += 1
    t = state.step
    lr, b1, b2 = cfg.learning_rate, ADAM_BETA1, ADAM_BETA2
    updated = {}
    for name, arr in theta.arrays():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1**t)
        v_hat = state.v[name] / (1.0 - b2**t)
        updated[name] = arr - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    new_theta = icnn.from_arrays(updated, theta.widths)
    return icnn.project_constraints(new_theta), state


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
    final_parts = loss(theta, window_weights, cfg)
    if final_parts.total < best_loss:
        best_theta = theta
    return best_theta, log_rows


def write_training_log(path, log_rows):
    """One CSV row per epoch: epoch, loss, log V_T term, penalty term, hinge term."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "log_v_term", "penalty_term", "hinge_term"])
        for row in log_rows:
            writer.writerow([row[0]] + [repr(v) for v in row[1:]])
