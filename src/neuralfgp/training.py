"""Adam-based maximisation of log relative terminal wealth on a training window.

The loss is the negative time-normalised log relative wealth plus an l2
penalty on the weight vectors and a hinge keeping the generating function
positive on the window. Training is full-batch: the objective is a single
path functional, so every epoch takes one gradient step on the whole window.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fgp, icnn
from .errors import NumericError, bounded, check_fields
from .market_data import write_csv

POS_MARGIN = 0.1  # hinge margin delta keeping G above it
POS_WEIGHT = 1.0  # hinge coefficient
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# a numerical breakdown surfaces as NumericError from a finiteness check, not as numpy warnings
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@dataclass(frozen=True)
class TrainConfig:
    lambda_l2: float = bounded(0.3, 0.0)
    learning_rate: float = bounded(1e-3, 0.0, strict=True)
    epochs: int = bounded(150, 1)

    def __post_init__(self):
        check_fields(self)


@dataclass
class AdamState:
    m: np.ndarray  # first-moment estimate, a flat vector in the parameter layout
    v: np.ndarray  # second-moment estimate, likewise
    step: int = 0

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))  # where adam_step puts its temporaries

    @classmethod
    def for_params(cls, theta: icnn.ICNNParams):
        return cls(np.zeros_like(theta.flat), np.zeros_like(theta.flat))


@dataclass(frozen=True)
class LossParts:
    total: float
    log_v_term: float
    penalty_term: float
    hinge_term: float


Window = namedtuple("Window", "X ratios")  # a window's rows 0..T-1 and its step ratios, (T, n) each


def _window(window_weights) -> Window:
    """The Window of a weight path of T+1 rows that fgp.check_path and fgp.check_positive pass:
    X = W[:-1] and ratios = W[1:] / W[:-1]. A Window passes through, so train_window checks and
    divides once for all its epochs."""
    if isinstance(window_weights, Window):
        return window_weights
    W = fgp.check_positive(fgp.check_path(window_weights))
    return Window(W[:-1], W[1:] / W[:-1])


def build_loss(nodes, window_weights, cfg: TrainConfig, widths):
    """Loss graph over a weight window of T+1 rows, on the autodiff tape.

    It spells out loss_gradients' forward pass node for node: the ICNN, its
    input-gradient recursion, the neural weight map (fgp.neural_map) and the
    loss terms. log V_T is accumulated in log-sum form for stability. The
    returned node is scalar and differentiable in every parameter leaf; one
    reverse pass over it is the reference for the hand-written adjoint.
    """
    window = _window(window_weights)
    T = len(window.X)
    K = len(widths)
    X = ad.constant(window.X)
    ratios = ad.constant(window.ratios)

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
    g = -(grad + nodes["u"]) / ad.reshape(ad.maximum(G, fgp.G_FLOOR), (T, 1))
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
def loss_gradients(theta: icnn.ICNNParams, window_weights, cfg: TrainConfig, work: icnn.Work = None,
                   out: icnn.ICNNParams = None):
    """Loss parts plus d(loss)/d(theta), an ICNNParams of theta's layout, in straight-line numpy.

    The forward pass is fgp.neural_map plus the loss terms. The reverse pass takes the terms'
    own adjoints, then fgp.neural_map_adjoint and icnn.param_gradient, each of which applies at
    each node the vector-Jacobian product the autodiff tape applies there, in the same formula
    and operand layout. Every node has at most two consumers and IEEE addition commutes, so the
    result is bit-identical to ad.backward over build_loss, which stays as the reference.
    NumericError if the loss or a gradient entry is not finite.

    work is the icnn.Work set of both ICNN passes over the window's T rows, handed to
    fgp.neural_map, and out the ICNNParams the gradient is written into, handed to
    icnn.param_gradient; either is fresh when None.
    """
    X, ratios = _window(window_weights)
    T = len(X)
    nm = fgp.neural_map(theta, X, work)

    # log wealth, penalty and hinge (build_loss)
    step_returns = np.add.reduce(nm.pi * ratios, axis=1)
    log_v_term = (-1.0 / T) * np.add.reduce(np.log(step_returns))
    norms = np.sqrt(np.add.reduce(nm.pi * nm.pi, axis=1))
    penalty = cfg.lambda_l2 * (np.add.reduce(norms) / T)  # a mean: the same add.reduce, then the same divide
    slack = np.maximum(POS_MARGIN - nm.G, 0.0)
    hinge = POS_WEIGHT * (np.add.reduce(slack * slack) / T)
    total = log_v_term + penalty + hinge
    if not np.isfinite(total):
        raise NumericError("training loss is not finite")
    parts = LossParts(float(total), float(log_v_term), float(penalty), float(hinge))

    # reverse pass; the seed adjoint 1.0 drops out of every scaling by a constant
    d_pi = ((-1.0 / T) / step_returns)[:, None] * ratios
    d_pi = d_pi + 2.0 * ((cfg.lambda_l2 / T) / (2.0 * norms))[:, None] * nm.pi
    # the hinge's mask is left out: slack is already zero wherever it is off
    d_f, d_grad = fgp.neural_map_adjoint(nm, X, d_pi, -(2.0 * (POS_WEIGHT / T) * slack))
    grads = icnn.param_gradient(theta, X, nm.work, d_f, d_grad, out)
    if not np.isfinite(grads.flat).all():
        raise NumericError("training gradient is not finite")
    return parts, grads


@_quiet
def adam_step(theta: icnn.ICNNParams, grads: icnn.ICNNParams, state: AdamState, cfg: TrainConfig,
              out: icnn.ICNNParams = None):
    """Standard Adam with bias correction on the flat vector, then the convexity projection.

    state.m and state.v are updated in place, and every temporary goes into state.scratch. The
    new iterate is written into out, an ICNNParams in theta's layout (a fresh one when out is
    None), and projected there in place; out is returned. theta is written only when it is out,
    as train_window's iterate is from its second step on. NumericError if the step overflows.
    """
    state.step += 1
    t = state.step
    lr, b1, b2 = cfg.learning_rate, ADAM_BETA1, ADAM_BETA2
    g, (a, b) = grads.flat, state.scratch
    # the operations and operand order of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    # theta - lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), written into a and b
    state.m *= b1
    state.m += np.multiply(1.0 - b1, g, out=a)
    state.v *= b2
    np.multiply(1.0 - b2, g, out=a)
    state.v += np.multiply(a, g, out=a)
    step = np.multiply(lr, np.divide(state.m, 1.0 - b1**t, out=a), out=a)
    denom = np.sqrt(np.divide(state.v, 1.0 - b2**t, out=b), out=b)
    denom += ADAM_EPS
    updated = icnn.ICNNParams(np.empty_like(theta.flat), theta.n, theta.widths) if out is None else out
    np.subtract(theta.flat, np.divide(step, denom, out=a), out=updated.flat)
    if not np.isfinite(updated.flat).all():
        raise NumericError("training step is not finite")
    return icnn.project_constraints(updated), state


def train_window(theta0: icnn.ICNNParams, window_weights, cfg: TrainConfig):
    """Full-batch training; returns (best theta, per-epoch log rows).

    The returned parameters are the ones with the lowest recorded loss, not
    the last iterate. Deterministic given theta0 and the window.

    The window owns every parameter-sized buffer, so an epoch builds none: the gradient, the
    iterate, which the first step fills from theta0 and every later step updates in place, and
    the best iterate, copied in whenever the loss improves. theta0 is not written. The epochs'
    buffers (the Work set, the gradient and the AdamState) are freed after the last step, before
    the tape builds the final iterate's loss, so a window's peak memory is the larger of the two
    footprints, not their sum.
    """
    window = _window(window_weights)
    grads, iterate, best = (icnn.ICNNParams(np.empty_like(theta0.flat), theta0.n, theta0.widths) for _ in range(3))
    state = AdamState.for_params(theta0)
    work = icnn.Work(len(window.X), theta0.widths)
    theta, best_loss = theta0, np.inf
    log_rows = []
    for epoch in range(cfg.epochs):
        parts, grads = loss_gradients(theta, window, cfg, work, grads)
        log_rows.append((epoch, parts.total, parts.log_v_term, parts.penalty_term, parts.hinge_term))
        if parts.total < best_loss:
            best_loss = parts.total
            np.copyto(best.flat, theta.flat)
        theta, state = adam_step(theta, grads, state, cfg, iterate)
    del grads, state, work
    if loss(theta, window, cfg).total < best_loss:
        return theta, log_rows
    return best, log_rows


def write_training_log(path, log_rows):
    """One CSV row per epoch: epoch, loss, log V_T term, penalty term, hinge term."""
    write_csv(path, ["epoch", "loss", "log_v_term", "penalty_term", "hinge_term"], log_rows)
