"""Desk-scale penalized least squares with the path-norm penalty.

The estimator minimizes (1/n) sum_i (Y_i - f(X_i))^2 + lambda * pathnorm(f)
over abs-activation networks of a fixed architecture by gradient descent
with a backtracking line search (the objective never increases along
accepted steps).  Inputs are augmented with a leading constant coordinate,
so a network on [0,1]^d has p_0 = d + 1.

This is a local optimizer standing in for the exact argmin of the theory;
the oracle-inequality right-hand side is therefore *reported*, never
asserted as a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import ABS, Network, evaluate, path_norm, with_ones


LEARNING_RATE = 0.25  # first trial step of the line search
HOLDOUT_POINTS = 10000  # uniform points for the reported holdout MSE
ORACLE_MC_POINTS = 4096  # Monte Carlo points for |f - f0|^2 in oracle_rhs


class FitDivergence(RuntimeError):
    """Objective exploded past the divergence guard."""


@dataclass
class RegressionConfig:
    n: int
    d: int
    target: object
    noise_sd: float = 0.0
    widths: tuple = (8,)
    lam: object = "auto"
    lambda_scale: float = 1.0
    oracle_c: float = 1.0
    max_epochs: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"hidden widths must be positive, got {tuple(self.widths)}")
        if self.lam != "auto" and not _finite_nonneg(self.lam):
            raise ValueError(f"lam must be 'auto' or a finite number >= 0, got {self.lam!r}")
        for name in ("lambda_scale", "noise_sd", "oracle_c"):
            if not _finite_nonneg(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number >= 0, got {getattr(self, name)!r}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def architecture(self):
        """Full width vector including the augmented input and scalar output."""
        return (self.d + 1,) + tuple(self.widths) + (1,)


def _finite_nonneg(value):
    try:
        value = float(value)
    except (TypeError, ValueError):
        return False
    return math.isfinite(value) and value >= 0


class Dataset(NamedTuple):
    X: np.ndarray
    Y: np.ndarray


@dataclass
class FitReport:
    objective: float
    risk: float
    penalty: float
    path_norm: float
    holdout_mse: float
    lambda_used: float
    oracle_rhs: float
    epochs: int
    converged: bool

    def to_dict(self):
        return dict(self.__dict__)


def lambda_auto(n, p, c=1.0):
    """c * log2(n)^3 * sqrt(sum_i log2 p_i) / sqrt(n) over hidden widths."""
    if n < 2:
        raise ValueError("n must be at least 2")
    hidden = tuple(p)[1:-1]
    if any(w < 1 for w in hidden):
        raise ValueError("widths must be positive")
    s = sum(math.log2(w) for w in hidden)
    return c * math.log2(n) ** 3 * math.sqrt(s) / math.sqrt(n)


def _lambda(config, widths):
    """The penalty weight for a class of these widths: lambda_auto or the
    configured number."""
    if config.lam == "auto":
        return lambda_auto(config.n, widths, config.lambda_scale)
    return float(config.lam)


def generate_data(config):
    """X_i iid uniform on [0,1]^d, Y_i = f0(X_i) + Gaussian noise."""
    rng = np.random.default_rng(config.seed)
    x = rng.uniform(0.0, 1.0, size=(config.n, config.d))
    y = config.target.evaluate(x)
    if config.noise_sd:
        y = y + config.noise_sd * rng.standard_normal(config.n)
    return Dataset(x, y)


def _forward(weights, xa):
    """Returns (activations per layer incl. input, pre-activations, output)."""
    acts = [xa]
    pres = []
    cur = xa
    last = len(weights) - 1
    for i, w in enumerate(weights):
        pre = cur @ w.T
        pres.append(pre)
        if i < last:
            cur = np.abs(pre)
            acts.append(cur)
    return acts, pres, pres[-1][:, 0]


def _risk_grads(weights, acts, pres, res):
    """Gradients of the mean squared residual res, from the forward pass
    (acts, pres) of _forward at these weights."""
    grads = [None] * len(weights)
    delta = (2.0 / len(res)) * res[:, None]
    for i in range(len(weights) - 1, -1, -1):
        grads[i] = delta.T @ acts[i]
        if i > 0:
            delta = (delta @ weights[i]) * np.sign(pres[i - 1])
    return grads


def _path_norm_prefix(weights):
    """(path norm, |W_i|, prefix products v_i = |W_{i-1}|...|W_0| 1) of the |W| chain."""
    absw = [np.abs(w) for w in weights]
    v = [np.ones(absw[0].shape[1])]
    for a in absw[:-1]:
        v.append(a @ v[-1])
    return float(np.sum(absw[-1] @ v[-1])), absw, v


def path_norm_grads(weights, absw, v):
    """Gradients of the path norm via the product structure of |W_L|...|W_0|,
    given |W_i| and the prefix products v_i of _path_norm_prefix(weights).

    d pathnorm / d W_i = sign(W_i) * outer(u_i, v_i) with u_i the suffix and
    v_i the prefix absolute products applied to all-ones vectors; the
    subgradient at an exactly zero entry is 0."""
    u = [np.ones(weights[-1].shape[0])]
    for a in reversed(absw[1:]):
        u.insert(0, a.T @ u[0])
    return [np.sign(w) * np.outer(u[i], v[i]) for i, w in enumerate(weights)]


def _objective(weights, xa, y, lam):
    """(objective, risk, path norm, grad_inputs): grad_inputs holds the
    forward pass and the |W| prefix products that the gradients at these
    weights reuse, so an accepted step needs no second pass."""
    acts, pres, out = _forward(weights, xa)
    res = out - y
    risk = float(res @ res / len(y))
    pn, absw, v = _path_norm_prefix(weights)
    return risk + lam * pn, risk, pn, (acts, pres, res, absw, v)


def fit(config, dataset):
    """Penalized least squares; returns (Network, FitReport)."""
    rng = np.random.default_rng(config.seed)
    arch = config.architecture
    weights = []
    for i in range(len(arch) - 1):
        s = 1.0 / math.sqrt(arch[i])
        weights.append(rng.uniform(-s, s, size=(arch[i + 1], arch[i])))
    lam = _lambda(config, arch)
    xa = with_ones(dataset.X)
    y = np.asarray(dataset.Y, dtype=np.float64)

    obj, risk, pn, grad_inputs = _objective(weights, xa, y, lam)
    initial_obj = obj
    lr = LEARNING_RATE
    epochs = 0
    converged = False
    for _ in range(config.max_epochs):
        acts, pres, res, absw, v = grad_inputs
        grads = _risk_grads(weights, acts, pres, res)
        for g, pg in zip(grads, path_norm_grads(weights, absw, v)):
            g += lam * pg
        gnorm2 = sum(float(np.sum(g * g)) for g in grads)
        if gnorm2 == 0.0:
            converged = True
            break
        accepted = False
        trial_lr = lr
        for _ in range(60):
            cand = [w - trial_lr * g for w, g in zip(weights, grads)]
            cand_obj, cand_risk, cand_pn, cand_inputs = _objective(cand, xa, y, lam)
            if cand_obj <= obj:
                accepted = True
                break
            trial_lr *= 0.5
        if not accepted:
            converged = True
            break
        assert cand_obj <= obj, "line search accepted an increasing step"
        improvement = obj - cand_obj
        weights, obj, risk, pn, grad_inputs = cand, cand_obj, cand_risk, cand_pn, cand_inputs
        lr = trial_lr * 2.0
        epochs += 1
        if obj > 1e6 * max(initial_obj, 1e-300):
            raise FitDivergence(f"objective {obj:.3g} exceeds 1e6 x initial {initial_obj:.3g}")
        if improvement < 1e-10 * max(abs(obj), 1e-300):
            converged = True
            break

    net = Network(ABS, weights, meta={"construction": "fitted", "widths": list(arch)})
    hold_rng = np.random.default_rng(config.seed + 1)
    xh = hold_rng.uniform(0.0, 1.0, size=(HOLDOUT_POINTS, config.d))
    pred = evaluate(net, with_ones(xh))[:, 0]
    holdout = float(np.mean((pred - config.target.evaluate(xh)) ** 2))
    rhs = oracle_rhs(config, net)
    report = FitReport(
        objective=obj,
        risk=risk,
        penalty=lam * pn,
        path_norm=pn,
        holdout_mse=holdout,
        lambda_used=lam,
        oracle_rhs=rhs,
        epochs=epochs,
        converged=converged,
    )
    return net, report


def oracle_rhs(config, candidate):
    """2 [ mc-estimate of |f - f0|^2 + lambda * pathnorm(f) ]
    + C sum_i p_i log2(n)^3 / n, evaluated at the candidate network.

    An upper bound on the oracle-inequality right-hand side's infimum term;
    reported, never asserted.  Hidden widths come from the candidate, which
    represents the class containing it; lambda is that class's penalty
    weight and C is config.oracle_c."""
    n = config.n
    rng = np.random.default_rng(config.seed + 2)
    xm = rng.uniform(0.0, 1.0, size=(ORACLE_MC_POINTS, config.d))
    pred = evaluate(candidate, with_ones(xm))[:, 0]
    mc = float(np.mean((pred - config.target.evaluate(xm)) ** 2))
    hidden = candidate.widths[1:-1]
    remainder = config.oracle_c * sum(hidden) * math.log2(n) ** 3 / n
    return 2.0 * (mc + _lambda(config, candidate.widths) * path_norm(candidate)) + remainder
