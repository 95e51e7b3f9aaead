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

from .network import ABS, _layout, _network_from_vector, _views, evaluate, path_norm, with_ones


LEARNING_RATE = 0.25  # first trial step of the line search
HOLDOUT_POINTS = 10000  # uniform points for the reported holdout MSE
ORACLE_MC_POINTS = 4096  # Monte Carlo points for |f - f0|^2 in oracle_rhs


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
    oracle_mc_error: float
    oracle_penalty: float
    oracle_remainder: float
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
    """Feature-major pass on inputs xa of shape (n, p0), as eval_chain runs:
    returns (activations per layer incl. the input xa.T, pre-activations,
    output), each activation and pre-activation of shape (width, n)."""
    cur = xa.T
    acts = [cur]
    pres = []
    for w in weights[:-1]:
        pre = w @ cur
        pres.append(pre)
        cur = np.abs(pre)
        acts.append(cur)
    out = weights[-1] @ cur
    pres.append(out)
    return acts, pres, out[0]


def _risk_grads(weights, acts, pres, res, out=None):
    """Gradients of the mean squared residual res, from the forward pass
    (acts, pres) of _forward at these weights, written into the matrices
    out when given (fit passes views of one flat gradient)."""
    grads = [np.empty(w.shape) for w in weights] if out is None else out
    delta = (2.0 / len(res)) * res[None, :]
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(delta, acts[i].T, out=grads[i])
        if i > 0:
            w = weights[i]
            # a one-row layer's W.T @ delta has inner dimension 1: the same
            # products as a broadcast multiply, which skips numpy's slow
            # matmul loop for that shape
            delta = w.T * delta if w.shape[0] == 1 else w.T @ delta
            delta *= np.sign(pres[i - 1])
    return grads


def _path_norm_prefix(weights, absw=None):
    """(path norm, |W_i|, prefix products v_i = |W_{i-1}|...|W_0| 1) of the
    |W| chain; absw, when given, holds the |W_i| already."""
    if absw is None:
        absw = [np.abs(w) for w in weights]
    v = [np.ones(absw[0].shape[1])]
    for a in absw[:-1]:
        v.append(a @ v[-1])
    return float((absw[-1] @ v[-1]).sum()), absw, v


def path_norm_grads(weights, absw, v, out=None):
    """Gradients of the path norm via the product structure of |W_L|...|W_0|,
    given |W_i| and the prefix products v_i of _path_norm_prefix(weights),
    written into the matrices out when given (fit passes views of one flat
    vector).

    d pathnorm / d W_i = sign(W_i) * outer(u_i, v_i) with u_i the suffix and
    v_i the prefix absolute products applied to all-ones vectors; the
    subgradient at an exactly zero entry is 0."""
    grads = [np.empty(w.shape) for w in weights] if out is None else out
    u = np.ones(absw[-1].shape[0])
    for i in range(len(weights) - 1, -1, -1):
        np.multiply(u[:, None], v[i], out=grads[i])
        grads[i] *= np.sign(weights[i])
        if i > 0:
            u = absw[i].T @ u
    return grads


def _objective(weights, xa, y, lam, absw=None):
    """(objective, risk, path norm, grad_inputs): grad_inputs holds the
    forward pass and the |W| prefix products that the gradients at these
    weights reuse, so an accepted step needs no second pass.  absw, when
    given, holds the |W_i|."""
    acts, pres, out = _forward(weights, xa)
    res = out - y
    risk = float(res @ res / len(y))
    pn, absw, v = _path_norm_prefix(weights, absw)
    return risk + lam * pn, risk, pn, (acts, pres, res, absw, v)


class _Params(NamedTuple):
    """One flat parameter vector, its absolute values, and both as the
    per-layer matrix views that the passes read."""

    flat: np.ndarray
    weights: list
    absflat: np.ndarray
    absw: list


def _params(shapes, size):
    flat, absflat = np.empty(size), np.empty(size)
    return _Params(flat, _views(flat, shapes), absflat, _views(absflat, shapes))


def fit(config, dataset):
    """Penalized least squares; returns (Network, FitReport).

    Every weight matrix is a view of one flat vector theta and the gradient
    is one flat vector g, so the step theta - t g, |theta| and the penalty
    term of g are each one numpy call; a trial step is written into a
    second vector, which takes theta's place when accepted."""
    rng = np.random.default_rng(config.seed)
    arch = config.architecture
    shapes, size, _ = _layout(arch)
    cur, trial = _params(shapes, size), _params(shapes, size)
    for w in cur.weights:
        s = 1.0 / math.sqrt(w.shape[1])
        w[...] = rng.uniform(-s, s, size=w.shape)
    lam = _lambda(config, arch)
    # column-major, so the passes' xa.T is C-contiguous (d + 1, n)
    xa = np.asfortranarray(with_ones(dataset.X))
    y = np.asarray(dataset.Y, dtype=np.float64)
    g, pg = np.empty(size), np.empty(size)
    g_views, pg_views = _views(g, shapes), _views(pg, shapes)

    np.abs(cur.flat, out=cur.absflat)
    obj, risk, pn, grad_inputs = _objective(cur.weights, xa, y, lam, cur.absw)
    lr = LEARNING_RATE
    epochs = 0
    converged = False
    # a trial step may overflow; its objective is then inf or NaN, which
    # fails cand_obj <= obj and is rejected like any other increasing step,
    # so the overflow is no fault to warn of.  One errstate for the whole
    # loop: one per trial would cost more than the trial's own numpy calls
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.max_epochs):
            acts, pres, res, absw, v = grad_inputs
            _risk_grads(cur.weights, acts, pres, res, out=g_views)
            path_norm_grads(cur.weights, absw, v, out=pg_views)
            g += lam * pg
            # exact: only compared with 0, and a sum of squares is 0 only when
            # every entry is
            if g @ g == 0.0:
                converged = True
                break
            trial_lr = lr
            for _ in range(60):
                np.subtract(cur.flat, trial_lr * g, out=trial.flat)
                np.abs(trial.flat, out=trial.absflat)
                cand_obj, cand_risk, cand_pn, cand_inputs = _objective(trial.weights, xa, y, lam, trial.absw)
                if cand_obj <= obj:
                    break
                trial_lr *= 0.5
            else:
                converged = True
                break
            improvement = obj - cand_obj
            cur, trial = trial, cur
            obj, risk, pn, grad_inputs = cand_obj, cand_risk, cand_pn, cand_inputs
            lr = trial_lr * 2.0
            epochs += 1
            if improvement < 1e-10 * max(abs(obj), 1e-300):
                converged = True
                break

    net = _network_from_vector(ABS, cur.flat, arch, meta={"construction": "fitted", "widths": list(arch)})
    hold_rng = np.random.default_rng(config.seed + 1)
    xh = hold_rng.uniform(0.0, 1.0, size=(HOLDOUT_POINTS, config.d))
    pred = evaluate(net, with_ones(xh))[:, 0]
    holdout = float(np.mean((pred - config.target.evaluate(xh)) ** 2))
    terms = oracle_rhs(config, net)
    report = FitReport(
        objective=obj,
        risk=risk,
        penalty=lam * pn,
        path_norm=pn,
        holdout_mse=holdout,
        lambda_used=lam,
        oracle_rhs=terms.rhs,
        oracle_mc_error=terms.mc_error,
        oracle_penalty=terms.penalty,
        oracle_remainder=terms.remainder,
        epochs=epochs,
        converged=converged,
    )
    return net, report


class OracleTerms(NamedTuple):
    """The terms of oracle_rhs: the Monte Carlo estimate of |f - f0|^2, the
    class's lambda times the path norm, and C sum_i p_i log2(n)^3 / n."""

    mc_error: float
    penalty: float
    remainder: float

    @property
    def rhs(self):
        """2 (mc_error + penalty) + remainder, the value of the bound."""
        return 2.0 * (self.mc_error + self.penalty) + self.remainder


def oracle_rhs(config, candidate):
    """The terms of 2 [ mc-estimate of |f - f0|^2 + lambda * pathnorm(f) ]
    + C sum_i p_i log2(n)^3 / n, evaluated at the candidate network, as
    OracleTerms; their rhs is the sum.

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
    return OracleTerms(mc, _lambda(config, candidate.widths) * path_norm(candidate), remainder)
