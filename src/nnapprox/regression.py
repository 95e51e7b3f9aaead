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

from .network import ABS, _finite, _integer, _layout, _network_from_vector, _number, _views, evaluate, path_norm, with_ones


LEARNING_RATE = 0.25  # first trial step of the line search
HOLDOUT_POINTS = 10000  # uniform points for the reported holdout MSE
ORACLE_MC_POINTS = 4096  # Monte Carlo points for |f - f0|^2 in oracle_rhs
ORACLE_C = 1.0  # the constant C of oracle_rhs's remainder term


@dataclass
class RegressionConfig:
    n: int
    d: int
    target: object
    noise_sd: float = 0.0
    widths: tuple = (8,)
    lam: object = "auto"
    lambda_scale: float = 1.0
    max_epochs: int = 2000
    seed: int = 0

    def __post_init__(self):
        self.n = _integer(self.n, "n", 2)
        self.d = _integer(self.d, "d", 1)
        self.widths = tuple(_integer(w, f"widths[{i}]", 1) for i, w in enumerate(self.widths))
        self.max_epochs = _integer(self.max_epochs, "max_epochs", 0)
        self.seed = _integer(self.seed, "seed", 0)
        if self.target.d != self.d:
            raise ValueError(f"d = {self.d} but the target takes points with {self.target.d} coordinates")
        if self.lam != "auto":
            self.lam = _number(self.lam, "lam", 0, math.inf, high_open=True)
        self.lambda_scale = _number(self.lambda_scale, "lambda_scale", 0, math.inf, high_open=True)
        self.noise_sd = _number(self.noise_sd, "noise_sd", 0, math.inf, high_open=True)

    @property
    def architecture(self):
        """Full width vector including the augmented input and scalar output."""
        return (self.d + 1,) + tuple(self.widths) + (1,)


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
    """c * log2(n)^3 * sqrt(sum_i log2 p_i) / sqrt(n) over hidden widths p_i, integers >= 1."""
    n, c = _integer(n, "n", 2), _number(c, "c", 0, math.inf, high_open=True)
    s = sum(math.log2(_integer(w, f"p[{i}]", 1)) for i, w in enumerate(tuple(p)[1:-1], 1))
    return c * math.log2(n) ** 3 * math.sqrt(s) / math.sqrt(n)


def _lambda(config, widths):
    """The penalty weight for a class of these widths: lambda_auto or the
    configured number."""
    if config.lam == "auto":
        return lambda_auto(config.n, widths, config.lambda_scale)
    return config.lam


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


def _risk_grads(weights, acts, pres, res, out):
    """Gradients of the mean squared residual res, from the forward pass
    (acts, pres) of _forward at these weights, written into the matrices
    out (fit passes views of one flat gradient)."""
    delta = (2.0 / len(res)) * res[None, :]
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(delta, acts[i].T, out=out[i])
        if i > 0:
            w = weights[i]
            # a one-row layer's W.T @ delta has inner dimension 1: np.dot
            # hands it to BLAS, which forms the same rounded products w_j
            # delta_k faster than np.matmul's own loop or a broadcast multiply
            delta = np.dot(w.T, delta) if w.shape[0] == 1 else w.T @ delta
            delta *= np.sign(pres[i - 1])


def _path_norm_prefix(absw):
    """(path norm, prefix products v_i = |W_{i-1}|...|W_0| 1) of the |W|
    chain of the matrices absw = |W_i|."""
    v = [np.ones(absw[0].shape[1])]
    # np.dot: the BLAS matrix-vector products of np.matmul, at less cost per
    # call on these few entries (so in path_norm_grads too)
    for a in absw[:-1]:
        v.append(np.dot(a, v[-1]))
    # np.add.reduce: ndarray.sum without its Python wrapper
    return float(np.add.reduce(absw[-1] @ v[-1])), v


def path_norm_grads(weights, absw, v, out):
    """Gradients of the path norm via the product structure of |W_L|...|W_0|,
    given |W_i| and the prefix products v_i of _path_norm_prefix(absw),
    written into the matrices out (fit passes views of one flat vector).

    d pathnorm / d W_i = sign(W_i) * outer(u_i, v_i) with u_i the suffix and
    v_i the prefix absolute products applied to all-ones vectors; the
    subgradient at an exactly zero entry is 0."""
    u = np.ones(absw[-1].shape[0])
    for i in range(len(weights) - 1, -1, -1):
        # the outer product as a BLAS product of inner dimension 1: the same
        # rounded products as a broadcast multiply, without its iterator
        np.dot(u[:, None], v[i][None, :], out=out[i])
        out[i] *= np.sign(weights[i])
        if i > 0:
            u = absw[i].T.dot(u)


def _objective(weights, xa, y, lam, absw):
    """(objective, risk, path norm, grad_inputs) at these weights, whose
    absolute values absw holds: grad_inputs holds the forward pass and the
    |W| prefix products that the gradients at these weights reuse, so an
    accepted step needs no second pass."""
    acts, pres, out = _forward(weights, xa)
    res = out - y
    risk = float(res @ res / len(y))
    pn, v = _path_norm_prefix(absw)
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


def _checked_data(config, dataset):
    """(X, Y) of the dataset as float64, after checking that both are real,
    X is (n, d), Y is (n,) and both are finite."""
    x, y = _finite(dataset.X, "X"), _finite(dataset.Y, "Y")
    for name, a, shape in (("X", x, (config.n, config.d)), ("Y", y, (config.n,))):
        if a.shape != shape:
            raise ValueError(f"{name} has shape {a.shape}, but n = {config.n} and d = {config.d} need {shape}")
    return x, y


def fit(config, dataset):
    """Penalized least squares; returns (Network, FitReport).

    X must be finite of shape (n, d) and Y finite of shape (n,), for the n
    and d of config, or fit raises ValueError.  Every weight matrix is a
    view of one flat vector theta and the gradient is one flat vector g, so
    the step theta - t g, |theta| and the penalty term of g are each one
    numpy call; a trial step is written into a second vector, which takes
    theta's place when accepted."""
    x, y = _checked_data(config, dataset)
    rng = np.random.default_rng(config.seed)
    arch = config.architecture
    shapes, size, _ = _layout(arch)
    cur, trial = _params(shapes, size), _params(shapes, size)
    for w in cur.weights:
        s = 1.0 / math.sqrt(w.shape[1])
        w[...] = rng.uniform(-s, s, size=w.shape)
    lam = _lambda(config, arch)
    # column-major, so the passes' xa.T is C-contiguous (d + 1, n)
    xa = np.asfortranarray(with_ones(x))
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
            _risk_grads(cur.weights, acts, pres, res, g_views)
            path_norm_grads(cur.weights, absw, v, pg_views)
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

    # the network takes cur.flat over; nothing writes to cur from here on
    net = _network_from_vector(ABS, cur.flat, arch, meta={"construction": "fitted", "widths": list(arch)})
    terms = oracle_rhs(config, net)
    report = FitReport(
        objective=obj,
        risk=risk,
        penalty=lam * pn,
        path_norm=pn,
        holdout_mse=_uniform_mse(net, config, config.seed + 1, HOLDOUT_POINTS),
        lambda_used=lam,
        oracle_rhs=terms.rhs,
        oracle_mc_error=terms.mc_error,
        oracle_penalty=terms.penalty,
        oracle_remainder=terms.remainder,
        epochs=epochs,
        converged=converged,
    )
    return net, report


def _uniform_mse(net, config, seed, n_points):
    """Mean of (net(1, x) - f0(x))^2 over n_points uniform x in [0,1]^d drawn with seed."""
    x = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n_points, config.d))
    return float(np.mean((evaluate(net, with_ones(x))[:, 0] - config.target.evaluate(x)) ** 2))


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
    weight and C is ORACLE_C."""
    n = config.n
    mc = _uniform_mse(candidate, config, config.seed + 2, ORACLE_MC_POINTS)
    hidden = candidate.widths[1:-1]
    remainder = ORACLE_C * sum(hidden) * math.log2(n) ** 3 / n
    return OracleTerms(mc, _lambda(config, candidate.widths) * path_norm(candidate), remainder)
