"""Analytic-function approximators built on the all-monomials network.

Two routes produce a network approximating f on a box:

* power series: given coefficients a_k with sum |a_k| <= F, truncate at
  total degree gamma = ceil((1/delta) ln(1/eps)) and append the coefficient
  row to build_mon(m, gamma+1, d) with m = ceil(log2(1/eps)).  Certified on
  (0, 1-delta]^d (intersected with the monomial variant's domain).
* Chebyshev: fit a tensor Gauss-Lobatto series of per-axis degree
  gamma = m = ceil(log2(1/eps)) on [0,1]^d, truncate to total degree gamma,
  convert to monomials and append the row.

Both return (network, certificate); certificates carry the claimed bounds
next to measured quantities and are JSON-ready dicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import MonomialPolynomial, _points, cheb_fit, cheb_to_monomial, tensor_grid
from .constructions import (
    MultVariant,
    LITERAL,
    build_mon,
    enumerate_multi_indices,
    mon_depth_bound,
    mon_width_bound,
)
from .network import Network, path_norm
from .verify import sup_error


class MissingCoefficientError(ValueError):
    """The supplied series generator failed to produce a needed coefficient."""


@dataclass
class AnalyticTarget:
    """A function on [0,1]^d with whatever analyticity data the caller declares.

    fn maps an (n, d) array to an (n,) array.  F bounds either sup|f| or the
    l1 norm of the power-series coefficients depending on the route; rho is
    the declared ellipse parameter and is carried as metadata only.
    """

    name: str
    d: int
    fn: callable
    F: float = None
    rho: float = None

    def evaluate(self, x):
        return np.asarray(self.fn(_points(x, self.d)), dtype=np.float64)


def target_inv_two_minus_x():
    """f(x) = 1/(2-x) = sum_k x^k / 2^(k+1); F = 1 for the series route."""
    return AnalyticTarget("inv2mx", 1, lambda p: 1.0 / (2.0 - p[:, 0]), F=1.0, rho=3.0 + 2.0 * math.sqrt(2.0))


def target_exp_sum(d=1):
    return AnalyticTarget(f"exp-sum-{d}d", d, lambda p: np.exp(np.sum(p, axis=1)), F=float(np.exp(d)))


def target_runge():
    """1/(1 + 25 x^2); poles at +-i/5 make this a stress case for rho."""
    return AnalyticTarget("runge", 1, lambda p: 1.0 / (1.0 + 25.0 * p[:, 0] ** 2), F=1.0)


BUILTIN_TARGETS = {
    "inv2mx": lambda d: target_inv_two_minus_x(),
    "exp-sum": target_exp_sum,
    "runge": lambda d: target_runge(),
}


def builtin_target(name, d=1):
    """The builtin target `name` on [0,1]^d; inv2mx and runge exist only for d = 1."""
    if name not in BUILTIN_TARGETS:
        raise ValueError(f"unknown builtin target {name!r} (have {sorted(BUILTIN_TARGETS)})")
    if name in ("inv2mx", "runge") and d != 1:
        raise ValueError(f"builtin target {name!r} is one-dimensional; got d={d}")
    return BUILTIN_TARGETS[name](d)


def series_inv_two_minus_x():
    """Coefficient generator for 1/(2-x): a_k = 2^-(k+1)."""
    return lambda k: 0.5 ** (k[0] + 1)


BUILTIN_SERIES = {"inv2mx": (series_inv_two_minus_x, 1, 1.0)}


def _coefficient_row(series, d, gamma):
    """Coefficients of the multi-indices of total degree <= gamma, in the
    order of build_mon(m, gamma + 1, d)'s outputs."""
    indices = enumerate_multi_indices(d, gamma + 1)
    if isinstance(series, MonomialPolynomial):
        if series.d != d:
            raise ValueError("polynomial dimension does not match d")
        return np.array([series.terms.get(k, 0.0) for k in indices])
    row = np.empty(len(indices))
    for j, k in enumerate(indices):
        try:
            c = series(k)
        except Exception as e:
            raise MissingCoefficientError(f"no coefficient for {k}: {e}") from e
        if c is None or not np.isfinite(c):
            raise MissingCoefficientError(f"no finite coefficient for {k}")
        row[j] = c
    return row


def power_series_path_bound(d, F, gamma, variant):
    bound = 144.0 * (d + 1) * F * (gamma + 2) ** 5
    if MultVariant.parse(variant) is not LITERAL:
        bound *= 16.0 * (gamma + 2)
    return bound


def _polynomial_net(construction, d, gamma, m, variant, row, **extra):
    """The layers of build_mon(m, gamma + 1, d, variant), then the coefficient row.

    Returns the network and the certificate entries both routes share.
    """
    meta = {"construction": construction, "d": d, "m": m, "gamma": gamma, "variant": variant.value, **extra}
    mon = build_mon(m, gamma + 1, d, variant)
    net = Network(mon.activation, [*mon.layers, row.reshape(1, -1)], meta=meta)
    return net, {
        "d": d,
        "gamma": gamma,
        "m": m,
        "variant": variant.value,
        "claimed_depth_bound": mon_depth_bound(m, gamma + 1),
        "claimed_width_bound": mon_width_bound(m, gamma + 1, d),
        "depth": net.depth,
        "max_width": net.max_width,
        "path_norm": path_norm(net),
    }


def build_power_series_net(series, eps, delta, variant, d=None, F=None):
    """Network approximating sum a_k x^k on (0, 1-delta]^d.

    `series` is a MonomialPolynomial (absent terms are zero) or a callable
    from multi-index tuples to coefficients.  Returns (network, certificate).
    """
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("eps and delta must lie in (0, 1)")
    variant = MultVariant.parse(variant)
    if isinstance(series, MonomialPolynomial):
        d = series.d
    elif d is None:
        raise ValueError("d is required when series is a callable")
    gamma = max(1, math.ceil((1.0 / delta) * math.log(1.0 / eps)))
    m = max(1, math.ceil(math.log2(1.0 / eps)))
    row = _coefficient_row(series, d, gamma)
    if F is None:
        F = float(np.sum(np.abs(row)))
        if isinstance(series, MonomialPolynomial):
            F = max(F, series.coeff_l1())
    net, shared = _polynomial_net("power-series-net", d, gamma, m, variant, row, F=F)
    bound = power_series_path_bound(d, F, gamma, variant)
    assert shared["path_norm"] <= bound or F == 0.0
    cert = {
        "route": "power-series",
        "eps": eps,
        "delta": delta,
        "F": F,
        "claimed_error": (2.0 if variant is LITERAL else 6.0) * F * eps / delta**2,
        "claimed_domain": f"(0, {min(variant.edge, 1.0 - delta)}]^{d}",
        "path_norm_bound": bound,
        **shared,
    }
    return net, cert


def build_cheb_net(target, eps, variant, measure_grid=513):
    """Network approximating an analytic target on [0,1]^d via its Chebyshev
    truncation; returns (network, certificate) with the measured sup error."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    variant = MultVariant.parse(variant)
    d = target.d
    gamma = m = max(1, math.ceil(math.log2(1.0 / eps)))
    series = cheb_fit(target, (gamma,) * d, domain=((0.0, 1.0),) * d)
    row = _coefficient_row(cheb_to_monomial(series, gamma), d, gamma)
    net, shared = _polynomial_net("cheb-net", d, gamma, m, variant, row, target=target.name)

    per_axis = max(2, int(round(measure_grid ** (1.0 / d))))
    grid = tensor_grid([np.linspace(0.0, 1.0, per_axis)] * d)
    measured = sup_error(net, grid, target.evaluate(grid))
    cert = {
        "route": "chebyshev",
        "target": target.name,
        "eps": eps,
        "rho": target.rho,
        "measured_sup_error": measured,
        "grid": {"points_per_axis": per_axis, "domain": "[0,1]^%d" % d},
        "claimed_orders": {
            "depth": "O(log2(1/eps))^2",
            "width": f"O(log2(1/eps))^{d + 2}",
            "path_norm": f"O(log2(1/eps))^{2 * d + 5}",
        },
        **shared,
    }
    return net, cert


def power_series_tail_bound(F, delta, gamma):
    """(1-delta)^gamma * F, the truncation tail on (0, 1-delta]^d."""
    return (1.0 - delta) ** gamma * F
