"""Chebyshev series machinery: T_n coefficients, tensor-product
Gauss-Lobatto fitting, and conversion to monomial form.

Series live on a per-axis interval (default [-1, 1]); fitting on another
interval composes the affine map into every downstream identity, so the
classical facts about T_n are used only on [-1, 1]: the recursion, the
leading coefficient 2^(n-1) (n >= 1), and
sum_j |coeff_j(T_n)| = ((1+sqrt 2)^n + (1-sqrt 2)^n)/2 <= (1+sqrt 2)^n.

Fitting and conversion contract the coefficient tensor axis by axis: fitting
with the Lobatto values-to-coefficients matrix, conversion with the matrix
whose column k holds the monomial coefficients of T_k through the axis's
affine map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import _finite, _integer, _number, _real


def cheb_poly_coeffs(n):
    """Monomial coefficients of T_n: column n of _cheb_monomial_matrix on
    [-1, 1], its zeros made +0.0.  Degrees above 60 are rejected there."""
    n = _integer(n, "n", 0)
    return _cheb_monomial_matrix(n + 1, -1.0, 1.0)[:, n] + 0.0


def tensor_grid(axes):
    """Every point of axes[0] x ... x axes[d-1] as an (N, d) array, the last
    axis varying fastest."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def monomial_values(indices, x):
    """Brute-force x^k for each index; x of shape (n, d) -> (n, len(indices))."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[0], len(indices)))
    for j, k in enumerate(indices):
        col = np.ones(x.shape[0])
        for axis, count in enumerate(k):
            if count:
                col = col * x[:, axis] ** count
        out[:, j] = col
    return out


def _points(x, d):
    """Points as an (n, d) array; shape (n,) is accepted when d == 1.
    Complex points are refused, not cast to their real parts."""
    x = _real(x, "points")
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != d:
        raise ValueError(f"expected points with {d} coordinates")
    return x


def _intervals(domain, d):
    """Per-axis (lo, hi) floats, [-1, 1] on every axis when domain is None."""
    domain = ((-1, 1),) * d if domain is None else domain
    domain = tuple(tuple(_number(v, "domain endpoint", -math.inf, math.inf, True, True) for v in ab) for ab in domain)
    if len(domain) != d:
        raise ValueError("domain must give one interval per axis")
    if any(lo == hi for lo, hi in domain):
        raise ValueError(f"domain intervals need distinct endpoints, got {domain}")
    return domain


def _contract(mats, tensor):
    """Apply mats[a] along axis a of the tensor."""
    for a, mat in enumerate(mats):
        tensor = np.moveaxis(np.tensordot(mat, tensor, axes=(1, a)), 0, a)
    return tensor


@dataclass
class ChebyshevSeries:
    """Tensor-product series sum_k a_k T_{k1}(t_1) ... T_{kd}(t_d) with
    t_a the affine image of x_a from domain[a] onto [-1, 1]."""

    coeffs: np.ndarray
    domain: tuple = None

    def __post_init__(self):
        self.coeffs = _finite(self.coeffs, "series coefficients")
        self.domain = _intervals(self.domain, self.coeffs.ndim)

    @property
    def d(self):
        return self.coeffs.ndim

    @property
    def degrees(self):
        return tuple(s - 1 for s in self.coeffs.shape)


def _lobatto_transform(n):
    """Matrix taking values at nodes cos(j pi / n) to Chebyshev coefficients."""
    if n == 0:
        return np.array([[1.0]])
    j = np.arange(n + 1)
    m = np.cos(np.pi * np.outer(j, j) / n) * (2.0 / n)
    m[:, 0] *= 0.5
    m[:, n] *= 0.5
    m[0, :] *= 0.5
    m[n, :] *= 0.5
    return m


def cheb_fit(fn, degrees, domain=None):
    """Interpolate fn on the tensor Chebyshev-Gauss-Lobatto grid.

    `fn` maps points of shape (n, d) to n real values (pass a target's
    `evaluate`); complex or non-finite values are a ValueError, as is a
    degree that is not an integer >= 0 (2.5 and True are refused, not
    truncated).  Exact (to rounding) for polynomials of per-axis degree at
    most the fitted degree.
    """
    degrees = tuple(_integer(n, "degree", 0) for n in degrees)
    d = len(degrees)
    if d < 1 or d > 3:
        raise ValueError("cheb_fit supports 1 <= d <= 3")
    domain = _intervals(domain, d)
    axes = []
    for n, (lo, hi) in zip(degrees, domain):
        t = np.cos(np.pi * np.arange(n + 1) / n) if n > 0 else np.array([1.0])
        axes.append(lo + (hi - lo) * (t + 1.0) / 2.0)
    pts = tensor_grid(axes)
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        vals = _real(fn(pts), "target values")
    if not np.all(np.isfinite(vals)):
        bad = pts[~np.isfinite(vals)][0]
        raise ValueError(f"target returned a non-finite value at node {tuple(bad.tolist())}")
    coeffs = _contract([_lobatto_transform(n) for n in degrees], vals.reshape([n + 1 for n in degrees]))
    return ChebyshevSeries(coeffs, domain)


@dataclass
class MonomialPolynomial:
    """Finite polynomial sum_k c_k x^k keyed by multi-index tuples of d >= 1
    integers >= 0, with finite real coefficients; nothing is truncated."""

    d: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        self.d = _integer(self.d, "d", 1)
        clean = {}
        for k, c in self.terms.items():
            name = f"multi-index {k!r}"
            k = tuple(_integer(i, f"entry of {name}", 0) for i in k)
            if len(k) != self.d:
                raise ValueError(f"bad multi-index {k} for d={self.d}")
            c = _number(c, f"coefficient at {name}", -math.inf, math.inf, True, True)
            if c != 0.0:
                clean[k] = c
        self.terms = clean

    def coeff_l1(self):
        return float(sum(abs(c) for c in self.terms.values()))

    def evaluate(self, x):
        """Sum of c_k x^k at points of shape (n, d), one term at a time, so
        memory stays O(n) whatever the number of terms."""
        x = _points(x, self.d)
        out = np.zeros(len(x))
        for k, c in self.terms.items():
            out += c * monomial_values([k], x)[:, 0]
        return out


def _cheb_monomial_matrix(size, lo, hi):
    """The (size, size) matrix whose column k holds the monomial
    coefficients of T_k(t), t = alpha x + beta mapping [lo, hi] onto
    [-1, 1], from T_0 = 1, T_1 = t and T_{k+1} = 2t T_k - T_{k-1}, the one
    T_k recurrence here.  Degrees above 60 are rejected."""
    if size > 61:
        raise ValueError("degree above 60 rejected: coefficients overflow doubles")
    alpha = 2.0 / (hi - lo)
    beta = -(hi + lo) / (hi - lo)
    mat = np.zeros((size, size))
    mat[0, 0] = 1.0
    if size > 1:
        mat[:2, 1] = beta, alpha
    for k in range(1, size - 1):
        # 2t T_k: 2 beta T_k plus 2 alpha x T_k, the column moved down a row
        col = 2.0 * beta * mat[:, k]
        col[1:] += 2.0 * alpha * mat[:-1, k]
        mat[:, k + 1] = col - mat[:, k - 1]
    return mat


def cheb_to_monomial(series, gamma):
    """Rewrite the series (truncated to total degree <= gamma) in monomials.

    Tensor coefficients with |k|_1 > gamma are zeroed first.  Each axis is
    then contracted with the matrix whose column k holds the monomial
    coefficients of T_k through that axis's affine domain map, so the result
    is a polynomial identity with the truncated series.
    """
    coeffs = series.coeffs[tuple(slice(max(gamma + 1, 0)) for _ in range(series.d))]
    coeffs = np.where(np.indices(coeffs.shape).sum(axis=0) <= gamma, coeffs, 0.0)
    mats = [_cheb_monomial_matrix(size, lo, hi) for size, (lo, hi) in zip(coeffs.shape, series.domain)]
    return MonomialPolynomial(series.d, dict(np.ndenumerate(_contract(mats, coeffs))))
