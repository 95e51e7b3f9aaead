"""Chebyshev series machinery: exact T_n coefficients, tensor-product
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

from dataclasses import dataclass, field

import numpy as np


def cheb_poly_coeffs(n):
    """Monomial coefficients of T_n from T_{n+1} = 2x T_n - T_{n-1}.

    Computed in exact integer arithmetic and returned as floats; degrees
    above 60 are rejected (coefficients leave the exactly representable
    double range well before that point matters downstream).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 60:
        raise ValueError("degree above 60 rejected: coefficients overflow doubles")
    prev = [1]
    if n == 0:
        return np.array(prev, dtype=np.float64)
    cur = [0, 1]
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return np.array(cur, dtype=np.float64)


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
    """Points as an (n, d) array; shape (n,) is accepted when d == 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != d:
        raise ValueError(f"expected points with {d} coordinates")
    return x


def _intervals(domain, d):
    """Per-axis (lo, hi) floats, [-1, 1] on every axis when domain is None."""
    domain = ((-1, 1),) * d if domain is None else domain
    domain = tuple((float(lo), float(hi)) for lo, hi in domain)
    if len(domain) != d:
        raise ValueError("domain must give one interval per axis")
    if any(lo == hi or not np.isfinite([lo, hi]).all() for lo, hi in domain):
        raise ValueError(f"domain intervals need finite, distinct endpoints, got {domain}")
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
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("series coefficients must be finite")
        self.domain = _intervals(self.domain, self.coeffs.ndim)

    @property
    def d(self):
        return self.coeffs.ndim

    @property
    def degrees(self):
        return tuple(s - 1 for s in self.coeffs.shape)

    def evaluate(self, x):
        """Evaluate at points of shape (n, d) (or (n,) when d == 1)."""
        x = _points(x, self.d)
        operands = []
        for a, (lo, hi) in enumerate(self.domain):
            t = 2.0 * (x[:, a] - lo) / (hi - lo) - 1.0
            operands += [_cheb_vander(t, self.coeffs.shape[a] - 1), [0, a + 1]]
        return np.einsum(*operands, self.coeffs, list(range(1, self.d + 1)), [0])


def _cheb_vander(t, deg):
    v = np.empty((len(t), deg + 1))
    v[:, 0] = 1.0
    if deg >= 1:
        v[:, 1] = t
    for k in range(2, deg + 1):
        v[:, k] = 2.0 * t * v[:, k - 1] - v[:, k - 2]
    return v


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


def cheb_fit(target, degrees, domain=None):
    """Interpolate on the tensor Chebyshev-Gauss-Lobatto grid.

    `target` is a callable taking points of shape (n, d), or any object with
    such an `evaluate` method.  Exact (to rounding) for polynomial targets of
    per-axis degree at most the fitted degree.
    """
    fn = target.evaluate if hasattr(target, "evaluate") else target
    degrees = tuple(int(n) for n in degrees)
    d = len(degrees)
    if d < 1 or d > 3:
        raise ValueError("cheb_fit supports 1 <= d <= 3")
    if any(n < 0 for n in degrees):
        raise ValueError("degrees must be nonnegative")
    domain = _intervals(domain, d)
    axes = []
    for n, (lo, hi) in zip(degrees, domain):
        t = np.cos(np.pi * np.arange(n + 1) / n) if n > 0 else np.array([1.0])
        axes.append(lo + (hi - lo) * (t + 1.0) / 2.0)
    pts = tensor_grid(axes)
    vals = np.asarray(fn(pts), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        bad = pts[~np.isfinite(vals)][0]
        raise ValueError(f"target returned a non-finite value at node {tuple(bad)}")
    coeffs = _contract([_lobatto_transform(n) for n in degrees], vals.reshape([n + 1 for n in degrees]))
    return ChebyshevSeries(coeffs, domain)


@dataclass
class MonomialPolynomial:
    """Finite polynomial sum_k c_k x^k keyed by multi-index tuples."""

    d: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for k, c in self.terms.items():
            k = tuple(int(i) for i in k)
            if len(k) != self.d or any(i < 0 for i in k):
                raise ValueError(f"bad multi-index {k} for d={self.d}")
            c = float(c)
            if not np.isfinite(c):
                raise ValueError(f"non-finite coefficient at {k}")
            if c != 0.0:
                clean[k] = c
        self.terms = clean

    @property
    def degree(self):
        return max((sum(k) for k in self.terms), default=0)

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


def _affine_cheb_monomials(n, lo, hi):
    """Monomial coefficients of T_n(alpha x + beta) mapping [lo,hi] to [-1,1]."""
    alpha = 2.0 / (hi - lo)
    beta = -(hi + lo) / (hi - lo)
    base = cheb_poly_coeffs(n)
    out = np.zeros(n + 1)
    power = np.array([1.0])
    for i in range(n + 1):
        out[: len(power)] += base[i] * power
        if i < n:
            power = np.convolve(power, [beta, alpha])
    return out


def cheb_to_monomial(series, gamma):
    """Rewrite the series (truncated to total degree <= gamma) in monomials.

    Tensor coefficients with |k|_1 > gamma are zeroed first.  Each axis is
    then contracted with the matrix whose column k holds the monomial
    coefficients of T_k through that axis's affine domain map, so the result
    is a polynomial identity with the truncated series.
    """
    coeffs = series.coeffs[tuple(slice(max(gamma + 1, 0)) for _ in range(series.d))]
    coeffs = np.where(np.indices(coeffs.shape).sum(axis=0) <= gamma, coeffs, 0.0)
    mats = []
    for size, (lo, hi) in zip(coeffs.shape, series.domain):
        mat = np.zeros((size, size))
        for k in range(size):
            mat[: k + 1, k] = _affine_cheb_monomials(k, lo, hi)
        mats.append(mat)
    return MonomialPolynomial(series.d, dict(np.ndenumerate(_contract(mats, coeffs))))
