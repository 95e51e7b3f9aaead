"""Covering-number bounds for path-norm-capped network classes, plus a
brute-force empirical covering oracle to sanity-check them at tiny scale.

The closed-form bound for networks of depth L, widths p, path norm at most
B, on n sample points of sup norm at most r, is

    sum_{i=1..L} p_i log2(3n) + ceil(B^2 r^2 / eps^2) log2(2 P d + 1),

with P the product of the hidden widths and d = p_0.  At L = 0 it collapses
to the linear-class bound ceil(b^2 r^2 / eps^2) log2(2d + 1).

The empirical oracle draws networks from the class, evaluates them on the
sample points and greedily builds an eps-net in the metric
dist(f, g) = sqrt(mean_i (f(z_i) - g(z_i))^2).  Greedy centers are an upper
bound on the minimal cover of the sampled functions, so their log2 count
must stay below the closed-form bound; the check is one-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .network import ABS, Network, evaluate, path_norm


class SamplerViolation(ValueError):
    """A sampled network broke the path-norm cap it was supposed to satisfy."""


@dataclass(frozen=True)
class EntropyBoundSpec:
    """Parameters (eps, L, p, B, r, n) of one bound evaluation."""

    eps: float
    L: int
    p: tuple
    B: float
    r: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(int(w) for w in self.p))
        if len(self.p) != self.L + 2:
            raise ValueError(f"width vector needs L+2={self.L + 2} entries, got {len(self.p)}")
        if not all(math.isfinite(v) and v > 0 for v in (self.eps, self.B, self.r)) or self.n < 1 or self.L < 0:
            raise ValueError("eps, B, r must be finite and positive; n >= 1; L >= 0")
        if any(w < 1 for w in self.p):
            raise ValueError("widths must be positive")
        _ceil_term(self.B, self.r, self.eps)

    @property
    def d(self):
        return self.p[0]

    @property
    def hidden(self):
        return self.p[1:-1]

    def to_dict(self):
        return {"eps": self.eps, "L": self.L, "p": list(self.p), "B": self.B, "r": self.r, "n": self.n}


def _ceil_term(b, r, eps):
    """ceil(b^2 r^2 / eps^2); a ValueError when the ratio leaves float range."""
    eps2 = eps * eps
    q = b * b * r * r / eps2 if eps2 > 0.0 else math.inf
    if not math.isfinite(q):
        raise ValueError(f"B^2 r^2 / eps^2 is not a finite float for B={b!r}, r={r!r}, eps={eps!r}")
    return math.ceil(q)


def linear_bound(b, r, eps, d):
    """Entropy bound for linear functionals with |w|_1 <= b on [-r, r]^d."""
    if b <= 0 or r <= 0 or eps <= 0 or d < 1:
        raise ValueError("b, r, eps must be positive and d >= 1")
    return _ceil_term(b, r, eps) * math.log2(2 * d + 1)


def network_bound(spec):
    """Closed-form entropy bound for the class with path norm capped at B."""
    hidden = spec.hidden
    prod = 1
    for w in hidden:
        prod *= w
    return sum(hidden) * math.log2(3 * spec.n) + _ceil_term(
        spec.B, spec.r, spec.eps
    ) * math.log2(2 * prod * spec.d + 1)


def sample_network(widths, cap, activation=ABS, rng=None):
    """Uniform[-1,1] weights, rescaled layer-wise onto the path-norm cap.

    When the raw draw exceeds the cap every layer is scaled by
    (cap / path_norm)^(1/(L+1)), which lands exactly on the boundary, the
    hard regime for the bound."""
    rng = np.random.default_rng(rng)
    ws = [
        rng.uniform(-1.0, 1.0, size=(widths[i + 1], widths[i]))
        for i in range(len(widths) - 1)
    ]
    net = Network(activation, ws)
    pn = path_norm(net)
    if pn > cap:
        scale = (cap / pn) ** (1.0 / len(ws))
        net = Network(activation, [w * scale for w in ws])
    return net


class CoverResult(NamedTuple):
    size: int
    log2_size: float


def empirical_covering(sampler, points, eps, trials, path_norm_cap=None):
    """Greedy eps-net size over `trials` sampled networks evaluated on `points`.

    sampler() must return a Network whose input dimension matches the point
    dimension; when path_norm_cap is given every sample is checked against it
    and a violation raises SamplerViolation."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    vectors = np.empty((trials, n))
    for t in range(trials):
        net = sampler()
        if path_norm_cap is not None:
            pn = path_norm(net)
            if pn > path_norm_cap * (1.0 + 1e-9):
                raise SamplerViolation(
                    f"sample {t} has path norm {pn:.6g} > cap {path_norm_cap:.6g}"
                )
        out = evaluate(net, points)
        vectors[t] = out[:, 0] if out.ndim == 2 else out
    centers = _kernels.greedy_cover(vectors, eps)
    size = int(len(centers))
    return CoverResult(size, math.log2(size) if size else float("-inf"))


def empirical_vs_bound(spec, activation=ABS, trials=5000, seed=0):
    """Run the oracle for one spec; returns (CoverResult, bound, points)."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-spec.r, spec.r, size=(spec.n, spec.d))
    sampler = lambda: sample_network(spec.p, spec.B, activation, rng)
    cover = empirical_covering(sampler, points, spec.eps, trials, path_norm_cap=spec.B)
    return cover, network_bound(spec), points
