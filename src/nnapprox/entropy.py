"""Covering-number bounds for path-norm-capped network classes, plus a
brute-force empirical covering oracle to sanity-check them at tiny scale.

The closed-form bound for networks of depth L, widths p, path norm at most
B, on n sample points of sup norm at most r, is

    sum_{i=1..L} p_i log2(3n) + ceil(B^2 r^2 / eps^2) log2(2 P d + 1),

with P the product of the hidden widths and d = p_0.  At L = 0 it collapses
to the linear-class bound ceil(b^2 r^2 / eps^2) log2(2d + 1).

The empirical oracle draws networks from the class, evaluates their first
outputs on the sample points (a chunk of networks at a time, each group of
like networks as one block-diagonal chain through _kernels.eval_chain) and
greedily builds an eps-net in the metric dist(f, g) = sqrt(mean_i (f(z_i) -
g(z_i))^2).  Greedy centers are an upper bound on the minimal cover of the
sampled functions, so their log2 count must stay below the closed-form
bound; the check is one-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .network import ABS, NetworkError, ShapeMismatchError, _layout, _network_from_views, _vector_views


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
    hard regime for the bound.  All layers come from one draw theta, the
    same stream as one draw per layer.  theta is copied and checked once
    and sliced once into the layer views of the copy (network._vector_views):
    the raw path norm, the sum of the dense path matrix |W_L| ... |W_0|, is
    read through those views, the copy is rescaled in place, and the same
    views become the network's layers, so the network is built once.  The
    draw size and the shapes of the views come from network._layout, worked
    out once per width vector, and the network carries its stacking key from
    there.  A cap that is NaN or < 0 raises ValueError and bad widths raise
    NetworkError, both before the draw; cap 0 gives the zero network and cap
    inf no rescaling."""
    if not cap >= 0.0:
        raise ValueError(f"cap must be a number >= 0, got {cap!r}")
    shapes, size, _ = _layout(tuple(widths))
    rng = np.random.default_rng(rng)
    flat, views, runs = _vector_views(rng.uniform(-1.0, 1.0, size), widths)
    # |W0| @ I is |W0| exactly, so the product starts there
    pm = np.abs(views[0])
    for w in views[1:]:
        pm = np.abs(w) @ pm
    pn = float(pm.sum())
    if pn > cap:
        flat *= (cap / pn) ** (1.0 / len(shapes))
    return _network_from_views(activation, flat, views, runs)


class CoverResult(NamedTuple):
    size: int
    log2_size: float


# Most sampled networks held at once.  On the entropy oracle's specs chunks
# of 32 to 256 ran equally fast, and from 128 on the networks held raised
# peak RSS (256: +0.7 MiB, 1024: +1.0 MiB over per-sample evaluation).
CHUNK_TRIALS = 64
# Most trial-by-point outputs per chunk, so a chunk on many points stays small.
CHUNK_VALUES = 8192


_Layer = NamedTuple("_Layer", [("runs", tuple), ("shape", tuple)])


def _stacks(nets):
    """nets grouped by activation and runs (block shape and count), in order
    of first appearance: (activation, trial indices, layers) per group, each
    layer a _Layer for _kernels.eval_chain.  A layer that is one block in
    every network is one run of the s blocks stacked as an (s, r, c) array;
    any other layer lists each network's runs in turn.  A network built
    from a vector carries its key in _key, set from network._layout when it
    was built; for any other network the key is read from its runs, not the
    expanded blocks property, which would build a tuple per layer per
    network.  The two keys are equal for the same runs, so such networks
    share a group."""
    groups = {}
    for t, net in enumerate(nets):
        key = net._key
        if key is None:
            key = (net.activation, tuple(tuple([(b.shape, n) for b, n in lay.runs]) for lay in net.layers))
        groups.setdefault(key, []).append(t)
    return [(act, ts, [_stack([nets[t].layers[i] for t in ts]) for i in range(len(shapes))])
            for (act, shapes), ts in groups.items()]


def _stack(lays):
    """The layers lays, one per network, as one block-diagonal _Layer."""
    s, (r, c), runs = len(lays), lays[0].shape, lays[0].runs
    if len(runs) == 1 and runs[0][1] == 1:
        # np.array makes the same (s, r, c) stack as np.stack, in less time
        return _Layer(((np.array([lay.runs[0][0] for lay in lays]), s),), (s * r, s * c))
    return _Layer(tuple(run for lay in lays for run in lay.runs), (s * r, s * c))


def empirical_covering(sampler, points, eps, trials, path_norm_cap=None):
    """Greedy eps-net size over `trials` sampled networks evaluated on `points`.

    sampler() must return a Network whose input dimension matches the point
    dimension.  It is called a chunk of trials at a time, in order; the
    chunk's networks are grouped by activation and block shapes and each
    group runs through _kernels.eval_chain as one block-diagonal chain on
    the points repeated once per network, bit for bit as network.evaluate
    does.  Only each network's first output is covered; the check stays
    one-sided, since output 0 is a network of the same widths up to p_{L+1},
    which the bound does not read, and path norm at most the capped total.
    When path_norm_cap is given every sample is checked against it, with one
    |W| pass per group on ones, bit for bit as network.path_norm, and a
    violation raises SamplerViolation naming the first offending sample,
    once its chunk has been drawn.  A network of the wrong input dimension
    raises ShapeMismatchError and non-finite points raise NetworkError, as
    in evaluate; an eps that is not a finite number > 0 raises ValueError
    before any sample is drawn, and non-finite outputs make greedy_cover
    raise it."""
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be a finite number > 0, got {eps!r}")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ShapeMismatchError(f"points must be a vector or a batch, got ndim={points.ndim}")
    if not np.isfinite(points).all():
        raise NetworkError("input has non-finite entries")
    n, d = points.shape
    vectors = np.empty((trials, n))
    chunk = max(1, min(CHUNK_TRIALS, CHUNK_VALUES // max(n, 1)))
    # network t of a stack reads rows t*d to (t+1)*d; transposed like the
    # points.T that evaluate passes, so the matmuls take the same BLAS path
    repeated = np.tile(points, (1, chunk)).T
    for start in range(0, trials, chunk):
        nets = [sampler() for _ in range(min(chunk, trials - start))]
        groups = _stacks(nets)
        if path_norm_cap is not None:
            pn = np.empty(len(nets))
            for _, ts, layers in groups:
                ones = np.ones((len(ts) * nets[ts[0]].in_dim, 1))
                pn[ts] = _kernels.eval_chain(layers, ones, absolute=True).reshape(len(ts), -1).sum(axis=1)
            bad = np.flatnonzero(pn > path_norm_cap * (1.0 + 1e-9))
            if bad.size:
                t = int(bad[0])
                raise SamplerViolation(
                    f"sample {start + t} has path norm {pn[t]:.6g} > cap {path_norm_cap:.6g}"
                )
        for act, ts, layers in groups:
            if nets[ts[0]].in_dim != d:
                raise ShapeMismatchError(
                    f"layer 0 expects input of length {nets[ts[0]].in_dim}, got {d}"
                )
            out = _kernels.eval_chain(layers, repeated[: len(ts) * d], act.inplace)
            vectors[[start + t for t in ts]] = out.reshape(len(ts), -1, n)[:, 0]
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
