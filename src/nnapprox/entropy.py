"""Covering-number bounds for path-norm-capped network classes, plus a
brute-force empirical covering oracle to sanity-check them at tiny scale.

The closed-form bound for networks of depth L, widths p, path norm at most
B, on n sample points of sup norm at most r, is

    sum_{i=1..L} p_i log2(3n) + ceil(B^2 r^2 / eps^2) log2(2 P d + 1),

with P the product of the hidden widths and d = p_0.  At L = 0 it collapses
to the linear-class bound ceil(b^2 r^2 / eps^2) log2(2d + 1).

The empirical oracle draws networks from the class, checks their path
norms against B, evaluates their first outputs on the sample points (a
chunk of networks at a time, each group of like networks as one
block-diagonal chain through _kernels.eval_chain) and greedily builds an
eps-net in the metric dist(f, g) = sqrt(mean_i (f(z_i) - g(z_i))^2).
Greedy centers are an upper bound on the minimal cover of the sampled
functions, so their log2 count must stay below the closed-form bound; the
check is one-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .network import ABS, BlockDiagonal, ShapeMismatchError, _finite, _integer, _layout, _network_from_vector, _number, _views


class SamplerViolation(ValueError):
    """A sampled network broke the path-norm cap it was supposed to satisfy."""


@dataclass(frozen=True)
class EntropyBoundSpec:
    """Parameters (eps, L, p, B, r, n) of one bound evaluation; L >= 0,
    n >= 1 and the widths p >= 1 are integers, and eps > 0, B >= 0 and
    r > 0 finite real numbers, stored as floats."""

    eps: float
    L: int
    p: tuple
    B: float
    r: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "L", _integer(self.L, "L", 0))
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        object.__setattr__(self, "p", tuple(_integer(w, f"p[{i}]", 1) for i, w in enumerate(self.p)))
        for name, low_open in (("eps", True), ("B", False), ("r", True)):
            object.__setattr__(self, name, _number(getattr(self, name), name, 0, math.inf, low_open, True))
        if len(self.p) != self.L + 2:
            raise ValueError(f"width vector needs L+2={self.L + 2} entries, got {len(self.p)}")
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
    same stream as one draw per layer.  The raw path norm, the sum of the
    dense path matrix |W_L| ... |W_0|, is read through row-major views of
    theta (network._views), theta is rescaled in place when it is over the
    cap, and network._network_from_vector takes it over as it is, so the
    draw is not copied and the network is built once.  The draw size and
    the view shapes come from network._layout; the |W| chain runs on views
    of one |theta|.  A cap that is not a number >= 0 (network._number)
    raises ValueError and bad widths raise NetworkError, both before the
    draw; cap 0 gives the zero network and cap inf no rescaling."""
    cap = _number(cap, "cap", 0)
    shapes, size, _ = _layout(tuple(widths))
    rng = np.random.default_rng(rng)
    theta = rng.uniform(-1.0, 1.0, size)
    # |W0| @ I is |W0| exactly, so the product starts there
    pm, *rest = _views(np.abs(theta), shapes)
    for w in rest:
        pm = w @ pm
    pn = float(pm.sum())
    if pn > cap:
        theta *= (cap / pn) ** (1.0 / len(shapes))
    return _network_from_vector(activation, theta, widths)


class CoverResult(NamedTuple):
    size: int
    log2_size: float


# Most sampled networks held at once.  On the entropy oracle's specs chunks
# of 32 to 256 ran equally fast, and from 128 on the networks held raised
# peak RSS (256: +0.7 MiB, 1024: +1.0 MiB over per-sample evaluation).
CHUNK_TRIALS = 64
# Most trial-by-point outputs per chunk, so a chunk on many points stays small.
CHUNK_VALUES = 8192


def _stacks(nets):
    """nets grouped by activation and runs (block shape and count), in order
    of first appearance: (activation, trial indices, layers) per group, each
    layer one BlockDiagonal.  A layer that is one block in every network is
    one run of the s blocks stacked as an (s, r, c) array; any other layer
    lists each network's runs in turn.  A network built from a vector
    carries its key in _key, set from network._layout; for any other
    network the key is read from its runs, not the expanded blocks
    property, which would build a tuple per layer per network.  The two
    keys are equal for the same runs, so such networks share a group."""
    groups = {}
    for t, net in enumerate(nets):
        key = net._key
        if key is None:
            key = (net.activation, tuple(tuple([(b.shape, n) for b, n in lay.runs]) for lay in net.layers))
        groups.setdefault(key, []).append(t)
    return [(act, ts, [_stack([nets[t].layers[i] for t in ts]) for i in range(len(shapes))])
            for (act, shapes), ts in groups.items()]


def _stack(lays):
    """The layers lays, one per network, as one block-diagonal layer."""
    s, (r, c), runs = len(lays), lays[0].shape, lays[0].runs
    if len(runs) == 1 and runs[0][1] == 1:
        # np.array makes the same (s, r, c) stack as np.stack, in less time
        return BlockDiagonal._of_runs(((np.array([lay.runs[0][0] for lay in lays]), s),), (s * r, s * c))
    return BlockDiagonal._of_runs(tuple(run for lay in lays for run in lay.runs), (s * r, s * c))


def empirical_covering(sampler, points, eps, trials, path_norm_cap):
    """Greedy eps-net size over `trials` sampled networks evaluated on `points`.

    sampler() must return a Network whose input dimension matches the point
    dimension.  It is called a chunk of trials at a time, in order; the
    chunk's networks are grouped by activation and block shapes and each
    group runs through _kernels.eval_chain as one block-diagonal chain on
    the points repeated once per network, bit for bit as network.evaluate
    does.  Only each network's first output is covered; the check stays
    one-sided, since output 0 is a network of the same widths up to p_{L+1},
    which the bound does not read, and path norm at most the capped total.
    Every sample is checked against path_norm_cap with one |W| pass per
    group on ones, bit for bit as network.path_norm, and a violation raises
    SamplerViolation naming the first offending sample, once its chunk has
    been drawn.  A network of the wrong input dimension raises
    ShapeMismatchError and complex or non-finite points raise NetworkError,
    as in evaluate; trials that is not an integer >= 1, an eps that is not a
    finite number > 0, or a cap that is not a number >= 0 (inf is allowed),
    raises ValueError before any sample is drawn, and non-finite outputs
    make greedy_cover raise it."""
    trials = _integer(trials, "trials", 1)
    eps = _number(eps, "eps", 0, math.inf, True, True)
    path_norm_cap = _number(path_norm_cap, "path_norm_cap", 0)
    points = _finite(points, "points")
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ShapeMismatchError(f"points must be a vector or a batch, got ndim={points.ndim}")
    n, d = points.shape
    vectors = np.empty((trials, n))
    chunk = max(1, min(CHUNK_TRIALS, CHUNK_VALUES // max(n, 1)))
    # network t of a stack reads rows t*d to (t+1)*d; transposed like the
    # points.T that evaluate passes, so the matmuls take the same BLAS path
    repeated = np.tile(points, (1, chunk)).T
    for start in range(0, trials, chunk):
        nets = [sampler() for _ in range(min(chunk, trials - start))]
        groups = _stacks(nets)
        pn = np.empty(len(nets))
        for _, ts, layers in groups:
            ones = np.ones((len(ts) * nets[ts[0]].in_dim, 1))
            pn[ts] = _kernels.eval_chain(layers, ones).reshape(len(ts), -1).sum(axis=1)
        bad = np.flatnonzero(pn > path_norm_cap * (1.0 + 1e-9))
        if bad.size:
            t = int(bad[0])
            raise SamplerViolation(f"sample {start + t} has path norm {pn[t]:.6g} > cap {path_norm_cap:.6g}")
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
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    points = rng.uniform(-spec.r, spec.r, size=(spec.n, spec.d))
    sampler = lambda: sample_network(spec.p, spec.B, activation, rng)
    cover = empirical_covering(sampler, points, spec.eps, trials, path_norm_cap=spec.B)
    return cover, network_bound(spec), points
