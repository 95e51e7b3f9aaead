"""Grid verification of the constructions' claimed error bounds.

Each verifier builds its network, sweeps a grid of the certified domain and
compares the network against the exact target (x^2, xy, prod x_i, or all
monomials).  The claims come from the network itself: the report's
construction, parameters, claimed bound and domain are those its builder
wrote into net.meta, and the pass flag is measured <= claimed.

A sweep runs its points through evaluate one block at a time and keeps only
the running maximum of |net - truth|, so no array the size of the grid is
made past the grid itself: the (1, x) inputs, the truth, the outputs and
the error exist for one block at a time.  The mult grid and the product-tree
samples are made block by block as well, and verify_mon's truth has one row
per point of its block only.  Blocks are BLOCK points, cut as
_kernels.eval_chain cuts tiles: the short last block joins the one before
it.  So every block starts on a multiple of TILE and its tiles are the
tiles eval_chain gives the whole sweep; each point's output comes from the
same products as on the whole grid, and the maximum of the block maxima is
the maximum, so every measured error is that of one whole-grid evaluation,
bit for bit.  No evaluate call gets exactly one point unless the whole sweep
is one point (a one-point tile takes numpy's matrix-vector kernel, whose
sums differ in the last bits): a one-point block, which only the literal
mult filter can leave (the last block at step 1/16565, for one), is
evaluated together with a neighbour.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels
from . import constructions as ctor
from .chebyshev import monomial_values, tensor_grid
from .network import evaluate, with_ones


@dataclass
class VerificationReport:
    construction: str
    params: dict
    grid: dict
    measured_max_error: float
    claimed_bound: float
    passed: bool
    seconds: float

    def to_dict(self):
        return asdict(self)


# Points per block of a sweep: 8 tiles.  verify_sweep (perfbench, seed 0)
# peaked at 49.2, 51.0, 53.2, 60.7 and 62.3 MiB RSS with blocks of 2, 4, 8,
# 16 and 32 tiles, against 97 MiB for whole-grid sweeps, with pass times
# equal within host noise; 8 tiles keeps the calls few (37 per pass there).
BLOCK = 8 * _kernels.TILE


def _cuts(n):
    """(lo, hi) of the blocks of a sweep of n points, the short last block
    joined to the one before it, as eval_chain cuts tiles."""
    stops = list(range(BLOCK, n - BLOCK + 1, BLOCK)) + [n]
    return zip([0] + stops, stops)


def _slices(a):
    """The blocks of the rows of a, as views."""
    return (a[lo:hi] for lo, hi in _cuts(len(a)))


def _block_error(net, points, truth):
    out = evaluate(net, with_ones(points))
    return np.abs(out - np.reshape(truth, out.shape)).max()


def _sup(net, blocks):
    """max |net(1, x) - truth| over an iterable of (points, truth) blocks,
    each evaluated as it comes.

    Empty blocks are skipped.  A one-point block is evaluated with the last
    point before it or, when no point comes before it, with the next block,
    so evaluate gets one point only when the whole sweep is one point.  A
    sweep with no points is a ValueError."""
    worst, lone, last = [], None, None
    for pts, truth in blocks:
        if not len(pts):
            continue
        if lone is not None or len(pts) == 1:
            lead = last if lone is None else lone
            if lead is None:
                lone = pts, truth
                continue
            pts, truth = np.concatenate([lead[0], pts]), np.concatenate([lead[1], truth])
            lone = None
        worst.append(_block_error(net, pts, truth))
        # copies: a view would keep the whole block alive
        last = pts[-1:].copy(), truth[-1:].copy()
    if lone is not None:
        worst.append(_block_error(net, *lone))
    if not worst:
        raise ValueError("empty sweep: there are no points to measure the error on")
    # np.max, not max: a NaN block error must give NaN, as one whole-grid max does
    return float(np.max(worst))


def sup_error(net, points, truth):
    """max |net(1, x) - truth| over the points x (shape (n, d), or (n,) for
    d = 1), truth of shape (n,) or (n, outputs), swept one block at a time."""
    truth = np.asarray(truth)
    if len(truth) != len(points):
        raise ValueError(f"truth has {len(truth)} rows for {len(points)} points")
    return _sup(net, zip(_slices(points), _slices(truth)))


def _sweep(net, blocks, grid, bound, t0):
    """The report of net against the (points, truth) blocks, with the claims
    of net.meta."""
    meta = net.meta
    claimed = meta["claimed_error_bound"] if bound is None else float(bound)
    if not (math.isfinite(claimed) and claimed >= 0.0):
        raise ValueError(f"bound must be a finite number >= 0, got {bound!r}")
    measured = _sup(net, blocks)
    return VerificationReport(
        construction=meta["construction"],
        params={k: meta[k] for k in ("m", "r", "gamma", "d", "variant") if k in meta},
        grid={**grid, "domain": meta["claimed_domain"]},
        measured_max_error=measured,
        claimed_bound=claimed,
        passed=measured <= claimed,
        seconds=time.perf_counter() - t0,
    )


def verify_sq(m, n_points=10000, bound=None):
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, n_points)
    blocks = ((b, b * b) for b in _slices(x))
    return _sweep(ctor.build_sq(m), blocks, {"points": n_points}, bound, t0)


def _mult_blocks(n, literal):
    """The blocks of tensor_grid([np.arange(n + 1) / n] * 2), in its order,
    each with its products; the literal variant keeps x + y <= 1."""
    axis = np.arange(n + 1) / n
    for lo, hi in _cuts((n + 1) ** 2):
        i, j = divmod(np.arange(lo, hi), n + 1)
        pts = np.column_stack([axis[i], axis[j]])
        if literal:
            pts = pts[pts[:, 0] + pts[:, 1] <= 1.0]
        yield pts, pts[:, 0] * pts[:, 1]


def verify_mult(m, variant, step=0.005, bound=None):
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step!r}")
    t0 = time.perf_counter()
    variant = ctor.MultVariant(variant)
    blocks = _mult_blocks(int(round(1.0 / step)), variant is ctor.LITERAL)
    return _sweep(ctor.build_mult(m, variant), blocks, {"step": step}, bound, t0)


def verify_multr(m, r, variant, n_samples=100000, seed=0, bound=None):
    t0 = time.perf_counter()
    variant = ctor.MultVariant(variant)
    net = ctor.build_multr(m, r, variant)
    # one generator drawing block after block: the stream of one (n_samples, r) draw
    rng = np.random.default_rng(seed)
    draws = (rng.uniform(0.0, variant.edge, size=(hi - lo, r)) for lo, hi in _cuts(n_samples))
    grid = {"samples": n_samples, "seed": seed}
    return _sweep(net, ((x, np.prod(x, axis=1)) for x in draws), grid, bound, t0)


def verify_mon(m, gamma, d, variant, grid_points=51, bound=None):
    t0 = time.perf_counter()
    variant = ctor.MultVariant(variant)
    net = ctor.build_mon(m, gamma, d, variant)
    pts = tensor_grid([np.linspace(0.0, variant.edge, grid_points)] * d)
    indices = ctor.enumerate_multi_indices(d, gamma)
    blocks = ((p, monomial_values(indices, p)) for p in _slices(pts))
    return _sweep(net, blocks, {"points_per_axis": grid_points}, bound, t0)
