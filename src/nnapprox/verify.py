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
it.  eval_chain's tile is TILE, halved for wide nets: a power of two that
divides BLOCK.  So every block starts on a tile boundary and its tiles are
the tiles eval_chain gives the whole sweep; each point's output comes from
the same products as on the whole grid, and the maximum of the block maxima
is the maximum, so every measured error is that of one whole-grid
evaluation, bit for bit.  The literal mult filter leaves blocks of any size,
one point included, and a one-point call takes numpy's matrix-vector kernel.
That such a call gives the bits of a larger one is observed on the mult nets,
not derived: each output sums at most three products, every weight is 0 or
a signed power of two so every product is exact, and only the order of the
few additions could differ, which numpy's two kernels were seen to keep.  A
test pins it for m = 1, 4, 8, so the literal sweeps equal one whole-grid
evaluation as well.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels
from . import constructions as ctor
from .chebyshev import monomial_values, tensor_grid
from .network import _integer, _number, _real, evaluate, with_ones


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


# Points per block of a sweep: 2 tiles of TILE.  verify_sweep (perfbench,
# seed 0) peaked at 49.2, 51.0, 53.2, 60.7 and 62.3 MiB RSS with blocks of
# 2, 4, 8, 16 and 32 tiles, against 97 MiB for whole-grid sweeps, with pass
# times equal within host noise.  With eval_chain's width-derived tiles as
# well, 2-tile blocks peaked at 47.6 MiB (median of 11 seeds) where 8-tile
# blocks and fixed tiles had peaked at 53.4 (BENCH_pr29.json); the calls
# rose from 37 to 147 per pass there, and the pass time held (0.34 and
# 0.32 s medians).
BLOCK = 2 * _kernels.TILE


def _slices(a):
    """The blocks of the rows of a, as views."""
    return (a[lo:hi] for lo, hi in _kernels._cuts(len(a), BLOCK))


def _block_error(net, points, truth):
    out = evaluate(net, with_ones(points))
    return np.abs(out - np.reshape(truth, out.shape)).max()


def _sup(net, blocks):
    """max |net(1, x) - truth| over an iterable of (points, truth) blocks,
    each evaluated as it comes.  Empty blocks are skipped; a sweep with no
    points is a ValueError."""
    worst = [_block_error(net, pts, truth) for pts, truth in blocks if len(pts)]
    if not worst:
        raise ValueError("empty sweep: there are no points to measure the error on")
    # np.max, not max: a NaN block error must give NaN, as one whole-grid max does
    return float(np.max(worst))


def sup_error(net, points, truth):
    """max |net(1, x) - truth| over the points x (shape (n, d), or (n,) for
    d = 1), truth of shape (n,) or (n, outputs), both real (_real), swept one
    block at a time."""
    points, truth = _real(points, "points"), _real(truth, "truth")
    for what, a in (("points", points), ("truth", truth)):
        if a.ndim == 0:
            raise ValueError(f"{what} must be an array with one row per point, got the scalar {a.item()!r}")
    if len(truth) != len(points):
        raise ValueError(f"truth has {len(truth)} rows for {len(points)} points")
    return _sup(net, zip(_slices(points), _slices(truth)))


def _sweep(net, blocks, grid, bound, t0):
    """The report of net against the (points, truth) blocks, with the claims
    of net.meta."""
    meta = net.meta
    claimed = meta["claimed_error_bound"] if bound is None else _number(bound, "bound", 0, math.inf, high_open=True)
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
    n_points = _integer(n_points, "n_points", 0)
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, n_points)
    blocks = ((b, b * b) for b in _slices(x))
    return _sweep(ctor.build_sq(m), blocks, {"points": n_points}, bound, t0)


def _mult_blocks(n, literal):
    """The blocks of tensor_grid([np.arange(n + 1) / n] * 2), in its order,
    each with its products; the literal variant keeps x + y <= 1."""
    axis = np.arange(n + 1) / n
    for lo, hi in _kernels._cuts((n + 1) ** 2, BLOCK):
        i, j = divmod(np.arange(lo, hi), n + 1)
        pts = np.column_stack([axis[i], axis[j]])
        if literal:
            pts = pts[pts[:, 0] + pts[:, 1] <= 1.0]
        yield pts, pts[:, 0] * pts[:, 1]


def verify_mult(m, variant, step=0.005, bound=None):
    step = _number(step, "step", 0, 1, low_open=True)
    t0 = time.perf_counter()
    variant = ctor.MultVariant(variant)
    n = int(round(1.0 / step))
    blocks = _mult_blocks(n, variant is ctor.LITERAL)
    # report the step swept, 1/n, which the requested step need not be (0.7 sweeps {0, 1})
    return _sweep(ctor.build_mult(m, variant), blocks, {"step": 1.0 / n}, bound, t0)


def verify_multr(m, r, variant, n_samples=100000, seed=0, bound=None):
    n_samples, seed = _integer(n_samples, "n_samples", 0), _integer(seed, "seed", 0)
    t0 = time.perf_counter()
    variant = ctor.MultVariant(variant)
    net = ctor.build_multr(m, r, variant)
    # one generator drawing block after block: the stream of one (n_samples, r) draw
    rng = np.random.default_rng(seed)
    draws = (rng.uniform(0.0, variant.edge, size=(hi - lo, r)) for lo, hi in _kernels._cuts(n_samples, BLOCK))
    grid = {"samples": n_samples, "seed": seed}
    return _sweep(net, ((x, np.prod(x, axis=1)) for x in draws), grid, bound, t0)


def verify_mon(m, gamma, d, variant, grid_points=51, bound=None):
    grid_points = _integer(grid_points, "grid_points", 0)
    t0 = time.perf_counter()
    variant = ctor.MultVariant(variant)
    net = ctor.build_mon(m, gamma, d, variant)
    pts = tensor_grid([np.linspace(0.0, variant.edge, grid_points)] * d)
    indices = ctor.enumerate_multi_indices(d, gamma)
    blocks = ((p, monomial_values(indices, p)) for p in _slices(pts))
    return _sweep(net, blocks, {"points_per_axis": grid_points}, bound, t0)
