"""Numeric kernels: block-layer chain evaluation and greedy covering, numpy only.

eval_chain walks block-diagonal layers (network.BlockDiagonal) with
feature-major activations of shape (width, n_points), so each block
multiplies a contiguous row range of the previous activations into a
contiguous row range of the next ones.  It runs the whole chain on one tile
of TILE to 2 * TILE - 1 points (columns) at a time, each tile into its
columns of the result, so a tile's activations stay in cache from layer to
layer; a call on fewer than 2 * TILE points is one tile.  From POOLED_POINTS
points on, hidden activations alternate between two line-aligned heap buffers
of the widest hidden layer's width, sized for the largest tile and made once
per call; smaller calls allocate each layer's activations.

greedy_cover makes one pass over the rows and compares each row with all
centers found so far at once, by direct differences against a growing
center matrix; a row becomes a center when none is closer than eps.  (The
|a|^2 + |b|^2 - 2ab matmul expansion is avoided: its cancellation could flip
the strict-< decisions.)
"""

import importlib.util

import numpy as np

# Whether numba is installed, for environment reports (perfbench); never imported.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def backend_name():
    """Backend of greedy_cover; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# chain evaluation

# Points per tile: a tile's activations (32 KiB per channel) stay in cache
# from one layer to the next instead of streaming through memory.  Tiles of
# 1024 to 16384 points were timed on the verifier sweeps; 4096 was fastest.
# A short last tile joins the one before it: a one-column tile would take
# numpy's matrix-vector kernel, whose sums differ in the last bits.
TILE = 4096
# From this many points on, hidden activations reuse two buffers per call:
# per-layer (width, n) arrays left holes in the malloc heap that made peak RSS
# creep by 2-6 MiB over repeated cheb pipeline evaluations, differently in
# each run.  Smaller calls (path matrices, the entropy oracle's tiny nets)
# are cheaper with per-layer arrays.
POOLED_POINTS = 256


def _line_aligned(size):
    """float64 buffer of size entries starting on a 64-byte cache line.  malloc
    puts large blocks 16 bytes past a line, where every row of the pooled
    activations straddled two lines: verify_sweep ran 7% slower (BENCH_pr11.json)."""
    raw = np.empty(size + 7)
    a = -raw.ctypes.data % 64 // 8
    return raw[a : a + size]


def eval_chain(layers, cur, act=None, absolute=False):
    """Run block-diagonal layers on feature-major activations cur of shape (p0, n).

    act maps each hidden pre-activation array to its activation and may work
    in place; it is never applied after the last layer, and None means a
    linear chain.  absolute=True multiplies by |W| instead of W.  Returns
    the output of shape (p_{L+1}, n).
    """
    last = len(layers) - 1
    n = cur.shape[1]
    res = np.empty((layers[last].shape[0], n))
    if n < 2 * TILE:
        tiles = ((cur, res),)
    else:
        stops = list(range(TILE, n - TILE + 1, TILE)) + [n]
        tiles = [(cur[:, a:b], res[:, a:b]) for a, b in zip([0] + stops, stops)]
    bufs = None
    if n >= POOLED_POINTS:
        size = max((lay.shape[0] for lay in layers[:last]), default=0) * min(n, 2 * TILE - 1)
        bufs = _line_aligned(size), _line_aligned(size)
    for x, y in tiles:
        m = x.shape[1]
        for i, lay in enumerate(layers):
            if i == last:
                out = y
            elif bufs is None:
                out = np.empty((lay.shape[0], m))
            else:
                out = bufs[i % 2][: lay.shape[0] * m].reshape(lay.shape[0], m)
            ro = co = 0
            for b in lay.blocks:
                r, c = b.shape
                np.matmul(np.abs(b) if absolute else b, x[co : co + c], out=out[ro : ro + r])
                ro += r
                co += c
            x = out if act is None or i == last else act(out)
    return res


# ---------------------------------------------------------------------------
# greedy covering in the empirical l2 metric


def greedy_cover(vectors, eps):
    """Indices of a greedy eps-net over rows of `vectors` in the metric
    dist(u, v) = sqrt(mean((u - v)^2)); a row is covered when dist < eps."""
    v = np.ascontiguousarray(vectors, dtype=np.float64)
    eps2_sum = eps * eps * v.shape[1]
    cent = np.empty_like(v)
    idx = np.empty(v.shape[0], dtype=np.int64)
    k = 0
    for i, row in enumerate(v):
        d = cent[:k] - row
        if not (np.einsum("ij,ij->i", d, d) < eps2_sum).any():
            cent[k] = row
            idx[k] = i
            k += 1
    return idx[:k]
