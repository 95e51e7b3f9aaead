"""Numeric kernels: block-layer chain evaluation and greedy covering, numpy only.

eval_chain walks block-diagonal layers, a network's or the entropy oracle's
stacks of sampled networks, with feature-major activations of shape (width,
n_points): each run of k copies of one (r, c) block, or of k blocks stacked
as (k, r, c), multiplies a contiguous row range of the previous activations,
viewed as k stacked (c, n) slices, into the k stacked (r, n) slices of the
next ones: one broadcast np.matmul per run, or np.multiply for a
one-column block.  It runs the whole chain on one tile of TILE to
2 * TILE - 1 points (columns) at a time, each tile into its columns of the
result, so a tile's activations stay in cache from layer to layer; a call
on fewer than 2 * TILE points is one tile.  From POOLED_POINTS points on,
hidden activations alternate between two line-aligned heap buffers of the
widest hidden layer's width, sized for the largest tile and made once per
call; smaller calls allocate each layer's activations.

greedy_cover scans the rows in order and makes a row a center when no
earlier center is closer than eps; its decisions are those of comparing
each row with every center by direct differences, (c - r)^2 summed by
einsum.  It screens a block of rows against the centers found before the
block with one matrix product, expanding |r|^2 + |c|^2 - 2 r.c into squared
distances, and trusts a screened pair only outside a rounding guard band
around the threshold; pairs inside the band, and the centers found within
the block, are compared by direct differences.  Rows whose squared norms
leave the range where the expansion is safe are all compared directly.
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

    A layer has runs and shape, as network.BlockDiagonal: a run (b, k) is k
    copies of an (r, c) block b, or k blocks stacked as b of shape (k, r, c).
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
            for b, k in lay.runs:
                r, c = b.shape[-2:]
                # the run's rows as k stacked (r, m) and (c, m) views, so one
                # broadcast matmul writes every copy in place; splitting the
                # leading axis of a row slice is always a view, also of a
                # column-sliced tile, so no copy can take the write.  A
                # one-column block's products are single multiplications,
                # which a broadcast multiply makes in a fast loop where
                # matmul takes a slow one (the carried 1x1 channels)
                (np.multiply if c == 1 else np.matmul)(
                    np.abs(b) if absolute else b,
                    x[co : co + k * c].reshape(k, c, m),
                    out=out[ro : ro + k * r].reshape(k, r, m),
                )
                ro += k * r
                co += k * c
            x = out if act is None or i == last else act(out)
    return res


# ---------------------------------------------------------------------------
# greedy covering in the empirical l2 metric


# Squared row norms up to this are screened: no sum, product or difference
# in the expanded form overflows below it.  A larger one, or an eps whose
# square overflows, makes the whole scan compare by direct differences.
SCREEN_MAX_SQ = 2.0**1000
# Factor between the guard band and the rounding error it must exceed.
GUARD_SAFETY = 2.0
# Rows * centers * max(columns, 8) of one screening product.  It bounds the
# block's distance matrix to 2^15 entries (256 KiB), and it keeps the
# product on one BLAS thread: past about 2^19 multiply-adds OpenBLAS woke its
# second thread, which then spun for over 0.2 s after each call and slowed
# the start of a process launched right after the cover by 25%.
SCREEN_WORK = 2**18
# Rows per block at most: the rows of a block are compared by direct
# differences with the centers found within it.
MAX_BLOCK_ROWS = 64


def _covered(centers, row, eps2_sum):
    """Whether one of centers is closer to row than the threshold, compared
    by direct differences."""
    d = centers - row
    return bool((np.einsum("ij,ij->i", d, d) < eps2_sum).any())


def greedy_cover(vectors, eps):
    """Indices of a greedy eps-net over rows of `vectors` in the metric
    dist(u, v) = sqrt(mean((u - v)^2)); a row is covered when dist < eps.

    A non-finite row raises ValueError: NaN compares false, so it would
    silently become a center that covers nothing.

    The guard band.  A row is covered by a center when e < T = eps^2 m,
    with e = sum((c - r)^2) computed by direct differences.  Let u = 2^-53,
    m the number of columns, g_k = k u / (1 - k u), S = |r|^2 + |c|^2 and
    E = |r - c|^2 = |r|^2 + |c|^2 - 2 r.c.
      * The squared norms and r.c are dot products of length m, so in any
        summation order (BLAS blocking, FMA) their errors are at most g_m
        |r|^2, g_m |c|^2 and g_m |r||c| <= g_m S / 2.
      * The two additions forming D = (-2 r.c + |r|^2) + |c|^2 round values
        of size at most 2 S (1 + g_m) and add at most 4 u S (1 + g_{m+1}).
      * e has relative error at most g_{m+3} (one subtraction, one product
        and the sum per entry), and E <= 2 S.
    So |D - e| <= (2 g_m + 4 u + 2 g_{m+3}) S (1 + g_{m+3})
    <= 4 (m + 3) u S (1 + g_{m+3}).  Underflow, gradual or flushed to zero,
    adds at most 2^-1022 for each of the 5 m products.  Rounding T -+ band
    to a float moves it by at most u T + u band.  The band is GUARD_SAFETY
    times the sum of the first two terms and u T, taken with the computed
    norms (within g_m of the true ones) and the largest center norm; the
    factor also covers u band and the rounding of the band itself.  So a
    pair with D below the rounded T - band has e < T, a pair with D at or
    above the rounded T + band has e >= T, and only a pair in between is
    compared directly: the decisions are exactly those of comparing every
    row with every earlier center directly.
    """
    v = np.ascontiguousarray(vectors, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError("vectors must be finite: a non-finite row is never covered")
    n, m = v.shape
    eps2_sum = eps * eps * m
    sq = np.einsum("ij,ij->i", v, v)
    screened = n > 0 and sq.max() <= SCREEN_MAX_SQ and np.isfinite(eps2_sum)
    u = 2.0**-53
    rel = GUARD_SAFETY * 4 * (m + 3) * u * (1 + 2 * (m + 3) * u)
    floor = GUARD_SAFETY * (5 * m * 2.0**-1022 + u * eps2_sum)
    cent = np.empty_like(v)
    csq = np.empty(n)
    idx = np.empty(n, dtype=np.int64)
    k = start = 0
    cmax = 0.0
    while start < n:
        # k0 centers are screened with one matrix product; the rows of the
        # block meet the centers found from k0 on directly
        k0 = k if screened else 0
        rows = max(1, min(MAX_BLOCK_ROWS, SCREEN_WORK // (max(k0, 1) * max(m, 8)))) if screened else n
        stop = min(n, start + rows)
        todo = range(start, stop)
        if k0:
            d2 = v[start:stop] @ cent[:k0].T
            d2 *= -2.0
            d2 += sq[start:stop, None]
            d2 += csq[:k0]
            band = (rel * (sq[start:stop] + cmax) + floor)[:, None]
            # a row with a pair surely closer than eps is covered; the others
            # meet their pairs inside the band directly
            todo = start + np.flatnonzero(~(d2 < eps2_sum - band).any(axis=1))
            near = d2 < eps2_sum + band
        for i in todo:
            row = v[i]
            if k0:
                cand = np.flatnonzero(near[i - start])
                if cand.size and _covered(cent[cand], row, eps2_sum):
                    continue
            if k == k0 or not _covered(cent[k0:k], row, eps2_sum):
                cent[k] = row
                csq[k] = sq[i]
                idx[k] = i
                cmax = max(cmax, sq[i])
                k += 1
        start = stop
    return idx[:k]
