"""Hot numeric kernels: block-layer chain evaluation and greedy covering.

eval_chain is numpy only.  It walks block-diagonal layers (network.BlockDiagonal)
with feature-major activations of shape (width, n_points), so each block
multiplies a contiguous row range of the previous activations into a
contiguous row range of the next ones.

greedy_cover exists twice, as a numba @njit function and as a numpy
fallback.  The numpy cover makes one pass over the rows and compares each
row with all centers found so far at once, by direct differences against a
growing center matrix; it becomes a center when none is closer than eps.
(The |a|^2 + |b|^2 - 2ab matmul expansion is avoided: its cancellation could
flip the strict-< decisions.)  The cover backend is chosen by the
NNAPPROX_BACKEND environment variable ("numba", "numpy", or "auto"; default
auto picks numba when it imports); NNAPPROX_THREADS caps numba's threads.
"""

import os

import numpy as np

_ENV = os.environ.get("NNAPPROX_BACKEND", "auto").strip().lower()
if _ENV not in ("auto", "numba", "numpy"):
    raise RuntimeError(
        f"NNAPPROX_BACKEND={_ENV!r} not understood (use auto, numba or numpy)"
    )

try:
    import numba
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False
    if _ENV == "numba":
        raise RuntimeError("NNAPPROX_BACKEND=numba but numba is not importable")

USE_NUMBA = HAVE_NUMBA and _ENV != "numpy"

_threads = os.environ.get("NNAPPROX_THREADS")
if _threads and HAVE_NUMBA:
    numba.set_num_threads(max(1, min(int(_threads), numba.config.NUMBA_NUM_THREADS)))


def backend_name():
    """Backend of greedy_cover: "numba" or "numpy"."""
    return "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# chain evaluation


def eval_chain(layers, cur, act=None, absolute=False):
    """Run block-diagonal layers on feature-major activations cur of shape (p0, n).

    act maps each hidden pre-activation array to its activation and may work
    in place; it is never applied after the last layer, and None means a
    linear chain.  absolute=True multiplies by |W| instead of W.  Returns
    the output of shape (p_{L+1}, n).
    """
    last = len(layers) - 1
    for i, lay in enumerate(layers):
        out = np.empty((lay.shape[0], cur.shape[1]))
        ro = co = 0
        for b in lay.blocks:
            r, c = b.shape
            np.matmul(np.abs(b) if absolute else b, cur[co : co + c], out=out[ro : ro + r])
            ro += r
            co += c
        cur = out if act is None or i == last else act(out)
    return cur


# ---------------------------------------------------------------------------
# greedy covering in the empirical l2 metric


def _greedy_cover_np(v, eps2_sum):
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


if HAVE_NUMBA:

    @njit(cache=True)
    def _greedy_cover_nb(v, eps2_sum):
        n_vec, n_pts = v.shape
        centers = np.empty(n_vec, dtype=np.int64)
        k = 0
        for i in range(n_vec):
            covered = False
            for j in range(k):
                cj = centers[j]
                s = 0.0
                for c in range(n_pts):
                    d = v[i, c] - v[cj, c]
                    s += d * d
                    if s >= eps2_sum:
                        break
                if s < eps2_sum:
                    covered = True
                    break
            if not covered:
                centers[k] = i
                k += 1
        return centers[:k]


def greedy_cover(vectors, eps, backend=None):
    """Indices of a greedy eps-net over rows of `vectors` in the metric
    dist(u, v) = sqrt(mean((u - v)^2)); a row is covered when dist < eps."""
    v = np.ascontiguousarray(vectors, dtype=np.float64)
    eps2_sum = eps * eps * v.shape[1]
    use = USE_NUMBA if backend is None else backend == "numba"
    if use and HAVE_NUMBA:
        return _greedy_cover_nb(v, eps2_sum)
    return _greedy_cover_np(v, eps2_sum)
