"""Grid verification of the constructions' claimed error bounds.

Each verifier builds its network, sweeps a grid of the certified domain and
compares the network against the exact target (x^2, xy, prod x_i, or all
monomials).  The claims come from the network itself: the report's
construction, parameters, claimed bound and domain are those its builder
wrote into net.meta, and the pass flag is measured <= claimed.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

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


def sup_error(net, points, truth):
    """max |net(1, x) - truth| over the points x (shape (n, d), or (n,) for d = 1)."""
    if len(points) == 0:
        raise ValueError("empty sweep: there are no points to measure the error on")
    out = evaluate(net, with_ones(points))
    return float(np.abs(out - np.reshape(truth, out.shape)).max())


def _sweep(net, points, truth, grid, bound, t0):
    """The report of net against truth on the points, with the claims of net.meta."""
    meta = net.meta
    claimed = meta["claimed_error_bound"] if bound is None else float(bound)
    if not (math.isfinite(claimed) and claimed >= 0.0):
        raise ValueError(f"bound must be a finite number >= 0, got {bound!r}")
    measured = sup_error(net, points, truth)
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
    return _sweep(ctor.build_sq(m), x, x * x, {"points": n_points}, bound, t0)


def verify_mult(m, variant, step=0.005, bound=None):
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step!r}")
    t0 = time.perf_counter()
    variant = ctor.MultVariant(variant)
    n = int(round(1.0 / step))
    pts = tensor_grid([np.arange(n + 1) / n] * 2)
    if variant is ctor.LITERAL:
        pts = pts[pts[:, 0] + pts[:, 1] <= 1.0]
    truth = pts[:, 0] * pts[:, 1]
    return _sweep(ctor.build_mult(m, variant), pts, truth, {"step": step}, bound, t0)


def verify_multr(m, r, variant, n_samples=100000, seed=0, bound=None):
    t0 = time.perf_counter()
    variant = ctor.MultVariant(variant)
    net = ctor.build_multr(m, r, variant)
    x = np.random.default_rng(seed).uniform(0.0, variant.edge, size=(n_samples, r))
    grid = {"samples": n_samples, "seed": seed}
    return _sweep(net, x, np.prod(x, axis=1), grid, bound, t0)


def verify_mon(m, gamma, d, variant, grid_points=51, bound=None):
    t0 = time.perf_counter()
    variant = ctor.MultVariant(variant)
    net = ctor.build_mon(m, gamma, d, variant)
    pts = tensor_grid([np.linspace(0.0, variant.edge, grid_points)] * d)
    truth = monomial_values(ctor.enumerate_multi_indices(d, gamma), pts)
    return _sweep(net, pts, truth, {"points_per_axis": grid_points}, bound, t0)
