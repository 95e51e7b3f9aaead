"""Grid verification of the constructions' claimed error bounds.

Each verifier sweeps the variant's certified domain, compares the network
against the exact target (x^2, xy, prod x_i, or all monomials), and returns
a VerificationReport whose pass flag is measured <= claimed.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import constructions as ctor
from .chebyshev import monomial_values, tensor_grid
from .network import evaluate


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


def _report(name, params, grid, measured, claimed, t0):
    return VerificationReport(
        construction=name,
        params=params,
        grid=grid,
        measured_max_error=float(measured),
        claimed_bound=float(claimed),
        passed=bool(measured <= claimed),
        seconds=time.perf_counter() - t0,
    )


def verify_sq(m, n_points=10000, bound=None):
    t0 = time.perf_counter()
    net = ctor.build_sq(m)
    x = np.linspace(0.0, 1.0, n_points)
    v = evaluate(net, np.column_stack([np.ones_like(x), x]))[:, 0]
    measured = np.abs(v - x * x).max()
    claimed = ctor.sq_error_bound(m) if bound is None else bound
    return _report(
        "sq",
        {"m": m},
        {"points": n_points, "domain": "[0,1]"},
        measured,
        claimed,
        t0,
    )


def verify_mult(m, variant, step=0.005, bound=None):
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step!r}")
    t0 = time.perf_counter()
    variant = ctor.MultVariant.parse(variant)
    net = ctor.build_mult(m, variant)
    n = int(round(1.0 / step))
    xs = np.arange(n + 1) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    if variant is ctor.LITERAL:
        mask = gx + gy <= 1.0
        domain = "x,y>=0, x+y<=1"
    else:
        mask = np.ones_like(gx, dtype=bool)
        domain = "[0,1]^2"
    px, py = gx[mask], gy[mask]
    inp = np.column_stack([np.ones_like(px), px, py])
    measured = np.abs(evaluate(net, inp)[:, 0] - px * py).max()
    claimed = ctor.mult_error_bound(m, variant) if bound is None else bound
    return _report(
        "mult",
        {"m": m, "variant": variant.value},
        {"step": step, "domain": domain},
        measured,
        claimed,
        t0,
    )


def verify_multr(m, r, variant, n_samples=100000, seed=0, bound=None):
    t0 = time.perf_counter()
    variant = ctor.MultVariant.parse(variant)
    net = ctor.build_multr(m, r, variant)
    hi = 0.5 if variant is ctor.LITERAL else 1.0
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, hi, size=(n_samples, r))
    inp = np.column_stack([np.ones(n_samples), x])
    measured = np.abs(evaluate(net, inp)[:, 0] - np.prod(x, axis=1)).max()
    claimed = ctor.multr_error_bound(m, r, variant) if bound is None else bound
    return _report(
        "multr",
        {"m": m, "r": r, "variant": variant.value},
        {"samples": n_samples, "seed": seed, "domain": f"[0,{hi}]^{r}"},
        measured,
        claimed,
        t0,
    )


def verify_mon(m, gamma, d, variant, grid_points=51, bound=None):
    t0 = time.perf_counter()
    variant = ctor.MultVariant.parse(variant)
    net = ctor.build_mon(m, gamma, d, variant)
    hi = 0.5 if variant is ctor.LITERAL else 1.0
    pts = tensor_grid([np.linspace(0.0, hi, grid_points)] * d)
    inp = np.column_stack([np.ones(len(pts)), pts])
    truth = monomial_values(ctor.enumerate_multi_indices(d, gamma), pts)
    measured = np.abs(evaluate(net, inp) - truth).max()
    claimed = ctor.mon_error_bound(m, gamma, variant) if bound is None else bound
    return _report(
        "mon",
        {"m": m, "gamma": gamma, "d": d, "variant": variant.value},
        {"points_per_axis": grid_points, "domain": f"[0,{hi}]^{d}"},
        measured,
        claimed,
        t0,
    )
