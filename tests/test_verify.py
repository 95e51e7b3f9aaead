import math

import numpy as np
import pytest

from nnapprox import LITERAL, RESCALED, evaluate, mult_error_bound, verify_mult, with_ones
from nnapprox import constructions as ctor
from nnapprox import verify as ver
from nnapprox.chebyshev import monomial_values


@pytest.mark.parametrize("variant", [LITERAL, RESCALED], ids=["literal", "rescaled"])
def test_verify_mult_passes_at_coarse_step(variant):
    for m in (2, 4):
        rep = verify_mult(m, variant, step=0.05)
        assert rep.passed
        assert 0.0 < rep.measured_max_error <= rep.claimed_bound == mult_error_bound(m, variant)
        assert rep.params == {"m": m, "variant": variant.value}
        assert rep.grid["step"] == 0.05


@pytest.mark.parametrize("n", [1, 10, 20, 200])
def test_verify_mult_grids(monkeypatch, n):
    seen = []
    evaluate = ver.evaluate
    monkeypatch.setattr(ver, "evaluate", lambda net, x: seen.append(x) or evaluate(net, x))
    verify_mult(2, LITERAL, step=1.0 / n)
    verify_mult(2, RESCALED, step=1.0 / n)
    literal, rescaled = seen
    # the literal grid is every (i/n, j/n) with i + j <= n, the rescaled one all of them
    assert len(literal) == (n + 1) * (n + 2) // 2
    assert np.all(literal[:, 1] + literal[:, 2] <= 1.0)
    assert len(rescaled) == (n + 1) ** 2
    assert np.all(literal[:, 0] == 1.0) and np.all(rescaled[:, 0] == 1.0)


def test_verify_mult_reports_bound_override():
    rep = verify_mult(3, RESCALED, step=0.1, bound=1e-12)
    assert rep.claimed_bound == 1e-12 and not rep.passed
    rep = verify_mult(3, RESCALED, step=0.1, bound=1.0)
    assert rep.claimed_bound == 1.0 and rep.passed
    assert rep.to_dict()["claimed_bound"] == 1.0
    assert list(rep.to_dict()) == [
        "construction", "params", "grid", "measured_max_error", "claimed_bound", "passed", "seconds"
    ]


@pytest.mark.parametrize("step", [0.0, -0.1, 1.5, 3.0])
def test_verify_mult_rejects_step_outside_unit_interval(step):
    with pytest.raises(ValueError, match="step"):
        verify_mult(2, RESCALED, step=step)


BUILDS = {
    "sq": lambda v: (ver.verify_sq(3, n_points=200), ctor.build_sq(3)),
    "mult": lambda v: (verify_mult(3, v, step=0.1), ctor.build_mult(3, v)),
    "multr": lambda v: (ver.verify_multr(3, 5, v, n_samples=500), ctor.build_multr(3, 5, v)),
    "mon": lambda v: (ver.verify_mon(3, 4, 2, v, grid_points=9), ctor.build_mon(3, 4, 2, v)),
}
CASES = [("sq", RESCALED)] + [(name, v) for name in ("mult", "multr", "mon") for v in (LITERAL, RESCALED)]


@pytest.mark.parametrize("name, variant", CASES, ids=[f"{n}-{v.value}" for n, v in CASES])
def test_report_states_the_claims_of_the_built_net(name, variant):
    rep, net = BUILDS[name](variant)
    meta = net.meta
    assert rep.construction == meta["construction"] == name
    assert rep.params == {k: meta[k] for k in ("m", "r", "gamma", "d", "variant") if k in meta}
    assert rep.claimed_bound == meta["claimed_error_bound"]
    assert rep.grid["domain"] == meta["claimed_domain"]
    assert list(rep.grid)[-1] == "domain" and rep.passed


@pytest.mark.parametrize(
    "call",
    [
        lambda: ver.verify_sq(3, n_points=0),
        lambda: ver.verify_multr(2, 2, "rescaled", n_samples=0),
        lambda: ver.verify_mon(2, 2, 1, "rescaled", grid_points=0),
    ],
    ids=["sq", "multr", "mon"],
)
def test_empty_sweep_is_value_error(call):
    with pytest.raises(ValueError, match="empty sweep"):
        call()


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, -1.0])
def test_bound_must_be_finite_and_nonnegative(bound):
    with pytest.raises(ValueError, match="bound must be a finite number >= 0"):
        ver.verify_sq(3, n_points=10, bound=bound)
    assert ver.verify_sq(3, n_points=10, bound=0.0).claimed_bound == 0.0


def test_sup_error_matches_the_pointwise_maximum(rng):
    net = ctor.build_mult(4, RESCALED)
    pts = rng.uniform(0.0, 1.0, (300, 2))
    truth = pts[:, 0] * pts[:, 1]
    direct = np.abs(evaluate(net, with_ones(pts))[:, 0] - truth).max()
    assert ver.sup_error(net, pts, truth) == direct
    # one output column per monomial is compared column by column
    mon = ctor.build_mon(3, 3, 2, RESCALED)
    truth = monomial_values(ctor.enumerate_multi_indices(2, 3), pts)
    assert ver.sup_error(mon, pts, truth) == np.abs(evaluate(mon, with_ones(pts)) - truth).max()
