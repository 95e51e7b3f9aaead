import math
import tracemalloc

import numpy as np
import pytest

from nnapprox import LITERAL, RESCALED, evaluate, mult_error_bound, verify_mult, with_ones
from nnapprox import constructions as ctor
from nnapprox import verify as ver
from nnapprox.chebyshev import monomial_values, tensor_grid


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


# ---------------------------------------------------------------------------
# block sweeps: the errors of one whole-grid evaluation, bit for bit

B = ver.BLOCK
# one block short of, at and past one and two blocks, and three blocks and a bit
EDGE_SIZES = [B - 1, B, B + 1, 2 * B - 1, 2 * B, 3 * B + 5]


def whole_grid_error(net, points, truth):
    """The error as one evaluate on the whole (1, x) grid measures it."""
    out = evaluate(net, with_ones(points))
    return np.abs(out - np.reshape(truth, out.shape)).max()


def mult_grid(n, variant):
    pts = tensor_grid([np.arange(n + 1) / n] * 2)
    return pts[pts[:, 0] + pts[:, 1] <= 1.0] if variant is LITERAL else pts


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_sq_and_multr_sweeps_equal_whole_grid_errors(n):
    x = np.linspace(0.0, 1.0, n)
    assert ver.verify_sq(6, n).measured_max_error == whole_grid_error(ctor.build_sq(6), x, x * x)
    for variant in (LITERAL, RESCALED):
        x = np.random.default_rng(5).uniform(0.0, variant.edge, size=(n, 4))
        want = whole_grid_error(ctor.build_multr(5, 4, variant), x, np.prod(x, axis=1))
        assert ver.verify_multr(5, 4, variant, n_samples=n, seed=5).measured_max_error == want


@pytest.mark.parametrize("n", [181, 256, 400])
@pytest.mark.parametrize("variant", [LITERAL, RESCALED], ids=["literal", "rescaled"])
def test_mult_sweeps_equal_whole_grid_errors(n, variant):
    pts = mult_grid(n, variant)
    want = whole_grid_error(ctor.build_mult(5, variant), pts, pts[:, 0] * pts[:, 1])
    assert verify_mult(5, variant, step=1.0 / n).measured_max_error == want


def test_mon_sweep_equals_whole_grid_error():
    # 41^3 = 68,921 points: two blocks
    pts = tensor_grid([np.linspace(0.0, 1.0, 41)] * 3)
    truth = monomial_values(ctor.enumerate_multi_indices(3, 3), pts)
    want = whole_grid_error(ctor.build_mon(4, 3, 3, RESCALED), pts, truth)
    assert ver.verify_mon(4, 3, 3, RESCALED, grid_points=41).measured_max_error == want


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_sup_error_equals_whole_grid_error(n, rng):
    net = ctor.build_mult(4, RESCALED)
    pts = rng.uniform(0.0, 1.0, (n, 2))
    truth = pts[:, 0] * pts[:, 1]
    assert ver.sup_error(net, pts, truth) == whole_grid_error(net, pts, truth)


def recorded_calls(monkeypatch):
    seen = []
    evaluate = ver.evaluate
    monkeypatch.setattr(ver, "evaluate", lambda net, x: seen.append(x) or evaluate(net, x))
    return seen


def assert_bounded_blocks(seen, points):
    sizes = [len(x) for x in seen]
    assert max(sizes) <= 2 * B - 1 and 1 not in sizes
    assert np.array_equal(np.concatenate([x[:, 1:] for x in seen]), np.reshape(points, (len(points), -1)))


@pytest.mark.parametrize("variant", [LITERAL, RESCALED], ids=["literal", "rescaled"])
def test_mult_blocks_are_bounded_and_in_grid_order(monkeypatch, variant):
    seen = recorded_calls(monkeypatch)
    verify_mult(2, variant, step=1.0 / 400)  # 160,801 points before the literal filter
    assert len(seen) == 4
    assert_bounded_blocks(seen, mult_grid(400, variant))


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_sq_and_multr_blocks_are_bounded_and_in_order(monkeypatch, n):
    seen = recorded_calls(monkeypatch)
    ver.verify_sq(2, n)
    assert_bounded_blocks(seen, np.linspace(0.0, 1.0, n))
    seen.clear()
    ver.verify_multr(2, 3, RESCALED, n_samples=n, seed=7)
    # the blocks' draws are the stream of one (n, 3) draw
    assert_bounded_blocks(seen, np.random.default_rng(7).uniform(0.0, 1.0, size=(n, 3)))
    assert len(seen) == max(1, n // B)


def test_mon_blocks_are_bounded_and_in_order(monkeypatch):
    seen = recorded_calls(monkeypatch)
    ver.verify_mon(2, 2, 3, RESCALED, grid_points=41)
    assert len(seen) == 2
    assert_bounded_blocks(seen, tensor_grid([np.linspace(0.0, 1.0, 41)] * 3))


def test_one_point_blocks_are_evaluated_with_a_neighbour(monkeypatch):
    seen = recorded_calls(monkeypatch)
    net = ctor.build_mult(3, RESCALED)
    pts = np.random.default_rng(2).uniform(0.0, 1.0, (9, 2))
    truth = pts[:, 0] * pts[:, 1]
    cuts = [(0, 1), (1, 1), (1, 6), (6, 7), (7, 8), (8, 8), (8, 9)]
    got = ver._sup(net, ((pts[lo:hi], truth[lo:hi]) for lo, hi in cuts))
    # the first lone point goes with the next block, later ones with the point before
    assert [len(x) for x in seen] == [6, 2, 2, 2]
    assert np.array_equal(seen[0][:, 1:], pts[:6])
    assert [x[0, 1:].tolist() for x in seen[1:]] == [pts[5].tolist(), pts[6].tolist(), pts[7].tolist()]
    assert got == whole_grid_error(net, pts, truth)
    seen.clear()
    # a sweep of one point is the one call that gets one point
    assert ver.verify_sq(3, 1).measured_max_error == 0.0
    assert [len(x) for x in seen] == [1]


def test_sup_error_keeps_a_nan_error():
    net = ctor.build_mult(3, RESCALED)
    pts = np.zeros((3 * B, 2))
    truth = np.zeros(3 * B)
    truth[B + 7] = np.nan
    assert math.isnan(ver.sup_error(net, pts, truth))


def test_mult_sweep_memory_is_bounded():
    # 1,002,001 points: the whole-grid sweep peaked at 54.7 MiB under tracemalloc
    tracemalloc.start()
    try:
        verify_mult(8, RESCALED, step=0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("rows", [2 * B, 3 * B + 1], ids=["short", "long"])
def test_sup_error_wants_one_truth_row_per_point(rows):
    pts = np.zeros((3 * B, 2))
    with pytest.raises(ValueError, match="rows for"):
        ver.sup_error(ctor.build_mult(3, RESCALED), pts, np.zeros(rows))
