import numpy as np
import pytest

from nnapprox import (
    ABS,
    IDENTITY,
    RELU,
    build_mon,
    build_multr,
    evaluate,
    general_activation,
    parallel,
    path_matrix,
)
from nnapprox import _kernels
from conftest import dense_chain, dense_path_matrix, random_block_net, random_dense_net

DEAD_ZONE = general_activation(lambda x: np.where(np.abs(x) < 0.1, 0.0, np.sign(x)))
ACTIVATIONS = (ABS, RELU, IDENTITY, DEAD_ZONE)


def block_nets(rng):
    """Block-diagonal nets: product tree, all-monomials, unequal-depth stacks."""
    nets = [
        (build_multr(3, 5, "rescaled"), np.column_stack([np.ones(200), rng.uniform(0, 1, (200, 5))])),
        (build_mon(4, 3, 2, "literal"), np.column_stack([np.ones(100), rng.uniform(0, 0.5, (100, 2))])),
    ]
    for act in ACTIVATIONS:
        parts = [random_dense_net(rng, act, n_layers=k) for k in (1, 3, 2, 4)]
        par = parallel(parts)
        assert max(len(lay.blocks) for lay in par.layers) == len(parts)
        nets.append((par, rng.normal(size=(50, par.in_dim))))
    return nets


def test_evaluate_matches_dense_chain_on_random_nets(rng):
    for act in ACTIVATIONS:
        for _ in range(10):
            net = random_dense_net(rng, act)
            x = rng.normal(size=(33, net.in_dim))
            np.testing.assert_allclose(evaluate(net, x), dense_chain(net, x), rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(evaluate(net, x[0]), dense_chain(net, x[0]), rtol=1e-13, atol=1e-13)


def test_evaluate_matches_dense_chain_on_block_nets(rng):
    for net, x in block_nets(rng):
        np.testing.assert_allclose(evaluate(net, x), dense_chain(net, x), rtol=1e-13, atol=1e-13)


def test_path_matrix_matches_product_of_dense_abs(rng):
    nets = [random_dense_net(rng, act) for act in ACTIVATIONS for _ in range(5)]
    nets += [net for net, _ in block_nets(rng)]
    for net in nets:
        got = path_matrix(net)
        assert got.shape == (net.out_dim, net.in_dim)
        np.testing.assert_allclose(got, dense_path_matrix(net), rtol=1e-13, atol=1e-13)


SMALL_TILE = 64


@pytest.mark.parametrize("pooled", [False, True], ids=["heap", "pooled"])
@pytest.mark.parametrize("act", [ABS, RELU, DEAD_ZONE], ids=["abs", "relu", "dead-zone"])
def test_tiles_match_one_tile_and_dense_chain(act, pooled, rng, monkeypatch):
    # heap: a fresh array per layer; pooled: the two buffers made once per call.
    monkeypatch.setattr(_kernels, "POOLED_POINTS", 0 if pooled else np.inf)
    t = SMALL_TILE
    net = random_block_net(rng, act, n_layers=4)
    x = rng.normal(size=(3 * t + 5, net.in_dim))
    for n in (t - 1, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1, 3 * t + 5):
        monkeypatch.setattr(_kernels, "TILE", t)
        tiled = evaluate(net, x[:n])
        monkeypatch.setattr(_kernels, "TILE", 10**9)
        assert np.array_equal(tiled, evaluate(net, x[:n])), n
        np.testing.assert_allclose(tiled, dense_chain(net, x[:n]), rtol=1e-13, atol=1e-13)


def test_multi_tile_call_makes_one_tile_sized_pair(rng, monkeypatch):
    t = SMALL_TILE
    monkeypatch.setattr(_kernels, "TILE", t)
    monkeypatch.setattr(_kernels, "POOLED_POINTS", 0)
    asked = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape):
            asked.append(shape)
            return np.empty(shape)

    monkeypatch.setattr(_kernels, "np", CountingNumpy())
    net = random_block_net(rng, ABS, n_layers=4)
    x = rng.normal(size=(10 * t + 7, net.in_dim))
    got = _kernels.eval_chain(net.layers, x.T, ABS.inplace)
    pair = max(w for w in net.widths[1:-1]) * (2 * t - 1)
    # the result, then one pair for the largest tile (plus at most 7 entries
    # of alignment slack), never for all 647 points, and no per-layer arrays
    assert asked[0] == (net.out_dim, 10 * t + 7)
    assert len(asked) == 3 and asked[1] == asked[2] and pair <= asked[1] < pair + 8
    assert got.base is None  # the result never lives in a buffer
    monkeypatch.setattr(_kernels, "np", np)
    monkeypatch.setattr(_kernels, "TILE", 10**9)
    assert np.array_equal(got.T, evaluate(net, x))


@pytest.mark.parametrize("size", [1, 7, 8, 1000, 30 * 8191])
def test_pooled_buffers_start_on_cache_lines(size):
    buf = _kernels._line_aligned(size)
    assert buf.size == size and buf.dtype == np.float64
    assert buf.ctypes.data % 64 == 0


def test_greedy_cover_strict_inequality():
    v = np.array([[0.0, 0.0], [1.0, 1.0]])
    # distance is exactly 1, not < 1, so both rows become centers
    got = _kernels.greedy_cover(v, 1.0)
    assert len(got) == 2
    got = _kernels.greedy_cover(v, 1.0000001)
    assert len(got) == 1


def loop_cover(v, eps):
    """The row-by-center double loop the numpy cover replaced, as an oracle."""
    v = np.asarray(v, dtype=np.float64)
    eps2_sum = eps * eps * v.shape[1]
    centers = []
    for i in range(v.shape[0]):
        covered = False
        for j in centers:
            d = v[i] - v[j]
            if d @ d < eps2_sum:
                covered = True
                break
        if not covered:
            centers.append(i)
    return np.asarray(centers, dtype=np.int64)


def edge_covers():
    """(name, rows, eps, cover size) cases for the numpy cover."""
    r = np.random.default_rng(7)
    base = r.normal(size=(40, 6))
    # rows k * step in every coordinate: neighbours at distance exactly step
    ladder = lambda rows, step: np.arange(rows)[:, None] * np.full((rows, 4), step)
    return [
        ("empty", np.zeros((0, 5)), 0.5, 0),
        ("one row", r.normal(size=(1, 5)), 0.5, 1),
        ("duplicates", np.repeat(base[:10], 4, axis=0), 1e-9, 10),
        ("exactly eps apart", ladder(6, 0.5), 0.5, 6),  # strict <: distance eps is not covered
        ("half eps apart", ladder(12, 0.25), 0.5, 6),
        ("huge eps", base, 1e6, 1),
        ("tiny eps", base, 1e-12, 40),
        ("zero vectors", np.zeros((30, 3)), 0.1, 1),
    ]


@pytest.mark.parametrize("name,v,eps,size", [pytest.param(*c, id=c[0]) for c in edge_covers()])
def test_greedy_cover_numpy_matches_loop_on_edge_cases(name, v, eps, size):
    got = _kernels.greedy_cover(v, eps)
    assert got.dtype == np.int64
    assert len(got) == size
    assert np.array_equal(got, loop_cover(v, eps))


@pytest.mark.parametrize(
    "shape,eps", [((200, 1), 0.05), ((1000, 8), 1.0), ((2000, 4), 0.5), ((5000, 32), 1.2)]
)
def test_greedy_cover_numpy_matches_loop_on_random_rows(shape, eps):
    v = np.random.default_rng(shape[0] + shape[1]).normal(size=shape)
    got = _kernels.greedy_cover(v, eps)
    assert len(got) > 1
    assert np.array_equal(got, loop_cover(v, eps))


def test_greedy_cover_monotone_in_eps(rng):
    v = rng.normal(size=(300, 8))
    sizes = [len(_kernels.greedy_cover(v, e)) for e in (0.1, 0.3, 1.0, 3.0)]
    assert sizes == sorted(sizes, reverse=True)


def test_backend_name():
    assert _kernels.backend_name() == "numpy"
