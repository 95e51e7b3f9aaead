import numpy as np
import pytest

from nnapprox import (
    ABS,
    IDENTITY,
    BlockDiagonal,
    Network,
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


def off_line(size):
    """Two disjoint float64 buffers of size entries, each 16 bytes past a
    64-byte cache line, where malloc puts large blocks."""
    step = -(-size // 8) * 8
    raw = np.empty(2 * step + 8)
    a = (-raw.ctypes.data % 64 // 8 + 2) % 8
    return raw[a : a + size], raw[a + step : a + step + size]


@pytest.mark.parametrize("pooled", [False, True], ids=["heap", "pooled"])
@pytest.mark.parametrize("act", [ABS, RELU, DEAD_ZONE], ids=["abs", "relu", "dead-zone"])
def test_tiles_match_one_tile_and_dense_chain(act, pooled, rng, monkeypatch):
    # heap: the buffer pair placed as malloc places it, 16 bytes past a cache
    # line; pooled: line-aligned, as eval_chain makes it.  Where the buffers
    # start must not change a bit of the result.
    if not pooled:
        monkeypatch.setattr(_kernels, "_line_aligned_pair", off_line)
    t = SMALL_TILE
    net = random_block_net(rng, act, n_layers=4)
    x = rng.normal(size=(3 * t + 5, net.in_dim))
    for n in (t - 1, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1, 3 * t + 5):
        monkeypatch.setattr(_kernels, "TILE", t)
        tiled = evaluate(net, x[:n])
        monkeypatch.setattr(_kernels, "TILE", 10**9)
        assert np.array_equal(tiled, evaluate(net, x[:n])), n
        np.testing.assert_allclose(tiled, dense_chain(net, x[:n]), rtol=1e-13, atol=1e-13)


def run_net(rng, act):
    """Net whose layers hold runs of shared blocks: runs of length 1 and
    more, blocks of mixed shapes, one-column blocks (1x1 and 2x1, which
    eval_chain multiplies by np.multiply), and a last layer that is one run."""
    def block(r, c):
        return BlockDiagonal([rng.uniform(-1, 1, (r, c))])

    a, b, c = block(3, 2), block(2, 3), block(1, 1)
    layers = [
        BlockDiagonal([a, a, a, c, b]),  # (12, 10)
        BlockDiagonal([block(2, 4), c, c, c, c, block(5, 4)]),  # (11, 12)
        BlockDiagonal([b, c, c, b, b]),  # (8, 11)
        BlockDiagonal([block(2, 1)] * 8),  # (16, 8), one run
    ]
    return Network(act, layers)


def loop_chain(layers, cur, act, absolute):
    """Oracle: one matmul per copy over lay.blocks, with no tiles."""
    x = cur
    for i, lay in enumerate(layers):
        out = np.empty((lay.shape[0], x.shape[1]))
        ro = co = 0
        for b in lay.blocks:
            r, c = b.shape
            np.matmul(np.abs(b) if absolute else b, x[co : co + c], out=out[ro : ro + r])
            ro += r
            co += c
        x = out if act is None or i == len(layers) - 1 else act(out)
    return x


@pytest.mark.parametrize("absolute", [False, True], ids=["w", "abs-w"])
@pytest.mark.parametrize("act", ACTIVATIONS, ids=["abs", "relu", "identity", "dead-zone"])
def test_runs_match_one_matmul_per_block(act, absolute, rng, monkeypatch):
    # each run is one broadcast matmul over (k, c, m) views of the tile,
    # which must equal the per-copy products bit for bit on every tile
    t = SMALL_TILE
    monkeypatch.setattr(_kernels, "TILE", t)
    net = run_net(rng, act)
    assert [len(lay.runs) for lay in net.layers] == [3, 3, 3, 1]
    assert [len(lay.blocks) for lay in net.layers] == [5, 6, 5, 8]
    x = rng.normal(size=(3 * t + 5, net.in_dim))
    for n in (1, 2, t - 1, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1, 3 * t + 5):
        want = loop_chain(net.layers, x[:n].T, act.inplace, absolute)
        got = _kernels.eval_chain(net.layers, x[:n].T, act.inplace, absolute)
        assert np.array_equal(got, want), n
    # a column-strided input, as a tile of a wider array is; the kernel's
    # (k, r, m) views of such row slices must share its memory
    xs = x[: 2 * t + 1].T[:, ::2]
    assert np.shares_memory(xs[2:8].reshape(3, 2, xs.shape[1]), xs)
    assert np.array_equal(
        _kernels.eval_chain(net.layers, xs, act.inplace, absolute),
        loop_chain(net.layers, xs, act.inplace, absolute),
    )


def test_runs_of_builders_match_one_matmul_per_block(rng, monkeypatch):
    monkeypatch.setattr(_kernels, "TILE", SMALL_TILE)
    for net, x in block_nets(rng)[:2]:
        assert sum(len(lay.runs) for lay in net.layers) < sum(len(lay.blocks) for lay in net.layers)
        assert np.array_equal(evaluate(net, x), loop_chain(net.layers, x.T, ABS.inplace, False).T)
        assert np.array_equal(path_matrix(net), loop_chain(net.layers, np.eye(net.in_dim), None, True))


def test_multi_tile_call_makes_one_tile_sized_pair(rng, monkeypatch):
    t = SMALL_TILE
    asked = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape):
            asked.append(shape)
            return np.empty(shape)

    net = random_block_net(rng, ABS, n_layers=4)
    # one point and a few make one tile as 647 points make ten: every call
    # asks for the result, then one allocation that holds the pair for the
    # largest tile (each half rounded up to 8 entries, plus 7 entries of
    # alignment slack), never for all 647 points, and no per-layer arrays
    for n in (1, 5, 10 * t + 7):
        x = rng.normal(size=(n, net.in_dim))
        asked.clear()
        monkeypatch.setattr(_kernels, "TILE", t)
        monkeypatch.setattr(_kernels, "np", CountingNumpy())
        got = _kernels.eval_chain(net.layers, x.T, ABS.inplace)
        pair = max(w for w in net.widths[1:-1]) * min(n, 2 * t - 1)
        assert asked[0] == (net.out_dim, n), n
        assert len(asked) == 2 and asked[1] == 2 * (-(-pair // 8) * 8) + 7, (n, asked)
        assert got.base is None  # the result never lives in a buffer
        monkeypatch.setattr(_kernels, "np", np)
        monkeypatch.setattr(_kernels, "TILE", 10**9)
        assert np.array_equal(got.T, evaluate(net, x)), n


@pytest.mark.parametrize("size", [1, 7, 8, 1000, 30 * 8191])
def test_pooled_buffers_start_on_cache_lines(size):
    a, b = _kernels._line_aligned_pair(size)
    for buf in (a, b):
        assert buf.size == size and buf.dtype == np.float64
        assert buf.ctypes.data % 64 == 0
    assert not np.shares_memory(a, b)
    assert a.base is b.base  # one allocation


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_greedy_cover_rejects_non_finite_rows(bad):
    v = np.random.default_rng(3).normal(size=(10, 4))
    v[6, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        _kernels.greedy_cover(v, 0.5)


def near_tie_rows(eps, m=4, bases=20):
    """Far-apart base points first, then for each base and each coordinate
    but the first one row at offset +-2 eps (1 + j ulp), j = -3..3.  The
    bases are zero in those coordinates, so the offsets are exact and each
    row's squared distance to its base is within a few ulps of the
    threshold eps^2 m = 4 eps^2."""
    base = np.zeros((bases, m))
    base[:, 0] = 10 * eps * np.arange(bases)
    offsets = [sign * 2 * eps * (1 + j * 2.0**-52) for sign in (1, -1) for j in range(-3, 4)]
    rows = [b + s * np.eye(m)[c] for b in base for c in range(1, m) for s in offsets]
    return np.vstack([base, rows])


def near_tie_covers():
    """(name, rows, eps) cases at the edges of the screened expansion."""
    r = np.random.default_rng(9)
    return [
        ("ulp ties", near_tie_rows(0.5), 0.5),
        ("ulp ties, tiny scale", near_tie_rows(3e-9), 3e-9),
        ("offset 1e6", r.normal(size=(600, 8)) + 1e6, 1.0),
        ("offset 1e6, lattice", np.round(r.normal(size=(600, 3)) * 4) / 4 + 1e6, 0.5),
        ("near 1e155", 1e155 * (1 + 1e-3 * r.normal(size=(300, 4))), 1e152),
        ("one row near 1e155", np.vstack([r.normal(size=(200, 4)), [[1e155, 0, 0, 0]]]), 0.3),
        ("near 1e150 screened", 1e150 * (1 + 1e-3 * r.normal(size=(300, 4))), 1e147),
        ("all centers", np.arange(500)[:, None] * np.full((500, 3), 7.0), 1.0),
        ("eps squared overflows", r.normal(size=(100, 3)), 1e200),
    ]


@pytest.mark.parametrize("name,v,eps", [pytest.param(*c, id=c[0]) for c in near_tie_covers()])
def test_greedy_cover_matches_loop_on_near_ties(name, v, eps):
    got = _kernels.greedy_cover(v, eps)
    with np.errstate(over="ignore"):  # the oracle's dot products overflow near 1e155
        want = loop_cover(v, eps)
    assert np.array_equal(got, want)
    if name == "all centers":
        assert len(got) == len(v)


def test_near_tie_rows_straddle_the_threshold():
    v, eps = near_tie_rows(0.5), 0.5
    d = v[20:62] - v[0]
    sq = np.einsum("ij,ij->i", d, d)
    t = eps * eps * v.shape[1]
    assert (sq < t).any() and (sq >= t).any()
    assert np.all(np.abs(sq - t) <= 16 * 2.0**-52 * t)


def test_greedy_cover_band_recheck_forced(monkeypatch):
    # a guard band wider than every distance sends every screened pair to
    # the direct comparison; the decisions must not change
    v, eps = near_tie_rows(0.5), 0.5
    calls = []
    covered = _kernels._covered

    def counting(centers, row, eps2_sum):
        calls.append(len(centers))
        return covered(centers, row, eps2_sum)

    monkeypatch.setattr(_kernels, "_covered", counting)
    want = _kernels.greedy_cover(v, eps)
    default_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(_kernels, "GUARD_SAFETY", 1e300)
    got = _kernels.greedy_cover(v, eps)
    assert np.array_equal(got, want) and np.array_equal(got, loop_cover(v, eps))
    # every screened row (past the first block) meets all earlier-block
    # centers directly, so the band branch runs on each of them
    screened = len(v) - _kernels.MAX_BLOCK_ROWS
    assert sum(1 for c in calls if c > 0) >= screened > 0
    assert len(calls) > default_calls
