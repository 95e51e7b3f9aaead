import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnapprox import (
    ABS,
    LITERAL,
    RESCALED,
    MultVariant,
    Network,
    build_mon,
    build_mult,
    build_multr,
    build_pairing_layer,
    build_sq,
    compose,
    count_monomials,
    enumerate_multi_indices,
    evaluate,
    fm_ref,
    mon_error_bound,
    mult_error_bound,
    mult_path_row,
    multr_error_bound,
    network_stats,
    parallel,
    path_matrix,
    path_norm,
    sq_error_bound,
    sq_path_row,
    tent,
    tent_iter,
)
from nnapprox import constructions as ctor
from nnapprox.chebyshev import monomial_values


def _aug(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return np.column_stack([np.ones(len(x)), x])


# ---------------------------------------------------------------------------
# oracles


def test_tent_endpoints():
    assert tent(0.0) == 0.0
    assert tent(0.5) == 1.0
    assert tent(1.0) == 0.0


def test_tent_iter_counts_teeth():
    x = np.linspace(0, 1, 4097)
    for s in (1, 2, 3):
        v = tent_iter(s, x)
        peaks = np.sum((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))
        assert peaks == 2 ** (s - 1)


def test_fm_ref_at_half():
    assert fm_ref(1, 0.5) == 0.25


def test_fm_ref_square_error_bound():
    x = np.linspace(0, 1, 10000)
    for m in range(1, 11):
        assert np.abs(fm_ref(m, x) - x * x).max() <= sq_error_bound(m)


def test_variant_parsing():
    assert MultVariant("literal") is LITERAL
    assert MultVariant("rescaled") is RESCALED
    assert MultVariant(RESCALED) is RESCALED
    with pytest.raises(ValueError):
        MultVariant("bogus")


# ---------------------------------------------------------------------------
# squaring network


def test_sq_rejects_bad_m():
    with pytest.raises(ValueError):
        build_sq(0)


def test_sq_values_at_ends():
    assert evaluate(build_sq(1), [1.0, 0.0])[0] == 0.0
    assert evaluate(build_sq(3), [1.0, 1.0])[0] == 1.0


def test_sq_path_matrix_closed_form():
    for m in (1, 2, 3, 7):
        assert np.array_equal(path_matrix(build_sq(m))[0], sq_path_row(m))
    assert np.array_equal(sq_path_row(2), [0.875, 1.75])


def test_sq_matches_fm_ref_on_grid():
    x = np.linspace(0, 1, 10000)
    inp = _aug(x)
    for m in range(1, 11):
        net = build_sq(m)
        v = evaluate(net, inp)[:, 0]
        assert np.abs(v - fm_ref(m, x)).max() <= 1e-11
        assert net.max_width == 3
        assert len(net.layers) == 2 * m + 1


def test_sq_and_mult_chains_carry_three_channels():
    for m in range(1, 11):
        stats = network_stats(build_sq(m))
        assert stats["stored_entries"] == stats["dense_entries"] == 18 * m
        for variant in (LITERAL, RESCALED):
            assert build_mult(m, variant).max_width == 9


def test_sq_prefix_carries_running_sum_and_tent_iterate():
    # the prefix ending at B_s outputs (1, f_s, g_s): the running sum is the
    # dyadic interpolant of x^2, so it is >= 0 and survives the abs activation
    x = np.linspace(0, 1, 10001)
    layers = build_sq(10).layers
    for s in range(1, 11):
        out = evaluate(Network(ABS, layers[: 2 * s]), _aug(x))
        assert out.shape == (len(x), 3)
        assert np.abs(out[:, 1] - fm_ref(s, x)).max() <= 1e-15
        assert out[:, 1].min() >= 0.0
        assert np.array_equal(out[:, 2], tent_iter(s, x))


# ---------------------------------------------------------------------------
# multiplication


def test_mult_path_matrix_closed_form_exact():
    for m in range(1, 11):
        got = path_matrix(build_mult(m, LITERAL))[0]
        want = mult_path_row(m)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.allclose(mult_path_row(2), [1.3125, 1.75, 1.75])


def test_mult_path_norm_m1():
    assert path_norm(build_mult(1, LITERAL)) == pytest.approx(3.75)


def test_mult_zero_input():
    # the +-f_m terms cancel exactly in the literal wiring; the rescaled one
    # leaves 2 f_m(y/2) - f_m(y)/2, zero only up to the interpolation error
    ys = np.linspace(0, 1, 11)
    inp = np.column_stack([np.ones_like(ys), np.zeros_like(ys), ys])
    assert np.abs(evaluate(build_mult(3, LITERAL), inp)).max() == 0.0
    v = evaluate(build_mult(3, RESCALED), inp)
    assert np.abs(v).max() <= mult_error_bound(3, RESCALED)


def test_mult_literal_grid_bound():
    net = build_mult(4, LITERAL)
    n = 100
    xs = np.arange(n + 1) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    mask = gx + gy <= 1.0
    px, py = gx[mask], gy[mask]
    v = evaluate(net, np.column_stack([np.ones_like(px), px, py]))[:, 0]
    assert np.abs(v - px * py).max() <= 3 * 2.0**-11


def test_mult_rescaled_corner():
    v = evaluate(build_mult(3, RESCALED), [1.0, 1.0, 1.0])[0]
    assert abs(v - 1.0) <= 3 * 2.0**-8


def test_mult_shapes():
    for m in (1, 4):
        net = build_mult(m, RESCALED)
        assert net.in_dim == 3 and net.out_dim == 1
        assert net.max_width <= 3 * m + 6
        assert net.depth <= 2 * m + 3


def test_mult_error_propagation_inequality(rng=np.random.default_rng(7)):
    # |Mult(1,x,y) - t z| <= eps_m + |x - t| + |y - z| on the valid domain
    for variant in (LITERAL, RESCALED):
        m = 4
        net = build_mult(m, variant)
        eps_m = mult_error_bound(m, variant)
        if variant is LITERAL:
            x = rng.uniform(0, 0.5, 10000)
            y = rng.uniform(0, 0.5, 10000)
            t = rng.uniform(0, 0.5, 10000)
            z = rng.uniform(0, 0.5, 10000)
        else:
            x, y, t, z = rng.uniform(0, 1, (4, 10000))
        v = evaluate(net, np.column_stack([np.ones_like(x), x, y]))[:, 0]
        lhs = np.abs(v - t * z)
        rhs = eps_m + np.abs(x - t) + np.abs(y - z)
        assert np.all(lhs <= rhs + 1e-12)


def test_mult_outputs_nonnegative_on_certified_grid():
    # product-DAG chains take Mult outputs as inputs, so they must stay in
    # the squaring chain's domain [0,1] up to rounding
    xs = np.arange(201) / 200
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    for variant in (LITERAL, RESCALED):
        mask = gx + gy <= 1.0 if variant is LITERAL else np.ones_like(gx, dtype=bool)
        inp = np.column_stack([np.ones(mask.sum()), gx[mask], gy[mask]])
        for m in range(1, 11):
            assert evaluate(build_mult(m, variant), inp).min() >= -1e-15


def test_mult_hidden_layers_are_three_equal_blocks():
    for m in (1, 4):
        for variant in (LITERAL, RESCALED):
            net = build_mult(m, variant)
            for lay in net.layers[1:-1]:
                assert len(lay.blocks) == 3
                assert all(np.array_equal(b, lay.blocks[0]) for b in lay.blocks)


def dense_triple(mat):
    """Oracle: three copies of mat on the diagonal of one dense matrix, the
    assembly the builders used before they emitted the copies as blocks."""
    out = np.zeros((3 * mat.shape[0], 3 * mat.shape[1]))
    for i in range(3):
        out[i * mat.shape[0] : (i + 1) * mat.shape[0], i * mat.shape[1] : (i + 1) * mat.shape[1]] = mat
    return out


@pytest.mark.parametrize("variant", [LITERAL, RESCALED], ids=["literal", "rescaled"])
def test_builders_equal_dense_triple_assembly(monkeypatch, variant):
    builds = [
        lambda: build_mult(3, variant),
        lambda: build_pairing_layer(2, 3, variant),
        lambda: build_multr(2, 5, variant),
        lambda: build_mon(2, 4, 2, variant),
    ]
    nets = [b() for b in builds]
    stack = ctor.parallel

    def dense_parallel(ns):
        net = stack(ns)
        return Network(net.activation, [lay.to_dense() for lay in net.layers])

    monkeypatch.setattr(ctor, "parallel", dense_parallel)
    mult = build_mult(3, variant)
    assert all(len(lay.blocks) == 1 for lay in mult.layers)
    triples = zip(mult.weights[1:-1], ctor._sq_matrices(3), strict=True)
    assert all(np.array_equal(a, dense_triple(w)) for a, w in triples)
    stored = lambda n: sum(b.size for lay in n.layers for b in lay.blocks)
    for net, build in zip(nets, builds):
        ref = build()
        assert stored(net) < stored(ref)
        assert len(net.weights) == len(ref.weights)
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, ref.weights))


# ---------------------------------------------------------------------------
# pairing layers and product trees


@pytest.mark.parametrize("k", [1, 3])
def test_pairing_level_splices_mult_blocks(monkeypatch, k):
    made = []
    real_mult = ctor.build_mult
    monkeypatch.setattr(ctor, "build_mult", lambda *a: made.append(real_mult(*a)) or made[-1])
    net = build_pairing_layer(2, k, RESCALED)
    (mult,) = made
    for lay, src in zip(net.layers[1:], mult.layers, strict=True):
        n = len(src.blocks)
        assert len(lay.blocks) == 1 + k * n
        assert all(b is src.blocks[i % n] for i, b in enumerate(lay.blocks[1:]))
    for lay in mult.layers[1:-1]:  # each squaring matrix is one block shared by the three chains
        assert lay.blocks[0] is lay.blocks[1] is lay.blocks[2]


def test_carried_channels_are_one_run():
    # build_mon(2, 3, 3) carries x_1, x_2, x_3 through its first pairing
    # level on one shared 1x1 identity block, and all 18 squaring chains of
    # its 6 products run on one block per layer
    m = 2
    net = build_mon(m, 3, 3)
    for lay in net.layers[1 : 2 * m + 4]:
        carry, k = lay.runs[-1]
        assert k == 3 and np.array_equal(carry, np.eye(1))
    for lay in net.layers[2 : 2 * m + 3]:
        assert [k for _, k in lay.runs] == [1, 18, 3]
    assert network_stats(net)["runs"] == 1 + 3 * (2 * m + 3) + 1


def test_pairing_k1_matches_mult(rng=np.random.default_rng(1)):
    pair = build_pairing_layer(3, 1, RESCALED)
    mult = build_mult(3, RESCALED)
    xy = rng.uniform(0, 1, (200, 2))
    inp = _aug(xy)
    got = evaluate(pair, inp)
    want = evaluate(mult, inp)[:, 0]
    assert np.abs(got[:, 0] - 1.0).max() <= 1e-12
    assert np.abs(got[:, 1] - want).max() <= 1e-12


def test_pairing_path_matrix_banded():
    m = 3
    net = build_pairing_layer(m, 2, LITERAL)
    a = 3 * sum((2.0**k - 1) / 4.0**k for k in range(1, m + 1))
    b = 2 - 2.0**-m
    expect = np.array(
        [[1, 0, 0, 0, 0], [a, b, b, 0, 0], [a, 0, 0, b, b]], dtype=float
    )
    assert np.array_equal(path_matrix(net), expect)


def test_pairing_values_close_to_products():
    net = build_pairing_layer(3, 2, RESCALED)
    out = evaluate(net, np.array([1.0, 0.2, 0.3, 0.4, 0.5]))
    bound = mult_error_bound(3, RESCALED)
    assert out[0] == 1.0
    assert abs(out[1] - 0.06) <= bound
    assert abs(out[2] - 0.20) <= bound


def test_multr_rejects_bad_params():
    with pytest.raises(ValueError):
        build_multr(3, 1)
    with pytest.raises(ValueError):
        build_multr(0, 4)


def test_multr_grid_bound_rescaled():
    net = build_multr(5, 4, RESCALED)
    xs = np.linspace(0, 1, 11)
    grid = np.stack(np.meshgrid(*[xs] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    v = evaluate(net, _aug(grid))[:, 0]
    assert np.abs(v - np.prod(grid, axis=1)).max() <= 3 * 16 * 4.0**-5


def test_multr_literal_small_domain():
    net = build_multr(6, 3, LITERAL)
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 0.5, (20000, 3))
    v = evaluate(net, _aug(x))[:, 0]
    assert np.abs(v - np.prod(x, axis=1)).max() <= 9 * 4.0**-6


def test_multr_zero_factor():
    net = build_multr(5, 4, RESCALED)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (2000, 4))
    x[:, 2] = 0.0
    v = evaluate(net, _aug(x))[:, 0]
    assert np.abs(v).max() <= multr_error_bound(5, 4, RESCALED)


def test_multr_structure_bounds():
    for r in (2, 3, 5, 8):
        for m in (1, 4):
            net = build_multr(m, r, RESCALED)
            q = math.ceil(math.log2(r))
            assert net.depth <= (2 * m + 5) * q + 1
            assert net.max_width <= 6 * r * (m + 2) + 1
            assert net.in_dim == r + 1 and net.out_dim == 1


def test_multr_path_infinity_bounds():
    for r in (2, 3, 8):
        m = 5
        lit = np.max(path_matrix(build_multr(m, r, LITERAL)))
        res = np.max(path_matrix(build_multr(m, r, RESCALED)))
        assert lit <= 144 * r**4
        assert res <= 2304 * r**5


# ---------------------------------------------------------------------------
# multi-indices and monomial networks


def test_enumerate_graded_lex_d2():
    assert enumerate_multi_indices(2, 3) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    ]


def test_enumerate_d1():
    assert enumerate_multi_indices(1, 5) == [(k,) for k in range(5)]


def test_count_monomials():
    for d in range(1, 5):
        for gamma in range(1, 11):
            count = count_monomials(d, gamma)
            assert count == len(enumerate_multi_indices(d, gamma))
            assert count < (gamma + 1) ** d


def test_mon_gamma2_exact():
    net = build_mon(3, 2, 1, RESCALED)
    out = evaluate(net, np.array([[1.0, 0.37], [1.0, 0.9]]))
    assert np.array_equal(out, [[1.0, 0.37], [1.0, 0.9]])


def test_mon_rejects_bad_params():
    with pytest.raises(ValueError):
        build_mon(0, 3, 2)
    with pytest.raises(ValueError):
        build_mon(3, 1, 2)


def test_mon_channel_order_matches_enumeration():
    net = build_mon(5, 4, 2, RESCALED)
    idx = enumerate_multi_indices(2, 4)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, (300, 2))
    got = evaluate(net, _aug(pts))
    want = monomial_values(idx, pts)
    bound = mon_error_bound(5, 4, RESCALED)
    # each channel must match its own monomial far better than any other
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= bound
    for j, k in enumerate(idx):
        others = [o for o in range(len(idx)) if o != j]
        own = np.abs(got[:, j] - want[:, j]).max()
        cross = min(np.abs(got[:, j] - want[:, o]).max() for o in others)
        assert own < cross


def test_mon_error_bounds_both_variants():
    for variant, hi in ((LITERAL, 0.5), (RESCALED, 1.0)):
        net = build_mon(6, 3, 2, variant)
        xs = np.linspace(0, hi, 51)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        got = evaluate(net, _aug(pts))
        want = monomial_values(enumerate_multi_indices(2, 3), pts)
        assert np.abs(got - want).max() <= mon_error_bound(6, 3, variant)


def test_mon_structure_and_path_bounds():
    net = build_mon(6, 3, 2, LITERAL)
    assert net.depth <= math.ceil(math.log2(3)) * (2 * 6 + 5) + 2
    assert net.max_width <= 6 * 3 * (6 + 2) * count_monomials(2, 3)
    assert np.max(path_matrix(net)) <= 144 * 4**5


def test_builder_metadata():
    net = build_multr(3, 4, RESCALED)
    assert net.meta["construction"] == "multr"
    assert net.meta["variant"] == "rescaled"
    assert net.meta["claimed_error_bound"] == multr_error_bound(3, 4, RESCALED)
    net = build_mon(3, 3, 1, LITERAL)
    assert net.meta["claimed_domain"] == "[0,0.5]^1"


# ---------------------------------------------------------------------------
# the shared product DAG against one product tree per multi-index


def parallel_trees_mon(m, gamma, d, variant):
    """Oracle: the parallel-trees monomial network (Schmidt-Hieber 2020).

    A 0/1 matrix g replicates (1, x) into (1, x_{deg 1}) followed by one
    (1, factors of x^k) stack per index of degree > 1; build_multr trees run
    side by side with an identity net on the constant and degree-1 channels.
    """
    indices = enumerate_multi_indices(d, gamma)
    high = [k for k in indices if sum(k) > 1]
    cols = [0] + [1 + k.index(1) for k in indices if sum(k) == 1]
    for k in high:
        cols += [0] + [1 + axis for axis, count in enumerate(k) for _ in range(count)]
    g = np.eye(d + 1)[cols]
    trees = [build_multr(m, sum(k), variant) for k in high]
    return compose(Network(ABS, [g]), parallel([Network(ABS, [np.eye(d + 1)])] + trees))


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 3),
    gamma=st.integers(2, 6),
    d=st.integers(1, 3),
    variant=st.sampled_from([LITERAL, RESCALED]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mon_equals_parallel_trees(m, gamma, d, variant, seed):
    net = build_mon(m, gamma, d, variant)
    ref = parallel_trees_mon(m, gamma, d, variant)
    hi = 0.5 if variant is LITERAL else 1.0
    x = _aug(np.random.default_rng(seed).uniform(0, hi, (500, d)))
    assert np.array_equal(evaluate(net, x), evaluate(ref, x))
    assert np.array_equal(path_matrix(net), path_matrix(ref))
    assert net.depth == ref.depth - 1
    assert net.max_width <= ref.max_width


def pairing_tree(factors):
    """multr's tree, split recursively: the first 2^(q-1) of 2^(q-1) < r <= 2^q
    factors form the left subtree."""
    if len(factors) == 1:
        return factors[0]
    half = 1 << ((len(factors) - 1).bit_length() - 1)
    return (pairing_tree(factors[:half]), pairing_tree(factors[half:]))


def distinct_products(d, gamma):
    nodes = set()

    def collect(node):
        if isinstance(node, tuple):
            nodes.add(node)
            collect(node[0])
            collect(node[1])

    for k in enumerate_multi_indices(d, gamma):
        if sum(k) > 1:
            collect(pairing_tree([axis for axis, count in enumerate(k) for _ in range(count)]))
    return len(nodes)


@pytest.mark.parametrize("m,gamma,d,products", [(10, 11, 1, 9), (6, 7, 2, 25)])
def test_mon_computes_each_distinct_product_once(m, gamma, d, products):
    for variant in (LITERAL, RESCALED):
        c = build_mult(m, variant).layers[0].blocks[0]
        net = build_mon(m, gamma, d, variant)
        mults = sum(
            b.shape == (6, 3) and np.array_equal(b, c) for lay in net.layers for b in lay.blocks
        )
        assert mults == distinct_products(d, gamma) == products
