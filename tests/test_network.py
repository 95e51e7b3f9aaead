import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnapprox import (
    ABS,
    IDENTITY,
    RELU,
    ActivationMismatchError,
    BlockDiagonal,
    Network,
    NetworkError,
    ShapeMismatchError,
    build_cheb_net,
    build_mon,
    build_mult,
    build_multr,
    compose,
    evaluate,
    general_activation,
    network_from_json,
    network_stats,
    network_to_json,
    parallel,
    path_matrix,
    path_norm,
    target_exp_sum,
    with_ones,
)
from nnapprox import _kernels
from nnapprox import network as _network
from conftest import dense_chain, dense_path_matrix, random_block_net, random_dense_net


def test_eval_single_linear_layer():
    net = Network(IDENTITY, [np.array([[2.0, 3.0]])])
    assert evaluate(net, np.array([1.0, 1.0])) == pytest.approx([5.0])


def test_eval_abs_two_layers():
    net = Network(ABS, [np.array([[-1.0]]), np.array([[1.0]])])
    assert evaluate(net, np.array([0.7]))[0] == pytest.approx(0.7)


def test_eval_mult_example_exact():
    v = evaluate(build_mult(1, "literal"), np.array([1.0, 0.5, 0.5]))
    assert v[0] == 0.25


def test_eval_batch_matches_single(rng):
    net = random_dense_net(rng, ABS)
    xs = rng.normal(size=(7, net.in_dim))
    batch = evaluate(net, xs)
    for i in range(7):
        assert np.allclose(batch[i], evaluate(net, xs[i]))


@pytest.mark.parametrize("n", [255, 256, 500])
@pytest.mark.parametrize("act", [RELU, general_activation(lambda x: np.where(x >= 0, 1.0, 0.0))])
def test_pooled_buffers_keep_outputs_exact(act, n, rng):
    # two parallel nets of hidden widths 300, 20, 300: every layer has two
    # blocks, and a narrow layer sits between wide ones, so the pooled pair
    # holds activations of different widths in turn; checked against each
    # sub-network on its own
    widths = [3, 300, 20, 300, 1]
    nets = [
        Network(act, [rng.normal(size=(widths[i + 1], widths[i])) / widths[i] for i in range(4)])
        for _ in range(2)
    ]
    net = parallel(nets)
    xs = rng.normal(size=(n, 6))
    got = _kernels.eval_chain(net.layers, xs.T, act.inplace)
    assert got.base is None  # the result never is a view into a buffer
    assert np.array_equal(got.T, evaluate(net, xs))
    for k, sub in enumerate(nets):
        assert np.array_equal(got[k], evaluate(sub, xs[:, 3 * k : 3 * k + 3])[:, 0])


def test_eval_dimension_mismatch_names_layer():
    net = Network(ABS, [np.array([[1.0, 2.0]])])
    with pytest.raises(ShapeMismatchError, match="layer 0"):
        evaluate(net, np.array([1.0, 2.0, 3.0]))


def test_chain_mismatch_names_layer():
    with pytest.raises(ShapeMismatchError, match="layer 1"):
        Network(ABS, [np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])])


def test_nonfinite_weights_rejected():
    with pytest.raises(NetworkError):
        Network(ABS, [np.array([[np.inf]])])


def test_activation_variants_agree_with_sign_selector(rng):
    x = rng.normal(size=100)
    dead_zone = general_activation(lambda v: np.where(np.abs(v) < 0.5, 0.0, np.sign(v)))
    for act in (IDENTITY, RELU, ABS, dead_zone):
        y = x.copy()
        assert act.inplace(y) is y
        assert np.array_equal(y, act.selector(x) * x)
    assert ABS.selector(np.array([0.0]))[0] == 1.0
    assert RELU.selector(np.array([0.0]))[0] == 1.0


def test_path_matrix_single_layer():
    net = Network(ABS, [np.array([[-2.0, 3.0]])])
    assert np.array_equal(path_matrix(net), [[2.0, 3.0]])


def test_path_norm_trivial():
    assert path_norm(Network(ABS, [np.array([[1.0, -1.0]])])) == 2.0


def test_path_norm_cached_on_network(rng, monkeypatch):
    net = random_dense_net(rng, ABS, n_layers=3)
    chain, calls = _kernels.eval_chain, []
    monkeypatch.setattr(_kernels, "eval_chain", lambda *a, **k: calls.append(1) or chain(*a, **k))
    first = path_norm(net)
    assert path_norm(net) is first
    assert len(calls) == 1
    assert first == pytest.approx(np.sum(dense_path_matrix(net)), rel=1e-13)


def test_derived_networks_report_their_own_path_norm(rng):
    a = Network(ABS, [rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (1, 3))])
    b = Network(ABS, [rng.uniform(-1, 1, (2, 1)), rng.uniform(-1, 1, (1, 2))])
    pa, pb = path_norm(a), path_norm(b)  # cache both before deriving
    derived = {
        "compose": compose(a, b),
        "parallel": parallel([a, a]),
        "rescaled": Network(ABS, [0.5 * w for w in a.weights]),
        "prepend": compose(Network(ABS, [3.0 * np.eye(2)]), a),
        "append": compose(a, Network(ABS, [np.array([[-4.0]])])),
    }
    for name, net in derived.items():
        assert path_norm(net) == pytest.approx(np.sum(dense_path_matrix(net)), rel=1e-13), name
    assert path_norm(derived["parallel"]) == pytest.approx(2 * pa, rel=1e-13)
    assert path_norm(derived["rescaled"]) == pytest.approx(0.25 * pa, rel=1e-13)
    assert path_norm(derived["prepend"]) == pytest.approx(3 * pa, rel=1e-13)
    assert path_norm(derived["append"]) == pytest.approx(4 * pa, rel=1e-13)
    assert (path_norm(a), path_norm(b)) == (pa, pb)


def test_l1_norms():
    net = Network(ABS, [np.array([[1.0, -1.0]]), np.array([[0.5]])])
    stats = network_stats(net)
    assert [lay["l1"] for lay in stats["layers"]] == [2.0, 0.5]
    assert stats["l1"] == 2.5


def test_network_stats_counts_entries():
    stats = network_stats(Network(ABS, [np.ones((2, 3))]))
    assert (stats["dense_entries"], stats["stored_entries"], stats["nnz"]) == (6, 6, 6)
    assert stats["l1"] == 6.0
    assert stats["layers"] == [
        {"shape": [2, 3], "blocks": 1, "runs": 1, "stored_entries": 6, "nnz": 6, "l1": 6.0}
    ]
    half = Network(ABS, [np.array([[1.0, 0.0]])])
    stats = network_stats(parallel([half, half]))
    assert (stats["dense_entries"], stats["stored_entries"], stats["nnz"]) == (8, 4, 2)
    assert (stats["depth"], stats["max_width"], stats["blocks"], stats["runs"]) == (0, 4, 2, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_network_stats_match_the_dense_weights(seed):
    # structural zeros outside the blocks are counted only in dense_entries
    net = random_block_net(np.random.default_rng(seed), ABS)
    stats = network_stats(net)
    ws = net.weights
    assert (stats["depth"], stats["max_width"]) == (len(ws) - 1, max(net.widths))
    assert [lay["shape"] for lay in stats["layers"]] == [list(w.shape) for w in ws]
    assert [lay["blocks"] for lay in stats["layers"]] == [len(lay.blocks) for lay in net.layers]
    assert stats["dense_entries"] == sum(w.size for w in ws)
    assert stats["stored_entries"] == sum(b.size for lay in net.layers for b in lay.blocks)
    assert [lay["nnz"] for lay in stats["layers"]] == [np.count_nonzero(w) for w in ws]
    assert stats["nnz"] == sum(lay["nnz"] for lay in stats["layers"])
    for lay, w in zip(stats["layers"], ws):
        assert lay["l1"] == pytest.approx(np.abs(w).sum(), rel=1e-13)
    assert stats["l1"] == pytest.approx(sum(np.abs(w).sum() for w in ws), rel=1e-13)
    assert json.loads(json.dumps(stats)) == stats


def test_path_norm_equals_value_at_ones_for_nonnegative_weights(rng):
    for act in (ABS, RELU, IDENTITY):
        for _ in range(50):
            net = random_dense_net(rng, act)
            net = Network(act, [np.abs(w) for w in net.weights])
            val = float(np.sum(evaluate(net, np.ones(net.in_dim))))
            pn = path_norm(net)
            assert val == pn


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_path_norm_bounded_by_product_of_layer_l1(seed):
    r = np.random.default_rng(seed)
    net = random_dense_net(r, ABS)
    prod = 1.0
    for lay in network_stats(net)["layers"]:
        prod *= lay["l1"]
    assert path_norm(net) <= prod * (1 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([ABS, RELU, IDENTITY]))
def test_path_norm_is_the_abs_net_at_ones(seed, act):
    # path_norm is the linear |W| net at one point of ones, bit for bit; with
    # 2-point tiles the batch of 5 points of ones is tiled
    net = random_block_net(np.random.default_rng(seed), act)
    abs_net = Network(IDENTITY, [BlockDiagonal([np.abs(b) for b in lay.blocks]) for lay in net.layers])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "TILE", 2)
        pn = path_norm(net)
        at_ones = evaluate(abs_net, np.ones((5, net.in_dim))).sum(axis=1)
    assert pn == float(np.sum(evaluate(abs_net, np.ones(net.in_dim))))
    assert at_ones == pytest.approx(np.full(5, pn), rel=1e-12)


def test_unit_l1_budget_caps_path_norm(rng):
    for _ in range(200):
        net = random_dense_net(rng, ABS)
        total = network_stats(net)["l1"]
        if total == 0:
            continue
        ws = [w / total for w in net.weights]
        scaled = Network(ABS, ws)
        assert network_stats(scaled)["l1"] <= 1 + 1e-9
        L = scaled.depth
        assert path_norm(scaled) <= (L + 1) ** -(L + 1) + 1e-12


def test_abs_networks_piecewise_linear(rng):
    net = random_dense_net(rng, ABS, n_layers=3)
    for _ in range(20):
        x = rng.normal(size=net.in_dim)
        u = rng.normal(size=net.in_dim)
        u /= np.linalg.norm(u)
        for h in (1e-4, 1e-5):
            d1 = (evaluate(net, x + h * u) - evaluate(net, x - h * u)) / (2 * h)
            d2 = (evaluate(net, x + 2 * h * u) - evaluate(net, x - 2 * h * u)) / (4 * h)
            if np.abs(d1 - d2).max() < 1e-9:
                break
        else:
            pytest.fail("directional derivative not locally constant")


def test_eval_finite_on_finite_inputs(rng):
    for _ in range(50):
        net = random_dense_net(rng, ABS)
        out = evaluate(net, rng.normal(size=(10, net.in_dim)))
        assert np.all(np.isfinite(out))


def test_compose_inserts_one_activation():
    ident = Network(ABS, [np.eye(1)])
    g = Network(ABS, [np.array([[2.0]]), np.array([[-1.0]])])
    comp = compose(ident, g)
    assert comp.depth == g.depth + 1
    for x in (0.0, 0.3, 1.7):
        assert evaluate(comp, [x])[0] == evaluate(g, [x])[0]


def test_compose_activation_mismatch():
    with pytest.raises(ActivationMismatchError):
        compose(Network(ABS, [np.eye(1)]), Network(RELU, [np.eye(1)]))


def test_compose_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        compose(Network(ABS, [np.ones((2, 1))]), Network(ABS, [np.ones((1, 3))]))


def test_parallel_three_copies_is_block_diagonal():
    m = np.array([[1.0, -2.0], [0.5, 3.0]])
    net = Network(ABS, [m])
    par = parallel([net, net, net])
    dense = par.weights[0]
    expect = np.zeros((6, 6))
    for i in range(3):
        expect[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = m
    assert np.array_equal(dense, expect)


def test_parallel_pads_depth_and_preserves_values(rng):
    shallow = Network(ABS, [np.abs(rng.normal(size=(2, 2))) for _ in range(3)])
    deep = Network(ABS, [np.abs(rng.normal(size=(2, 2))) for _ in range(5)])
    par = parallel([shallow, deep])
    assert len(par.layers) == 5
    x = rng.uniform(0, 1, size=(20, 4))
    got = evaluate(par, x)
    want_s = evaluate(shallow, x[:, :2])
    want_d = evaluate(deep, x[:, 2:])
    assert np.allclose(got[:, :2], want_s)
    assert np.allclose(got[:, 2:], want_d)


def dense_block_diag(mats):
    """Oracle: mats on the diagonal of one dense matrix."""
    out = np.zeros((sum(w.shape[0] for w in mats), sum(w.shape[1] for w in mats)))
    r = c = 0
    for w in mats:
        out[r : r + w.shape[0], c : c + w.shape[1]] = w
        r, c = r + w.shape[0], c + w.shape[1]
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_combinators_match_dense_oracle(seed):
    r = np.random.default_rng(seed)
    a = random_block_net(r, ABS)
    b = random_block_net(r, ABS, in_dim=a.out_dim)
    w_in = r.uniform(-1, 1, (a.in_dim, int(r.integers(1, 5))))
    w_out = r.uniform(-1, 1, (int(r.integers(1, 5)), a.out_dim))
    nets = [random_block_net(r, ABS) for _ in range(int(r.integers(1, 4)))]
    depth = max(len(n.layers) for n in nets)
    padded = [[np.eye(n.in_dim)] * (depth - len(n.layers)) + list(n.weights) for n in nets]
    cases = {
        "compose": (compose(a, b), a.weights + b.weights),
        "parallel": (parallel(nets), [dense_block_diag(ws) for ws in zip(*padded)]),
        "prepend": (compose(Network(ABS, [w_in]), a), (w_in,) + a.weights),
        "append": (compose(a, Network(ABS, [w_out])), a.weights + (w_out,)),
    }
    for name, (net, want) in cases.items():
        assert len(net.weights) == len(want), name
        assert all(np.array_equal(got, w) for got, w in zip(net.weights, want)), name
        x = r.normal(size=(7, net.in_dim))
        np.testing.assert_allclose(evaluate(net, x), dense_chain(net, x), rtol=1e-13, atol=1e-13)


def test_combinators_splice_blocks_by_reference(rng):
    a = random_block_net(rng, ABS, n_layers=3)
    b = random_block_net(rng, ABS, n_layers=2)
    same = lambda xs, ys: len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))
    par = parallel([a, b])
    assert same(par.layers[0].blocks[:-1], a.layers[0].blocks)
    assert np.array_equal(par.layers[0].blocks[-1], np.eye(b.in_dim))  # b's padding
    for i in (1, 2):
        assert same(par.layers[i].blocks, a.layers[i].blocks + b.layers[i - 1].blocks)
    c = random_block_net(rng, ABS, in_dim=a.out_dim)
    comp = compose(a, c)
    assert all(same(x.blocks, y.blocks) for x, y in zip(comp.layers, a.layers + c.layers))
    for net in (Network(ABS, a.layers), compose(Network(ABS, [np.eye(a.in_dim)]), a)):
        assert all(same(x.blocks, y.blocks) for x, y in zip(net.layers[-3:], a.layers))
    app = compose(a, Network(ABS, [np.ones((1, a.out_dim))]))
    assert all(same(x.blocks, y.blocks) for x, y in zip(app.layers, a.layers))


def test_parallel_pads_with_one_identity_run_per_width(rng):
    a = random_block_net(rng, ABS, n_layers=3, in_dim=2)
    b = random_block_net(rng, ABS, n_layers=1, in_dim=2)
    c = random_block_net(rng, ABS, n_layers=2, in_dim=3)
    par = parallel([c, a, b, b])
    pad2 = par.layers[0].runs[-1][0]
    assert np.array_equal(pad2, np.eye(2)) and np.array_equal(par.layers[0].runs[0][0], np.eye(3))
    for lay in par.layers[:2]:
        assert lay.runs[-1][0] is pad2 and lay.runs[-1][1] == 2
    x = rng.uniform(0, 1, (9, par.in_dim))
    np.testing.assert_allclose(evaluate(par, x), dense_chain(par, x), rtol=1e-13, atol=1e-13)


def test_compose_with_one_matrix_nets():
    net = Network(ABS, [np.array([[1.0, 1.0]])])
    net2 = compose(Network(ABS, [np.eye(2)]), net)
    net3 = compose(net2, Network(ABS, [np.array([[2.0]])]))
    assert net3.widths == (2, 2, 1, 1)
    assert evaluate(net3, [0.5, 0.25])[0] == pytest.approx(1.5)


def test_json_round_trip_bit_exact(rng):
    for _ in range(20):
        net = random_dense_net(rng, ABS)
        back = network_from_json(network_to_json(net))
        xs = rng.normal(size=(5, net.in_dim))
        assert np.array_equal(evaluate(net, xs), evaluate(back, xs))
        for w1, w2 in zip(net.weights, back.weights):
            assert np.array_equal(w1, w2)


@pytest.mark.parametrize(
    "make, d",
    [
        (lambda: build_multr(3, 5, "rescaled"), 5),
        (lambda: build_mon(4, 3, 2, "rescaled"), 2),
        (lambda: build_cheb_net(target_exp_sum(2), 2**-3, "rescaled")[0], 2),
    ],
    ids=["multr", "mon", "cheb_d2"],
)
def test_json_round_trip_keeps_blocks(make, d, rng):
    net = make()
    back = network_from_json(network_to_json(net))
    assert [[b.shape for b in lay.blocks] for lay in back.layers] == [
        [b.shape for b in lay.blocks] for lay in net.layers
    ]
    x = np.column_stack([np.ones(300), rng.uniform(0, 1, (300, d))])
    assert np.array_equal(evaluate(back, x), evaluate(net, x))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([ABS, RELU, IDENTITY]))
def test_json_round_trip_random_block_nets(seed, act):
    r = np.random.default_rng(seed)
    net = random_block_net(r, act)
    back = network_from_json(network_to_json(net))
    assert back.activation is act
    assert [len(lay.blocks) for lay in back.layers] == [len(lay.blocks) for lay in net.layers]
    for lay, lay_back in zip(net.layers, back.layers):
        for b, b_back in zip(lay.blocks, lay_back.blocks):
            assert b.shape == b_back.shape and np.array_equal(b, b_back)
    x = r.normal(size=(5, net.in_dim))
    assert np.array_equal(evaluate(back, x), evaluate(net, x))


@pytest.mark.parametrize(
    "wire",
    [
        # version 1, one dense matrix per layer under "weights", is not read
        '{"activation": "abs", "weights": [[[1.0, -1.0]], [[0.5]]], "meta": {"m": 1}}',
        '{"activation": "abs", "weights": [[[1.0, 2.0], [3.0]]]}',
        '{"activation": "abs", "weights": [[[Infinity]]]}',
        # version 2, every copy written out as a block, is not read either
        '{"format": 2, "activation": "abs", "layers": [[[[1.0]], [[1.0]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[1, [[1.0, 2.0], [3.0]]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[1, [[NaN]]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[2, [[1.0], [-Infinity]]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[1, [1.0, 2.0]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[0, [[1.0]]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[-1, [[1.0]]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[1.5, [[1.0]]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[true, [[1.0]]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[["2", [[1.0]]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[[1.0]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[1, [[1.0]], 1]]]}',
        '{"format": 3, "activation": "abs", "layers": [[{"1": [[1.0]]}]]}',
        '{"format": 3, "activation": "abs", "layers": [[]]}',
        '{"format": 3, "activation": "abs", "layers": [[[1000000000000, [[1.0]]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[40000, [[1.0]]], [40000, [[2.0]]]]]}',
        '{"format": 3, "activation": "abs", "layers": [[[40000, [[1.0, 1.0]]]]]}',
        '{"format": 4, "activation": "abs", "layers": [[[1, [[1.0]]]]]}',
        "[3]",
    ],
    ids=[
        "v1", "v1-ragged", "v1-inf", "v2", "v3-ragged", "v3-nan", "v3-inf", "v3-vector-block",
        "count-0", "count-negative", "count-float", "count-bool", "count-string", "run-not-a-pair",
        "run-of-three", "run-a-dict", "layer-without-runs", "count-huge", "runs-too-wide",
        "run-too-many-columns", "unknown-format", "not-a-dict",
    ],
)
def test_json_malformed_raises_network_error(wire):
    with pytest.raises(NetworkError):
        network_from_json(wire)


def test_json_reads_layers_up_to_the_width_bound():
    # a count is one number in the file: the decoder reads a layer exactly
    # MAX_DECODED_WIDTH wide as one shared block and refuses one more copy
    wide = _network.MAX_DECODED_WIDTH
    net = _network.network_from_dict({"format": 3, "activation": "identity", "layers": [[[wide, [[2.0]]]]]})
    assert net.widths == (wide, wide)
    assert [k for _, k in net.layers[0].runs] == [wide]
    with pytest.raises(NetworkError, match="wider than"):
        _network.network_from_dict({"format": 3, "activation": "identity", "layers": [[[wide - 1, [[2.0]]], [2, [[1.0]]]]]})


@pytest.mark.parametrize(
    "make",
    [lambda: build_mult(4), lambda: build_mon(2, 3, 3), lambda: build_cheb_net(target_exp_sum(1), 2**-6, "rescaled")[0]],
    ids=["mult", "mon", "cheb_d1"],
)
def test_json_round_trip_keeps_runs(make):
    # a run is written once and decoded as one block shared by its copies
    net = make()
    wire = network_to_json(net)
    layers = json.loads(wire)["layers"]
    assert [[count for count, _ in runs] for runs in layers] == [
        [k for _, k in lay.runs] for lay in net.layers
    ]
    back = network_from_json(wire)
    assert network_stats(back) == network_stats(net)
    for lay, lay_back in zip(net.layers, back.layers, strict=True):
        assert [(b.shape, k) for b, k in lay_back.runs] == [(b.shape, k) for b, k in lay.runs]
        assert all(np.array_equal(b, c) for (b, _), (c, _) in zip(lay.runs, lay_back.runs))
        blocks = lay_back.blocks
        i = 0
        for b, k in lay_back.runs:
            assert all(c is b for c in blocks[i : i + k])
            i += k
    assert any(k > 1 for lay in back.layers for _, k in lay.runs)
    assert network_to_json(back) == wire


def test_json_keeps_meta():
    net = Network(ABS, [np.eye(2)], meta={"construction": "demo", "m": 3})
    d = json.loads(network_to_json(net))
    assert d["meta"] == {"construction": "demo", "m": 3}


def test_general_activation_not_serializable():
    act = general_activation(lambda x: np.where(np.abs(x) < 0.1, 0.0, np.sign(x)))
    net = Network(act, [np.eye(1)])
    with pytest.raises(NetworkError):
        network_to_json(net)


def test_general_activation_eval():
    act = general_activation(lambda x: np.where(np.abs(x) < 0.5, 0.0, 1.0))
    net = Network(act, [np.eye(1), np.eye(1)])
    assert evaluate(net, [0.3])[0] == 0.0
    assert evaluate(net, [0.7])[0] == 0.7


def test_networks_immutable():
    net = Network(ABS, [np.eye(2)])
    with pytest.raises(ValueError):
        net.layers[0].blocks[0][0, 0] = 5.0


@pytest.mark.parametrize("widths", [(1, 1), (2, 3, 1), (3, 2, 2, 1), (2, 3, 3, 3, 2)])
@pytest.mark.parametrize("act", [ABS, RELU, IDENTITY], ids=["abs", "relu", "identity"])
def test_network_from_vector_matches_per_layer_network(widths, act, rng):
    shapes = list(zip(widths[1:], widths[:-1]))
    theta = rng.uniform(-1, 1, sum(r * c for r, c in shapes))
    views = _network._views(theta, shapes)
    want = Network(act, views, meta={"k": 1})
    got = _network._network_from_vector(act, theta, widths, meta={"k": 1})
    assert got.widths == want.widths == tuple(widths)
    assert [len(lay.runs) for lay in got.layers] == [1] * len(shapes)
    assert all(np.array_equal(a, b) for a, b in zip(got.weights, want.weights))
    x = rng.normal(size=(9, widths[0]))
    assert np.array_equal(evaluate(got, x), evaluate(want, x))
    assert path_norm(got) == path_norm(want)
    assert network_to_json(got) == network_to_json(want)
    back = network_from_json(network_to_json(got))
    assert all(np.array_equal(a, b) for a, b in zip(back.weights, got.weights))


def test_network_from_vector_copies_once_into_read_only_views(rng):
    theta = rng.uniform(-1, 1, 6 + 3)
    net = _network._network_from_vector(ABS, theta, (2, 3, 1))
    before = net.weights
    theta[:] = 7.0  # the caller's vector is not the network's
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, before))
    blocks = [b for lay in net.layers for b, _ in lay.runs]
    base = blocks[0].base
    assert all(b.base is base for b in blocks) and not np.shares_memory(base, theta)
    for b in blocks:
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0, 0] = 5.0


@pytest.mark.parametrize(
    "theta, widths, match",
    [
        (np.zeros(5), (2, 3), "not the weights"),  # 6 entries needed
        (np.zeros(7), (2, 3), "not the weights"),
        (np.zeros((2, 3)), (2, 3), "not the weights"),  # not flat
        (np.zeros(0), (0, 3), "not the weights"),  # no entries for a zero width
        (np.array([0.0, np.nan, 0.0]), (1, 3), "must be finite"),
        (np.array([0.0, 0.0, np.inf, 0.0]), (2, 1, 2), "must be finite"),
        (np.array([-np.inf, 0.0]), (1, 1, 1), "must be finite"),
    ],
    ids=["short", "long", "matrix", "zero-width", "nan", "inf", "-inf"],
)
def test_network_from_vector_rejects_bad_vectors(theta, widths, match):
    with pytest.raises(NetworkError, match=match):
        _network._network_from_vector(ABS, theta, widths)


def test_layout_is_worked_out_once_per_width_vector():
    shapes, size, runs = _network._layout((2, 3, 3, 1))
    assert shapes == ((3, 2), (3, 3), (1, 3)) and size == 6 + 9 + 3
    assert runs == ((((3, 2), 1),), (((3, 3), 1),), (((1, 3), 1),))
    assert _network._layout((2, 3, 3, 1)) is _network._layout((2, 3, 3, 1))
    assert _network._layout((np.int64(2), np.int64(1)))[0] == ((1, 2),)


def test_only_vector_built_networks_carry_a_key(rng):
    built = _network._network_from_vector(RELU, rng.uniform(-1, 1, 9), (2, 3, 1))
    assert built._key == (RELU, _network._layout((2, 3, 1))[2])
    derived = [
        Network(RELU, built.weights),
        Network(RELU, built.layers),
        network_from_json(network_to_json(built)),
        parallel([built]),
        compose(built, Network(RELU, [np.eye(1)])),
    ]
    assert all(net._key is None for net in derived)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_with_ones_puts_the_constant_first(rng, d):
    x = rng.uniform(0.0, 1.0, (7, d))
    inp = with_ones(x)
    assert inp.shape == (7, d + 1)
    assert np.all(inp[:, 0] == 1.0) and np.array_equal(inp[:, 1:], x)


def test_with_ones_takes_a_flat_vector_as_one_coordinate(rng):
    x = rng.uniform(0.0, 1.0, 5)
    assert np.array_equal(with_ones(x), with_ones(x[:, None]))
    assert with_ones(np.empty(0)).shape == (0, 2)
