import math

import numpy as np
import pytest

from nnapprox import (
    ABS,
    BlockDiagonal,
    IDENTITY,
    RELU,
    EntropyBoundSpec,
    Network,
    NetworkError,
    SamplerViolation,
    ShapeMismatchError,
    empirical_covering,
    empirical_vs_bound,
    general_activation,
    network_bound,
    evaluate,
    path_matrix,
    path_norm,
    sample_network,
)
from nnapprox import entropy
from nnapprox.network import _layout
from conftest import dense_weights, linear_bound, random_block_net, random_dense_net

DEAD_ZONE = general_activation(lambda x: np.where(np.abs(x) < 0.1, 0.0, np.sign(x)))


def bound_l0(b, r, eps, d):
    """network_bound of the linear class, L = 0, on d inputs."""
    return network_bound(EntropyBoundSpec(eps=eps, L=0, p=(d, 1), B=b, r=r, n=1))


def test_linear_bound_example():
    assert bound_l0(1, 1, 1, 1) == linear_bound(1, 1, 1, 1) == pytest.approx(math.log2(3))


def test_linear_bound_ceiling_floor():
    # eps >= b r makes the ceiling 1
    for eps in (1.0, 2.0, 5.0):
        assert bound_l0(1, 1, eps, 3) == linear_bound(1, 1, eps, 3) == math.log2(7)


def test_linear_bound_b_doubling_quadruples_ceiling_argument():
    b, r, eps = 1.3, 0.7, 0.11
    # ceil(b^2 r^2 / eps^2) log2(2d + 1), with b^2 r^2 / eps^2 = 68.4...
    assert bound_l0(b, r, eps, 2) == pytest.approx(69 * math.log2(5))
    assert bound_l0(2 * b, r, eps, 2) == pytest.approx(274 * math.log2(5))


def test_spec_validation():
    with pytest.raises(ValueError):
        EntropyBoundSpec(eps=1.0, L=1, p=(1, 2), B=1.0, r=1.0, n=4)
    with pytest.raises(ValueError):
        EntropyBoundSpec(eps=-1.0, L=0, p=(1, 1), B=1.0, r=1.0, n=4)
    for bad in ({"eps": math.nan}, {"B": math.inf}, {"r": math.inf}):
        with pytest.raises(ValueError, match=r"must be a real number in [\[(]0, inf\)"):
            EntropyBoundSpec(**{"eps": 1.0, "L": 0, "p": (1, 1), "B": 1.0, "r": 1.0, "n": 4, **bad})


NON_INTEGER_COUNTS = [{"p": (2.5, 3, 1)}, {"n": 4.5}, {"n": 4.0}, {"L": True}, {"p": (2, True, 1)}]


@pytest.mark.parametrize("bad", NON_INTEGER_COUNTS, ids=["width 2.5", "n 4.5", "n 4.0", "L true", "width true"])
def test_spec_refuses_non_integer_counts(bad):
    # a width of 2.5 was truncated to 2, and n = 4.5 failed later in the
    # oracle's draw of the points
    # numpy integers are integers
    base = {"eps": 0.5, "L": np.int64(1), "p": np.array([2, 3, 1]), "B": 1.0, "r": 1.0, "n": np.int32(4)}
    assert EntropyBoundSpec(**base).p == (2, 3, 1)
    with pytest.raises(ValueError, match="must be an integer"):
        EntropyBoundSpec(**{**base, **bad})


NON_REAL_SIZES = [{"eps": True}, {"B": True}, {"r": True}, {"eps": "0.5"}, {"B": None}, {"r": 1j}]


@pytest.mark.parametrize("bad", NON_REAL_SIZES, ids=["eps true", "B true", "r true", "eps str", "B None", "r complex"])
def test_spec_refuses_bool_or_non_real_sizes(bad):
    # B = True ran as B = 1 and to_dict() echoed True
    base = {"eps": np.float64(0.5), "L": 1, "p": (2, 3, 1), "B": 1, "r": np.float32(1.0), "n": 4}
    assert EntropyBoundSpec(**base).to_dict()["B"] == 1
    with pytest.raises(ValueError, match="must be a real number in"):
        EntropyBoundSpec(**{**base, **bad})


def test_bound_outside_float_range_is_value_error():
    # B^2 r^2 / eps^2 overflows, or eps^2 underflows to 0
    for b, eps in ((1e200, 1.0), (1.0, 1e-300)):
        with pytest.raises(ValueError, match="finite"):
            entropy._ceil_term(b, 1.0, eps)
        with pytest.raises(ValueError, match="finite"):
            EntropyBoundSpec(eps=eps, L=0, p=(1, 1), B=b, r=1.0, n=8)


def test_network_bound_example():
    spec = EntropyBoundSpec(eps=1.0, L=1, p=(1, 2, 1), B=1.0, r=1.0, n=8)
    assert network_bound(spec) == pytest.approx(2 * math.log2(24) + math.log2(5))


def test_network_bound_l0_equals_linear_bound(rng):
    for _ in range(100):
        d = int(rng.integers(1, 6))
        b = float(rng.uniform(0.1, 4))
        r = float(rng.uniform(0.1, 4))
        eps = float(rng.uniform(0.05, 3))
        n = int(rng.integers(1, 64))
        spec = EntropyBoundSpec(eps=eps, L=0, p=(d, 1), B=b, r=r, n=n)
        assert network_bound(spec) == linear_bound(b, r, eps, d)


def test_network_bound_monotone():
    base = dict(eps=0.5, L=1, p=(2, 3, 1), B=1.0, r=1.0, n=8)
    v0 = network_bound(EntropyBoundSpec(**base))
    assert network_bound(EntropyBoundSpec(**{**base, "B": 2.0})) >= v0
    assert network_bound(EntropyBoundSpec(**{**base, "r": 2.0})) >= v0
    assert network_bound(EntropyBoundSpec(**{**base, "n": 16})) >= v0
    assert network_bound(EntropyBoundSpec(**{**base, "p": (2, 5, 1)})) >= v0


def test_sampler_respects_cap(rng):
    for _ in range(50):
        net = sample_network((2, 3, 1), cap=1.5, rng=rng)
        assert path_norm(net) <= 1.5 * (1 + 1e-12)


def test_empirical_covering_size_one_for_huge_eps(rng):
    pts = rng.uniform(-1, 1, (8, 2))
    sampler = lambda: sample_network((2, 2, 1), cap=1.0, rng=rng)
    cover = empirical_covering(sampler, pts, eps=1e9, trials=100, path_norm_cap=1.0)
    assert cover.size == 1


def test_empirical_covering_constant_zero_class(rng):
    pts = rng.uniform(-1, 1, (8, 2))
    zero = Network(ABS, [np.zeros((1, 2))])
    cover = empirical_covering(lambda: zero, pts, eps=0.01, trials=50, path_norm_cap=0.0)
    assert cover.size == 1


def test_empirical_covering_under_bound_spec_case():
    spec = EntropyBoundSpec(eps=0.25, L=1, p=(1, 2, 1), B=1.0, r=1.0, n=8)
    cover, bound, _ = empirical_vs_bound(spec, activation=ABS, trials=3000, seed=0)
    assert cover.log2_size <= bound


def test_empirical_covering_under_bound_general_activation():
    dead_zone = general_activation(
        lambda x: np.where(np.abs(x) < 0.1, 0.0, np.where(x >= 0, 1.0, -1.0))
    )
    spec = EntropyBoundSpec(eps=0.3, L=1, p=(2, 2, 1), B=1.0, r=1.0, n=6)
    cover, bound, _ = empirical_vs_bound(spec, activation=dead_zone, trials=500, seed=1)
    assert cover.log2_size <= bound


def test_sampler_violation_detected(rng):
    pts = rng.uniform(-1, 1, (4, 2))
    big = Network(ABS, [np.full((1, 2), 10.0)])
    with pytest.raises(SamplerViolation):
        empirical_covering(lambda: big, pts, eps=0.1, trials=3, path_norm_cap=1.0)


def test_greedy_cover_monotone_in_eps_via_oracle(rng):
    pts = rng.uniform(-1, 1, (8, 1))
    nets = [sample_network((1, 2, 1), cap=1.0, rng=rng) for _ in range(200)]
    sizes = []
    for eps in (0.05, 0.1, 0.2, 0.4, 0.8):
        it = iter(nets)
        cover = empirical_covering(lambda: next(it), pts, eps=eps, trials=200, path_norm_cap=1.0)
        sizes.append(cover.size)
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("eps", [-0.5, 0.0, math.nan, math.inf, -math.inf])
def test_eps_not_finite_and_positive_is_value_error(rng, eps):
    # unchecked, -0.5 would give the 0.5 cover and NaN make every sample a center
    pts = rng.uniform(-1, 1, (8, 1))
    with pytest.raises(ValueError, match="eps"):
        entropy._kernels.greedy_cover(rng.normal(size=(20, 8)), eps)
    drawn = []

    def sampler():
        drawn.append(sample_network((1, 2, 1), 1.0, rng=rng))
        return drawn[-1]

    with pytest.raises(ValueError, match="eps"):
        empirical_covering(sampler, pts, eps, trials=20, path_norm_cap=1.0)
    assert drawn == []  # rejected on entry, before any sample is drawn


def test_relu_and_identity_classes_also_under_bound():
    for act in (RELU, IDENTITY):
        spec = EntropyBoundSpec(eps=0.4, L=2, p=(2, 2, 2, 1), B=1.2, r=1.0, n=12)
        cover, bound, _ = empirical_vs_bound(spec, activation=act, trials=1500, seed=3)
        assert cover.log2_size <= bound


def test_sample_network_matches_per_layer_draws():
    # the per-layer construction: one draw per layer, a Network, the sum of
    # its path matrix, and a second Network of the scaled weights when over
    # the cap
    for widths in ((1, 1), (2, 3, 1), (3, 2, 2, 1), (2, 3, 3, 3, 2)):
        for cap in (0.05, 1.0, 50.0):
            r1, r2 = np.random.default_rng(11), np.random.default_rng(11)
            for _ in range(20):
                ws = [r1.uniform(-1.0, 1.0, size=(widths[i + 1], widths[i])) for i in range(len(widths) - 1)]
                pn = float(np.sum(path_matrix(Network(ABS, ws))))
                if pn > cap:
                    ws = [w * (cap / pn) ** (1.0 / len(ws)) for w in ws]
                net = sample_network(widths, cap, ABS, r2)
                assert all(np.array_equal(a, b) for a, b in zip(dense_weights(net), ws))
            assert r1.random() == r2.random()


def test_sample_network_builds_one_network(monkeypatch):
    built = []
    init = Network.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Network, "__init__", counting)
    rng = np.random.default_rng(0)
    for cap in (0.01, 100.0):  # always rescaled, never rescaled
        built.clear()
        nets = [sample_network((2, 3, 1), cap, ABS, rng) for _ in range(10)]
        assert len(built) == 10
        assert all(path_norm(n) <= cap * (1 + 1e-12) for n in nets)


def test_sample_network_layers_are_views_of_one_copy():
    # the draw is copied once: every block is a read-only view of one base
    rng = np.random.default_rng(3)
    for widths in ((1, 1), (2, 3, 1), (2, 3, 3, 3, 2)):
        for cap in (0.01, 100.0):
            net = sample_network(widths, cap, ABS, rng)
            blocks = [b for lay in net.layers for b, _ in lay.runs]
            assert len(blocks) == len(widths) - 1
            assert all(b.base is blocks[0].base and not b.flags.writeable for b in blocks)
            assert blocks[0].base.size == sum(b.size for b in blocks)


@pytest.mark.parametrize("cap", [float("nan"), -1.0, -1e-300], ids=["nan", "negative", "tiny-negative"])
def test_sample_network_rejects_a_bad_cap_before_the_draw(cap):
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match=r"cap must be a real number in \[0, inf\]"):
        sample_network((2, 3, 1), cap, ABS, rng)
    assert rng.random() == np.random.default_rng(4).random()


@pytest.mark.parametrize("widths", [(), (2,), (0, 3), (2, 0, 1), (1, -1)])
def test_sample_network_rejects_bad_widths_before_the_draw(widths):
    rng = np.random.default_rng(4)
    with pytest.raises(NetworkError, match="a network needs two or more widths, each >= 1"):
        sample_network(widths, 1.0, ABS, rng)
    assert rng.random() == np.random.default_rng(4).random()


def test_sample_network_cap_zero_and_inf():
    assert all(not w.any() for w in dense_weights(sample_network((2, 3, 1), 0.0, ABS, 0)))
    raw = sample_network((2, 3, 1), np.inf, ABS, 0)
    assert path_norm(raw) > 1.0
    assert all(np.array_equal(a, b) for a, b in zip(dense_weights(raw), dense_weights(sample_network((2, 3, 1), 1e300, ABS, 0))))


def runs_key(net):
    """The grouping key _stacks reads from a network's runs."""
    return tuple(tuple([(b.shape, n) for b, n in lay.runs]) for lay in net.layers)


@pytest.mark.parametrize("widths", [(1, 1), (2, 3, 1), (2, 3, 3, 3, 2)])
@pytest.mark.parametrize("act", [ABS, RELU, DEAD_ZONE], ids=["abs", "relu", "dead-zone"])
def test_vector_built_key_is_the_runs_key(widths, act):
    net = sample_network(widths, 1.0, act, 8)
    runs = _layout(widths)[2]
    hand = Network(act, dense_weights(net))
    assert runs == runs_key(hand) == runs_key(net)
    assert net._key == (act, runs)
    assert hand._key is None


@pytest.mark.parametrize("widths", [(1, 1), (2, 3, 1), (2, 3, 3, 3, 2)])
def test_vector_built_and_hand_built_nets_share_a_stack(widths):
    # a hand-built net of the same dense weights lands in the sampled nets'
    # group, in first-appearance order, and the stack evaluates each net
    rng = np.random.default_rng(9)
    first = sample_network(widths, 2.0, ABS, rng)
    nets = [first, Network(ABS, dense_weights(first)), sample_network(widths, 2.0, ABS, rng)]
    [(act, ts, layers)] = entropy._stacks(nets)
    assert act is ABS and ts == [0, 1, 2]
    x = rng.uniform(-1, 1, (5, widths[0]))
    out = entropy._kernels.eval_chain(layers, np.tile(x, (1, 3)).T, ABS.inplace).reshape(3, -1, 5)
    assert all(np.array_equal(out[t], evaluate(net, x).T) for t, net in enumerate(nets))


def covered_vectors(monkeypatch, sampler, points, trials, **kwargs):
    """The rows empirical_covering hands to greedy_cover."""
    seen = []
    cover = entropy._kernels.greedy_cover

    def capture(vectors, eps):
        seen.append(np.array(vectors))
        return cover(vectors, eps)

    with monkeypatch.context() as mp:
        mp.setattr(entropy._kernels, "greedy_cover", capture)
        empirical_covering(sampler, points, 0.1, trials, **kwargs)
    return seen[0]


CHUNK = entropy.CHUNK_TRIALS


@pytest.mark.parametrize("trials", [CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("L", [0, 1, 2])
@pytest.mark.parametrize("act", [ABS, RELU, IDENTITY, DEAD_ZONE], ids=["abs", "relu", "identity", "dead-zone"])
def test_stacked_oracle_equals_per_net_evaluate(act, L, trials, monkeypatch):
    # a sampler alternating two width vectors makes two stacks per chunk;
    # the rows must come back in trial order.  With TILE 64, 300 points run
    # each stack of 27 networks in four tiles through the pooled buffers.
    assert entropy.CHUNK_VALUES // 7 >= CHUNK and entropy.CHUNK_VALUES // 300 == 27
    assert 300 >= 2 * 64
    rng = np.random.default_rng(L * 1000 + trials)
    widths = ((2,) + (3,) * L + (1,), (2,) + (2,) * L + (2,))
    for n, tile in ((7, entropy._kernels.TILE), (300, 64)):
        monkeypatch.setattr(entropy._kernels, "TILE", tile)
        points = rng.uniform(-1.5, 1.5, (n, 2))
        nets = []

        def sampler():
            nets.append(sample_network(widths[len(nets) % 2], 1.3, act, rng))
            return nets[-1]

        got = covered_vectors(monkeypatch, sampler, points, trials, path_norm_cap=1.3)
        assert len(nets) == trials
        want = np.array([evaluate(net, points)[:, 0] for net in nets])
        assert np.array_equal(got, want)


def twin(net, scale):
    """net with every block scaled: the same runs, so it joins net's stack."""
    return Network(net.activation, [BlockDiagonal([scale * b for b in lay.blocks]) for lay in net.layers])


def test_stacked_oracle_groups_block_diagonal_nets(monkeypatch):
    rng = np.random.default_rng(5)
    nets = [random_block_net(rng, act, in_dim=4) for act in (ABS, RELU, DEAD_ZONE) for _ in range(30)]
    # each net next to a rescaled twin of the same runs, so multi-block
    # layers of two or more nets are listed run by run in one chain
    nets = [x for net in nets for x in (net, twin(net, 0.5))]
    points = rng.uniform(-1, 1, (9, 4))
    # and two copies of a 2-input net side by side: a one-block layer
    # becomes a run of count 2, which is listed, not stacked
    for net in [random_block_net(rng, act, in_dim=2) for act in (ABS, RELU) for _ in range(10)]:
        nets += [Network(n.activation, [BlockDiagonal([lay, lay]) for lay in n.layers]) for n in (net, twin(net, 0.5))]
    it = iter(nets)
    got = covered_vectors(monkeypatch, lambda: next(it), points, len(nets), path_norm_cap=1e9)
    assert np.array_equal(got, np.array([evaluate(net, points)[:, 0] for net in nets]))


def test_stacked_path_norm_equals_path_matrix():
    # one |W| pass of eval_chain over a group's stack on the identity repeated
    # once per network gives each path matrix, and the oracle's cap check, the
    # pass on ones, each path norm; block nets list their runs, dense nets are
    # one stacked run per layer
    rng = np.random.default_rng(6)
    for i in range(20):
        net = (random_block_net if i % 2 else random_dense_net)(rng, ABS, n_layers=int(rng.integers(1, 5)))
        [(_, ts, layers)] = entropy._stacks([net, twin(net, -2.0)])
        assert ts == [0, 1]
        pm = entropy._kernels.eval_chain(layers, np.tile(np.eye(net.in_dim), (2, 1)))
        assert np.array_equal(pm[: net.out_dim], path_matrix(net))
        at_ones = entropy._kernels.eval_chain(layers, np.ones((2 * net.in_dim, 1)))
        assert at_ones.reshape(2, -1).sum(axis=1)[0] == path_norm(net)


def test_covers_only_the_first_output():
    # output 0 is 0 for every net, output 1 is s |x| for 50 distinct s: the
    # oracle covers output 0 alone, so one center covers them all
    rng = np.random.default_rng(7)
    points = rng.uniform(-1, 1, (8, 1))

    def cover(rows):
        nets = iter([Network(ABS, [np.ones((1, 1)), np.array(rows) * s]) for s in np.linspace(0.1, 1, 50)])
        return empirical_covering(lambda: next(nets), points, 0.01, 50, path_norm_cap=1.0).size

    assert cover([[0.0], [1.0]]) == 1
    assert cover([[1.0], [0.0]]) > 1


def test_sampler_violation_names_first_bad_sample(rng):
    pts = rng.uniform(-1, 1, (4, 2))
    good = Network(ABS, [np.full((1, 2), 0.25)])
    bad = Network(ABS, [np.full((1, 2), 10.0)])
    seq = iter([good, good, bad, good, bad])
    with pytest.raises(SamplerViolation, match="sample 2 "):
        empirical_covering(lambda: next(seq), pts, eps=0.1, trials=5, path_norm_cap=1.0)


def test_wrong_input_dimension_is_shape_mismatch(rng):
    pts = rng.uniform(-1, 1, (4, 2))
    net = Network(ABS, [np.full((1, 3), 0.1)])
    with pytest.raises(ShapeMismatchError):
        empirical_covering(lambda: net, pts, eps=0.1, trials=3, path_norm_cap=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_network_error(bad, rng):
    pts = rng.uniform(-1, 1, (4, 2))
    pts[2, 1] = bad
    net = Network(ABS, [np.full((1, 2), 0.1)])
    with pytest.raises(NetworkError, match="non-finite"):
        empirical_covering(lambda: net, pts, eps=0.1, trials=3, path_norm_cap=1.0)


def test_complex_points_are_network_error(rng):
    pts = rng.uniform(-1, 1, (4, 2)).astype(complex)
    pts[2, 1] += 0.5j
    net = Network(ABS, [np.full((1, 2), 0.1)])
    with pytest.raises(NetworkError, match="complex"):
        empirical_covering(lambda: net, pts, eps=0.1, trials=3, path_norm_cap=1.0)
    # real points keep their bits: the same cover as the float64 points
    real = pts.real.copy()
    got = empirical_covering(lambda: net, real.tolist(), eps=0.1, trials=3, path_norm_cap=1.0)
    assert got == empirical_covering(lambda: net, real, eps=0.1, trials=3, path_norm_cap=1.0)


def test_non_finite_outputs_reach_greedy_cover_error():
    # weights and points in float range whose outputs overflow to inf
    net = Network(ABS, [np.full((2, 1), 1e200), np.full((1, 2), 1e200)])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        empirical_covering(lambda: net, np.ones((3, 1)), eps=0.1, trials=3, path_norm_cap=math.inf)


@pytest.mark.parametrize("cap", [math.nan, -1.0, -math.inf])
def test_cap_nan_or_negative_is_value_error_before_any_draw(rng, cap):
    # pn > nan is always false, so a NaN cap accepted any net (a path norm of
    # 600 here); a cap of -1 was blamed on "sample 0"
    big = Network(ABS, [np.full((1, 2), 300.0)])
    drawn = []

    def sampler():
        drawn.append(big)
        return big

    with pytest.raises(ValueError, match=r"path_norm_cap must be a real number in \[0, inf\]") as info:
        empirical_covering(sampler, rng.uniform(-1, 1, (4, 2)), eps=0.1, trials=3, path_norm_cap=cap)
    assert not isinstance(info.value, SamplerViolation)
    assert drawn == []


@pytest.mark.parametrize("trials", [0, -1, 2.5, True], ids=["0", "-1", "2.5", "true"])
def test_trials_not_a_positive_integer_is_value_error_before_any_draw(rng, trials):
    # trials 0 gave an empty cover of log2 size -inf, which passes any bound;
    # -1, 2.5 and True failed inside numpy
    drawn = []

    def sampler():
        drawn.append(1)
        return Network(ABS, [np.ones((1, 2))])

    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        empirical_covering(sampler, rng.uniform(-1, 1, (4, 2)), eps=0.1, trials=trials, path_norm_cap=2.0)
    assert drawn == []
    assert empirical_covering(sampler, rng.uniform(-1, 1, (4, 2)), 0.1, np.int64(1), 2.0).size == 1


REFUSALS = [
    ("a width below 1", lambda: EntropyBoundSpec(eps=0.5, L=1, p=(2, 0, 1), B=1.0, r=1.0, n=4),
     ValueError, r"p\[1\] must be an integer >= 1"),
    ("1-d points for a net of 2 inputs",
     lambda: empirical_covering(lambda: Network(ABS, [np.ones((1, 2))]), np.zeros(5), 0.1, 3, 2.0),
     ShapeMismatchError, "expects input of length 2, got 1"),
    ("3-d points", lambda: empirical_covering(lambda: Network(ABS, [np.ones((1, 2))]), np.zeros((5, 2, 1)), 0.1, 3, 2.0),
     ShapeMismatchError, "ndim=3"),
]


@pytest.mark.parametrize("make, error, match", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusals_raise_their_typed_error(make, error, match):
    with pytest.raises(error, match=match):
        make()
