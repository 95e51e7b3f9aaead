import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nnapprox import (
    AnalyticTarget,
    BlockDiagonal,
    MissingCoefficientError,
    MonomialPolynomial,
    Network,
    build_cheb_net,
    build_mult,
    build_power_series_net,
    builtin_target,
    evaluate,
    network_stats,
    network_to_json,
    mon_error_bound,
    path_matrix,
    path_norm,
    sup_error,
    target_exp_sum,
    target_inv_two_minus_x,
)
from nnapprox.approximators import (
    power_series_path_bound,
    power_series_tail_bound,
    series_inv_two_minus_x,
)
from nnapprox.chebyshev import tensor_grid
from nnapprox.constructions import count_monomials
from conftest import dense_weights, monomial_factor_lists, parent_order_product_layers


def _aug(x):
    x = np.atleast_2d(x)
    return np.column_stack([np.ones(len(x)), x])


def test_builtin_targets():
    t = target_inv_two_minus_x()
    assert t.evaluate(np.array([[0.0], [1.0]])) == pytest.approx([0.5, 1.0])
    t = target_exp_sum(2)
    assert t.evaluate(np.array([[0.0, 0.0]]))[0] == 1.0
    assert builtin_target("runge").evaluate(np.array([[0.2]]))[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        builtin_target("nope")


@pytest.mark.parametrize("name", ["inv2mx", "runge"])
def test_one_dimensional_builtin_targets_reject_other_d(name):
    for d in (0, 2, 3):
        with pytest.raises(ValueError, match=f"builtin target '{name}' has d=1; got d={d}"):
            builtin_target(name, d)
    assert builtin_target(name, 1).d == 1
    assert builtin_target("exp-sum", 3).d == 3


@pytest.mark.parametrize("name, d", [("inv2mx", 1), ("exp-sum", 2), ("runge", 1)])
def test_builtin_target_rejects_wrong_column_count(name, d):
    t = builtin_target(name, d)
    with pytest.raises(ValueError, match=f"expected points with {d} coordinates"):
        t.evaluate(np.zeros((3, d + 1)))
    # a flat vector is one coordinate per point
    if d == 1:
        assert np.array_equal(t.evaluate(np.array([0.1, 0.2])), t.evaluate(np.array([[0.1], [0.2]])))


@pytest.mark.parametrize("d", [2.5, 0, -1, True, 2.0, None], ids=["2.5", "0", "-1", "true", "2.0", "none"])
def test_target_refuses_d_that_is_not_an_integer_at_least_1(d):
    # d = 2.5 failed only at evaluate, and d = 0 evaluated to 1 on points
    # with no coordinates
    with pytest.raises(ValueError, match="d must be an integer >= 1"):
        AnalyticTarget("t", d, lambda p: np.sum(p, axis=1))
    with pytest.raises(ValueError, match="d must be an integer >= 1"):
        builtin_target("exp-sum", d)


def test_target_takes_a_numpy_integer_d():
    t = builtin_target("exp-sum", np.int64(2))
    assert type(t.d) is int and t.d == 2
    x = np.array([[0.1, 0.2], [0.5, 0.25]])
    assert np.array_equal(t.evaluate(x), target_exp_sum(2).evaluate(x))


def test_target_refuses_complex_values_and_keeps_real_bits():
    # the float cast used to drop the imaginary part with only a ComplexWarning: [0.0]
    with pytest.raises(ValueError, match="target values must be real"):
        AnalyticTarget("c", 1, lambda p: p[:, 0] * 1j).evaluate([0.5])
    x = np.array([[0.1], [0.25], [0.7]])
    fn = lambda p: np.exp(p[:, 0]) / 3.0
    assert np.array_equal(AnalyticTarget("r", 1, fn).evaluate(x), fn(x))


@pytest.mark.parametrize("name", ["inv2mx", "exp-sum", "runge"])
def test_builtin_target_refuses_complex_points(name):
    # every builtin fn takes complex points, so a cast would evaluate f at Re x silently
    t = builtin_target(name, 1)
    with pytest.raises(ValueError, match="points must be real"):
        t.evaluate([[0.25 + 0.5j]])
    x = np.array([[0.1], [0.25], [0.7]])
    assert np.array_equal(t.evaluate(x.tolist()), t.fn(x))


def test_geometric_tail_bound_for_inv_two_minus_x():
    # |f - partial_gamma| <= (1-delta)^gamma F on (0, 1-delta]
    gen = series_inv_two_minus_x()
    delta = 0.25
    x = np.linspace(1e-6, 1.0 - delta, 500)
    f = 1.0 / (2.0 - x)
    for gamma in range(1, 41):
        partial = sum(gen((k,)) * x**k for k in range(gamma + 1))
        tail = np.abs(f - partial).max()
        assert tail <= power_series_tail_bound(1.0, delta, gamma) + 1e-15


def test_power_series_pipeline_inv_two_minus_x():
    eps, delta = 2.0**-6, 0.25
    net, cert = build_power_series_net(
        series_inv_two_minus_x(), eps=eps, delta=delta, variant="rescaled", d=1, F=1.0
    )
    assert cert["gamma"] == math.ceil(4 * math.log(64))
    assert cert["m"] == 6
    x = np.linspace(0.75 / 1000, 0.75, 1000)
    v = evaluate(net, _aug(x[:, None]))[:, 0]
    err = np.abs(v - 1.0 / (2.0 - x)).max()
    assert err <= cert["claimed_error"] == 6 * 1.0 * eps / delta**2
    assert cert["path_norm"] <= cert["path_norm_bound"]


def test_power_series_zero_polynomial():
    net, _ = build_power_series_net(
        MonomialPolynomial(1, {}), eps=0.1, delta=0.5, variant="rescaled"
    )
    x = _aug(np.linspace(0, 1, 7)[:, None])
    assert np.abs(evaluate(net, x)).max() == 0.0


def test_power_series_degree_one_exact():
    net, _ = build_power_series_net(
        MonomialPolynomial(1, {(1,): 1.0}), eps=0.1, delta=0.5, variant="rescaled"
    )
    x = np.linspace(0, 1, 11)
    v = evaluate(net, _aug(x[:, None]))[:, 0]
    assert np.abs(v - x).max() <= 1e-11


def test_power_series_degree_beyond_the_width_bound_is_value_error():
    # eps = 1/2, delta = 1e-6 gives gamma = 693,148: refused before the
    # coefficient row or the monomial network is built
    with pytest.raises(ValueError, match="more than the 65536 outputs"):
        build_power_series_net(series_inv_two_minus_x(), eps=0.5, delta=1e-6, variant="rescaled", d=1, F=1.0)


# sha256 of network_to_json and of the sorted-key certificate JSON of the
# power-series net of 0.5 x^2 at eps = 1/4, delta = 1/2, rescaled, as built
# before a polynomial's d and lookup were read once at the builder's top
HALF_X_SQUARED_SHA256 = (
    "68d641937987a5e51287999c20df8b56dc4b1690e4a6d9c3930154ce5818c09d",
    "c2303d321fa1869be29c004d4b4cbb1681188147f15d27264473c15e972e60e5",
)


def _sha256s(net, cert):
    texts = (network_to_json(net), json.dumps(cert, sort_keys=True))
    return tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)


def test_power_series_polynomial_refuses_a_contradicting_d():
    poly = MonomialPolynomial(1, {(2,): 0.5})
    build = lambda **kw: build_power_series_net(poly, eps=0.25, delta=0.5, variant="rescaled", **kw)
    # d = 3 used to be dropped silently, building the d = 1 net
    with pytest.raises(ValueError, match="d = 3 contradicts the polynomial, which has d = 1"):
        build(d=3)
    assert _sha256s(*build()) == _sha256s(*build(d=1)) == HALF_X_SQUARED_SHA256
    # the polynomial's lookup builds what the same coefficients as a callable build
    net, cert = build_power_series_net(lambda k: {(2,): 0.5}.get(k, 0.0), eps=0.25, delta=0.5,
                                       variant="rescaled", d=1)
    assert _sha256s(net, cert) == HALF_X_SQUARED_SHA256


def test_power_series_parameter_validation():
    with pytest.raises(ValueError):
        build_power_series_net(MonomialPolynomial(1, {}), eps=1.5, delta=0.5, variant="rescaled")
    with pytest.raises(ValueError):
        build_power_series_net(lambda k: 1.0, eps=0.1, delta=0.5, variant="rescaled")


def test_power_series_missing_coefficient():
    def gen(k):
        if k[0] > 2:
            return None
        return 1.0

    with pytest.raises(MissingCoefficientError):
        build_power_series_net(gen, eps=0.01, delta=0.25, variant="rescaled", d=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "series, F, match",
    [
        (MonomialPolynomial(1, {(2,): 1e308}), None, "F = "),
        (MonomialPolynomial(1, {(1,): 1e308, (2,): 1e308}), None, "F = "),
        (series_inv_two_minus_x(), -1.0, r"F must be a real number in \[0, inf\)"),
        (series_inv_two_minus_x(), math.nan, r"F must be a real number in \[0, inf\)"),
    ],
    ids=["claimed-error-overflows", "coefficient-sum-overflows", "negative-F", "nan-F"],
)
def test_power_series_claims_outside_float_range_are_value_errors(series, F, match):
    with pytest.raises(ValueError, match=match):
        build_power_series_net(series, eps=0.5, delta=0.5, variant="rescaled", d=1, F=F)


def test_path_norm_bound_literal_and_rescaled():
    for variant in ("literal", "rescaled"):
        net, cert = build_power_series_net(
            series_inv_two_minus_x(), eps=2.0**-4, delta=0.25, variant=variant, d=1, F=1.0
        )
        gamma = cert["gamma"]
        want = power_series_path_bound(1, 1.0, gamma, variant)
        assert cert["path_norm_bound"] == want
        assert path_norm(net) <= want


def test_cheb_net_constant_target():
    t = AnalyticTarget("one", 1, lambda p: np.ones(len(p)))
    net, cert = build_cheb_net(t, 0.4, "rescaled")
    assert cert["measured_sup_error"] <= 1e-12


def test_cheb_net_product_target_within_mon_bound():
    t = AnalyticTarget("xy", 2, lambda p: p[:, 0] * p[:, 1])
    net, cert = build_cheb_net(t, 2.0**-8, "rescaled")
    grid = tensor_grid([np.linspace(0.0, 1.0, 51)] * 2)
    assert sup_error(net, grid, t.evaluate(grid)) <= mon_error_bound(cert["m"], cert["gamma"] + 1, "rescaled")


def test_cheb_net_error_monotone_until_floor():
    t = target_exp_sum(1)
    grid = tensor_grid([np.linspace(0.0, 1.0, 257)])
    errs = []
    for k in range(2, 9):
        net, _ = build_cheb_net(t, 2.0**-k, "rescaled")
        errs.append(sup_error(net, grid, t.evaluate(grid)))
    floor = 1e-12
    for a, b in zip(errs, errs[1:]):
        assert b <= a * 1.05 or b <= floor


def test_certificate_claims_match_builder_formulas():
    t = target_exp_sum(1)
    net, cert = build_cheb_net(t, 2.0**-5, "rescaled")
    m, gamma = cert["m"], cert["gamma"]
    assert cert["claimed_depth_bound"] == math.ceil(math.log2(gamma + 1)) * (2 * m + 5) + 2
    assert cert["claimed_width_bound"] == 6 * (gamma + 1) * (m + 2) * count_monomials(1, gamma + 1)
    assert cert["depth"] <= cert["claimed_depth_bound"]
    assert cert["max_width"] <= cert["claimed_width_bound"]


def test_mult_parameters_in_minus_two_two():
    net = build_mult(3, "literal")
    for w in dense_weights(net):
        assert np.abs(w).max() <= 2.0


@pytest.mark.parametrize(
    "d, eps, totals",
    [
        (1, 2.0**-10, (97, 41, 1028, 190, 5875, 3322, 61723)),
        (2, 2.0**-6, (49, 132, 1390, 95, 10841, 5340, 324497)),
    ],
    ids=["d1", "d2"],
)
def test_cheb_net_structure_is_pinned(d, eps, totals):
    # the cheb_pipeline benchmark nets: depth, max width, blocks, runs, stored
    # entries, nonzeros and dense entries
    net, cert = build_cheb_net(target_exp_sum(d), eps, "rescaled")
    stats = network_stats(net)
    keys = ("depth", "max_width", "blocks", "runs", "stored_entries", "nnz", "dense_entries")
    assert tuple(stats[k] for k in keys) == totals
    assert (stats["depth"], stats["max_width"]) == (cert["depth"], cert["max_width"])
    # a run is a maximal sequence of copies of one block object
    seqs = [
        sum(i == 0 or b is not bs[i - 1] for i, b in enumerate(bs))
        for bs in (lay.blocks for lay in net.layers)
    ]
    assert [lay["runs"] for lay in stats["layers"]] == seqs
    assert stats["runs"] == sum(seqs)


def test_readme_figures_of_the_cheb_pipeline_nets(monkeypatch):
    # every figure the README gives for the two cheb_pipeline nets (exp-sum,
    # d=1 at eps=2^-10 and d=2 at 2^-6), computed here and found in its text
    init, copied = BlockDiagonal.__init__, []

    def counting_init(self, items):
        items = list(items)
        copied.extend(item for item in items if not isinstance(item, BlockDiagonal))
        init(self, items)

    monkeypatch.setattr(BlockDiagonal, "__init__", counting_init)
    d1, d2 = (build_cheb_net(target_exp_sum(d), eps, "rescaled")[0] for d, eps in ((1, 2.0**-10), (2, 2.0**-6)))
    monkeypatch.undo()
    s1, s2 = network_stats(d1), network_stats(d2)
    one_column = [b.shape for lay in d1.layers for b, _ in lay.runs if b.shape[1] == 1]
    assert set(one_column) == {(1, 1)}
    got = {
        "dense": (s1["dense_entries"], s2["dense_entries"]),
        "stored": (s1["stored_entries"], s2["stored_entries"]),
        "nnz d1": s1["nnz"],
        "runs": (s1["runs"], s2["runs"]),
        "1x1 runs d1": len(one_column),
        "wire bytes": (len(network_to_json(d1)), len(network_to_json(d2))),
        # version 2 wrote every copy of every block
        "version 2 bytes": tuple(
            len(json.dumps({"format": 2, "activation": net.activation.name,
                            "layers": [[b.tolist() for b in lay.blocks] for lay in net.layers], "meta": net.meta}))
            for net in (d1, d2)
        ),
        "copied blocks": len(copied),
    }
    assert got == {
        "dense": (61723, 324497),
        "stored": (5875, 10841),
        "nnz d1": 3322,
        "runs": (190, 95),
        "1x1 runs d1": 92,
        "wire bytes": (9991, 13731),
        "version 2 bytes": (42006, 70926),
        "copied blocks": 51,
    }
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    for phrase in (
        f"has {s1['dense_entries']:,} dense entries and its blocks hold {s1['stored_entries']:,} "
        f"({s1['nnz']:,} of them nonzero) in {s1['runs']} runs, the `d = 2` net "
        f"{s2['dense_entries']:,} and {s2['stored_entries']:,} in {s2['runs']} runs",
        f"{len(one_column)} of the {s1['runs']} runs of the cheb d=1 net are 1x1",
        "`cheb_pipeline`'s nets take {:,} and {:,} bytes, against {:,} and {:,} in version 2".format(
            *got["wire bytes"], *got["version 2 bytes"]
        ),
        f"building both `cheb_pipeline` networks copies {len(copied)} blocks",
    ):
        assert phrase in readme, phrase


@pytest.mark.parametrize("d, eps", [(1, 2.0**-6), (2, 2.0**-3)], ids=["d1", "d2"])
def test_cheb_net_channel_order_keeps_results_bit_identical(rng, d, eps):
    # against the monomial layers of parent_order_product_layers, on the
    # parent channel order, ended by the same coefficient row: the same
    # outputs, path matrix, path norm and measured error bit for bit
    target = target_exp_sum(d)
    net, cert = build_cheb_net(target, eps, "rescaled")
    mon = parent_order_product_layers(cert["m"], "rescaled", d, monomial_factor_lists(d, cert["gamma"] + 1))
    ref = Network(net.activation, [*mon, net.layers[-1]])
    x = _aug(rng.uniform(0.0, 1.0, (1000, d)))
    assert np.array_equal(evaluate(net, x), evaluate(ref, x))
    assert np.array_equal(path_matrix(net), path_matrix(ref))
    assert path_norm(net).hex() == path_norm(ref).hex() == cert["path_norm"].hex()
    grid = tensor_grid([np.linspace(0.0, 1.0, cert["grid"]["points_per_axis"])] * d)
    assert cert["measured_sup_error"].hex() == sup_error(ref, grid, target.evaluate(grid)).hex()
    assert network_stats(net)["runs"] < network_stats(ref)["runs"]


def test_certificate_and_meta_keys():
    shared = {"d", "gamma", "m", "variant", "claimed_depth_bound", "claimed_width_bound",
              "depth", "max_width", "path_norm", "route", "eps"}
    net, cert = build_power_series_net(
        series_inv_two_minus_x(), eps=2.0**-4, delta=0.5, variant="rescaled", d=1, F=1.0
    )
    assert set(cert) == shared | {"delta", "F", "claimed_error", "claimed_domain", "path_norm_bound"}
    assert set(net.meta) == {"construction", "d", "m", "gamma", "variant", "F"}
    assert net.meta["construction"] == "power-series-net" and cert["route"] == "power-series"
    net, cert = build_cheb_net(target_exp_sum(1), 2.0**-4, "rescaled")
    assert set(cert) == shared | {"target", "rho", "measured_sup_error", "grid", "claimed_orders"}
    assert set(net.meta) == {"construction", "target", "d", "m", "gamma", "variant"}
    assert net.meta["construction"] == "cheb-net" and cert["route"] == "chebyshev"
    assert cert["path_norm"] == path_norm(net)
    assert (cert["depth"], cert["max_width"]) == (net.depth, net.max_width)


def _no_coefficients(k):
    raise KeyError(k)


REFUSALS = [
    ("polynomial of another dimension",
     lambda: build_power_series_net(MonomialPolynomial(2, {(1, 0): 0.5}), eps=0.5, delta=0.5, variant="rescaled", d=1),
     ValueError, "d = 1 contradicts the polynomial, which has d = 2"),
    ("series that raises",
     lambda: build_power_series_net(_no_coefficients, eps=0.5, delta=0.5, variant="rescaled", d=1, F=1.0),
     MissingCoefficientError, "no coefficient for"),
    ("cheb eps 0", lambda: build_cheb_net(target_exp_sum(1), 0.0, "rescaled"), ValueError, r"eps must be a real number in \(0, 1\)"),
    ("cheb eps 1", lambda: build_cheb_net(target_exp_sum(1), 1.0, "rescaled"), ValueError, r"eps must be a real number in \(0, 1\)"),
    ("cheb eps nan", lambda: build_cheb_net(target_exp_sum(1), float("nan"), "rescaled"), ValueError, r"eps must be a real number in \(0, 1\)"),
]


@pytest.mark.parametrize("make, error, match", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusals_raise_their_typed_error(make, error, match):
    with pytest.raises(error, match=match):
        make()
