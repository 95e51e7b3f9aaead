import math

import numpy as np
import pytest

from nnapprox import (
    AnalyticTarget,
    MissingCoefficientError,
    MonomialPolynomial,
    build_cheb_net,
    build_mult,
    build_power_series_net,
    builtin_target,
    evaluate,
    network_stats,
    mon_error_bound,
    path_norm,
    target_exp_sum,
    target_inv_two_minus_x,
)
from nnapprox.approximators import (
    power_series_path_bound,
    power_series_tail_bound,
    series_inv_two_minus_x,
)
from nnapprox.constructions import count_monomials


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
        with pytest.raises(ValueError, match="one-dimensional"):
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
    "series, F",
    [
        (MonomialPolynomial(1, {(2,): 1e308}), None),
        (MonomialPolynomial(1, {(1,): 1e308, (2,): 1e308}), None),
        (series_inv_two_minus_x(), -1.0),
        (series_inv_two_minus_x(), math.nan),
    ],
    ids=["claimed-error-overflows", "coefficient-sum-overflows", "negative-F", "nan-F"],
)
def test_power_series_claims_outside_float_range_are_value_errors(series, F):
    with pytest.raises(ValueError, match="F = "):
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
    net, cert = build_cheb_net(t, 2.0**-8, "rescaled", measure_grid=51**2)
    assert cert["measured_sup_error"] <= mon_error_bound(cert["m"], cert["gamma"] + 1, "rescaled")


def test_cheb_net_error_monotone_until_floor():
    t = target_exp_sum(1)
    errs = []
    for k in range(2, 9):
        _, cert = build_cheb_net(t, 2.0**-k, "rescaled", measure_grid=257)
        errs.append(cert["measured_sup_error"])
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
    for w in net.weights:
        assert np.abs(w).max() <= 2.0


@pytest.mark.parametrize(
    "d, eps, totals",
    [
        (1, 2.0**-10, (97, 41, 1028, 282, 5875, 3322, 61723)),
        (2, 2.0**-6, (49, 132, 1390, 140, 10841, 5340, 324497)),
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
