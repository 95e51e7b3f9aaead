"""The scalar contract: every real-valued parameter of the package reads its
value through network._number, every count through network._integer.

A bool, a string, a complex number, NaN, a value outside the parameter's
interval, or None where None does not ask for a default, is a ValueError
naming the parameter; ints, floats and numpy numbers in range are accepted,
and inf only where the interval is closed at infinity (the path-norm caps)."""

import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from nnapprox import (
    AnalyticTarget,
    ChebyshevSeries,
    EntropyBoundSpec,
    MissingCoefficientError,
    MonomialPolynomial,
    RegressionConfig,
    build_cheb_net,
    build_power_series_net,
    builtin_target,
    empirical_covering,
    sample_network,
    target_exp_sum,
)
from nnapprox.approximators import series_inv_two_minus_x
from nnapprox.cli import main
from nnapprox.network import _number
from nnapprox.regression import lambda_auto
from nnapprox.verify import verify_mult, verify_sq


def _spec(**kw):
    return EntropyBoundSpec(**{"eps": 0.5, "L": 1, "p": (2, 3, 1), "B": 1.0, "r": 1.0, "n": 4, **kw})


def _cover(**kw):
    args = {"eps": 0.5, "trials": 1, "path_norm_cap": 1.0, **kw}
    return empirical_covering(lambda: sample_network((1, 1), 1.0), np.zeros((2, 1)), **args)


def _config(**kw):
    return RegressionConfig(**{"n": 4, "d": 1, "target": target_exp_sum(1), **kw})


def _series(**kw):
    args = {"eps": 0.5, "delta": 0.5, "variant": "rescaled", "d": 1, "F": 1.0, **kw}
    return build_power_series_net(series_inv_two_minus_x(), **args)


# (id, parameter name, call with the value, a value in range, a value just outside)
CONTRACTS = [
    ("spec eps", "eps", lambda v: _spec(eps=v), 0.5, 0.0),
    ("spec B", "B", lambda v: _spec(B=v), 1, -1e-300),
    ("spec r", "r", lambda v: _spec(r=v), 1, 0.0),
    ("sample_network cap", "cap", lambda v: sample_network((2, 3, 1), v), 1, -1e-300),
    ("covering eps", "eps", lambda v: _cover(eps=v), 0.5, 0.0),
    ("covering path_norm_cap", "path_norm_cap", lambda v: _cover(path_norm_cap=v), 1, -1.0),
    ("config lam", "lam", lambda v: _config(lam=v), 1, -1.0),
    ("config lambda_scale", "lambda_scale", lambda v: _config(lambda_scale=v), 1, -1.0),
    ("config noise_sd", "noise_sd", lambda v: _config(noise_sd=v), 1, -1.0),
    ("lambda_auto c", "c", lambda v: lambda_auto(4, (2, 3, 1), v), 1, -1.0),
    ("power-series eps", "eps", lambda v: _series(eps=v), 0.5, 1.0),
    ("power-series delta", "delta", lambda v: _series(delta=v), 0.5, 0.0),
    ("power-series F", "F", lambda v: _series(F=v), 1, -1.0),
    ("cheb eps", "eps", lambda v: build_cheb_net(target_exp_sum(1), v, "rescaled"), 0.5, 1.0),
    ("verify bound", "bound", lambda v: verify_sq(3, n_points=10, bound=v), 1, -1.0),
    ("verify_mult step", "step", lambda v: verify_mult(1, "rescaled", step=v), 1, 1.5),
    ("domain endpoint", "domain endpoint", lambda v: ChebyshevSeries(np.ones(2), ((v, 5.0),)), 1, math.inf),
    ("target rho", "rho", lambda v: AnalyticTarget("t", 1, np.sum, rho=v), 2, 1.0),
    ("polynomial coefficient", "coefficient at multi-index (1,)",
     lambda v: MonomialPolynomial(1, {(1,): v}), 1, math.inf),
]
INF_ALLOWED = {"sample_network cap", "covering path_norm_cap"}
# None asks for the default: the builder's own claim, F from the coefficients, no rho
NONE_ALLOWED = {"verify bound", "power-series F", "target rho"}
REFUSED = [True, "0.5", 1 + 2j, math.nan]


@pytest.mark.parametrize("name, call, good, outside", [c[1:] for c in CONTRACTS], ids=[c[0] for c in CONTRACTS])
def test_every_real_parameter_refuses_what_is_not_a_number_in_range(request, name, call, good, outside):
    none = [] if request.node.callspec.id in NONE_ALLOWED else [None]
    for value in [*REFUSED, *none, outside]:
        with pytest.raises(ValueError, match=re.escape(name) + " must be a real number in "):
            call(value)
    accepted = [float(good), np.float64(good)]
    if float(good).is_integer():
        accepted += [int(good), np.int64(good)]
    for value in accepted:
        call(value)


@pytest.mark.parametrize("name, call", [c[1:3] for c in CONTRACTS], ids=[c[0] for c in CONTRACTS])
def test_inf_passes_only_at_a_closed_infinite_end(request, name, call):
    if request.node.callspec.id in INF_ALLOWED:
        call(math.inf)
    else:
        with pytest.raises(ValueError, match=re.escape(name) + " must be a real number in "):
            call(math.inf)
    with pytest.raises(ValueError, match=re.escape(name) + " must be a real number in "):
        call(-math.inf)


def test_number_returns_a_float_and_names_the_interval():
    for value in (1, np.int64(1), np.float32(1.0), np.float64(1.0), 1.0):
        x = _number(value, "x", 0, 1)
        assert type(x) is float and x == 1.0
    assert _number(math.inf, "x", 0) == math.inf
    with pytest.raises(ValueError, match=r"^x must be a real number in \(0, 1\], got 0$"):
        _number(0, "x", 0, 1, low_open=True)
    with pytest.raises(ValueError, match=r"^x must be a real number in \[-inf, 2\), got 2.0$"):
        _number(2.0, "x", high=2, high_open=True)
    # an int beyond float range is refused, not an OverflowError
    with pytest.raises(ValueError, match=r"x must be a real number in \[-inf, inf\]"):
        _number(10**400, "x")


def test_checked_values_are_stored_as_floats():
    # RegressionConfig(lam="1e-3") was stored as a string, and F=True wrote
    # "F": true into the power-series certificate
    spec = _spec(eps=np.float64(0.5), B=1, r=np.int64(2))
    assert [type(v) for v in (spec.eps, spec.B, spec.r)] == [float] * 3
    cfg = _config(lam=np.int64(1), lambda_scale=2, noise_sd=0)
    assert [type(v) for v in (cfg.lam, cfg.lambda_scale, cfg.noise_sd)] == [float] * 3
    assert _config().lam == "auto"
    assert '"F": 1.0' in json.dumps(_series(F=1)[1])
    assert type(AnalyticTarget("t", 1, np.sum, rho=3).rho) is float
    assert AnalyticTarget("t", 1, np.sum).rho is None


def test_lambda_auto_reads_n_as_an_integer():
    assert lambda_auto(np.int64(4), (2, 3, 1)) == lambda_auto(4, (2, 3, 1))
    for n in (2.5, 4.0, True, 1):
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            lambda_auto(n, (2, 3, 1))


@pytest.mark.parametrize("d", [0, 1.0, True, 2.5, None], ids=["0", "1.0", "true", "2.5", "none"])
def test_polynomial_d_is_an_integer_at_least_1(d):
    # d = 0 was accepted
    with pytest.raises(ValueError, match="d must be an integer >= 1"):
        MonomialPolynomial(d, {})


@pytest.mark.parametrize("index", [(2.5,), (True,), (-1,), (2.0,)], ids=["2.5", "true", "-1", "2.0"])
def test_polynomial_multi_index_entries_are_integers_at_least_0(index):
    # (2.5,) was truncated to (2,)
    with pytest.raises(ValueError, match=re.escape(f"entry of multi-index {index!r} must be an integer >= 0")):
        MonomialPolynomial(1, {index: 1.0})
    assert MonomialPolynomial(np.int64(2), {(np.int64(1), 2): 1.0}).terms == {(1, 2): 1.0}


@pytest.mark.parametrize("d", [2.5, True, "2"], ids=["2.5", "true", "str"])
def test_cli_polynomial_file_with_a_non_integer_d_exits_2(tmp_path, d):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"d": d, "terms": [[[1], 0.5]]}))
    res = CliRunner().invoke(main, ["approx", "cheb", "--target", str(path), "--eps", "0.5"])
    assert res.exit_code == 2, res.output
    assert "malformed polynomial file" in res.output and "d must be an integer >= 1" in res.output


def test_cli_polynomial_file_with_a_bool_coefficient_exits_2(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"d": 1, "terms": [[[1], True]]}))
    res = CliRunner().invoke(main, ["approx", "cheb", "--target", str(path), "--eps", "0.5"])
    assert res.exit_code == 2, res.output
    assert "coefficient at multi-index (1,) must be a real number" in res.output


@pytest.mark.parametrize("name", ["inv2mx", "runge"])
@pytest.mark.parametrize("d", [True, 1.0], ids=["true", "1.0"])
def test_one_dimensional_builtin_targets_refuse_a_non_integer_d(name, d):
    # builtin_target("inv2mx", True) returned the target, since True == 1
    with pytest.raises(ValueError, match="d must be an integer >= 0"):
        builtin_target(name, d)


@pytest.mark.parametrize("c", ["0.5", 1 + 2j, True, None, math.nan], ids=["str", "complex", "true", "none", "nan"])
def test_a_coefficient_that_is_not_a_finite_real_is_a_missing_coefficient(c):
    # a string or complex coefficient raised TypeError, and True became 1.0
    def coeff(k):
        return c if k == (1,) else 0.5

    with pytest.raises(MissingCoefficientError, match=re.escape("no coefficient for (1,): coefficient must be")):
        build_power_series_net(coeff, eps=0.5, delta=0.5, variant="rescaled", d=1, F=1.0)
