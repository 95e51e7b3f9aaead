"""The input contracts: every real-valued parameter of the package reads its
value through network._number, every count through network._integer, and
every array through network._finite or network._real.

A bool, a string, a complex number, NaN, a value outside the parameter's
interval, or None where None does not ask for a default, is a ValueError
naming the parameter; ints, floats and numpy numbers in range are accepted,
and inf only where the interval is closed at infinity (the path-norm caps).
An array with a complex, string or None entry is a ValueError naming the
parameter, and so is one with a NaN or +-inf entry where the values must be
finite; bool, int, float32 and float64 arrays read as float64."""

import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from nnapprox import (
    ABS,
    AnalyticTarget,
    ChebyshevSeries,
    Dataset,
    EntropyBoundSpec,
    MissingCoefficientError,
    MonomialPolynomial,
    Network,
    NetworkError,
    RegressionConfig,
    build_cheb_net,
    build_power_series_net,
    build_sq,
    builtin_target,
    cheb_fit,
    empirical_covering,
    empirical_vs_bound,
    evaluate,
    fit,
    network_from_json,
    network_to_json,
    sample_network,
    target_exp_sum,
)
from nnapprox.approximators import series_inv_two_minus_x
from nnapprox.cli import main
from nnapprox.network import _network_from_vector, _number, with_ones
from nnapprox.regression import lambda_auto
from nnapprox.verify import sup_error, verify_mon, verify_mult, verify_multr, verify_sq


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


@pytest.mark.parametrize("w", [2.5, True, "3", 0, None], ids=["2.5", "true", "str", "0", "none"])
def test_lambda_auto_reads_hidden_widths_as_integers(w):
    # a width of 2.5 gave 31.04, True gave 0.0 and "3" raised TypeError
    with pytest.raises(ValueError, match=re.escape("p[2] must be an integer >= 1")):
        lambda_auto(64, (2, 3, w, 1))
    assert lambda_auto(64, (2, np.int64(3), 1)) == lambda_auto(64, (2, 3, 1))


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


def _fitted(x, y):
    config = RegressionConfig(n=4, d=1, target=target_exp_sum(1), max_epochs=2)
    net, report = fit(config, Dataset(x, y))
    return network_to_json(net), report


def _cover_of(points):
    rng = np.random.default_rng(0)
    return empirical_covering(lambda: sample_network((1, 2, 1), 1.0, rng=rng), points, 0.25, 8, 1.0)


_X4 = [[0.0], [1.0], [1.0], [0.0]]
_Y4 = [1.0, 0.0, 1.0, 1.0]
FINITE = "has non-finite entries"
# (id, parameter name, call with the array, an accepted array of 0/1 entries,
# the error a NaN or +-inf entry raises: FINITE after the name, another
# message, or None where a non-finite value is read as it is)
ARRAYS = [
    ("Network matrix", "matrix", lambda v: evaluate(Network(ABS, [v]), [1.0, 0.5]), [[1.0, 0.0], [0.0, 1.0]], FINITE),
    ("vector weights", "weight vector",
     lambda v: evaluate(_network_from_vector(ABS, v, (2, 2, 1)), [1.0, 0.5]), [1.0, 0.0, 0.0, 1.0, 1.0, 1.0], FINITE),
    ("evaluate input", "input", lambda v: evaluate(build_sq(2), v), [[1.0, 0.0], [1.0, 1.0]], FINITE),
    ("covering points", "points", _cover_of, [[0.0], [1.0], [1.0]], FINITE),
    ("fit X", "X", lambda v: _fitted(v, _Y4), _X4, FINITE),
    ("fit Y", "Y", lambda v: _fitted(_X4, v), _Y4, FINITE),
    ("series coefficients", "series coefficients", lambda v: ChebyshevSeries(v).coeffs, [[1.0, 0.0], [0.0, 1.0]],
     FINITE),
    # a NaN truth gives a NaN error, and cheb_fit names the node of a non-finite value
    ("sup_error truth", "truth", lambda v: sup_error(build_sq(2), [0.0, 1.0], v), [0.0, 1.0], None),
    ("sup_error points", "points", lambda v: sup_error(build_sq(2), v, [0.0, 1.0]), [0.0, 1.0],
     "input has non-finite entries"),
    ("cheb_fit values", "target values", lambda v: cheb_fit(lambda p: v, (1,)).coeffs, [1.0, 0.0],
     "target returned a non-finite value at node"),
    ("with_ones points", "points", with_ones, [[0.0], [1.0]], None),
    ("target points", "points", lambda v: target_exp_sum(2).evaluate(v), [[0.0, 1.0], [1.0, 1.0]], None),
    ("target values", "target values",
     lambda v: AnalyticTarget("t", 1, lambda p: v).evaluate([0.0, 1.0]), [1.0, 0.0], None),
]
ARRAY_IDS = [a[0] for a in ARRAYS]


def _with_first(good, bad):
    """good, a nested list, with its first entry replaced by bad."""
    if isinstance(good[0], list):
        return [_with_first(good[0], bad), *good[1:]]
    return [bad, *good[1:]]


def _same(a, b):
    """Whether two results are equal bit for bit: arrays in dtype, shape and
    bytes, tuples entry by entry, anything else by ==."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name, call, good, nonfinite", [a[1:] for a in ARRAYS], ids=ARRAY_IDS)
def test_every_array_parameter_refuses_what_is_not_real(name, call, good, nonfinite):
    for bad in (0.5j, "a", None):
        with pytest.raises(NetworkError, match="^" + re.escape(name) + " must be real, got "):
            call(_with_first(good, bad))
    with pytest.raises(NetworkError, match="^" + re.escape(name) + " must be real, got complex values$"):
        call(np.asarray(good, dtype=complex))
    for bad in (math.nan, math.inf, -math.inf):
        if nonfinite is None:
            call(_with_first(good, bad))
        else:
            full = f"^{re.escape(name)} {nonfinite}$" if nonfinite == FINITE else re.escape(nonfinite)
            with pytest.raises(ValueError, match=full):
                call(_with_first(good, bad))


@pytest.mark.parametrize("name, call, good", [a[1:4] for a in ARRAYS], ids=ARRAY_IDS)
def test_every_array_parameter_reads_bool_int_and_float_arrays_as_float64(name, call, good):
    want = call(np.array(good, dtype=np.float64))
    for dtype in (bool, np.int64, np.int8, np.float32):
        assert _same(call(np.array(good, dtype=dtype)), want), dtype
    assert _same(call(good), want)


def test_a_nonfinite_truth_gives_a_nonfinite_error():
    sq = build_sq(2)
    assert math.isnan(sup_error(sq, [0.0, 1.0], [math.nan, 1.0]))
    assert sup_error(sq, [0.0, 1.0], [math.inf, 1.0]) == math.inf


@pytest.mark.parametrize("block", [[["a", 1.0]], [[None, 1.0]], [[1.0], [1.0, 2.0]]], ids=["str", "none", "ragged"])
def test_a_decoded_block_is_read_as_a_matrix(block):
    # a string entry raised numpy's unnamed "could not convert string to float"
    wire = json.dumps({"format": 3, "activation": "abs", "layers": [[[1, block]]]})
    with pytest.raises(NetworkError, match="^matrix "):
        network_from_json(wire)


def test_complex_weights_are_refused_not_cut_to_their_real_parts():
    # Network(ABS, [[[1+1j, 2.0]]]) evaluated to 3.0 at (1, 1) and wrote [[1.0, 2.0]] to JSON
    for weights in ([[1 + 1j, 2.0]], np.array([[1.0, 2.0]], dtype=complex)):
        with pytest.raises(NetworkError, match="^matrix must be real, got complex values$"):
            Network(ABS, [weights])
    with pytest.raises(NetworkError, match="^series coefficients must be real, got complex values$"):
        ChebyshevSeries([0.5j, 1.0])


# (id, parameter name, call with the value): the sweep sizes and the seeds,
# counts >= 0 that only the CLI's option ranges had checked.  A size of 0 is
# an empty sweep (tests/test_verify.py)
COUNTS = [
    ("verify_sq n_points", "n_points", lambda v: verify_sq(2, n_points=v)),
    ("verify_mon grid_points", "grid_points", lambda v: verify_mon(2, 2, 1, "rescaled", grid_points=v)),
    ("verify_multr n_samples", "n_samples", lambda v: verify_multr(2, 2, "rescaled", n_samples=v)),
    ("verify_multr seed", "seed", lambda v: verify_multr(2, 2, "rescaled", n_samples=8, seed=v)),
    ("empirical_vs_bound seed", "seed", lambda v: empirical_vs_bound(_spec(), trials=1, seed=v)),
]


@pytest.mark.parametrize("name, call", [c[1:] for c in COUNTS], ids=[c[0] for c in COUNTS])
def test_every_sweep_size_and_seed_is_an_integer_at_least_0(name, call):
    # n_points=True swept the single point 0 and passed, 2.5 raised TypeError,
    # and seed=-1 raised numpy's unnamed "expected non-negative integer"
    for value in (True, 2.5, 3.0, -1, "3", None):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer >= 0, got {re.escape(repr(value))}$"):
            call(value)
    call(np.int64(3))


def test_a_sweep_reports_its_sizes_as_ints():
    assert verify_sq(2, n_points=np.int64(3)).grid["points"] == 3
    rep = verify_multr(2, 2, "rescaled", n_samples=np.int64(8), seed=np.int64(1))
    assert rep.grid == {"samples": 8, "seed": 1, "domain": rep.grid["domain"]}
    assert all(type(rep.grid[k]) is int for k in ("samples", "seed"))
    json.dumps(verify_mon(2, 2, 1, "rescaled", grid_points=np.int64(3)).to_dict())
