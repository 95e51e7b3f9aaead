import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from nnapprox import (
    ChebyshevSeries,
    MonomialPolynomial,
    cheb_fit,
    cheb_poly_coeffs,
    cheb_to_monomial,
)
from nnapprox.chebyshev import _cheb_monomial_matrix, _lobatto_transform, monomial_values, tensor_grid
from nnapprox.constructions import enumerate_multi_indices

from conftest import cheb_series_values


def test_t0_t1_t2():
    assert np.array_equal(cheb_poly_coeffs(0), [1.0])
    assert np.array_equal(cheb_poly_coeffs(1), [0.0, 1.0])
    assert np.array_equal(cheb_poly_coeffs(2), [-1.0, 0.0, 2.0])


def test_recursion_matches_numpy_oracle_up_to_30():
    for n in range(31):
        ref = npcheb.cheb2poly([0.0] * n + [1.0])
        assert np.array_equal(cheb_poly_coeffs(n), ref), n


def test_coeff_bound_two_pow_n_holds_below_nine():
    # the 2^n coefficient cap is false from n = 9 on (T_9 has 576 > 512);
    # criterion 7a asserts the sharp sum|coeff| identity instead (see the
    # decisions ledger)
    for n in range(9):
        assert np.abs(cheb_poly_coeffs(n)).max() <= 2.0**n
    assert np.abs(cheb_poly_coeffs(9)).max() == 576.0


def test_coeffs_equal_exact_integer_recurrence_up_to_60():
    # T_{n+1} = 2x T_n - T_{n-1} in Python integers; from n = 45 some
    # coefficients pass 2^53 and still convert exactly
    prev, cur = [1], [0, 1]
    exact = [prev, cur]
    for _ in range(59):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
        exact.append(cur)
    for n in range(61):
        got = cheb_poly_coeffs(n)
        assert np.array_equal(got, np.array(exact[n], dtype=np.float64)), n
        assert not np.signbit(got[got == 0.0]).any(), n
    assert max(abs(c) for c in exact[45]) > 2**53


def test_degree_cap():
    cheb_poly_coeffs(60)
    with pytest.raises(ValueError):
        cheb_poly_coeffs(61)
    with pytest.raises(ValueError):
        cheb_poly_coeffs(-1)


def test_fit_reproduces_basis_polynomial():
    t3 = lambda p: npcheb.chebval(p[:, 0], [0, 0, 0, 1.0])
    s = cheb_fit(t3, (8,))
    want = np.zeros(9)
    want[3] = 1.0
    assert np.abs(s.coeffs - want).max() < 1e-14


def test_fit_x_squared():
    s = cheb_fit(lambda p: p[:, 0] ** 2, (4,))
    assert np.abs(s.coeffs - [0.5, 0.0, 0.5, 0.0, 0.0]).max() < 1e-15


def test_fit_degree_zero():
    s = cheb_fit(lambda p: np.full(len(p), 3.25), (0,))
    assert s.coeffs.shape == (1,)
    assert s.coeffs[0] == 3.25


def test_fit_rejects_nonfinite_target():
    def bad(p):
        with np.errstate(divide="ignore"):
            return 1.0 / (p[:, 0] - 1.0)

    with pytest.raises(ValueError, match="non-finite"):
        cheb_fit(bad, (4,))


def test_fit_refuses_complex_values_and_keeps_real_bits():
    # the float cast used to drop the imaginary part with only a ComplexWarning: [0, 1, 0]
    with pytest.raises(ValueError, match="target values must be real"):
        cheb_fit(lambda p: p[:, 0] + 1j, (2,))
    f = lambda p: np.exp(p[:, 0]) / 3.0
    t = np.cos(np.pi * np.arange(9) / 8)
    vals = np.asarray(f((-1.0 + 2.0 * (t + 1.0) / 2.0)[:, None]), dtype=np.float64)
    want = np.tensordot(_lobatto_transform(8), vals, axes=(1, 0))
    assert np.array_equal(cheb_fit(f, (8,)).coeffs, want)
    assert np.array_equal(cheb_fit(lambda p: f(p).tolist(), (8,)).coeffs, want)


@pytest.mark.parametrize("degrees", [(2.5,), (True,), (2, 2.0), (np.float64(3),), (-1,)],
                         ids=["2.5", "true", "2.0 second", "numpy float", "-1"])
def test_fit_refuses_degrees_that_are_not_integers_at_least_0(degrees):
    # int(n) truncated them: (2.5,) fitted degree 2 and (True,) degree 1
    with pytest.raises(ValueError, match="degree must be an integer >= 0"):
        cheb_fit(_square, degrees)


def test_fit_takes_numpy_integer_degrees():
    got = cheb_fit(_square, (np.int64(2), np.int32(3)))
    want = cheb_fit(_square, (2, 3))
    assert got.degrees == (2, 3) and np.array_equal(got.coeffs, want.coeffs)


def test_fit_exp_coefficients_decay_geometrically():
    s = cheb_fit(lambda p: np.exp(p[:, 0]), (20,))
    a = np.abs(s.coeffs)
    usable = a > 1e-12
    ratios = a[1:] / a[:-1]
    for k in range(6, 20):
        if usable[k] and usable[k - 1]:
            assert ratios[k - 1] < 0.95


def test_fit_2d_polynomial_exact():
    f = lambda p: 2.0 + p[:, 0] * p[:, 1] ** 2
    s = cheb_fit(f, (3, 3), domain=((0, 1), (0, 1)))
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, (100, 2))
    assert np.abs(cheb_series_values(s, pts) - f(pts)).max() < 1e-13


def test_to_monomial_t2():
    p = cheb_to_monomial(ChebyshevSeries(np.array([0.0, 0.0, 1.0])), 5)
    assert p.terms == {(0,): -1.0, (2,): 2.0}


def test_to_monomial_t1t1():
    c = np.zeros((2, 2))
    c[1, 1] = 1.0
    p = cheb_to_monomial(ChebyshevSeries(c), 5)
    assert p.terms == {(1, 1): 1.0}


def test_to_monomial_truncates_total_degree():
    c = np.zeros((3, 3))
    c[2, 2] = 1.0  # total degree 4
    c[1, 0] = 2.0  # total degree 1
    p = cheb_to_monomial(ChebyshevSeries(c), 3)
    assert p.terms == {(1, 0): 2.0}


def test_to_monomial_exact_identity_random_series():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        degs = tuple(int(v) for v in rng.integers(0, 11, d))
        coeffs = rng.normal(size=tuple(n + 1 for n in degs))
        s = ChebyshevSeries(coeffs)
        p = cheb_to_monomial(s, sum(degs))
        pts = rng.uniform(-1, 1, (50, d))
        assert np.abs(cheb_series_values(s, pts) - p.evaluate(pts)).max() < 1e-9


def test_to_monomial_identity_on_unit_interval_domain():
    # the affine shift to [0,1] inflates the expanded coefficients, so the
    # 1e-9 identity is checked under the total-degree truncation the
    # pipelines actually apply
    rng = np.random.default_rng(43)
    for _ in range(50):
        d = int(rng.integers(1, 3))
        degs = tuple(int(v) for v in rng.integers(0, 9, d))
        cap = 8
        coeffs = rng.normal(size=tuple(n + 1 for n in degs))
        for k in np.ndindex(coeffs.shape):
            if sum(k) > cap:
                coeffs[k] = 0.0
        s = ChebyshevSeries(coeffs, ((0.0, 1.0),) * d)
        p = cheb_to_monomial(s, cap)
        pts = rng.uniform(0, 1, (50, d))
        assert np.abs(cheb_series_values(s, pts) - p.evaluate(pts)).max() < 1e-9


def test_monomial_polynomial_validation():
    with pytest.raises(ValueError):
        MonomialPolynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        MonomialPolynomial(1, {(1,): np.nan})
    p = MonomialPolynomial(1, {(2,): 0.0, (1,): 3.0})
    assert p.terms == {(1,): 3.0}
    assert max(sum(k) for k in p.terms) == 1


def test_series_evaluate_shapes():
    s = ChebyshevSeries(np.array([1.0, 2.0]), ((0.0, 1.0),))
    x = np.array([0.0, 0.5, 1.0])
    want = 1.0 + 2.0 * (2 * x - 1)
    assert np.allclose(cheb_series_values(s, x), want)


def test_unit_interval_columns_are_integers_summing_to_t_k_of_3():
    # T_k(2x - 1) has integer coefficients of alternating sign, so their
    # absolute values sum to |T_k(-3)| = T_k(3), here from T_{k+1} = 6 T_k -
    # T_{k-1} in integers
    t3 = [1, 3]
    while len(t3) < 21:
        t3.append(6 * t3[-1] - t3[-2])
    mat = _cheb_monomial_matrix(21, 0.0, 1.0)
    for k in range(21):
        col = mat[:, k]
        assert np.array_equal(col, np.round(col)) and not col[k + 1 :].any(), k
        assert sum(abs(int(v)) for v in col) == t3[k], k


def test_to_monomial_rejects_degree_above_60():
    assert max(sum(k) for k in cheb_to_monomial(ChebyshevSeries(np.eye(1, 61, 60)[0]), 60).terms) == 60
    with pytest.raises(ValueError, match="degree above 60"):
        cheb_to_monomial(ChebyshevSeries(np.eye(1, 62, 61)[0]), 61)


def test_axis_matrix_matches_numpy_conversion():
    for lo, hi in ((-1.0, 1.0), (0.0, 1.0), (0.0, 0.5), (0.2, 0.9), (2.0, -3.0)):
        mat = _cheb_monomial_matrix(13, lo, hi)
        for k in range(13):
            want = npcheb.Chebyshev.basis(k, domain=[lo, hi]).convert(kind=np.polynomial.Polynomial).coef
            scale = np.abs(want).max()
            assert np.abs(mat[: k + 1, k] - want).max() <= 1e-13 * scale, (lo, hi, k)
            assert not mat[k + 1 :, k].any()


def _per_term_expansion(series, gamma):
    """The conversion as a sum over tensor terms: every product
    T_{k1}...T_{kd} with |k|_1 <= gamma expanded into monomials one by one."""
    terms = {}
    for k in np.ndindex(series.coeffs.shape):
        c = series.coeffs[k]
        if c == 0.0 or sum(k) > gamma:
            continue
        vecs = [_cheb_monomial_matrix(ka + 1, *series.domain[a])[:, ka] for a, ka in enumerate(k)]
        for j in np.ndindex(tuple(len(v) for v in vecs)):
            val = c
            for a in range(series.d):
                val *= vecs[a][j[a]]
            if val != 0.0:
                terms[j] = terms.get(j, 0.0) + val
    return MonomialPolynomial(series.d, terms)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 1.0)])
@pytest.mark.parametrize("truncate", [False, True], ids=["full", "truncated"])
def test_to_monomial_matches_per_term_expansion(d, interval, truncate):
    rng = np.random.default_rng(7 * d + int(truncate))
    for _ in range(10):
        degs = tuple(int(v) for v in rng.integers(0, 9 if d < 3 else 6, d))
        s = ChebyshevSeries(rng.normal(size=[n + 1 for n in degs]), (interval,) * d)
        gamma = int(rng.integers(0, sum(degs) + 1)) if truncate else sum(degs)
        got = cheb_to_monomial(s, gamma).terms
        want = _per_term_expansion(s, gamma).terms
        assert got.keys() == want.keys()
        scale = max((abs(c) for c in want.values()), default=0.0)
        for k, c in want.items():
            assert abs(got[k] - c) <= 1e-12 * scale, (k, got[k], c)


def test_series_evaluate_matches_numpy_chebval():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, (40, 3))
    for d, chebval in ((1, npcheb.chebval), (2, npcheb.chebval2d), (3, npcheb.chebval3d)):
        c = rng.normal(size=tuple(int(n) for n in rng.integers(1, 8, d)))
        want = chebval(*x[:, :d].T, c)
        assert np.abs(cheb_series_values(ChebyshevSeries(c), x[:, :d]) - want).max() <= 1e-12 * np.abs(c).sum()


def test_series_evaluate_four_axes_brute_force():
    rng = np.random.default_rng(12)
    domain = ((-1.0, 1.0), (0.0, 1.0), (2.0, -3.0), (0.5, 4.0))
    c = rng.normal(size=(3, 2, 4, 3))
    x = np.column_stack([rng.uniform(min(lo, hi), max(lo, hi), 30) for lo, hi in domain])
    t = np.column_stack([2.0 * (x[:, a] - lo) / (hi - lo) - 1.0 for a, (lo, hi) in enumerate(domain)])
    want = np.zeros(len(x))
    for k in np.ndindex(c.shape):
        want += c[k] * np.prod([np.cos(ka * np.arccos(t[:, a])) for a, ka in enumerate(k)], axis=0)
    got = cheb_series_values(ChebyshevSeries(c, domain), x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(c).sum()


def test_monomial_evaluate_checks_coordinate_count():
    p = MonomialPolynomial(2, {(1, 1): 1.0})
    assert np.array_equal(p.evaluate(np.full((3, 2), 2.0)), [4.0, 4.0, 4.0])
    for bad in (np.full((3, 3), 2.0), np.full((3, 1), 2.0), np.full(3, 2.0)):
        with pytest.raises(ValueError, match="expected points with 2 coordinates"):
            p.evaluate(bad)
    assert np.array_equal(MonomialPolynomial(1, {}).evaluate(np.arange(4.0)), np.zeros(4))


def test_monomial_evaluate_refuses_complex_points():
    p = MonomialPolynomial(1, {(2,): 1.0})
    with pytest.raises(ValueError, match="points must be real"):
        p.evaluate(np.array([0.25 + 0.5j]))
    x = np.array([0.1, 0.25, 0.7])
    assert np.array_equal(p.evaluate(x.tolist()), p.evaluate(x))
    assert np.array_equal(p.evaluate(x), x * x)


def _degree_20_plane_polynomial(seed=3):
    """A d = 2 polynomial with all 231 terms of total degree <= 20."""
    indices = enumerate_multi_indices(2, 21)
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, len(indices))
    return MonomialPolynomial(2, dict(zip(indices, coeffs)))


def test_monomial_evaluate_matches_matrix_product():
    p = _degree_20_plane_polynomial()
    x = np.random.default_rng(4).uniform(-1.0, 1.0, (2000, 2))
    vals = monomial_values(list(p.terms), x)
    coeffs = np.array(list(p.terms.values()))
    scale = np.abs(vals) @ np.abs(coeffs)
    assert np.all(np.abs(p.evaluate(x) - vals @ coeffs) <= 1e-12 * scale)


def test_monomial_evaluate_memory_does_not_grow_with_terms():
    # the (points x terms) matrix of this case is 50,000 x 231 floats, 88 MiB
    p = _degree_20_plane_polynomial()
    x = np.random.default_rng(5).uniform(0.0, 1.0, (50_000, 2))
    tracemalloc.start()
    try:
        p.evaluate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(p.terms) == 231
    assert peak < 10 * 2**20


NONFINITE_ENDPOINT = r"domain endpoint must be a real number in \(-inf, inf\)"


@pytest.mark.parametrize(
    "interval, match",
    [((1.0, 1.0), "distinct endpoints"), ((0.0, np.inf), NONFINITE_ENDPOINT),
     ((-np.inf, 1.0), NONFINITE_ENDPOINT), ((np.nan, 1.0), NONFINITE_ENDPOINT)],
    ids=["interval0", "interval1", "interval2", "interval3"],
)
def test_series_rejects_degenerate_or_nonfinite_interval(interval, match):
    with pytest.raises(ValueError, match=match):
        ChebyshevSeries(np.array([1.0, 2.0]), (interval,))
    with pytest.raises(ValueError, match=match):
        cheb_fit(lambda p: p[:, 0], (3,), domain=(interval,))


def test_series_accepts_reversed_interval():
    s = ChebyshevSeries(np.array([1.0, 2.0]), ((1.0, 0.0),))
    x = np.array([0.0, 0.25, 1.0])
    assert np.allclose(cheb_series_values(s, x), 1.0 + 2.0 * (1.0 - 2.0 * x))
    assert np.allclose(cheb_to_monomial(s, 1).evaluate(x), cheb_series_values(s, x))
    assert np.allclose(cheb_series_values(cheb_fit(lambda p: p[:, 0] ** 2, (2,), domain=((1.0, 0.0),)), x), x**2)


def test_tensor_grid_last_axis_fastest():
    got = tensor_grid([np.array([0.0, 1.0]), np.array([2.0, 3.0, 4.0])])
    want = [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]]
    assert np.array_equal(got, want)


def _square(p):
    return p[:, 0] ** 2


REFUSALS = [
    ("two intervals for one axis", lambda: cheb_fit(_square, (3,), domain=((0, 1), (0, 1))), ValueError,
     "one interval per axis"),
    ("nan coefficient", lambda: ChebyshevSeries(np.array([1.0, np.nan])), ValueError, "series coefficients has non-finite entries"),
    ("inf coefficient", lambda: ChebyshevSeries(np.array([[1.0], [-np.inf]])), ValueError, "series coefficients has non-finite entries"),
    ("negative degree", lambda: cheb_fit(_square, (-1,)), ValueError, "degree must be an integer >= 0"),
    ("one negative degree of two", lambda: cheb_fit(_square, (2, -2)), ValueError, "degree must be an integer >= 0"),
]


@pytest.mark.parametrize("make, error, match", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusals_raise_their_typed_error(make, error, match):
    with pytest.raises(error, match=match):
        make()
