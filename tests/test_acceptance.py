"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Every assertion states what the mathematics and the documented
formulas give, so a failure means the program is wrong.  Two criteria assert
sharper facts than their first statement, which was false (notes/decisions.md
keeps the counterexamples and measurements):

* criterion 7a asserts the exact identity sum_j |coeff_j(T_n)| = H_n, where
  H_n = ((1+sqrt 2)^n + (1-sqrt 2)^n)/2, and a leading coefficient of
  2^(n-1), for n <= 30; the cap max|coeff(T_n)| <= 2^n is false (T_9 has
  576 > 512);
* criterion 10d asserts the oracle-RHS report decreases as n doubles from
  512 to 4096 for one fixed candidate class, past the peak of lambda_n at
  n = e^6 (about 403).
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

import nnapprox as nx
from nnapprox.approximators import power_series_path_bound, series_inv_two_minus_x
from nnapprox.chebyshev import monomial_values
from nnapprox.network import with_ones
from nnapprox.regression import _objective, _path_norm_prefix, _risk_grads
from conftest import abs_weights, cheb_series_values, dense_weights, linear_bound, mult_path_row, random_dense_net


def _aug(x):
    x = np.atleast_2d(x)
    return np.column_stack([np.ones(len(x)), x])


def _line(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_squaring_bound():
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 10000)
    inp = _aug(x[:, None])
    worst = 0.0
    for m in range(1, 11):
        err = np.abs(nx.evaluate(nx.build_sq(m), inp)[:, 0] - x * x).max()
        worst = max(worst, err / nx.sq_error_bound(m))
        assert err <= nx.sq_error_bound(m), (m, err)
    elapsed = time.perf_counter() - t0
    _line(1, elapsed < 1.0, f"max err/bound ratio {worst:.3f} over m=1..10, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_02_mult_path_vector():
    worst = 0.0
    for m in range(1, 11):
        got = nx.path_matrix(nx.build_mult(m, "literal"))[0]
        want = mult_path_row(m)
        rel = np.abs(got - want).max() / np.abs(want).max()
        worst = max(worst, rel)
        assert rel <= 1e-13, (m, rel)
    _line(2, True, f"path vector matches closed form, worst rel err {worst:.2e}")


def test_criterion_03_mult_error_grids():
    t0 = time.perf_counter()
    n = 200  # step 0.005
    xs = np.arange(n + 1) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    tri = gx + gy <= 1.0
    px, py = gx[tri], gy[tri]
    tri_inp = np.column_stack([np.ones_like(px), px, py])
    full_inp = np.column_stack([np.ones(gx.size), gx.ravel(), gy.ravel()])
    full_prod = (gx * gy).ravel()
    for m in range(1, 9):
        lit = np.abs(nx.evaluate(nx.build_mult(m, "literal"), tri_inp)[:, 0] - px * py).max()
        assert lit <= 3 * 2.0 ** (-2 * m - 3), (m, lit)
        res = np.abs(nx.evaluate(nx.build_mult(m, "rescaled"), full_inp)[:, 0] - full_prod).max()
        assert res <= 3 * 2.0 ** (-2 * m - 2), (m, res)
    elapsed = time.perf_counter() - t0
    _line(3, elapsed < 5.0, f"literal and rescaled bounds hold for m=1..8, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_04_product_trees():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for r in (2, 3, 4, 8):
        for m in (3, 5, 7):
            for variant, hi in (("literal", 0.5), ("rescaled", 1.0)):
                net = nx.build_multr(m, r, variant)
                x = rng.uniform(0.0, hi, size=(100000, r))
                v = nx.evaluate(net, np.column_stack([np.ones(len(x)), x]))[:, 0]
                err = np.abs(v - np.prod(x, axis=1)).max()
                bound = nx.multr_error_bound(m, r, variant)
                worst = max(worst, err / bound)
                assert err <= bound, (r, m, variant, err, bound)
                if variant == "literal":
                    assert np.max(nx.path_matrix(net)) <= 144.0 * r**4
    elapsed = time.perf_counter() - t0
    _line(4, elapsed < 30.0, f"max err/bound ratio {worst:.3f}, path caps hold, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_05_monomial_network():
    m, gamma, d = 6, 3, 2
    for variant, hi in (("literal", 0.5), ("rescaled", 1.0)):
        net = nx.build_mon(m, gamma, d, variant)
        assert net.depth <= math.ceil(math.log2(gamma)) * (2 * m + 5) + 2
        assert net.max_width <= 6 * gamma * (m + 2) * nx.count_monomials(d, gamma)
        xs = np.linspace(0.0, hi, 51)
        ax, ay = np.meshgrid(xs, xs, indexing="ij")
        pts = np.column_stack([ax.ravel(), ay.ravel()])
        got = nx.evaluate(net, _aug(pts))
        want = monomial_values(nx.enumerate_multi_indices(d, gamma), pts)
        err = np.abs(got - want).max()
        assert err <= nx.mon_error_bound(m, gamma, variant), (variant, err)
        if variant == "literal":
            assert np.max(nx.path_matrix(net)) <= 144.0 * (gamma + 1) ** 5
    _line(5, True, "depth/width/error/path-entry bounds all hold at (m=6, gamma=3, d=2)")


def test_criterion_06_power_series_pipeline():
    t0 = time.perf_counter()
    gen = series_inv_two_minus_x()
    delta, F = 0.25, 1.0
    x = np.linspace(0.75 / 2000, 0.75, 2000)
    inp = _aug(x[:, None])
    f = 1.0 / (2.0 - x)
    details = []
    for eps in (2.0**-4, 2.0**-6, 2.0**-8):
        net_r, cert_r = nx.build_power_series_net(gen, eps=eps, delta=delta, variant="rescaled", d=1, F=F)
        err = np.abs(nx.evaluate(net_r, inp)[:, 0] - f).max()
        assert err <= 6 * F * eps / delta**2, (eps, err)
        gamma = cert_r["gamma"]
        net_l, cert_l = nx.build_power_series_net(gen, eps=eps, delta=delta, variant="literal", d=1, F=F)
        assert cert_l["path_norm"] <= 144 * 2 * F * (gamma + 2) ** 5
        assert cert_r["path_norm"] <= power_series_path_bound(1, F, gamma, "rescaled")
        details.append(f"eps=2^{int(math.log2(eps))}: err {err:.1e} <= {6 * F * eps / delta**2:.2f}")
    elapsed = time.perf_counter() - t0
    _line(6, elapsed < 10.0, "; ".join(details) + f", {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_07a_chebyshev_recursion_and_coefficient_bound():
    # recursion exactness against numpy's cheb2poly; the coefficient bound is
    # the sharp identity sum_j |c_j| = H_n, since the coefficients alternate
    # in sign in steps of two and so T_n(i) = i^n sum_j |c_j|.  H_n is the
    # rational part a_n of (1+sqrt 2)^n = a_n + b_n sqrt 2, computed exactly.
    # The cap max|c_j| <= 2^n is false from n = 9 (T_9 has 576 > 512).
    a, b = 1, 0
    for n in range(31):
        got = nx.cheb_poly_coeffs(n)
        assert np.array_equal(got, npcheb.cheb2poly([0.0] * n + [1.0])), n
        coeffs = [int(c) for c in got]
        assert np.array_equal(got, coeffs), n  # integer-valued, so exact
        abs_sum = sum(abs(c) for c in coeffs)
        assert abs_sum == a, (n, abs_sum, a)
        if n >= 1:
            assert coeffs[-1] == 2 ** (n - 1), n
        assert max(abs(c) for c in coeffs) <= (1.0 + math.sqrt(2.0)) ** n, n
        if n == 9:
            assert abs_sum == 1393
        a, b = a + 2 * b, a + b
    _line("7a", True, "recursion exact, sum|coeff(T_n)| = H_n and lead 2^(n-1) for n<=30 (H_9 = 1393)")


def test_criterion_07b_conversion_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        degs = tuple(int(v) for v in rng.integers(0, 11, d))
        s = nx.ChebyshevSeries(rng.normal(size=tuple(n + 1 for n in degs)))
        p = nx.cheb_to_monomial(s, sum(degs))
        pts = rng.uniform(-1, 1, (100, d))
        assert np.abs(cheb_series_values(s, pts) - p.evaluate(pts)).max() <= 1e-9
    _line("7b", True, "series == monomial form to 1e-9 on 100 random series")


def test_criterion_07c_exp_coefficient_decay():
    s = nx.cheb_fit(lambda p: np.exp(p[:, 0]), (20,))
    a = np.abs(s.coeffs)
    checked = 0
    for k in range(6, 21):
        if a[k] > 1e-12 and a[k - 1] > 1e-12:  # above double-precision noise
            assert a[k] / a[k - 1] < 0.95, k
            checked += 1
    assert checked >= 5
    _line("7c", True, f"geometric decay beyond k=5 ({checked} ratios, all < 0.95)")


def test_criterion_08_entropy_consistency(rng):
    # L=0 reduction, exact equality
    for _ in range(100):
        d = int(rng.integers(1, 6))
        b, r, eps = rng.uniform(0.1, 3, 3)
        n = int(rng.integers(1, 64))
        spec = nx.EntropyBoundSpec(eps=float(eps), L=0, p=(d, 1), B=float(b), r=float(r), n=n)
        assert nx.network_bound(spec) == linear_bound(float(b), float(r), float(eps), d)
    # one-sided empirical check on 20 random small specs
    acts = [nx.ABS, nx.RELU, nx.IDENTITY]
    worst_margin = np.inf
    for i in range(20):
        srng = np.random.default_rng(1000 + i)
        L = int(srng.integers(0, 3))
        p = tuple(int(w) for w in srng.integers(1, 4, L + 2))
        spec = nx.EntropyBoundSpec(
            eps=float(srng.uniform(0.15, 1.5)),
            L=L,
            p=p,
            B=float(srng.uniform(0.5, 2.0)),
            r=float(srng.uniform(0.5, 2.0)),
            n=int(srng.integers(4, 33)),
        )
        cover, bound, _ = nx.empirical_vs_bound(spec, activation=acts[i % 3], trials=5000, seed=i)
        assert cover.log2_size <= bound, (spec, cover, bound)
        worst_margin = min(worst_margin, bound - cover.log2_size)
    _line(8, True, f"greedy log2-size under the bound on all 20 specs (min margin {worst_margin:.2f} bits)")


def test_criterion_09_path_norm_identities(rng):
    # |f|_x = f(1) for nonnegative weights, all three named activations
    acts = [nx.ABS, nx.RELU, nx.IDENTITY]
    for i in range(1000):
        net = random_dense_net(rng, acts[i % 3])
        net = nx.Network(acts[i % 3], [np.abs(w) for w in dense_weights(net)])
        val = float(np.sum(nx.evaluate(net, np.ones(net.in_dim))))
        pn = nx.path_norm(net)
        assert val == pn
    # |f|_x <= prod |W_i|_1 and the (L+1)^-(L+1) cap under unit total l1
    for _ in range(1000):
        net = random_dense_net(rng, nx.ABS)
        stats = nx.network_stats(net)
        prod = 1.0
        for lay in stats["layers"]:
            prod *= lay["l1"]
        assert nx.path_norm(net) <= prod * (1 + 1e-12)
        total = stats["l1"]
        if total > 0:
            scaled = nx.Network(nx.ABS, [w / total for w in dense_weights(net)])
            L = scaled.depth
            assert nx.path_norm(scaled) <= (L + 1) ** -(L + 1) + 1e-12
    _line(9, True, "f(1) identity, product bound, and AM-GM cap on 1000 nets each")


def test_criterion_10a_gradient_checks(rng):
    checked = 0
    for _ in range(100):
        arch = [2] + [int(w) for w in rng.integers(2, 5, 2)] + [1]
        ws = [rng.uniform(-1, 1, (arch[i + 1], arch[i])) for i in range(len(arch) - 1)]
        ws = [np.where(np.abs(w) < 1e-2, 1e-2, w) for w in ws]
        x = rng.uniform(0, 1, (12, 1))
        xa = with_ones(x)
        y = rng.normal(size=12)
        acts, pres, res, absw, v = _objective(ws, xa, y, 0.0, abs_weights(ws))[3]
        near_kink = min(np.abs(p).min() for p in pres[:-1]) < 1e-6
        pgrads, rgrads = [np.empty(w.shape) for w in ws], [np.empty(w.shape) for w in ws]
        nx.path_norm_grads(ws, absw, v, pgrads)
        _risk_grads(ws, acts, pres, res, rgrads)
        i = int(rng.integers(0, len(ws)))
        a = int(rng.integers(0, ws[i].shape[0]))
        b = int(rng.integers(0, ws[i].shape[1]))
        h = 1e-6
        wp = [w.copy() for w in ws]
        wm = [w.copy() for w in ws]
        wp[i][a, b] += h
        wm[i][a, b] -= h
        fd_pen = (_path_norm_prefix(abs_weights(wp))[0] - _path_norm_prefix(abs_weights(wm))[0]) / (2 * h)
        if abs(fd_pen) > 1e-8:
            assert pgrads[i][a, b] == pytest.approx(fd_pen, rel=1e-4)
            checked += 1
        if not near_kink:
            risk_p, risk_m = (_objective(w, xa, y, 0.0, abs_weights(w))[1] for w in (wp, wm))
            fd_risk = (risk_p - risk_m) / (2 * h)
            if abs(fd_risk) > 1e-7:
                assert rgrads[i][a, b] == pytest.approx(fd_risk, rel=1e-4)
    assert checked >= 50
    _line("10a", True, f"penalty and loss gradients match central differences ({checked}+ checks)")


def test_criterion_10b_objective_monotone():
    # the same fit stopped after more and more epochs (0 is the initial
    # weights): each reported objective is recomputed from the returned
    # network, and the sequence must not increase
    target = nx.AnalyticTarget("sq", 1, lambda p: p[:, 0] ** 2)
    cfg = nx.RegressionConfig(n=128, d=1, target=target, noise_sd=0.05, widths=(6, 6), lam=0.01, seed=4)
    data = nx.generate_data(cfg)
    objs = []
    for epochs in (0, 1, 2, 3, 5, 10, 20, 50, 100, 200, 400):
        net, rep = nx.fit(dataclasses.replace(cfg, max_epochs=epochs), data)
        pred = nx.evaluate(net, with_ones(data.X))[:, 0]
        want = np.mean((pred - data.Y) ** 2) + cfg.lam * nx.path_norm(net)
        assert rep.objective == pytest.approx(want, rel=1e-12, abs=0.0), epochs
        objs.append(rep.objective)
    ok = all(b <= a for a, b in zip(objs, objs[1:])) and objs[-1] < objs[0]
    _line("10b", ok, "objective after 0..400 epochs: " + " >= ".join(f"{v:.6g}" for v in objs))
    assert ok, objs


def test_criterion_10c_lambda_path_monotone():
    target = nx.AnalyticTarget("sq", 1, lambda p: p[:, 0] ** 2)
    pns = []
    for lam in (0.0, 0.003, 0.03, 0.3, 3.0):
        cfg = nx.RegressionConfig(n=64, d=1, target=target, noise_sd=0.0, widths=(4, 4), lam=lam, max_epochs=1500, seed=3)
        _, rep = nx.fit(cfg, nx.generate_data(cfg))
        pns.append(rep.path_norm)
    ok = all(b <= a + 1e-12 for a, b in zip(pns, pns[1:]))
    _line("10c", ok, "fitted path norms " + " >= ".join(f"{p:.4f}" for p in pns))
    assert ok


def test_criterion_10d_oracle_rhs_decreases():
    # One fixed candidate class: the eps = 2^-7 Chebyshev net for 1/(2-x).
    # Its Monte Carlo term does not depend on n, the remainder falls like
    # log2(n)^3/n, and lambda_n ~ log2(n)^3/sqrt(n) rises up to n = e^6
    # (about 403) and falls after it, so the RHS decreases from n = 512 on
    # (see decisions ledger).
    f0 = nx.target_inv_two_minus_x()
    net, _ = nx.build_cheb_net(f0, 2.0**-7, "rescaled")
    lams = [nx.lambda_auto(n, net.widths) for n in (128, 256, 512, 1024, 2048, 4096)]
    assert lams[1] > lams[0], lams
    assert all(b < a for a, b in zip(lams[2:], lams[3:])), lams
    values = []
    for n in (512, 1024, 2048, 4096):
        cfg = nx.RegressionConfig(n=n, d=1, target=f0, widths=tuple(net.widths[1:-1]), lam="auto", seed=0)
        val = nx.oracle_rhs(cfg, net).rhs
        assert np.isfinite(val)
        values.append(val)
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    _line("10d", decreasing, "oracle RHS at n=512..4096: " + ", ".join(f"{v:.0f}" for v in values))
    assert decreasing, (
        "oracle-RHS report does not decrease over n=512..4096 for a fixed class: "
        + ", ".join(f"{v:.0f}" for v in values)
    )
