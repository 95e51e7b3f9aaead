import dataclasses
import math

import numpy as np
import pytest

from nnapprox import (
    AnalyticTarget,
    RegressionConfig,
    builtin_target,
    fit,
    generate_data,
    lambda_auto,
    oracle_rhs,
    path_norm_grads,
    target_inv_two_minus_x,
)
from nnapprox import regression
from nnapprox.network import with_ones
from nnapprox.regression import LEARNING_RATE, ORACLE_C, Dataset, _lambda, _objective, _path_norm_prefix, _risk_grads

from conftest import matmul_fit


def _linear_target():
    return AnalyticTarget("lin", 1, lambda p: 1.0 + 2.0 * p[:, 0])


def _square_target():
    return AnalyticTarget("sq", 1, lambda p: p[:, 0] ** 2)


# ---------------------------------------------------------------------------
# lambda_auto


def test_lambda_auto_example():
    assert lambda_auto(16, (1, 2, 2, 1)) == pytest.approx(16 * math.sqrt(2))


def test_lambda_auto_width_one_hidden_is_zero():
    assert lambda_auto(100, (3, 1, 1, 1)) == 0.0


def test_lambda_auto_linear_in_c():
    base = lambda_auto(64, (2, 4, 1), c=1.0)
    assert lambda_auto(64, (2, 4, 1), c=3.5) == pytest.approx(3.5 * base)


def test_lambda_auto_rejects_tiny_n():
    with pytest.raises(ValueError):
        lambda_auto(1, (1, 2, 1))


# ---------------------------------------------------------------------------
# data generation


def test_generate_data_noise_free():
    cfg = RegressionConfig(n=32, d=1, target=_linear_target(), noise_sd=0.0, seed=5)
    ds = generate_data(cfg)
    assert np.array_equal(ds.Y, cfg.target.evaluate(ds.X))


def test_generate_data_clt_sanity():
    zero = AnalyticTarget("zero", 1, lambda p: np.zeros(len(p)))
    cfg = RegressionConfig(n=10000, d=1, target=zero, noise_sd=1.0, seed=11)
    ds = generate_data(cfg)
    assert abs(ds.Y.mean()) <= 5.0 / math.sqrt(cfg.n)


def test_generate_data_seed_replay():
    cfg = RegressionConfig(n=64, d=2, target=AnalyticTarget("z", 2, lambda p: p.sum(1)), noise_sd=0.3, seed=9)
    a = generate_data(cfg)
    b = generate_data(cfg)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)


# ---------------------------------------------------------------------------
# gradients


def test_penalty_gradient_matches_central_differences(rng):
    for _ in range(100):
        arch = [int(w) for w in rng.integers(1, 5, size=int(rng.integers(2, 5)))]
        ws = [rng.uniform(-1, 1, (arch[i + 1], arch[i])) for i in range(len(arch) - 1)]
        # keep entries away from zero where |.| is not differentiable
        ws = [np.where(np.abs(w) < 1e-2, np.sign(w + 1e-30) * 1e-2 + (w == 0) * 1e-2, w) for w in ws]
        grads = path_norm_grads(ws, *_path_norm_prefix(ws)[1:])
        i = int(rng.integers(0, len(ws)))
        a = int(rng.integers(0, ws[i].shape[0]))
        b = int(rng.integers(0, ws[i].shape[1]))
        h = 1e-6
        wp = [w.copy() for w in ws]
        wm = [w.copy() for w in ws]
        wp[i][a, b] += h
        wm[i][a, b] -= h
        fd = (_path_norm_prefix(wp)[0] - _path_norm_prefix(wm)[0]) / (2 * h)
        if abs(fd) > 1e-8:
            assert grads[i][a, b] == pytest.approx(fd, rel=1e-4)


def test_risk_gradient_matches_central_differences(rng):
    for _ in range(40):
        arch = (2, 3, 2, 1)
        ws = [rng.uniform(-1, 1, (arch[i + 1], arch[i])) for i in range(len(arch) - 1)]
        x = rng.uniform(0, 1, (16, 1))
        xa = with_ones(x)
        y = rng.normal(size=16)
        acts, pres, res, _, _ = _objective(ws, xa, y, 0.0)[3]
        # skip configurations with pre-activations near the kink
        if min(np.abs(p).min() for p in pres[:-1]) < 1e-6:
            continue
        grads = _risk_grads(ws, acts, pres, res)
        i = int(rng.integers(0, len(ws)))
        a = int(rng.integers(0, ws[i].shape[0]))
        b = int(rng.integers(0, ws[i].shape[1]))
        h = 1e-6
        wp = [w.copy() for w in ws]
        wm = [w.copy() for w in ws]
        wp[i][a, b] += h
        wm[i][a, b] -= h
        fd = (_objective(wp, xa, y, 0.0)[1] - _objective(wm, xa, y, 0.0)[1]) / (2 * h)
        if abs(fd) > 1e-7:
            assert grads[i][a, b] == pytest.approx(fd, rel=1e-4)


# ---------------------------------------------------------------------------
# fitting


def test_fit_l0_recovers_least_squares():
    cfg = RegressionConfig(
        n=64, d=1, target=_linear_target(), noise_sd=0.0, widths=(), lam=0.0,
        max_epochs=3000, seed=1,
    )
    net, rep = fit(cfg, generate_data(cfg))
    assert rep.risk <= 1e-6
    assert rep.objective == pytest.approx(rep.risk + rep.penalty)


def test_zero_hidden_width_rejected():
    # a width of 0 used to reach the weight initialisation and divide by zero
    for widths in ((0,), (8, 0)):
        with pytest.raises(ValueError, match="widths"):
            cfg = RegressionConfig(n=16, d=1, target=_linear_target(), widths=widths, lam=0.0)
            fit(cfg, generate_data(cfg))


@pytest.mark.parametrize(
    "field,value",
    [
        ("lam", -5.0),
        ("lam", float("nan")),
        ("lam", float("inf")),
        ("lam", "bogus"),
        ("lambda_scale", -1.0),
        ("lambda_scale", float("nan")),
        ("noise_sd", -0.1),
        ("noise_sd", float("inf")),
        ("max_epochs", -1),
        ("n", 1),
        ("n", 0),
        ("n", -3),
        ("seed", -1),
        ("d", 0),
        ("d", -1),
        ("d", 2),
    ],
)
def test_config_rejects_nonsense_penalty_and_budget(field, value):
    # a negative lam or lambda_scale made the penalty reward path norm, and
    # n < 2 failed later inside fit or generate_data, as a negative seed did inside numpy; a d
    # other than the 1-d target's failed in generate_data, d = -1 in numpy
    with pytest.raises(ValueError, match=field):
        RegressionConfig(**{"n": 16, "d": 1, "target": _linear_target(), field: value})


def _nan_at(a, i):
    a = a.copy()
    a[i] = np.nan
    return a


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda x, y: (_nan_at(x, (3, 0)), y), "X has entries that are not finite"),
        (lambda x, y: (x, _nan_at(y, 5)), "Y has entries that are not finite"),
        (lambda x, y: (x, y[:10]), r"Y has shape \(10,\)"),
        (lambda x, y: (np.column_stack([x, x]), y), r"X has shape \(64, 2\)"),
        (lambda x, y: (x, y[:, None]), r"Y has shape \(64, 1\)"),
        (lambda x, y: (x[:32], y[:32]), r"X has shape \(32, 1\)"),
    ],
    ids=["nan-in-X", "nan-in-Y", "Y-of-10-rows", "X-of-2-columns", "Y-of-shape-n-1", "32-points-under-n-64"],
)
def test_fit_rejects_malformed_datasets(make, match):
    # a NaN used to give a NaN objective reported as converged after 0
    # epochs, a short dataset a fit with the lambda and remainder of n, and
    # the wrong shapes numpy broadcast, matmul or type errors
    cfg = RegressionConfig(n=64, d=1, target=_linear_target(), noise_sd=0.1, widths=(4,), max_epochs=5)
    ds = generate_data(cfg)
    with pytest.raises(ValueError, match=match):
        fit(cfg, Dataset(*make(ds.X, ds.Y)))


def test_fit_huge_lambda_crushes_path_norm():
    cfg = RegressionConfig(
        n=64, d=1, target=_linear_target(), noise_sd=0.0, widths=(4,), lam=1e6,
        max_epochs=1500, seed=1,
    )
    _, rep = fit(cfg, generate_data(cfg))
    assert rep.path_norm <= 1e-3


def test_fit_beats_constant_predictor_on_square():
    # lambda "auto" with the default scale c=1 is ~97 at n=512, which crushes
    # the fit to a near-zero predictor; the exposed scale constant is used
    # (see decisions ledger), exercising the same auto formula
    cfg = RegressionConfig(
        n=512, d=1, target=_square_target(), noise_sd=0.0, widths=(8, 8, 8),
        lam="auto", lambda_scale=1e-4, max_epochs=1500, seed=2,
    )
    ds = generate_data(cfg)
    net, rep = fit(cfg, ds)
    best_const_mse = float(np.var(ds.Y))
    assert rep.holdout_mse < best_const_mse


def test_fit_report_objective_identity(rng):
    cfg = RegressionConfig(
        n=32, d=1, target=_square_target(), noise_sd=0.1, widths=(4,), lam=0.01,
        max_epochs=200, seed=3,
    )
    _, rep = fit(cfg, generate_data(cfg))
    assert rep.objective == pytest.approx(rep.risk + rep.penalty, rel=1e-12)


def test_fit_lambda_path_monotone():
    pns = []
    for lam in (0.0, 0.003, 0.03, 0.3, 3.0):
        cfg = RegressionConfig(
            n=64, d=1, target=_square_target(), noise_sd=0.0, widths=(4, 4),
            lam=lam, max_epochs=1500, seed=3,
        )
        _, rep = fit(cfg, generate_data(cfg))
        pns.append(rep.path_norm)
    for a, b in zip(pns, pns[1:]):
        assert b <= a + 1e-12


def _reference_fit(config, dataset):
    """The fit loop written per layer on point-major (n, width) activations:
    a list of weight matrices, a gradient per layer and every step taken
    matrix by matrix.  Returns (epochs, objective, risk, path norm)."""
    rng = np.random.default_rng(config.seed)
    arch = config.architecture
    weights = []
    for i in range(len(arch) - 1):
        s = 1.0 / math.sqrt(arch[i])
        weights.append(rng.uniform(-s, s, size=(arch[i + 1], arch[i])))
    lam = _lambda(config, arch)
    xa = with_ones(dataset.X)
    y = np.asarray(dataset.Y, dtype=np.float64)

    def objective(ws):
        acts, pres, cur = [xa], [], xa
        for i, w in enumerate(ws):
            pres.append(cur @ w.T)
            if i < len(ws) - 1:
                cur = np.abs(pres[-1])
                acts.append(cur)
        res = pres[-1][:, 0] - y
        risk = float(res @ res / len(y))
        absw = [np.abs(w) for w in ws]
        v = [np.ones(arch[0])]
        for a in absw[:-1]:
            v.append(a @ v[-1])
        pn = float(np.sum(absw[-1] @ v[-1]))
        return risk + lam * pn, risk, pn, (acts, pres, res, absw, v)

    def grads(ws, acts, pres, res, absw, v):
        out = [None] * len(ws)
        delta = (2.0 / len(res)) * res[:, None]
        for i in range(len(ws) - 1, -1, -1):
            out[i] = delta.T @ acts[i]
            if i > 0:
                delta = (delta @ ws[i]) * np.sign(pres[i - 1])
        u = [np.ones(1)]
        for a in reversed(absw[1:]):
            u.insert(0, a.T @ u[0])
        for i, w in enumerate(ws):
            out[i] += lam * (np.sign(w) * np.outer(u[i], v[i]))
        return out

    obj, risk, pn, inputs = objective(weights)
    lr, epochs = LEARNING_RATE, 0
    for _ in range(config.max_epochs):
        gs = grads(weights, *inputs)
        if sum(float(np.sum(g * g)) for g in gs) == 0.0:
            break
        trial_lr = lr
        for _ in range(60):
            cand = [w - trial_lr * g for w, g in zip(weights, gs)]
            cand_obj, cand_risk, cand_pn, cand_inputs = objective(cand)
            if cand_obj <= obj:
                break
            trial_lr *= 0.5
        else:
            break
        improvement = obj - cand_obj
        weights, obj, risk, pn, inputs = cand, cand_obj, cand_risk, cand_pn, cand_inputs
        lr = trial_lr * 2.0
        epochs += 1
        if improvement < 1e-10 * max(abs(obj), 1e-300):
            break
    return epochs, obj, risk, pn


@pytest.mark.parametrize(
    "target,d,widths,lam,scale",
    [
        ("inv2mx", 1, (8, 8), 1e-4, 1.0),
        ("exp-sum", 2, (8, 8), 1e-3, 1.0),
        ("inv2mx", 1, (), 1e-4, 1.0),
        ("exp-sum", 2, (8, 8), "auto", 1e-4),
    ],
)
def test_fit_matches_per_layer_point_major_reference(target, d, widths, lam, scale):
    # fit runs on one flat parameter vector with feature-major activations;
    # it must take the reference's steps: the same epochs, and the
    # objective, risk and path norm up to the summation order of the products
    cfg = RegressionConfig(
        n=256, d=d, target=builtin_target(target, d), noise_sd=0.1, widths=widths,
        lam=lam, lambda_scale=scale, max_epochs=400, seed=0,
    )
    ds = generate_data(cfg)
    _, rep = fit(cfg, ds)
    epochs, obj, risk, pn = _reference_fit(cfg, ds)
    assert rep.epochs == epochs > 0
    assert rep.objective == pytest.approx(obj, rel=1e-12, abs=0)
    assert rep.risk == pytest.approx(risk, rel=1e-12, abs=0)
    assert rep.path_norm == pytest.approx(pn, rel=1e-12, abs=0)


REGRESS_FITS = [
    ("inv2mx", 1, 128, "auto"),
    ("inv2mx", 1, 256, "auto"),
    ("inv2mx", 1, 512, "auto"),
    ("inv2mx", 1, 1024, "auto"),
    ("inv2mx", 1, 1024, 1e-4),
    ("exp-sum", 2, 1024, 1e-3),
]


def _theta(net):
    return np.concatenate([w.ravel() for w in net.weights])


def _assert_fit_is(net, rep, expected):
    epochs, obj, risk, pn, theta, converged = expected
    assert (rep.epochs, rep.converged) == (epochs, converged)
    assert (rep.objective, rep.risk, rep.path_norm) == (obj, risk, pn)
    assert np.array_equal(_theta(net), theta)


@pytest.mark.parametrize("target,d,n,lam", REGRESS_FITS)
def test_fit_is_bit_identical_to_the_matmul_loop(target, d, n, lam):
    # fit forms the products of inner dimension 1 and the |W| mat-vecs
    # through np.dot (BLAS), the oracle by broadcast multiplies and np.matmul:
    # the same rounded products, so fit takes its steps exactly.  The
    # benchmark's regress fits, capped at 300 epochs
    cfg = RegressionConfig(
        n=n, d=d, target=builtin_target(target, d), noise_sd=0.1, widths=(8, 8),
        lam=lam, max_epochs=300, seed=0,
    )
    ds = generate_data(cfg)
    net, rep = fit(cfg, ds)
    assert rep.epochs > 0
    _assert_fit_is(net, rep, matmul_fit(cfg, ds))


def test_fit_calls_objective_and_path_norm_grads_through_the_module(monkeypatch):
    # the benchmark's tracer patches these two module attributes to count
    # objective evaluations per epoch and gradient calls; fit must look them up
    calls = {"_objective": 0, "path_norm_grads": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(regression, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(regression, name, counted)
    for max_epochs in (30, 2000):  # stopped by the budget, then converged
        calls.update(_objective=0, path_norm_grads=0)
        cfg = RegressionConfig(
            n=128, d=1, target=builtin_target("inv2mx", 1), noise_sd=0.1, widths=(8, 8),
            max_epochs=max_epochs, seed=0,
        )
        _, rep = fit(cfg, generate_data(cfg))
        assert 0 < rep.epochs <= max_epochs
        assert calls["_objective"] >= rep.epochs + 1
        assert calls["path_norm_grads"] in (rep.epochs, rep.epochs + 1)


def test_interleaved_fits_share_no_state():
    # a fit keeps no state between calls: fits of other n, d and widths (no
    # hidden layer included), or of the same shapes on other data, run in
    # between must not change any fit's result
    cfgs = [
        RegressionConfig(n=64, d=1, target=builtin_target("inv2mx", 1), noise_sd=0.1, widths=(4,),
                         lam=1e-3, max_epochs=100, seed=1),
        RegressionConfig(n=200, d=2, target=builtin_target("exp-sum", 2), noise_sd=0.1, widths=(8, 3),
                         lam=1e-3, max_epochs=100, seed=2),
        RegressionConfig(n=32, d=1, target=_square_target(), noise_sd=0.1, widths=(),
                         lam=1e-4, max_epochs=100, seed=3),
    ]
    # the first fit's shapes and n on other data
    cfgs.append(dataclasses.replace(cfgs[0], seed=4))
    data = [generate_data(c) for c in cfgs]
    alone = [matmul_fit(c, ds) for c, ds in zip(cfgs, data)]
    reports = {}
    for k in (0, 1, 2, 3, 0, 2, 1, 3, 1, 0):
        net, rep = fit(cfgs[k], data[k])
        _assert_fit_is(net, rep, alone[k])
        assert reports.setdefault(k, rep.to_dict()) == rep.to_dict()


# ---------------------------------------------------------------------------
# oracle RHS


def test_oracle_rhs_zero_for_representable_target():
    from nnapprox import Network, ABS

    f0 = _linear_target()
    cand = Network(ABS, [np.array([[1.0, 2.0]])])  # exactly f0 on (1, x)
    cfg = RegressionConfig(n=128, d=1, target=f0, lam=0.0)
    terms = oracle_rhs(cfg, cand)
    assert terms.mc_error == pytest.approx(0.0, abs=1e-24) and terms.penalty == 0.0
    # no hidden layer, so the remainder C sum_i p_i log2(n)^3 / n is 0 too
    assert terms.remainder == 0.0 and terms.rhs == pytest.approx(0.0, abs=1e-24)


def test_oracle_rhs_remainder_is_the_exact_term():
    f0 = _square_target()
    cfg = RegressionConfig(n=128, d=1, target=f0, lam=0.1, widths=(4, 4))
    from nnapprox import Network, ABS

    rng = np.random.default_rng(0)
    for hidden in ((4, 4), (8, 8), (3,)):
        p = (2, *hidden, 1)
        cand = Network(ABS, [rng.uniform(-1, 1, (p[i + 1], p[i])) for i in range(len(p) - 1)])
        remainder = oracle_rhs(cfg, cand).remainder
        assert remainder == ORACLE_C * sum(hidden) * math.log2(128) ** 3 / 128
        assert remainder == pytest.approx(sum(hidden) * 343 / 128)  # C = 1


def test_oracle_rhs_finite_for_plugin(rng):
    from nnapprox import build_cheb_net

    f0 = target_inv_two_minus_x()
    net, _ = build_cheb_net(f0, 1.0 / 128, "rescaled", measure_grid=2)
    cfg = RegressionConfig(n=128, d=1, target=f0, widths=tuple(net.widths[1:-1]), lam="auto", seed=0)
    val = oracle_rhs(cfg, net).rhs
    assert np.isfinite(val) and val > 0


def test_oracle_rhs_sums_its_terms():
    f0 = _square_target()
    cfg = RegressionConfig(n=128, d=1, target=f0, lam=0.1, widths=(4, 4))
    from nnapprox import Network, ABS, path_norm

    rng = np.random.default_rng(1)
    cand = Network(ABS, [rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (1, 4))])
    terms = oracle_rhs(cfg, cand)
    assert terms.penalty == 0.1 * path_norm(cand)
    assert terms.remainder == ORACLE_C * 8 * math.log2(128) ** 3 / 128
    assert terms.rhs == 2.0 * (terms.mc_error + terms.penalty) + terms.remainder


def test_fit_report_carries_oracle_terms():
    cfg = RegressionConfig(n=64, d=1, target=_square_target(), noise_sd=0.1, widths=(4,), lam=0.01, max_epochs=50)
    net, rep = fit(cfg, generate_data(cfg))
    terms = oracle_rhs(cfg, net)
    assert (rep.oracle_mc_error, rep.oracle_penalty, rep.oracle_remainder) == tuple(terms)
    assert rep.oracle_rhs == terms.rhs


def test_fit_rejects_overflowing_trial_steps_without_warning(monkeypatch):
    # at a first step of 1e250 every trial overflows, even after the line
    # search's 60 halvings; an inf or NaN objective is a rejected step, and
    # the overflow must not warn (warnings are errors under pytest)
    cfg = RegressionConfig(
        n=64, d=1, target=target_inv_two_minus_x(), noise_sd=0.1, widths=(8, 8), lam=1e-3, max_epochs=50,
    )
    ds = generate_data(cfg)
    _, start = fit(dataclasses.replace(cfg, max_epochs=0), ds)
    monkeypatch.setattr(regression, "LEARNING_RATE", 1e250)
    _, rep = fit(cfg, ds)
    assert rep.converged and rep.epochs == 0
    assert rep.objective == start.objective
