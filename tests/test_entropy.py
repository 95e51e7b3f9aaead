import math

import numpy as np
import pytest

from nnapprox import (
    ABS,
    IDENTITY,
    RELU,
    EntropyBoundSpec,
    Network,
    SamplerViolation,
    empirical_covering,
    empirical_vs_bound,
    general_activation,
    linear_bound,
    network_bound,
    path_norm,
    sample_network,
)


def test_linear_bound_example():
    assert linear_bound(1, 1, 1, 1) == pytest.approx(math.log2(3))


def test_linear_bound_ceiling_floor():
    # eps >= b r makes the ceiling 1
    for eps in (1.0, 2.0, 5.0):
        assert linear_bound(1, 1, eps, 3) == math.log2(7)


def test_linear_bound_b_doubling_quadruples_ceiling_argument():
    b, r, eps = 1.3, 0.7, 0.11
    assert (2 * b) ** 2 * r**2 / eps**2 == pytest.approx(4 * b**2 * r**2 / eps**2)
    assert linear_bound(2 * b, r, eps, 2) >= linear_bound(b, r, eps, 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        EntropyBoundSpec(eps=1.0, L=1, p=(1, 2), B=1.0, r=1.0, n=4)
    with pytest.raises(ValueError):
        EntropyBoundSpec(eps=-1.0, L=0, p=(1, 1), B=1.0, r=1.0, n=4)
    for bad in ({"eps": math.nan}, {"B": math.inf}, {"r": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            EntropyBoundSpec(**{"eps": 1.0, "L": 0, "p": (1, 1), "B": 1.0, "r": 1.0, "n": 4, **bad})


def test_bound_outside_float_range_is_value_error():
    # B^2 r^2 / eps^2 overflows, or eps^2 underflows to 0
    for b, eps in ((1e200, 1.0), (1.0, 1e-300)):
        with pytest.raises(ValueError, match="finite"):
            linear_bound(b, 1.0, eps, 1)
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
    cover = empirical_covering(sampler, pts, eps=1e9, trials=100)
    assert cover.size == 1


def test_empirical_covering_constant_zero_class(rng):
    pts = rng.uniform(-1, 1, (8, 2))
    zero = Network(ABS, [np.zeros((1, 2))])
    cover = empirical_covering(lambda: zero, pts, eps=0.01, trials=50)
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
        cover = empirical_covering(lambda: next(it), pts, eps=eps, trials=200)
        sizes.append(cover.size)
    assert sizes == sorted(sizes, reverse=True)


def test_relu_and_identity_classes_also_under_bound():
    for act in (RELU, IDENTITY):
        spec = EntropyBoundSpec(eps=0.4, L=2, p=(2, 2, 2, 1), B=1.2, r=1.0, n=12)
        cover, bound, _ = empirical_vs_bound(spec, activation=act, trials=1500, seed=3)
        assert cover.log2_size <= bound
