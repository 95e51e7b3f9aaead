import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_dense_net(rng, activation, n_layers=None, max_width=5, scale=1.0):
    """Random dense network with chained shapes."""
    from nnapprox import Network

    if n_layers is None:
        n_layers = int(rng.integers(1, 5))
    widths = [int(w) for w in rng.integers(1, max_width + 1, size=n_layers + 1)]
    ws = [
        rng.uniform(-scale, scale, size=(widths[i + 1], widths[i]))
        for i in range(n_layers)
    ]
    return Network(activation, ws)


def dense_path_matrix(net):
    """Oracle: the product of the dense |W| matrices."""
    p = np.eye(net.in_dim)
    for w in net.weights:
        p = np.abs(w) @ p
    return p
