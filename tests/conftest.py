import numpy as np
import pytest


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


def random_block_net(rng, activation, n_layers=None, in_dim=None, max_blocks=3, max_width=4):
    """Random network whose layers hold 1..max_blocks blocks with chained shapes."""
    from nnapprox import BlockDiagonal, Network

    if n_layers is None:
        n_layers = int(rng.integers(1, 5))
    width = in_dim or int(rng.integers(1, max_blocks * max_width + 1))
    layers = []
    for _ in range(n_layers):
        k = int(rng.integers(1, min(max_blocks, width) + 1))
        cuts = np.sort(rng.choice(np.arange(1, width), size=k - 1, replace=False))
        cols = np.diff(np.concatenate([[0], cuts, [width]]))
        rows = rng.integers(1, max_width + 1, size=k)
        layers.append(BlockDiagonal([rng.uniform(-1, 1, (r, c)) for r, c in zip(rows, cols)]))
        width = int(rows.sum())
    return Network(activation, layers)


def dense_chain(net, x):
    """Oracle: the plain matrix chain over net.weights, activation s(x) * x."""
    cur = np.asarray(x, dtype=np.float64)
    ws = net.weights
    for i, w in enumerate(ws):
        cur = cur @ w.T
        if i < len(ws) - 1:
            cur = net.activation.selector(cur) * cur
    return cur


def dense_path_matrix(net):
    """Oracle: the product of the dense |W| matrices."""
    p = np.eye(net.in_dim)
    for w in net.weights:
        p = np.abs(w) @ p
    return p
