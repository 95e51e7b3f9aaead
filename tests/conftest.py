import math
import warnings

import numpy as np
import pytest

pytest_plugins = ["pytester"]

# hypothesis's pytest plugin imports hypothesis.extra._patching when a @given
# test fails, and through it libcst, whose import raises a DeprecationWarning
# (mypy_extensions.TypedDict).  Under filterwarnings = error that warning,
# raised inside a report hook, aborts the session after the first failing
# property test and hides every later failure.  Importing the module once
# here, with only DeprecationWarning ignored and only for this import, lets
# the hook find it loaded; every other warning stays an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips its patch output too
        pass


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


# ---------------------------------------------------------------------------
# closed-form oracles of the constructions and the entropy bound


def tent(x):
    """Unit tent wave 1 - 2|x - 1/2|; total on R, triangle on [0,1]."""
    return 1.0 - 2.0 * np.abs(np.asarray(x, dtype=np.float64) - 0.5)


def tent_iter(s, x):
    """s-fold composition of the tent wave (2^s teeth on [0,1])."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    y = np.asarray(x, dtype=np.float64)
    for _ in range(s):
        y = tent(y)
    return y


def fm_ref(m, x):
    """Closed-form f_m(x) = x - sum_{s=1..m} g_s(x)/4^s.

    On [0,1] this is the piecewise-linear interpolant of x^2 at step 2^-m
    and the exact value computed by build_sq(m)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    y = np.asarray(x, dtype=np.float64)
    total = y.copy()
    g = y
    for s in range(1, m + 1):
        g = tent(g)
        total -= g / 4.0**s
    return total if total.ndim else float(total)


def sq_path_row(m):
    """Closed form of |S|...|A2| for the squaring chain."""
    a = sum((2.0 ** (k + 1) - 2.0) / 4.0**k for k in range(1, m + 1))
    return np.array([a, 2.0 - 2.0**-m])


def mult_path_row(m):
    """Closed form of the 1x3 path matrix of the literal Mult network."""
    a = 3.0 * sum((2.0**k - 1.0) / 4.0**k for k in range(1, m + 1))
    b = 2.0 - 2.0**-m
    return np.array([a, b, b])


def linear_bound(b, r, eps, d):
    """Oracle: the entropy bound ceil(b^2 r^2 / eps^2) log2(2d + 1) of linear
    functionals with |w|_1 <= b on [-r, r]^d, which network_bound must give
    at L = 0."""
    return math.ceil(b * b * r * r / (eps * eps)) * math.log2(2 * d + 1)
