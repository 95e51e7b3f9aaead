"""Exact builders for the squaring, multiplication, product-tree and
all-monomials networks, plus their closed-form reference oracles.

Everything here uses the absolute-value activation.  The squaring chain
realizes f_m(x) = x - sum_s g_s(x)/4^s where g is the unit tent wave
g(x) = 1 - 2|x - 1/2| and g_s its s-fold composition; f_m equals the
piecewise-linear interpolant of x^2 on the dyadic grid of step 2^-m, so
|f_m(x) - x^2| <= 2^(-2m-2) on [0,1].

Multiplication comes in two variants:

* LITERAL wires xy = ((x+y)^2 - x^2 - y^2)/2 verbatim.  The squaring
  chain is only a square approximation on [0,1], so the bound holds on
  {x, y >= 0, x + y <= 1} and product trees are certified on [0, 1/2]^r.
* RESCALED wires xy = 2((x+y)/2)^2 - x^2/2 - y^2/2, keeping every squared
  argument in [0,1]; the bound holds on all of [0,1]^2 ([0,1]^r for trees)
  at the cost of a factor 2 in the error constant.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .network import ABS, MAX_DECODED_WIDTH, Network, parallel, path_matrix


class MultVariant(Enum):
    LITERAL = "literal"
    RESCALED = "rescaled"

    @property
    def edge(self):
        """Edge of the cube [0, edge]^r on which product trees and monomial
        networks of this variant are certified."""
        return 0.5 if self is MultVariant.LITERAL else 1.0


LITERAL = MultVariant.LITERAL
RESCALED = MultVariant.RESCALED


# ---------------------------------------------------------------------------
# closed-form oracles


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


def sq_error_bound(m):
    return 2.0 ** (-2 * m - 2)


def mult_error_bound(m, variant):
    variant = MultVariant(variant)
    if variant is LITERAL:
        return 3.0 * 2.0 ** (-2 * m - 3)
    return 3.0 * 2.0 ** (-2 * m - 2)


def multr_error_bound(m, r, variant):
    variant = MultVariant(variant)
    if variant is LITERAL:
        return r * r * 4.0**-m
    return 3.0 * r * r * 4.0**-m


def mon_error_bound(m, gamma, variant):
    """multr_error_bound(m, gamma, variant): every monomial of build_mon(m,
    gamma, d) is a product tree with fewer than gamma factors."""
    return multr_error_bound(m, gamma, variant)


def sq_path_row(m):
    """Closed form of |S|...|A2| for the squaring chain."""
    a = sum((2.0 ** (k + 1) - 2.0) / 4.0**k for k in range(1, m + 1))
    return np.array([a, 2.0 - 2.0**-m])


def mult_path_row(m):
    """Closed form of the 1x3 path matrix of the literal Mult network."""
    a = 3.0 * sum((2.0**k - 1.0) / 4.0**k for k in range(1, m + 1))
    b = 2.0 - 2.0**-m
    return np.array([a, b, b])


# ---------------------------------------------------------------------------
# squaring network


def _sq_matrices(m):
    """Chain [A_1, B_1, A_2, B_2, ..., A_m, B_m, S] on the three channels
    (1, f_s, g_s), where f_s = f_{s-1} - g_s/4^s is the running sum (f_0 = x)
    and g_s the s-th tent iterate.

    A_1 maps (1, x) to (1, x, x - 1/2); each later A_s replaces g by
    g - 1/2.  B_s turns |g - 1/2| into g_s = 1 - 2|g - 1/2| and adds -g_s/4^s
    to the running sum; S reads off f_m.  On [0,1] every f_s is the dyadic
    interpolant of x^2, so f_s >= 0 passes the abs activation unchanged.
    """
    a1 = np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, 1.0]])
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.5, 0.0, 1.0]])
    mats = []
    for s in range(1, m + 1):
        q = 4.0**-s
        mats += [a1 if s == 1 else a, np.array([[1.0, 0.0, 0.0], [-q, 1.0, 2.0 * q], [1.0, 0.0, -2.0]])]
    return mats + [np.array([[0.0, 1.0, 0.0]])]


def build_sq(m):
    """Network mapping (1, x) to f_m(x); equals fm_ref exactly on [0,1]."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    mats = _sq_matrices(m)
    net = Network(
        ABS,
        mats,
        meta={
            "construction": "sq",
            "m": m,
            "input": "(1, x)",
            "claimed_error_bound": sq_error_bound(m),
            "claimed_domain": "x in [0,1]",
        },
    )
    assert net.max_width == 3
    return net


# ---------------------------------------------------------------------------
# multiplication network


def build_mult(m, variant=RESCALED):
    """Network mapping (1, x, y) to an approximation of xy.

    The first matrix forms (1, x, 1, y, 1, z) with z = x+y (literal) or
    z = (x+y)/2 (rescaled); the layers of parallel() on three squaring
    chains follow, and the output row combines them into the polarization
    identity for xy.  One build_sq net serves all three chains, so they
    share its blocks.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    variant = MultVariant(variant)
    lit = variant is LITERAL
    c = np.zeros((6, 3))
    c[0, 0] = 1.0
    c[1, 1] = 1.0
    c[2, 0] = 1.0
    c[3, 2] = 1.0
    c[4, 0] = 1.0
    c[5, 1] = c[5, 2] = 1.0 if lit else 0.5
    out = np.array([[-0.5, -0.5, 0.5 if lit else 2.0]])
    net = Network(
        ABS,
        [c, *parallel([build_sq(m)] * 3).layers, out],
        meta={
            "construction": "mult",
            "m": m,
            "variant": variant.value,
            "input": "(1, x, y)",
            "claimed_error_bound": mult_error_bound(m, variant),
            "claimed_domain": "x,y>=0 and x+y<=1" if lit else "[0,1]^2",
        },
    )
    assert net.max_width == 9
    assert net.depth <= 2 * m + 3
    return net


# ---------------------------------------------------------------------------
# pairing levels and the shared product DAG


def _level(mult, chans, prods, carries):
    """One pairing level: (1, x_1..x_chans) -> (1, x_i x_j for (i, j) in prods,
    x_c for c in carries).

    Its first matrix selects a (1, x_i, x_j) triple per product and then the
    carried channels; the rest is the parallel stack of the constant, the
    Mult net once per product and one 1x1 identity net per carried channel.
    The products share the Mult net's read-only blocks and the channels one
    identity block, so each layer holds one run of every Mult block and one
    run for the carried channels.  parallel pads the constant and the
    carried channels with identity layers (values in [0,1] survive the abs
    activation unchanged).
    """
    t = np.eye(1 + chans)[[0, *(c for i, j in prods for c in (0, i, j)), *carries]]
    one = Network(ABS, [np.eye(1)])
    return [t, *parallel([one] + [mult] * len(prods) + [one] * len(carries)).layers]


def _product_layers(m, variant, n_in, factor_lists):
    """Layers mapping (1, x_1..x_n_in) to the product of the x_i over each
    list of channels i (an empty list gives the constant 1).

    Each list gets the multr tree: round h pairs neighbouring factors and
    carries an odd last one up.  A pair formed in round h has height h (its
    left factor is a pair from round h - 1), so the trees share one DAG
    keyed by nested pair structure: each distinct product is computed once,
    at the level equal to its height, and carried until its last use.  A
    0/1 row per list reads off its root.
    """
    roots, heights = [], {}  # first-seen order: each level's pairs run left to right
    for factors in factor_lists:
        nodes, h = list(factors) or [0], 0
        while len(nodes) > 1:
            h += 1
            pairs = list(zip(nodes[::2], nodes[1::2]))
            heights.update(dict.fromkeys(pairs, h))
            nodes = pairs + nodes[2 * len(pairs) :]
        roots.append(nodes[0])
    mult = build_mult(m, variant)
    chans, layers = list(range(n_in + 1)), []
    for h in range(1, max(heights.values(), default=0) + 1):
        prods = [n for n, hn in heights.items() if hn == h]
        later = set(roots) | {c for n, hn in heights.items() if hn > h for c in n}
        carries = [c for c in chans[1:] if c in later]
        pos = {c: i for i, c in enumerate(chans)}
        pairs = [(pos[a], pos[b]) for a, b in prods]
        layers += _level(mult, len(chans) - 1, pairs, [pos[c] for c in carries])
        chans = [0] + prods + carries
    pos = {c: i for i, c in enumerate(chans)}
    return layers + [np.eye(len(chans))[[pos[r] for r in roots]]]


def build_pairing_layer(m, k, variant=RESCALED):
    """Network mapping (1, x_1, ..., x_2k) to (1, ~x1x2, ..., ~x_{2k-1}x_{2k})."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive integers")
    variant = MultVariant(variant)
    net = Network(
        ABS,
        _level(build_mult(m, variant), 2 * k, [(2 * l + 1, 2 * l + 2) for l in range(k)], []),
        meta={
            "construction": "pairing",
            "m": m,
            "k": k,
            "variant": variant.value,
        },
    )
    assert len(net.layers) == 2 * m + 4
    assert net.out_dim == k + 1
    return net


def build_multr(m, r, variant=RESCALED):
    """Network mapping (1, x_1, ..., x_r) to an approximation of prod x_i.

    Pairing levels halve the factor count until one product remains; an odd
    factor at any level is carried by identity rows instead of being paired
    with a constant, which keeps every multiplication inside the variant's
    valid domain.  The final row selects the product channel.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    if m < 1:
        raise ValueError("m must be a positive integer")
    variant = MultVariant(variant)
    layers = _product_layers(m, variant, r, [range(1, r + 1)])
    q = math.ceil(math.log2(r))
    assert len(layers) == q * (2 * m + 4) + 1
    net = Network(
        ABS,
        layers,
        meta={
            "construction": "multr",
            "m": m,
            "r": r,
            "variant": variant.value,
            "input": f"(1, x_1..x_{r})",
            "claimed_error_bound": multr_error_bound(m, r, variant),
            "claimed_domain": f"[0,{variant.edge:g}]^{r}",
        },
    )
    assert net.depth <= (2 * m + 5) * q + 1
    assert net.max_width <= 6 * r * (m + 2) + 1
    pmax = float(np.max(path_matrix(net)))
    if variant is LITERAL:
        assert pmax <= 144.0 * r**4
    else:
        assert pmax <= 2304.0 * r**5
    return net


# ---------------------------------------------------------------------------
# multi-index enumeration and the all-monomials network


def _compositions(d, total):
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(d - 1, total - first):
            yield (first,) + rest


def enumerate_multi_indices(d, gamma):
    """All multi-indices k with |k|_1 < gamma in graded lexicographic order.

    More than network.MAX_DECODED_WIDTH of them is a ValueError, raised
    before any list is built: the monomial network would be wider than the
    decoder reads, and the list alone could exhaust memory."""
    if d < 1 or gamma < 1:
        raise ValueError("d and gamma must be positive integers")
    count = count_monomials(d, gamma)
    if count > MAX_DECODED_WIDTH:
        raise ValueError(
            f"{count} monomials of degree < {gamma} in d = {d} variables: more than the "
            f"{MAX_DECODED_WIDTH} outputs a network may have"
        )
    out = []
    for total in range(gamma):
        out.extend(_compositions(d, total))
    return out


def count_monomials(d, gamma):
    """C_{d,gamma}: how many d-variate monomials have degree < gamma."""
    return math.comb(gamma - 1 + d, d)


def mon_depth_bound(m, gamma):
    """Claimed depth of build_mon(m, gamma, d): ceil(log2 gamma)(2m + 5) + 2."""
    return math.ceil(math.log2(gamma)) * (2 * m + 5) + 2


def mon_width_bound(m, gamma, d):
    """Claimed max width of build_mon(m, gamma, d): 6 gamma (m + 2) C_{d,gamma},
    the width of one product tree per monomial; the shared product DAG is
    far narrower."""
    return 6 * gamma * (m + 2) * count_monomials(d, gamma)


def build_mon(m, gamma, d, variant=RESCALED):
    """Network mapping (1, x) to all monomials x^k with |k|_1 < gamma.

    Output channels follow enumerate_multi_indices(d, gamma).  x^k is the
    multr product tree over its factors (x_1 k_1 times, then x_2, ...); the
    trees share their common subproducts, so each distinct product is
    computed once, and the constant and degree-1 channels ride through on
    identity blocks.
    """
    if m < 1 or d < 1 or gamma < 2:
        raise ValueError("need m >= 1, d >= 1, gamma >= 2")
    variant = MultVariant(variant)
    indices = enumerate_multi_indices(d, gamma)
    factor_lists = [[1 + axis for axis, count in enumerate(k) for _ in range(count)] for k in indices]
    meta = {
        "construction": "mon",
        "m": m,
        "gamma": gamma,
        "d": d,
        "variant": variant.value,
        "input": f"(1, x_1..x_{d})",
        "n_outputs": len(indices),
        "claimed_error_bound": mon_error_bound(m, gamma, variant),
        "claimed_domain": f"[0,{variant.edge:g}]^{d}",
    }
    net = Network(ABS, _product_layers(m, variant, d, factor_lists), meta=meta)

    assert net.depth <= mon_depth_bound(m, gamma)
    assert net.max_width <= mon_width_bound(m, gamma, d)
    pmax = float(np.max(path_matrix(net)))
    if variant is LITERAL:
        assert pmax <= 144.0 * (gamma + 1) ** 5
    else:
        assert pmax <= 2304.0 * (gamma + 1) ** 6
    return net

