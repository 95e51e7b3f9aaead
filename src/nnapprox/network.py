"""Networks as chains of dense matrices with an element-wise activation.

A network holds matrices [W0, ..., WL]; evaluation is
WL @ a(W_{L-1} @ a( ... a(W0 @ x))), with the activation applied between
consecutive matrices and never after WL.  There are no shift vectors; any
construction that needs a constant feeds it as an input coordinate.  W_i has
shape (p_{i+1}, p_i) and acts by left multiplication on column vectors, so
the width vector is p = (p_0, ..., p_{L+1}) and depth L counts activations.

Every layer is a BlockDiagonal: its diagonal blocks stored as runs of
copies of one checked, read-only block, so a layer made from other layers
copies nothing.  A network given as one flat parameter vector (the entropy
sampler's draw, the fit's theta) takes it over, its layers views of it
(_network_from_vector; _layout works out a width vector's shapes once).
The builders stack layers side by side where the paper parallelises and
chain them where it composes, so their networks never materialize the
mostly-zero dense form.  Evaluation, the entropy oracle's stacked samples,
the path norm (the |W| chain at (1, ..., 1)) and the path matrix (the |W|
chain on the identity) run on the runs through _kernels.eval_chain, one
matrix product per run; the JSON wire format (version 3) stores the runs of
each layer, so a decoded network is the same chain of runs.

One contract reads what callers hand in: an array (weights, inputs, points,
data, coefficients) through _real, which refuses complex, str and None
entries, or _finite, which refuses NaN and +-inf too; a scalar through
_number or _integer.  Each raises a ValueError naming the parameter.

network_stats(net) is the one structural report: depth, widths, blocks,
stored and nonzero entries and l1 norms, per layer and in total.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator

import numpy as np

from . import _kernels


class NetworkError(ValueError):
    """Structural problem with a network or an operation on it."""


class ShapeMismatchError(NetworkError):
    pass


class ActivationMismatchError(NetworkError):
    pass


# ---------------------------------------------------------------------------
# activations


class Activation:
    """Element-wise map alpha(x) = s(x) * x for a sign selector s into {-1,0,+1}.

    s identically +1 gives the identity, s = 1{x >= 0} gives ReLU and
    s = sign with s(0) = +1 gives the absolute value.  The activation is its
    map `inplace`: it writes alpha(x) into its float64 array argument and
    returns it.  Arbitrary selectors (possibly discontinuous) are supported
    for entropy experiments through general_activation; they cannot be
    serialized.
    """

    __slots__ = ("name", "inplace")

    def __init__(self, name, inplace):
        self.name = name
        self.inplace = inplace

    def __repr__(self):
        return f"Activation({self.name})"


IDENTITY = Activation("identity", lambda x: x)
RELU = Activation("relu", lambda x: np.maximum(x, 0.0, out=x))
ABS = Activation("abs", lambda x: np.abs(x, out=x))

ACTIVATIONS = {a.name: a for a in (IDENTITY, RELU, ABS)}


def general_activation(selector):
    """Activation from an arbitrary vectorized sign selector (values in {-1,0,1})."""
    return Activation("general", lambda x: np.multiply(selector(x), x, out=x))


# ---------------------------------------------------------------------------
# layers


class BlockDiagonal:
    """A block-diagonal matrix stored as runs (block, count): count copies of
    one read-only block, one after the other along the diagonal.

    BlockDiagonal(items) makes a layer from matrices and layers.  A matrix
    is copied, checked and frozen into a run of one (_matrix); a
    BlockDiagonal gives its runs as they are, and a run whose block is the
    previous run's (the same array object) joins it.  So stacking and
    splicing layers copies nothing, and the copies parallel() stacks of one
    network are one run, stored, multiplied and serialized once.
    _of_runs(runs, shape) takes checked, read-only runs as they are: a
    vector network's views, a decoded layer's runs, and the entropy
    oracle's stacked layers, whose run (b, k) holds k blocks as b of shape
    (k, r, c).  blocks is a network layer's expanded tuple, one entry per copy.
    """

    __slots__ = ("runs", "shape")

    def __init__(self, items):
        runs = []
        rows = cols = 0
        for item in items:
            if isinstance(item, BlockDiagonal):
                for b, k in item.runs:
                    if runs and runs[-1][0] is b:
                        runs[-1] = (b, runs[-1][1] + k)
                    else:
                        runs.append((b, k))
            else:
                item = _matrix(item)
                runs.append((item, 1))
            rows += item.shape[0]
            cols += item.shape[1]
        if not runs:
            raise NetworkError("a layer needs at least one block")
        self.runs = tuple(runs)
        self.shape = (rows, cols)

    @classmethod
    def _of_runs(cls, runs, shape):
        """The layer of these runs and shape, not copied or checked again."""
        lay = cls.__new__(cls)
        lay.runs = runs
        lay.shape = shape
        return lay

    @property
    def blocks(self):
        return tuple(b for b, k in self.runs for _ in range(k))


def _matrix(item):
    """item as a new read-only C-ordered matrix of finite reals (_finite);
    an item that is not a non-empty matrix is a NetworkError."""
    b = np.array(_finite(item, "matrix"), order="C")
    if b.ndim != 2 or b.size == 0:
        raise NetworkError(f"block of shape {b.shape} is not a matrix")
    b.setflags(write=False)
    return b


# ---------------------------------------------------------------------------
# networks


class Network:
    """Immutable matrix chain with a shared activation.

    Evaluation, the path norm and all combinators treat the network purely
    as its list of matrices; metadata is a free-form dict recording how the
    network was constructed (name, m, gamma, d, variant, ...).  The layers
    are set only here and their blocks are read-only, so path_norm caches
    its value in _path_norm; every combinator builds a new network.  _key is
    None here; _network_from_vector sets it to (activation, runs key of
    _layout) for the entropy oracle's grouping.
    """

    __slots__ = ("activation", "layers", "meta", "_path_norm", "_key")

    def __init__(self, activation, weights, meta=None):
        if not isinstance(activation, Activation):
            raise NetworkError("activation must be an Activation instance")
        layers = tuple(w if isinstance(w, BlockDiagonal) else BlockDiagonal([w]) for w in weights)
        if not layers:
            raise NetworkError("a network needs at least one matrix")
        for i in range(len(layers) - 1):
            if layers[i + 1].shape[1] != layers[i].shape[0]:
                raise ShapeMismatchError(
                    f"layer {i + 1} expects input of size {layers[i + 1].shape[1]}, "
                    f"but layer {i} produces {layers[i].shape[0]}"
                )
        self.activation = activation
        self.layers = layers
        self.meta = dict(meta) if meta else {}
        self._path_norm = None
        self._key = None

    # -- structure ---------------------------------------------------------

    @property
    def widths(self):
        return (self.layers[0].shape[1],) + tuple(l.shape[0] for l in self.layers)

    @property
    def depth(self):
        """Number of activations L; the chain has L + 1 matrices."""
        return len(self.layers) - 1

    @property
    def in_dim(self):
        return self.layers[0].shape[1]

    @property
    def out_dim(self):
        return self.layers[-1].shape[0]

    @property
    def max_width(self):
        return max(self.widths)

    def __repr__(self):
        w = self.widths
        shown = w if len(w) <= 8 else w[:4] + ("...",) + w[-3:]
        return f"Network({self.activation.name}, widths={shown})"


def _views(flat, shapes):
    """Matrices of the given shapes as row-major views of consecutive ranges
    of the flat vector flat."""
    views, a = [], 0
    for r, c in shapes:
        views.append(flat[a : a + r * c].reshape(r, c))
        a += r * c
    return views


@functools.lru_cache(maxsize=256)
def _layout(widths):
    """(shapes, size, runs) of the dense network of the width tuple widths:
    the layer shapes (p_{i+1}, p_i), the parameter count sum p_{i+1} p_i and
    the runs key, one (((p_{i+1}, p_i), 1),) per layer, which is the
    (block shape, count) tuple of each layer's runs.  Worked out once per
    width tuple; a tuple of fewer than two widths, or with a width < 1, is
    a NetworkError."""
    widths = tuple(map(operator.index, widths))
    if len(widths) < 2 or min(widths) < 1:
        raise NetworkError(
            f"a vector is not the weights of widths {widths}: a network needs two or more widths, each >= 1"
        )
    shapes = tuple(zip(widths[1:], widths[:-1]))
    return shapes, sum(r * c for r, c in shapes), tuple(((s, 1),) for s in shapes)


def _network_from_vector(activation, theta, widths, meta=None):
    """The network of these widths whose matrices W0, ..., WL are, in order,
    the row-major ranges of the flat parameter vector theta, which it takes
    over: theta is copied only when it is not C-contiguous float64
    (np.asarray with order "C"), its entries (_finite) and length are
    checked once, and it is made read-only and sliced once into the layers,
    so the caller writes to it no more.  _key is (activation, runs key of
    _layout), the key entropy._stacks groups the network by."""
    shapes, size, runs = _layout(tuple(widths))
    flat = np.asarray(_finite(theta, "weight vector"), order="C")
    if flat.shape != (size,):
        raise NetworkError(f"a vector of shape {flat.shape} is not the weights of widths {tuple(widths)}")
    # views of a read-only array are read-only: one flag set for all layers
    flat.setflags(write=False)
    net = Network(activation, [BlockDiagonal._of_runs(((w, 1),), w.shape) for w in _views(flat, shapes)], meta)
    net._key = (activation, runs)
    return net


def _real(x, what):
    """x as a float64 array: a float64 ndarray as it is, a bool, int or float
    array cast.  Complex entries (a cast drops the imaginary part), str, None
    (a cast reads it as NaN) or other objects, or a ragged nesting, are a
    NetworkError (a ValueError) naming what."""
    if type(x) is np.ndarray and x.dtype == np.float64:
        return x
    try:
        x = np.asarray(x)
    except ValueError as e:
        raise NetworkError(f"{what} is not an array of real numbers: {e}") from None
    if x.dtype.kind not in "biuf":
        got = "complex values" if x.dtype.kind == "c" else f"{x.dtype.type.__name__} entries"
        raise NetworkError(f"{what} must be real, got {got}")
    return x.astype(np.float64, copy=False)


def _finite(x, what):
    """x as _real reads it; a NaN or +-inf entry is a NetworkError naming what."""
    x = _real(x, what)
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise NetworkError(f"{what} has non-finite entries")
    return x


def _integer(value, name, low):
    """value as an int if it is an integer >= low (numpy integers count);
    a bool, a float such as 2.5 or 4.0, or a smaller integer is a
    ValueError naming `name`, so nothing is truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _number(value, name, low=-math.inf, high=math.inf, low_open=False, high_open=False):
    """value as a float if it is a real number (numpy numbers count) in the
    interval from low to high, each end open or closed, so +-inf passes only
    at a closed infinite end; a bool, a str, None, a complex, NaN or a value
    outside is a ValueError naming `name`."""
    x = value
    if type(x) is not float:  # a float skips the slow Real check: sample_network reads its cap per draw
        try:
            x = float(x) if not isinstance(x, bool) and isinstance(x, numbers.Real) else math.nan
        except OverflowError:  # an int beyond float range
            x = math.nan
    if not ((low < x if low_open else low <= x) and (x < high if high_open else x <= high)):
        interval = f"{'(' if low_open else '['}{low:g}, {high:g}{')' if high_open else ']'}"
        raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")
    return x


def evaluate(net, x):
    """Evaluate net on a vector of length p0 or a batch of shape (n, p0) (_finite)."""
    x = _finite(x, "input")
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.ndim != 2:
        raise ShapeMismatchError(f"input must be a vector or a batch, got ndim={x.ndim}")
    if batch.shape[1] != net.in_dim:
        raise ShapeMismatchError(
            f"layer 0 expects input of length {net.in_dim}, got {batch.shape[1]}"
        )
    out = _kernels.eval_chain(net.layers, batch.T, net.activation.inplace)
    return out[:, 0] if single else out.T


def with_ones(points):
    """Points x of shape (n, d), or (n,) for d = 1, as the (n, d + 1) inputs
    (1, x) that every construction reads: the constant 1 comes first."""
    x = _real(points, "points")
    return np.column_stack([np.ones(len(x)), x])


# ---------------------------------------------------------------------------
# path norm and structure


# Entries of the identity and of each layer's activations that path_matrix
# may hold: 128 MiB apiece.  A decoded input layer may be 2^16 wide, whose
# identity alone would be 32 GiB.  The builders' max-entry asserts pass
# limit=False, so the builders make every net they made before:
# build_multr(1, 2000), 2,001 inputs and max width 9,001, is over the limit
# and builds (0.7 s, 480 MiB peak).
MAX_PATH_MATRIX_ENTRIES = 2**24


def path_matrix(net, limit=True):
    """|WL| @ |W_{L-1}| @ ... @ |W0|, dense, of shape (p_{L+1}, p_0).

    One forward pass of the |W| chain on the identity, block by block, for
    callers that read its entries, such as the builders' max-entry asserts.
    The pass holds p_0 columns of every layer, so unless limit is False a
    net whose p_0 times its max width exceeds MAX_PATH_MATRIX_ENTRIES is a
    NetworkError, raised before anything is allocated."""
    if limit and net.in_dim * net.max_width > MAX_PATH_MATRIX_ENTRIES:
        raise NetworkError(
            f"the path matrix of a net with {net.in_dim} inputs and max width {net.max_width} needs "
            f"more than {MAX_PATH_MATRIX_ENTRIES} entries per layer"
        )
    return _kernels.eval_chain(net.layers, np.eye(net.in_dim))


def path_norm(net):
    """The |W| network at (1, ..., 1), its outputs summed: one forward pass
    of the |W| chain on a ones column (Gonon et al., ICLR 2024).  It equals
    the sum of the path matrix's entries up to rounding.

    Computed on the first call and cached on the immutable network."""
    if net._path_norm is None:
        ones = np.ones((net.in_dim, 1))
        net._path_norm = float(np.sum(_kernels.eval_chain(net.layers, ones)))
    return net._path_norm


def network_stats(net):
    """The structure of net in one JSON-ready report.

    Per layer: its shape, its number of blocks and of runs (one matmul per
    run, so the runs add up to the matmuls of one evaluation), the entries
    its blocks store, how many of those are nonzero and their l1 norm; every
    copy in a run counts.  The totals add these up, next to the depth, the
    max width and dense_entries, the rows * cols of every layer (structural
    zeros included).  The product of the layer l1 norms bounds the path norm.
    """
    layers = [
        {
            "shape": list(lay.shape),
            "blocks": sum(k for _, k in lay.runs),
            "runs": len(lay.runs),
            "stored_entries": sum(b.size * k for b, k in lay.runs),
            "nnz": sum(int(np.count_nonzero(b)) * k for b, k in lay.runs),
            # added copy by copy, as the blocks one after the other
            "l1": float(sum(s for b, k in lay.runs for s in [np.sum(np.abs(b))] * k)),
        }
        for lay in net.layers
    ]
    return {
        "depth": net.depth,
        "max_width": net.max_width,
        **{k: sum(lay[k] for lay in layers) for k in ("blocks", "runs", "stored_entries", "nnz")},
        "dense_entries": sum(r * c for r, c in (lay["shape"] for lay in layers)),
        "l1": float(sum(lay["l1"] for lay in layers)),
        "layers": layers,
    }


# ---------------------------------------------------------------------------
# combinators


def _check_same_activation(a, b):
    if a.name != b.name or a.inplace is not b.inplace:
        raise ActivationMismatchError(f"activations differ: {a.name} vs {b.name}")


def compose(first, second):
    """Feed first's output into second; one activation sits at the junction."""
    _check_same_activation(first.activation, second.activation)
    if second.in_dim != first.out_dim:
        raise ShapeMismatchError(
            f"second network expects input {second.in_dim}, first produces {first.out_dim}"
        )
    return Network(first.activation, first.layers + second.layers)


def parallel(nets):
    """Block-diagonal stack of networks sharing one activation.

    Networks of unequal depth are padded with leading identity layers.  With
    the abs activation an identity layer preserves values only on
    nonnegative channels; all constructions here feed nonnegative inputs
    (the constant 1, coordinates in [0,1], replicated coordinates).
    """
    nets = list(nets)
    if not nets:
        raise NetworkError("parallel() needs at least one network")
    act = nets[0].activation
    for n in nets[1:]:
        _check_same_activation(act, n.activation)
    depth = max(len(n.layers) for n in nets)
    # one identity layer per input width, so that the padding forms runs
    pads = {w: BlockDiagonal([np.eye(w)]) for w in {n.in_dim for n in nets if len(n.layers) < depth}}
    padded = [(pads.get(n.in_dim),) * (depth - len(n.layers)) + n.layers for n in nets]
    return Network(act, [BlockDiagonal([lays[i] for lays in padded]) for i in range(depth)])


# ---------------------------------------------------------------------------
# JSON wire format
#
# {"format": 3, "activation", "layers": [[[count, block], ...], ...], "meta"}:
# per layer its runs, each a count and one row-major dense block.  The block
# of a run is checked once and shared by its copies, so a decoded network has
# the runs of the one encoded.  Any other format, such as version 2 (every
# copy written out) or the dense version 1 under "weights", is rejected.

# Rows or columns a decoded layer may have at most.  A count is one number in
# the file, so without a bound a few bytes could declare a layer 10^12 wide,
# which evaluation would then try to allocate.  For scale, the cheb net at
# d=3, eps=2^-16 is 7,401 wide.
MAX_DECODED_WIDTH = 2**16


def network_to_dict(net):
    if net.activation.name not in ACTIVATIONS:
        raise NetworkError("only abs/relu/identity networks serialize to JSON")
    return {
        "format": 3,
        "activation": net.activation.name,
        "layers": [[[k, b.tolist()] for b, k in lay.runs] for lay in net.layers],
        "meta": net.meta,
    }


def _decode_layer(runs):
    out = []
    rows = cols = 0
    for run in runs:
        if not isinstance(run, list) or len(run) != 2:
            raise NetworkError(f"a run must be a [count, block] pair, got {run!r:.60}")
        count, block = run
        if type(count) is not int or count < 1:
            raise NetworkError(f"a run count must be a positive integer, got {count!r:.60}")
        block = _matrix(block)
        rows += count * block.shape[0]
        cols += count * block.shape[1]
        if max(rows, cols) > MAX_DECODED_WIDTH:
            raise NetworkError(f"a layer wider than {MAX_DECODED_WIDTH} is not read")
        out.append((block, count))
    if not out:
        raise NetworkError("a layer needs at least one block")
    return BlockDiagonal._of_runs(tuple(out), (rows, cols))


def network_from_dict(d):
    fmt = d.get("format") if isinstance(d, dict) else None
    if fmt != 3:
        raise NetworkError(f"unsupported network format {fmt!r}; only format 3 is read")
    try:
        act = ACTIVATIONS[d["activation"]]
        layers = [_decode_layer(runs) for runs in d["layers"]]
        return Network(act, layers, meta=d.get("meta"))
    except NetworkError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise NetworkError(f"malformed network dict: {e}") from e


def network_to_json(net):
    return json.dumps(network_to_dict(net))


def network_from_json(s):
    return network_from_dict(json.loads(s))
