"""Spans around the public functions of every nnapprox module.

The tracer replaces each public function of nnapprox.<module> with a wrapper
that records a span, in every nnapprox namespace that binds it (modules
import names from each other, so patching the defining module alone would
miss calls such as entropy's own `evaluate`).  `Network.__init__` is traced
as `network.construct` and the private objective of the fit loop as
`regression.objective`, because the per-layer metrics need them.

Spans are aggregated in memory per name and per (parent, child) edge rather
than stored one by one: the entropy workload makes several hundred thousand
traced calls in one pass.  For every name the tracer keeps the call count,
busy time (outermost spans only, so a name nested in itself is not counted
twice) and self time (span time minus the time of its child spans).  Summed
over all names, self time equals the duration of the root span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = (
    "network",
    "_kernels",
    "constructions",
    "chebyshev",
    "approximators",
    "entropy",
    "regression",
    "verify",
)


def layer_structure(net):
    """Depth, widths and entry counts of a network, whatever its layer type.

    stored_entries counts the entries the representation keeps (block
    entries for block-diagonal layers), nnz the nonzero ones and
    dense_entries the rows * cols of every layer.
    """
    blocks = stored = nnz = dense = 0
    for lay in net.layers:
        parts = getattr(lay, "blocks", None)
        if parts is None:  # a sparse matrix keeps its stored entries in .data
            parts = (lay.data,) if hasattr(lay, "nnz") else (np.asarray(lay),)
        blocks += len(parts)
        for b in parts:
            stored += b.size
            nnz += int(np.count_nonzero(b))
        dense += lay.shape[0] * lay.shape[1]
    return {
        "depth": net.depth,
        "max_width": net.max_width,
        "blocks": blocks,
        "stored_entries": stored,
        "nnz": nnz,
        "dense_entries": dense,
        "width_sum": int(sum(net.widths)),
    }


def _on_evaluate(tracer, args, kwargs, out):
    net = args[0]
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    points = 1 if x.ndim == 1 else x.shape[0]
    s = layer_structure(net)
    c = tracer.counters
    c["network.evaluate.points"] += points
    c["network.evaluate.stored_x_points"] += s["stored_entries"] * points
    c["network.evaluate.nnz_x_points"] += s["nnz"] * points
    c["network.evaluate.width_x_points"] += s["width_sum"] * points
    for name in set(tracer.open_names()):
        if name.startswith("verify."):
            c[f"{name}.points"] += points


def _on_greedy_cover(tracer, args, kwargs, centers):
    tracer.counters["_kernels.greedy_cover.vectors"] += len(args[0])
    tracer.counters["_kernels.greedy_cover.centers"] += len(centers)


def _on_empirical_covering(tracer, args, kwargs, cover):
    tracer.counters["entropy.cover_size.sum"] += cover.size


def _on_fit(tracer, args, kwargs, result):
    tracer.counters["regression.fit.epochs"] += result[1].epochs


HOOKS = {
    "network.evaluate": _on_evaluate,
    "_kernels.greedy_cover": _on_greedy_cover,
    "entropy.empirical_covering": _on_empirical_covering,
    "regression.fit": _on_fit,
}


class Tracer:
    """Aggregated span recorder; install() patches nnapprox, uninstall() restores it."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, busy_s, self_s]
        self.edges = defaultdict(int)  # (parent, child) -> calls
        self.counters = defaultdict(float)
        self._stack = []  # frames [name, child_seconds]
        self._open = defaultdict(int)
        self._patched = []
        self.known_names = set()

    # -- spans -----------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self.edges[(parent, name)] += 1
        frame = [name, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame, seconds):
        name = frame[0]
        self._stack.pop()
        self._open[name] -= 1
        st = self.stats[name]
        st[0] += 1
        st[2] += seconds - frame[1]
        if self._open[name] == 0:
            st[1] += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    @contextmanager
    def span(self, name):
        self.known_names.add(name)
        frame = self._enter(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, time.perf_counter() - t0)

    def open_names(self):
        return [f[0] for f in self._stack]

    def wrap(self, name, fn, hook=None):
        self.known_names.add(name)
        enter, exit_ = self._enter, self._exit
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = enter(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, clock() - t0)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching nnapprox -----------------------------------------------------

    def install(self):
        """Wrap every public function of the modules in MODULES."""
        mods = {}
        for m in MODULES:  # a module a later version drops is skipped; its metrics read 0
            try:
                mods[m] = importlib.import_module(f"nnapprox.{m}")
            except ImportError:
                continue
        targets = []
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    targets.append((f"{short}.{attr}", obj))
        objective = getattr(mods.get("regression"), "_objective", None)
        if objective is not None:
            targets.append(("regression.objective", objective))
        namespaces = [
            m for n, m in list(sys.modules.items()) if n == "nnapprox" or n.startswith("nnapprox.")
        ]
        for name, fn in targets:
            wrapper = self.wrap(name, fn, HOOKS.get(name))
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, fn))
        net_cls = mods["network"].Network
        init = net_cls.__init__
        net_cls.__init__ = self.wrap("network.construct", init)
        self._patched.append((net_cls, "__init__", init))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self):
        return {
            "spans": {
                n: {"calls": c, "busy_s": b, "self_s": s} for n, (c, b, s) in sorted(self.stats.items())
            },
            "edges": [
                {"parent": p, "child": c, "calls": k} for (p, c), k in sorted(self.edges.items(), key=str)
            ],
            "counters": dict(sorted(self.counters.items())),
        }
