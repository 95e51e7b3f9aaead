"""The four benchmark workloads, their seeded inputs and their result checks.

Every workload runs the same pass again and again on inputs made once from
the seed.  Each step of a pass is one operation: it is attempted, and it
fails when it raises or when a check on its result does not hold.  Checks
come in three kinds:

* claims that hold for any seed (a verifier's measured error is within its
  claimed bound, a greedy cover stays under the entropy bound, a fit's
  objective is finite);
* equality with recorded references for the seeds in references.json (cover
  sizes and epochs exactly, floats within the tolerance stated at the call);
* for other seeds, equality of every later pass with the first one, under
  the same tolerances.

Calls go through the `nx.<name>` attributes at call time, so that the tracer
sees them once it has patched the package.
"""

from __future__ import annotations

import math

import numpy as np

import nnapprox as nx
from tracer import layer_structure

# Floats are compared as |value - reference| <= ABS_TOL + REL_TOL * |reference|.
# Outputs are sums of a few thousand products of magnitude <= e^2; a refactor
# that reorders them moves results by ~1e-14, far inside these tolerances.
ABS_TOL = 1e-10
REL_TOL = 1e-9
# The README promises a bit-identical JSON round trip.  The d=2 cheb net
# misses that by ~9e-16 (recorded as json_roundtrip_max_abs_diff); a decoded
# network counts as failed only beyond this tolerance.
ROUNDTRIP_TOL = 1e-12
# sq's bound 2^(-2m-2) is attained exactly at the midpoints of its dyadic grid,
# and on a fine grid rounding of outputs near 1 lifts the measured error above
# it by ~1e-16, so verify_sq reports passed=False (recorded, see VerifySweep).
# A verifier's claim counts as failed only beyond this rounding allowance.
CLAIM_ATOL = 1e-14


class CheckFailed(Exception):
    pass


class Checker:
    """Counts operations and failures and compares results with references.

    `references` maps result keys to expected values.  A key without a
    reference takes the first value seen, so later passes must repeat it.
    """

    def __init__(self, references=None):
        self.references = dict(references or {})
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.results = {}

    def op(self, name):
        return _Op(self, name)


class _Op:
    def __init__(self, checker, name):
        self.ck = checker
        self.name = name

    def __enter__(self):
        self.ck.attempted += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            return False
        if not issubclass(exc_type, Exception):
            return False
        self.ck.failed += 1
        if len(self.ck.failures) < 20:
            self.ck.failures.append(f"{self.name}: {exc_type.__name__}: {exc}")
        return True

    def check(self, ok, what):
        if not ok:
            raise CheckFailed(what)

    def value(self, key, v, exact=False):
        """Record a result and compare it with its reference."""
        key = f"{self.name}.{key}"
        self.ck.results[key] = v
        ref = self.ck.references.setdefault(key, v)
        if exact:
            ok = v == ref
        else:
            ok = math.isfinite(v) and abs(v - ref) <= ABS_TOL + REL_TOL * abs(ref)
        self.check(ok, f"{key} = {v!r}, reference {ref!r}")
        return v


class Claims:
    """Largest measured value over its stated bound: the err_ratio metric."""

    def __init__(self):
        self.ratio = 0.0

    def add(self, measured, bound):
        self.ratio = max(self.ratio, measured / bound)


def _with_ones(points):
    return np.column_stack([np.ones(len(points)), points])


# ---------------------------------------------------------------------------


class ChebPipeline:
    name = "cheb_pipeline"
    SIZES = {
        "full": {"nets": (("cheb_d1", 1, 2.0**-10), ("cheb_d2", 2, 2.0**-6)), "points": 2000},
        "tiny": {"nets": (("cheb_d1", 1, 2.0**-4), ("cheb_d2", 2, 2.0**-3)), "points": 200},
    }

    def __init__(self, size):
        self.cfg = self.SIZES[size]

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        inputs = []
        for label, d, eps in self.cfg["nets"]:
            target = nx.target_exp_sum(d)
            pts = rng.uniform(0.0, 1.0, size=(self.cfg["points"], d))
            inputs.append((label, target, eps, _with_ones(pts), target.evaluate(pts)))
        return inputs

    def run_pass(self, inputs, ck, tracer=None):
        claims = Claims()
        report = {}
        for label, target, eps, inp, truth in inputs:
            net = out = None
            with ck.op(f"{label}.build") as o:
                net, cert = nx.build_cheb_net(target, eps, "rescaled")
                o.check(cert["depth"] <= cert["claimed_depth_bound"], "depth above its bound")
                o.check(cert["max_width"] <= cert["claimed_width_bound"], "width above its bound")
                o.check(cert["measured_sup_error"] <= eps, "certificate error above eps")
                o.value("measured_sup_error", cert["measured_sup_error"])
                o.value("cert_path_norm", cert["path_norm"])
            with ck.op(f"{label}.evaluate") as o:
                out = nx.evaluate(net, inp)
                err = float(np.abs(out[:, 0] - truth).max())
                o.check(err <= eps, f"max error {err:.3g} above eps {eps:.3g}")
                o.value("max_abs_error", err)
                claims.add(err, eps)
            with ck.op(f"{label}.path_norm") as o:
                o.value("path_norm", nx.path_norm(net))
            decoded = wire = None
            with ck.op(f"{label}.json_roundtrip") as o:
                wire = nx.network_to_json(net)
                decoded = nx.network_from_json(wire)
                o.check(decoded.widths == net.widths, "decoded widths differ")
                report[f"{label}.wire_bytes"] = len(wire)
            del wire
            with ck.op(f"{label}.evaluate_decoded") as o:
                diff = float(np.abs(nx.evaluate(decoded, inp) - out).max())
                report[f"{label}.json_roundtrip_max_abs_diff"] = diff
                o.check(diff <= ROUNDTRIP_TOL, f"decoded outputs differ by {diff:.3g}")
            if tracer is not None and net is not None:
                for k, v in layer_structure(net).items():
                    tracer.counters[f"network.{k}.{label}"] = v
                tracer.counters[f"network.wire_bytes.{label}"] = report.get(f"{label}.wire_bytes", math.nan)
                tracer.counters[f"network.json_roundtrip_max_abs_diff.{label}"] = report.get(
                    f"{label}.json_roundtrip_max_abs_diff", math.nan
                )
            del decoded, net, out
        return claims, report


class VerifySweep:
    name = "verify_sweep"
    SIZES = {
        "full": {"multr": (7, 8, 100000), "mult": (8, 0.001), "sq": (10, 100000), "mon": (6, 4, 2)},
        "tiny": {"multr": (3, 4, 2000), "mult": (3, 0.05), "sq": (4, 2000), "mon": (2, 3, 2)},
    }

    def __init__(self, size):
        self.cfg = self.SIZES[size]

    def make_inputs(self, seed):
        # the verifiers draw their own grids; only the product-tree samples are random
        return {"multr_seed": seed}

    def run_pass(self, inputs, ck, tracer=None):
        c = self.cfg
        runs = (
            ("multr", lambda: nx.verify_multr(c["multr"][0], c["multr"][1], "literal",
                                              n_samples=c["multr"][2], seed=inputs["multr_seed"])),
            ("mult", lambda: nx.verify_mult(c["mult"][0], "rescaled", step=c["mult"][1])),
            ("sq", lambda: nx.verify_sq(c["sq"][0], n_points=c["sq"][1])),
            ("mon", lambda: nx.verify_mon(*c["mon"], "rescaled")),
        )
        claims = Claims()
        report = {}
        for label, call in runs:
            with ck.op(f"verify_{label}") as o:
                rep = call()
                excess = rep.measured_max_error - rep.claimed_bound
                report[f"verify_{label}.reported_passed"] = rep.passed
                report[f"verify_{label}.excess_over_bound"] = excess
                o.check(excess <= CLAIM_ATOL, f"measured {rep.measured_max_error!r} above claimed {rep.claimed_bound!r}")
                o.value("measured_max_error", rep.measured_max_error)
                claims.add(rep.measured_max_error, rep.claimed_bound)
        return claims, report


class EntropyOracle:
    """The criterion-08 sweep plus one cover-heavy spec.

    A spec's sample points are part of the spec and fixed; the seed draws
    the sampled networks.  Covers of one to a few centers gain or lose one
    with the seed, which moves a per-spec ratio or margin by whole bits, so
    err_ratio (log2 cover over the bound) comes from the cover-heavy spec,
    whose ~1100 centers move by about 1% between seeds.  Every spec is
    checked against its bound, and the smallest margin over all specs is
    reported as entropy.margin_bits.min.
    """

    name = "entropy_oracle"
    SIZES = {
        "full": {"sweep": 20, "trials": 1000, "heavy_n": 32, "heavy_trials": 5000},
        "tiny": {"sweep": 4, "trials": 200, "heavy_n": 8, "heavy_trials": 300},
    }
    ACTIVATIONS = ("ABS", "RELU", "IDENTITY")

    def __init__(self, size):
        self.cfg = self.SIZES[size]

    def make_inputs(self, seed):
        cases = []
        for i in range(self.cfg["sweep"]):
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
            cases.append((f"spec{i:02d}", spec, self.ACTIVATIONS[i % 3], self.cfg["trials"], i))
        heavy = nx.EntropyBoundSpec(eps=0.15, L=1, p=(2, 3, 1), B=2.0, r=2.0, n=self.cfg["heavy_n"])
        cases.append(("heavy", heavy, "ABS", self.cfg["heavy_trials"], 99))
        inputs = []
        for label, spec, act, trials, i in cases:
            points = np.random.default_rng(2000 + i).uniform(-spec.r, spec.r, size=(spec.n, spec.d))
            inputs.append((label, spec, act, trials, points, (seed, i)))
        return inputs

    def run_pass(self, inputs, ck, tracer=None):
        claims = Claims()
        report = {}
        for label, spec, act, trials, points, rng_key in inputs:
            with ck.op(label) as o:
                rng = np.random.default_rng(rng_key)
                activation = getattr(nx, act)
                sampler = lambda: nx.sample_network(spec.p, spec.B, activation, rng)  # noqa: E731
                cover = nx.empirical_covering(sampler, points, spec.eps, trials, path_norm_cap=spec.B)
                bound = nx.network_bound(spec)
                o.check(cover.size >= 1, "empty cover")
                o.check(cover.log2_size <= bound, f"log2 cover {cover.log2_size:.3f} above bound {bound:.3f}")
                o.value("cover_size", cover.size, exact=True)
                margin = bound - cover.log2_size
                report[f"{label}.margin_bits"] = margin
                report["min_spec_margin_bits"] = min(report.get("min_spec_margin_bits", math.inf), margin)
                if label == "heavy":
                    claims.add(cover.log2_size, bound)
        if tracer is not None:
            tracer.counters["entropy.margin_bits.min"] = report.get("min_spec_margin_bits", math.nan)
        return claims, report


class Regress:
    name = "regress"
    SIZES = {
        "full": {
            "fits": (
                ("inv2mx", 1, 128, "auto"),
                ("inv2mx", 1, 256, "auto"),
                ("inv2mx", 1, 512, "auto"),
                ("inv2mx", 1, 1024, "auto"),
                ("inv2mx", 1, 1024, 1e-4),
                ("exp-sum", 2, 1024, 1e-3),
            ),
            "epochs": 2000,
        },
        "tiny": {"fits": (("inv2mx", 1, 64, "auto"), ("exp-sum", 2, 64, 1e-3)), "epochs": 40},
    }

    def __init__(self, size):
        self.cfg = self.SIZES[size]

    def make_inputs(self, seed):
        return [
            nx.RegressionConfig(
                n=n, d=d, target=nx.builtin_target(t, d), noise_sd=0.1, widths=(8, 8),
                lam=lam, max_epochs=self.cfg["epochs"], seed=seed,
            )
            for t, d, n, lam in self.cfg["fits"]
        ]

    def run_pass(self, inputs, ck, tracer=None):
        claims = Claims()
        holdout = []
        for cfg in inputs:
            with ck.op(f"fit_{cfg.target.name}_n{cfg.n}_lam{cfg.lam}") as o:
                _, rep = nx.fit(cfg, nx.generate_data(cfg))
                for k in ("objective", "risk", "path_norm", "holdout_mse", "oracle_rhs"):
                    o.check(math.isfinite(getattr(rep, k)), f"{k} is not finite")
                o.check(abs(rep.objective - (rep.risk + rep.penalty)) <= 1e-12 * max(1.0, rep.objective),
                        "objective is not risk + penalty")
                o.value("epochs", rep.epochs, exact=True)
                for k in ("objective", "path_norm", "holdout_mse", "oracle_rhs"):
                    o.value(k, getattr(rep, k))
                # the oracle-inequality right-hand side is the stated bound on the risk
                claims.add(rep.holdout_mse, rep.oracle_rhs)
                holdout.append(rep.holdout_mse)
        report = {"holdout_mse": float(np.mean(holdout)) if holdout else float("nan")}
        if tracer is not None:
            tracer.counters["regression.holdout_mse"] = report["holdout_mse"]
        return claims, report


WORKLOADS = {w.name: w for w in (ChebPipeline, VerifySweep, EntropyOracle, Regress)}
