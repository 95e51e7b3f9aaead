"""Benchmark of nnapprox: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload cheb_pipeline --seed 0 --seconds 9 --trace 0

Run from the root of a source checkout; nnapprox is imported from ./src.
With --trace 0 the run reports the end-to-end metrics named in
BENCHMARK.json: set-up time (median over fresh processes), the median cold
first pass (this process's first pass, repeated in fresh processes until
--seconds have passed), the median warm pass, peak RSS and err_ratio, the
largest measured error over its stated bound.  The two pass times are
normalised to a reference host speed by the yardstick (see yardstick.py);
their raw wall times are in the report.  Set-up time is raw wall time: it is
spent mostly in the kernel (process start, loading libraries), which the
yardstick does not track.  With --trace 1 it runs
untraced warm passes, then one traced pass, and reports the per-layer
metrics of BENCHMARK.json.  Every operation's
result is checked (see workloads.py); the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics, and
the line before it a JSON report with the environment, the pass times,
per-operation results and, when traced, the aggregated spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SETUP_PROCESSES = 3  # per round; three rounds spread over the run
MIB = 1024.0  # ru_maxrss is in KiB on Linux


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=9.0,
                    help="cold and warm passes each run until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    ap.add_argument("--references", type=Path, default=None,
                    help="reference results (default: references.json for --size full, none for tiny)")
    ap.add_argument("--record-references", action="store_true",
                    help="store this seed's results in the reference file instead of checking them")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cold-pass", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def check_sources():
    if not (SRC / "nnapprox" / "__init__.py").is_file():
        raise SystemExit(f"error: no nnapprox sources under {SRC}; run from a source checkout")


def load_workload(name, size):
    """Import nnapprox from the checkout (never an installed copy) and the workload."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import nnapprox

    if Path(nnapprox.__file__).resolve().parent != SRC / "nnapprox":
        raise SystemExit(f"error: imported nnapprox from {nnapprox.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r} (have {', '.join(WORKLOADS)})")
    return WORKLOADS[name](size)


def child_command(args, mode):
    cmd = [sys.executable, str(Path(__file__).resolve()), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    if args.references:
        cmd += ["--references", str(args.references)]
    return cmd


def measure_setup(args, samples):
    """Append SETUP_PROCESSES times from process start until the inputs are ready."""
    if args.trace:
        return
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        with subprocess.Popen(child_command(args, "--setup-only"), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line != "ready":
            raise SystemExit(f"error: set-up process exited with {code} ({line!r})")


def cold_pass(args):
    """One first pass in a fresh process; its operations count like the parent's."""
    proc = subprocess.run(child_command(args, "--cold-pass"), cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: cold-pass process exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    import numpy as np

    from nnapprox import _kernels

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "have_numba": _kernels.HAVE_NUMBA,
        "backend": _kernels.backend_name(),
        "NNAPPROX_BACKEND": os.environ.get("NNAPPROX_BACKEND"),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }
    try:
        from importlib.metadata import version

        env["scipy"] = version("scipy")
    except Exception:  # scipy is optional: record that it is absent
        env["scipy"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        env["blas"] = None
    env["blas_threads"] = _openblas_threads()
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def load_references(args):
    path = args.references or (REFERENCES if args.size == "full" else None)
    if args.record_references or path is None or not path.is_file():
        return {}
    with open(path) as f:
        return json.load(f).get(args.workload, {}).get(str(args.seed), {})


def record_references(args, results):
    path = args.references or REFERENCES
    data = json.loads(path.read_text()) if path.is_file() else {}
    data.setdefault(args.workload, {})[str(args.seed)] = results
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def finite_or_none(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def metric_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


# Metric names must start with a letter, so the _kernels layer is "kernels";
# the wire-format spans are named after the functions they time.
SPAN_ALIASES = {
    "kernels.": "_kernels.",
    "network.to_json": "network.network_to_json",
    "network.from_json": "network.network_from_json",
}
SPAN_FIELDS = {"calls": 0, "busy_s": 1, "self_s": 2}


def per_layer_values(tracer, names, traced_s, untraced_s):
    c = tracer.counters
    epochs = c.get("regression.fit.epochs", 0.0)
    stored_pts = c.get("network.evaluate.stored_x_points", 0.0)
    computed = {
        "network.evaluate.useful_ratio": c.get("network.evaluate.nnz_x_points", 0.0) / stored_pts if stored_pts else 0.0,
        "network.evaluate.flops_computed": 2.0 * stored_pts,
        "network.evaluate.act_bytes_computed": 8.0 * c.get("network.evaluate.width_x_points", 0.0),
        "regression.objective_evals_per_epoch": (
            tracer.stats.get("regression.objective", (0,))[0] / epochs if epochs else 0.0
        ),
        "trace.pass_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "bench.self_s": tracer.stats["bench.pass"][2],
    }
    values = {}
    for name in names:
        key = name
        for alias, real in SPAN_ALIASES.items():
            if key.startswith(alias):
                key = real + key[len(alias):]
        prefix, _, field = key.rpartition(".")
        if name in computed:
            values[name] = computed[name]
        elif key in c:
            values[name] = c[key]
        elif field in SPAN_FIELDS and prefix in tracer.known_names:
            values[name] = tracer.stats[prefix][SPAN_FIELDS[field]] if prefix in tracer.stats else 0
        elif key.startswith(("network.", "verify.", "_kernels.", "entropy.", "regression.")):
            values[name] = 0  # a counter of a layer this workload does not reach
        else:
            raise SystemExit(f"error: per-layer metric {name!r} is not measured by the benchmark")
    return values


def run(args):
    if args.setup_only:
        load_workload(args.workload, args.size).make_inputs(args.seed)
        print("ready", flush=True)
        return 0
    if args.cold_pass:
        wl = load_workload(args.workload, args.size)
        inputs = wl.make_inputs(args.seed)
        from workloads import Checker
        from yardstick import Yardstick

        ck = Checker(load_references(args))
        _, seconds, normalised = Yardstick().timed(lambda: wl.run_pass(inputs, ck))
        print(json.dumps({"seconds": seconds, "normalised": normalised, "attempted": ck.attempted,
                          "failed": ck.failed, "failures": ck.failures}))
        return 0

    check_sources()
    end_to_end, per_layer = metric_spec()
    from yardstick import Yardstick

    ys = Yardstick()
    # set-up is timed in fresh processes before, between and after the passes,
    # so that its median spans the run rather than one moment of it
    setup_samples = []
    measure_setup(args, setup_samples)

    wl = load_workload(args.workload, args.size)
    inputs = wl.make_inputs(args.seed)
    from tracer import Tracer
    from workloads import Checker

    ck = Checker(load_references(args))
    start = time.perf_counter()
    (claims, results), seconds, normalised = ys.timed(lambda: wl.run_pass(inputs, ck))
    cold_raw, cold = [seconds], [normalised]
    # A cold pass is one sample; short ones are repeated in fresh processes
    # until --seconds have passed, and the median is reported.
    while not (args.trace or args.record_references) and time.perf_counter() - start < args.seconds:
        child = cold_pass(args)
        cold_raw.append(child["seconds"])
        cold.append(child["normalised"])
        ck.attempted += child["attempted"]
        ck.failed += child["failed"]
        ck.failures.extend(child["failures"][: max(0, 20 - len(ck.failures))])

    measure_setup(args, setup_samples)

    warm_raw, warm = [], []
    start = time.perf_counter()
    while not warm or time.perf_counter() - start < args.seconds:
        (claims, results), seconds, normalised = ys.timed(lambda: wl.run_pass(inputs, ck))
        warm_raw.append(seconds)
        warm.append(normalised)
    measure_setup(args, setup_samples)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "environment": environment(),
        "yardstick": ys.summary(),
        "setup_samples_s": setup_samples,
        "cold_passes_s": cold,
        "warm_passes_s": warm,
        "raw_cold_passes_s": cold_raw,
        "raw_warm_passes_s": warm_raw,
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.pass"):
                wl.run_pass(inputs, ck, tracer=tracer)
        finally:
            tracer.uninstall()
        traced_s = tracer.stats["bench.pass"][1]
        # the traced pass runs without the yardstick, so it is set against raw wall times
        values = per_layer_values(tracer, [m["name"] for m in per_layer], traced_s,
                                  statistics.median(warm_raw))
        declared = per_layer
        report["trace"] = tracer.summary()
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "first_pass_s": statistics.median(cold),
            "pass_s": statistics.median(warm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MIB,
            "err_ratio": claims.ratio,
        }
        declared = end_to_end
    report.update(fail_frac=ck.failed / ck.attempted, failures=ck.failures, results=results,
                  checked_values=ck.results)
    if args.record_references:
        record_references(args, ck.results)

    metrics = {m["name"]: {"value": finite_or_none(values[m["name"]]), "unit": m["unit"]} for m in declared}
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": ck.failed == 0, "attempted": ck.attempted, "failed": ck.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
