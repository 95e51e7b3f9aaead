"""The benchmark in perfbench/ runs against the package's public names.

Each workload's tiny pass runs here in-process, twice, with a fresh
Checker: every operation must succeed and the second pass must repeat the
first one's results.  A deleted or renamed name that a workload or
perfbench/run.py reads fails here instead of in a benchmark run.  One
traced tiny pass per workload checks that every per-layer metric of
BENCHMARK.json still reads nonzero on some workload.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_runs_clean(name):
    wl = workloads.WORKLOADS[name]("tiny")
    inputs = wl.make_inputs(0)
    ck = workloads.Checker()
    for _ in range(2):
        wl.run_pass(inputs, ck)
    assert ck.attempted > 0
    assert ck.failed == 0, ck.failures


def test_environment_names_read_by_the_runner():
    # perfbench/run.py reports these in every result's environment
    from nnapprox import _kernels

    assert isinstance(_kernels.HAVE_NUMBA, bool)
    assert _kernels.backend_name() == "numpy"


def test_every_per_layer_metric_reads_nonzero_on_some_workload():
    # a metric whose function the library no longer calls, or no longer calls
    # through the names the tracer patches, reads 0 on every workload; that
    # passes every benchmark gate and only perfbench/selftest.py, run by
    # hand, would notice
    import run
    import selftest
    from tracer import Tracer

    names = [m["name"] for m in run.metric_spec()[1]]
    nonzero = set()
    for name in sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]("tiny")
        inputs = wl.make_inputs(0)
        ck = workloads.Checker()
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.pass"):
                wl.run_pass(inputs, ck, tracer=tracer)
        finally:
            tracer.uninstall()
        assert ck.failed == 0, ck.failures
        traced_s = tracer.stats["bench.pass"][1]
        values = run.per_layer_values(tracer, names, traced_s, traced_s)
        nonzero |= {k for k, v in values.items() if run.finite_or_none(v)}
    skipped = ("trace.", "bench.", *selftest.MAY_BE_ZERO)
    zero = [n for n in names if not n.startswith(skipped) and n not in nonzero]
    assert not zero, f"per-layer metrics that read 0 on every workload: {zero}"
