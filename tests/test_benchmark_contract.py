"""The benchmark in perfbench/ runs against the package's public names.

Each workload's tiny pass runs here in-process, twice, with a fresh
Checker: every operation must succeed and the second pass must repeat the
first one's results.  A deleted or renamed name that a workload or
perfbench/run.py reads fails here instead of in a benchmark run.
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
