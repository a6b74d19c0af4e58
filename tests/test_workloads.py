"""The benchmark's workloads run on the library as it is.

``perfbench/workloads.py`` drives the public API (``Section``,
``GeneratorSet.element``, ``random_direct_sum``, ``berezinian`` and the
``verify`` command), so a change that breaks one of those uses would
otherwise show only in a benchmark run.  This test loads the workloads by
path and runs a few ops of each through the same steps as the runner: set-up,
input, op, check and canonical bytes.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_ops_pass_their_checks(name):
    workload = workloads.WORKLOADS[name]()
    workload.setup(0)
    # the warm-up input and two measured ones; one op of a fresh process
    for i in (0,) if workload.process_per_op else (-1, 0, 1):
        inp = workload.make_input(i)
        out = workload.run_op(inp)
        assert workload.check(inp, out), (name, i)
        assert isinstance(workload.canonical(inp, out), bytes)
