"""The benchmark's workloads run correctly on this tree.

``perfbench/workloads.py`` pins each job's outcome (verdicts, path counts,
final states, a replayed counterexample) to the values of the commit that
defined the benchmark, and the benchmark counts a job whose outcome
differs as failed.  One repetition of every workload's jobs runs here, so
a change that moves a pinned outcome fails the tests before it reaches a
benchmark run.  The module is imported from its file, unchanged.
"""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_repetition_of_each_workload_reports_no_error(name):
    wl = workloads.WORKLOADS[name](1)
    assert wl.jobs
    errors = [e for job in wl.jobs for e in job.run().errors]
    assert errors == []
