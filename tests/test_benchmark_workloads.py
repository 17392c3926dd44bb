"""The benchmark's workloads build and run against the package.

A workload's constructor and ``describe`` call the package the way a
benchmark run sets it up, and one round with its output checks calls it
the way a timed run does, so a renamed or deleted name that they use, or
a call that fails on the workload's inputs, fails here instead of in the
benchmark.
"""

import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK_WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_benchmark_workload_builds(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    workload = workloads.WORKLOADS[name](seed=1, outdir=str(tmp_path))
    assert workload.describe()


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_benchmark_workload_runs_one_clean_checked_round(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads
    from measure import Outcomes

    workload = workloads.WORKLOADS[name](seed=1, outdir=str(tmp_path))
    outcomes = Outcomes()
    workload.check(workload.run_round(outcomes), outcomes)
    assert outcomes.attempted > 0
    assert (outcomes.failed, outcomes.warned) == (0, 0), outcomes.notes
