"""The benchmark's workloads build against the package.

A workload's constructor and ``describe`` call the package the way a
benchmark run sets it up, so a renamed or deleted name that they use
fails here instead of in the benchmark.  No timed round is run.
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
