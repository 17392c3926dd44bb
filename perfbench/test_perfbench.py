"""Tests of the benchmark itself: span arithmetic, percentile rules,
operation accounting, the independent references and the metric lists."""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import oracles
from calibration import REFERENCE_S, Calibrator
from measure import Outcomes, nearest_rank, quartile_spread, samples_beyond
from tracer import Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# --- spans and self time ------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1, 4] and [3, 6] overlap; [8, 12] runs past the parent's end
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_traced_wrappers_nest_and_self_times_add_up_to_the_root():
    t = Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = t.wrap(leaf, "leaf")

    def middle(x):
        return wrapped_leaf(x) * 2

    wrapped_middle = t.wrap(middle, "middle")
    with t.span("root"):
        assert wrapped_middle(1) == 4
        assert wrapped_leaf(5) == 6
    names = [s[0] for s in t.spans()]
    assert names == ["root", "middle", "leaf", "leaf"]
    assert [s[3] for s in t.spans()] == [-1, 0, 1, 0]
    summary = t.summary()
    assert summary["leaf"]["calls"] == 2
    root = t.end[0] - t.start[0]
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(root, rel=1e-9, abs=1e-12)


def test_patch_counts_integrand_evaluations_without_changing_results_and_restores():
    class Module:
        pass

    def quad(func, a, b):
        n = 8
        h = (b - a) / n
        return sum(func(a + (i + 0.5) * h) for i in range(n)) * h

    mod = Module()
    mod.quad = quad
    t = Tracer()
    t.patch([(mod, "quad")], "quad", count_arg_calls="quad.evals")
    assert mod.quad(lambda x: x * x, 0.0, 1.0) == quad(lambda x: x * x, 0.0, 1.0)
    assert t.counters["quad.evals"] == 8
    assert t.summary()["quad"]["calls"] == 1
    t.restore()
    assert mod.quad is quad


def test_inactive_tracer_records_nothing():
    t = Tracer()
    f = t.wrap(lambda: 3, "f")
    t.active = False
    assert f() == 3
    assert t.spans() == []


# --- percentiles -----------------------------------------------------------------


def test_nearest_rank_percentiles_and_their_sample_counts():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 0.5) == 50
    assert nearest_rank(values, 0.9) == 90
    assert nearest_rank(values, 0.99) == 99
    assert nearest_rank([7.0], 0.9) == 7.0
    assert samples_beyond(100, 0.9) == 10  # 102 slices leave ten beyond the p90
    assert samples_beyond(99, 0.9) == 9
    assert samples_beyond(1, 0.5) == 0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# --- calibration -------------------------------------------------------------------


def _calibrator(samples):
    """A calibrator holding (start, duration / reference, kind) samples."""
    cal = Calibrator()
    for start, slowdown, kind in samples:
        cal.starts.append(start)
        cal.ends.append(start + slowdown * REFERENCE_S[kind])
        cal.times.append(slowdown * REFERENCE_S[kind])
        cal.kinds.append(kind)
    return cal


def test_calibration_removes_kernel_time_and_divides_by_the_local_slowdown():
    cal = _calibrator([(1.0, 1.0, "python"), (2.0, 1.0, "python"), (3.0, 1.0, "vector")])
    kernel = 2 * REFERENCE_S["python"] + REFERENCE_S["vector"]
    assert cal.raw(0.5, 4.0) == pytest.approx(3.5 - kernel)
    assert cal.calibrated(0.5, 4.0) == pytest.approx(3.5 - kernel)
    slow = _calibrator([(1.0, 2.0, "python"), (2.0, 2.0, "python"), (3.0, 2.0, "python")])
    assert slow.calibrated(1.5, 1.9) == pytest.approx(0.2)
    assert slow.raw(1.5, 1.9) == pytest.approx(0.4)


def test_local_slowdown_is_the_median_of_neighbouring_samples():
    # one outlier among steady samples does not move the factor
    cal = _calibrator([(float(i), 9.0 if i == 5 else 1.5, "python") for i in range(11)])
    assert cal.factors()[5] == pytest.approx(1.5)
    assert cal.calibrated(5.5, 5.9) == pytest.approx(0.4 / 1.5)


def test_kernel_kind_is_selected_for_a_block():
    cal = Calibrator()
    with cal.kernel("vector"):
        cal.sample()
    cal.sample()
    assert cal.kinds == ["vector", "python"]


# --- operation accounting -----------------------------------------------------------


def test_injected_raising_and_warning_operations_are_counted():
    out = Outcomes()

    def boom():
        raise ZeroDivisionError("injected")

    def noisy():
        warnings.warn("injected", RuntimeWarning)
        return 1

    assert out.run("ok", lambda: 2)[0] == 2
    result, _, op_raise = out.run("raise", boom)
    assert result is None
    assert out.run("warn", noisy)[0] == 1
    assert (out.attempted, out.failed, out.warned) == (3, 1, 1)
    assert out.clean_frac() == pytest.approx(1 / 3)
    assert any("ZeroDivisionError" in n for n in out.notes)
    with pytest.raises(ZeroDivisionError):
        out.run("raise again", boom, reraise=True)
    assert (out.attempted, out.failed) == (4, 2)


def test_a_failed_check_turns_an_operation_into_one_failure():
    out = Outcomes()

    def noisy():
        warnings.warn("injected", RuntimeWarning)
        return 1

    _, _, op = out.run("warn", noisy)
    out.check(op, False, "first")
    out.check(op, False, "second")
    out.check(op, True, "third")
    assert (out.attempted, out.failed, out.warned) == (1, 1, 0)
    out.add_check(True, "joint")
    out.add_check(False, "joint")
    assert (out.attempted, out.failed) == (3, 2)


# --- references ----------------------------------------------------------------------


def test_free_group_references():
    assert oracles.free_layers(8, 6) == [1, 8, 56, 392, 2744, 19208, 134456]
    assert sum(oracles.CLIFFORD2_LAYERS) == 11520
    assert oracles.reduced_length([0, 1, 2, 3]) == 0
    assert oracles.reduced_length([0, 2, 3, 1]) == 0
    assert oracles.reduced_length([0, 2, 4]) == 3
    word = [0, 2, 5, 7]
    assert oracles.reduced_length(oracles.inverse_word(word) + word) == 0


def test_rank_decoding_enumerates_reduced_words_in_lexicographic_order():
    n, length = 4, 3
    reduced = [
        list(w) for w in itertools.product(range(n), repeat=length)
        if all(b != oracles.inverse_index(a) for a, b in zip(w, w[1:]))
    ]
    assert len(reduced) == n * (n - 1) ** (length - 1)
    assert [oracles.reduced_word_at_rank(r, length, n) for r in range(len(reduced))] == reduced


def test_epidemic_reference_matches_brute_force_over_pairings():
    K = 6

    def pairings(qubits):
        if not qubits:
            yield ()
            return
        first, rest = qubits[0], qubits[1:]
        for i, partner in enumerate(rest):
            for tail in pairings(rest[:i] + rest[i + 1:]):
                yield ((first, partner),) + tail

    all_pairings = list(pairings(tuple(range(K))))
    counts = []
    for p1 in all_pairings:
        infected = {q for pair in p1 for q in pair if 0 in pair}
        for p2 in all_pairings:
            counts.append(len(infected | {q for pair in p2 for q in pair if infected & set(pair)}))
    mean = sum(counts) / len(counts)
    var = sum((c - mean) ** 2 for c in counts) / len(counts)
    assert mean == pytest.approx(oracles.epidemic_mean_tau2(K))
    assert math.sqrt(var / 7) == pytest.approx(oracles.epidemic_stderr_tau2(K, 7))


def test_volume_rate_reference_agrees_with_the_package():
    from complexitylab import holography

    for d, mu in ((4, 100.0), (5, 10.0), (6, 1.0), (4, 1e4)):
        _, v_d = holography.critical_surface(holography.BlackHoleSpec(d=d, mu=mu))
        assert oracles.critical_volume_rate(d, mu) == pytest.approx(v_d, rel=1e-9)


# --- metric lists and run.py -------------------------------------------------------------


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_every_per_layer_metric_and_every_check():
    import layers
    from complexitylab import acceptance

    assert [(m["name"], m["unit"], m["better"]) for m in _spec()["per_layer"]] == layers.PER_LAYER
    assert tuple(name for name, _ in acceptance.CHECKS) == layers.CHECK_NAMES


def test_end_to_end_metrics_match_benchmark_json():
    import run

    child = {
        "rounds": [{"wall_s": 2.0, "op_s": [0.1] * 20, "kernel_work": 10.0, "kernel_s": 0.5, "probe_s": [0.3, 0.4]}],
        "peak_rss_mb": 100.0,
        "attempted": 10,
        "failed": 1,
        "warned": 1,
    }
    metrics, samples = run.end_to_end(child, [1.0, 3.0, 2.0])
    assert set(metrics) == {m["name"] for m in _spec()["end_to_end"]}
    assert metrics["setup_s"] == 2.0
    assert metrics["clean_frac"] == pytest.approx(0.8)
    assert metrics["kernel_per_s"] == 20.0
    assert metrics["probe_s"] == 0.3
    assert samples["op_s.p90_beyond"] == 2
    assert all(m["bound"] <= 0.25 for m in _spec()["end_to_end"])


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate-bfs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
