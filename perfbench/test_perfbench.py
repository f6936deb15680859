"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Two traced runs in separate processes, with different hash seeds, must give
identical counters; the tracer must restore every name it wraps; the scaled
clock must undo a slowdown of its reference kernel; and a directory without
the program's sources must make the benchmark fail without printing a
result.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import refspeed  # noqa: E402
from layertrace import LayerTracer, layer_metrics  # noqa: E402
from srcpath import import_germimage  # noqa: E402
import workloads  # noqa: E402

import_germimage()

COUNT_UNITS = ("count", "bits", "ratio")


def traced_counters(workload_name, seed):
    """Counters of one traced pass over a cut-down workload."""
    workload = workloads.WORKLOADS[workload_name](seed)
    if workload_name == "classify-random":
        # one germ per stratum, including one full gap-curve search
        one_each = {}
        for label, germ in zip(workload.labels, workload.germs):
            one_each.setdefault(label, germ)
        workload.labels, workload.germs = map(list, zip(*one_each.items()))
    elif workload_name == "probe-dims":
        # one germ per (dimension, type)
        workload.items = workload.items[:: workloads.GERMS_PER_KIND]
    with LayerTracer() as tracer:
        res = workload.run_pass(tracer)
    metrics = layer_metrics(tracer, res.seconds)
    return {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}


def _run_counters(workload_name, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), workload_name],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _assert_repeats(workload_name):
    first = _run_counters(workload_name, 1)
    second = _run_counters(workload_name, 2)
    assert first == second
    return first


def test_traced_counts_repeat_classify_random():
    counts = _assert_repeats("classify-random")
    assert counts["algebra.gcd_calls"] > 0
    assert counts["classifier.gap_search_calls"] > 0
    assert counts["probe.samples"] == 0


def test_traced_counts_repeat_probe_dims():
    counts = _assert_repeats("probe-dims")
    assert counts["probe.samples"] > 0
    assert 0 < counts["kernels.bin_hit_ratio"] <= 1
    assert counts["algebra.gcd_calls"] == 0


def test_traced_counts_repeat_corpus():
    counts = _assert_repeats("corpus")
    assert counts["classifier.gap_verify_gcd_calls"] > 0
    assert counts["corpus.recheck_calls"] > 0


def test_tracer_wraps_imported_names_and_restores_them():
    from germimage import algebra, classifier

    original = algebra.gcd
    with LayerTracer() as tracer:
        assert classifier.gcd is not original
        assert classifier.gcd.__wrapped__ is original
        assert algebra.gcd.__wrapped__ is original
        one = classifier.Polynomial.one(1)
        classifier.gcd(one, one)
    assert classifier.gcd is original and algebra.gcd is original
    assert tracer.calls_via[("classifier", "algebra.gcd")] == 1


def test_scaled_clock_undoes_a_slow_reference(monkeypatch):
    nominal = refspeed.REFERENCE_S["python"]
    # a machine at half speed: each reading takes twice the nominal time
    monkeypatch.setitem(refspeed.KERNELS, "python", lambda: time.sleep(2 * nominal))
    clock = refspeed.ScaledClock("python")
    time.sleep(0.05)
    wall, scaled = clock.lap()
    assert 0.05 <= wall < 0.05 + nominal  # the readings are left out of the lap
    assert scaled == pytest.approx(wall / 2, rel=0.2)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


if __name__ == "__main__":
    print(json.dumps(traced_counters(sys.argv[1], seed=7), sort_keys=True))
