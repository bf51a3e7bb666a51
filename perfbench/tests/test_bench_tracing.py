"""Spans, counters and memory figures of the traced run."""

import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import blinkcorr  # noqa: E402
import blinkcorr.cli  # noqa: E402
import scipy.linalg  # noqa: E402
from blinkbench import reference as ref  # noqa: E402
from blinkbench import tracing  # noqa: E402


def test_tracer_wraps_every_namespace_and_restores_it():
    originals = (blinkcorr.markov.g_general, blinkcorr.g_general, blinkcorr.cli.g_general, scipy.linalg.expm)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert blinkcorr.markov.g_general is not originals[0]
        assert blinkcorr.g_general is blinkcorr.markov.g_general
        assert blinkcorr.cli.g_general is blinkcorr.markov.g_general
    finally:
        tracer.uninstall()
    assert (blinkcorr.markov.g_general, blinkcorr.g_general, blinkcorr.cli.g_general, scipy.linalg.expm) == originals


def test_spans_nest_and_count_the_expm_route():
    rng = np.random.Generator(np.random.Philox(key=[0, 1]))
    intensities, rates = ref.random_chain(rng, 5, degenerate=True)
    chain = blinkcorr.PeriodChain(intensities=intensities, rates=rates)
    tau = np.geomspace(1e-5, 1.0, 40)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("op"):
            blinkcorr.g_general(tau, chain)
    finally:
        tracer.uninstall()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("op", None), ("markov.g_general", 0), ("markov.propagator", 1)]
    assert tracer.expm_in_propagator == tau.size
    assert all(s.start <= s.end for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer, 1, {}, 0.0)
    assert metrics["markov.propagator.expm_calls"] == tau.size
    assert 0.0 < metrics["markov.propagator.busy_s"] <= metrics["markov.g_general.busy_s"]
    assert metrics["simulate.estimate_g.busy_s"] == 0.0
    assert set(metrics) == {name for name, _, _ in tracing.LAYER_METRICS}


def test_cli_self_time_is_the_command_minus_its_library_calls():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("bench.op", None, 0.0, 10.0),
        tracing.Span("cli.estimate_g", 0, 1.0, 9.0),
        tracing.Span("simulate.read_trajectory", 1, 1.5, 4.0),
        tracing.Span("simulate.estimate_g", 1, 4.0, 8.0, {"bins": 160}),
        tracing.Span("fitting.fit_full", 0, 9.0, 10.0, {"bootstrap_ok": 9.0, "bootstrap_failed": 1.0}),
        tracing.Span("fitting.fit_isc", 4, 9.2, 9.4),
        tracing.Span("fitting.least_squares", 5, 9.2, 9.3, {"iterations": 7}),
        tracing.Span("fitting.fit_isc", 4, 9.5, 9.6),
    ]
    metrics = tracing.layer_metrics(tracer, 2, {"simulate.estimate_g": [3_000_000]}, 1.5)
    assert metrics["cli.estimate_g.self_s"] == pytest.approx(1.5 / 2)
    assert metrics["simulate.estimate_g.bins"] == 80
    assert metrics["simulate.estimate_g.peak_alloc_mb"] == 3.0
    assert metrics["fitting.bootstrap.busy_s"] == pytest.approx(0.6 / 2)
    assert metrics["fitting.bootstrap.ok_ratio"] == 0.9
    assert metrics["fitting.fit_isc.iterations"] == 3.5
    assert metrics["trace.overhead_pct"] == 1.5


def test_allocation_probe_sees_numpy_buffers(tmp_path):
    path = str(tmp_path / "r.traj")
    blinkcorr.write_trajectory(blinkcorr.Trajectory(times=np.linspace(0.0, 1.0, 200_000), duration=1.0), path)
    probe = tracing.AllocationProbe()
    probe.install()
    try:
        blinkcorr.cli.read_trajectory(path)
    finally:
        probe.uninstall()
    # 200k floats: at least the 1.6 MB array, plus the list it came from.
    assert probe.peaks["simulate.read_trajectory"][0] > 1.6e6
    probe.install()
    try:
        blinkcorr.estimate_g(blinkcorr.Trajectory(times=np.linspace(0.0, 1.0, 2000), duration=1.0), np.array([1e-3, 1e-2]))
    finally:
        probe.uninstall()
    assert probe.peaks["simulate.estimate_g"][0] > 0


def test_peak_rss_covers_only_open_operations():
    rss = tracing.PeakRss()
    try:
        rss.begin()
        block = np.ones(50_000_000 // 8)
        rss.end()
        inside = rss.peak_bytes
        del block
        later = np.ones(200_000_000 // 8)
        assert rss.peak_bytes == inside
        del later
    finally:
        rss.close()
    assert inside > 50_000_000


def test_benchmark_file_names_every_metric_and_workload():
    import json

    from blinkbench import runner, workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(runner.END_TO_END)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_scaled_seconds_removes_the_loop_and_scales_by_its_speed():
    from blinkbench import calibrate

    slow = 2.0 * calibrate.NOMINAL_S
    stretches = [(1.0, np.full(5, slow)), (1.0, np.full(5, slow)), (0.5, np.empty(0))]
    net = 2.0 - 10 * slow + 0.5
    assert calibrate.scaled_seconds(stretches) == pytest.approx(0.5 * net)
    assert calibrate.scaled_seconds([(1.0, np.empty(0))]) == 1.0


def test_speed_probe_samples_only_open_operations():
    from blinkbench import calibrate

    probe = calibrate.SpeedProbe()
    try:
        probe.start()
        probe.active = True
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        probe.active = False
        inside = probe.count
        time.sleep(0.1)
        probe.stop()
    finally:
        probe.close()
    assert inside >= 5 and probe.count == inside
    assert np.all(probe.samples > 0.0)
