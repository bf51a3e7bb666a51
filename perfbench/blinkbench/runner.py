"""One benchmark run of one workload: set-up, a timed pass whose outputs
are checked between rounds, and for a traced run a traced pass and an
allocation pass."""

from __future__ import annotations

import ctypes
import gc
import json
import os
import shutil
import time

import numpy as np

from . import calibrate, tracing
from .workloads import WORKLOADS

# Set-up builds the inputs this many times and reports the median build.
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _release_heap() -> None:
    # Hand freed set-up memory back to the system, so that the timed
    # operations' peak resident size does not include it.
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


class Pass:
    """Whole rounds of a workload's operations until ``seconds`` of
    operation time have run; outputs are checked after each round,
    outside the timed operations."""

    def __init__(self, workload, seconds: float, probe, rss=None, tracer=None) -> None:
        self.workload = workload
        self.seconds = seconds
        self.probe = probe
        self.rss = rss
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.stretches: list[tuple[float, np.ndarray]] = []

    def _timed(self, op):
        first = self.probe.count
        if self.rss is not None:
            self.rss.begin()
        self.probe.active = True
        start = time.perf_counter()
        try:
            if self.tracer is None:
                return op()
            with self.tracer.span(f"bench.{self.workload.name}.op"):
                return op()
        finally:
            wall = time.perf_counter() - start
            self.probe.active = False
            if self.rss is not None:
                self.rss.end()
            self.stretches.append((wall, self.probe.samples[first:].copy()))

    def run(self) -> "Pass":
        self.probe.start()
        try:
            self._rounds()
        finally:
            self.probe.stop()
        return self

    def _rounds(self) -> None:
        busy = 0.0
        while busy < self.seconds or not self.stretches:
            outputs = []
            first = len(self.stretches)
            for op in self.workload.round():
                self.attempted += 1
                try:
                    outputs.append(self._timed(op))
                except Exception as exc:  # a failed operation is counted, not fatal
                    outputs.append(None)
                    self.failures.append(f"{type(exc).__name__}: {exc}")
            busy += sum(wall for wall, _ in self.stretches[first:])
            self.errors = self.workload.check(outputs)
            if self.errors:
                break

    @property
    def ops_per_s(self) -> float:
        """Operations per scaled second (see calibrate)."""
        return len(self.stretches) / calibrate.scaled_seconds(self.stretches)

    def summary(self) -> dict:
        walls = [wall for wall, _ in self.stretches]
        return {
            "ops_per_s": self.ops_per_s,
            "raw_ops_per_s": len(walls) / sum(walls),
            "op_seconds": walls,
            "loop_samples": [samples.size for _, samples in self.stretches],
            "mean_loop_s": [float(samples.mean()) if samples.size else None for _, samples in self.stretches],
        }


def _setup(workload, probe) -> tuple[list[tuple[float, np.ndarray]], dict]:
    """Build the inputs SETUP_REPEATS times and install them once, with the
    speed probe running; returns the median build and the install as
    stretches for scaling, and their raw times."""

    def timed(step) -> tuple[float, np.ndarray]:
        first = probe.count
        probe.active = True
        start = time.perf_counter()
        step()
        wall = time.perf_counter() - start
        probe.active = False
        return wall, probe.samples[first:].copy()

    probe.start()
    try:
        builds = [timed(workload.prepare) for _ in range(SETUP_REPEATS)]
        install = timed(workload.install)
    finally:
        probe.stop()
    median_build = sorted(builds, key=lambda b: b[0])[len(builds) // 2]
    raw = {"build_s": [b[0] for b in builds], "install_s": install[0]}
    return [median_build, install], raw


def run(name: str, seed: int, seconds: float, trace: bool, started: float, base: str) -> dict:
    """Run one workload; returns the result line and writes the full
    record of the run under ``base``/results."""
    import_s = time.perf_counter() - started
    probe = calibrate.SpeedProbe()

    workdir = os.path.join(base, "work", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    workload = WORKLOADS[name](seed, workdir)
    try:
        setup_stretches, setup_raw = _setup(workload, probe)
        # The imports ran before the probe existed and stay unscaled: a few
        # loop samples taken after them tracked their speed worse than no
        # scaling (10% spread unscaled, 46% scaled, over ten runs).
        setup_s = import_s + calibrate.scaled_seconds(setup_stretches)
        _release_heap()
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "setup": {"setup_s": setup_s, "import_s": import_s, **setup_raw},
        }
        rss = tracing.PeakRss()
        try:
            plain = Pass(workload, seconds, probe, rss=rss).run()
        finally:
            rss.close()
        passes = [plain]
        record["untraced"] = plain.summary()
        end_to_end = {"setup_s": setup_s, "ops_per_s": plain.ops_per_s, "peak_rss_mb": rss.peak_bytes / 1e6}
        metrics = end_to_end
        units = dict(END_TO_END)
        if trace and not plain.errors:
            traced, metrics, record["traced"] = _traced_run(workload, seconds, probe, plain)
            passes.append(traced)
            units = {metric: unit for metric, unit, _ in tracing.LAYER_METRICS}
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for p in passes for e in p.errors]
    failures = [f for p in passes for f in p.failures]
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    record.update(end_to_end=end_to_end, errors=errors, failures=failures, result=result)
    with open(os.path.join(results, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    return result


def _traced_run(workload, seconds: float, probe, plain: Pass):
    """Traced pass and allocation pass; returns the pass, the per-layer
    metrics and the trace record."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Pass(workload, seconds, probe, tracer=tracer).run()
    finally:
        tracer.uninstall()
    _release_heap()
    allocations = tracing.AllocationProbe()
    allocations.install()
    try:
        for op in workload.memory_round():
            op()
    finally:
        allocations.uninstall()
    overhead = 100.0 * (plain.ops_per_s / traced.ops_per_s - 1.0)
    metrics = tracing.layer_metrics(tracer, len(traced.stretches), allocations.peaks, overhead)
    record = {
        **traced.summary(),
        "untraced_ops_per_s": plain.ops_per_s,
        "overhead_pct": overhead,
        "allocation_peaks_bytes": allocations.peaks,
        "self_s": "cli.*.self_s is computed by difference: the command's span minus its library-call spans",
        "spans": [
            {"id": k, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end, **s.attrs}
            for k, s in enumerate(tracer.spans)
        ],
    }
    return traced, metrics, record
