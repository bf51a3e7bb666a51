"""Spans around the program's public functions, peak resident memory of
the timed operations, and per-call allocation peaks.

Nothing here edits the program: the traced run replaces the public
functions of each package module by timing wrappers in every module
namespace that holds them, so the program's own calls (the CLI calling
``estimate_g``, ``fit_full`` calling ``fit_slow``) go through the
wrappers too, and puts the originals back afterwards.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import scipy.linalg

# Public functions timed in the traced run, by module. ``cli.main`` spans
# are named after the subcommand; ``perturbative_rates`` spans after the
# method.
TRACED = {
    "cli": ("main",),
    "simulate": (
        "simulate_periods",
        "simulate_photons",
        "write_trajectory",
        "read_trajectory",
        "estimate_g",
    ),
    "fitting": ("fit_full", "fit_slow", "fit_fast", "fit_isc", "least_squares"),
    "correlation": ("g_total",),
    "markov": ("propagator", "g_general"),
    "liouville": ("perturbative_rates",),
}

PACKAGE = "blinkcorr"
# The resident-size sampler's period while an operation is open.
RSS_INTERVAL_S = 0.002

# Calls whose allocation peak the memory pass measures, with tracemalloc
# or, where marked, as the growth of the resident size over the call:
# under tracemalloc read_trajectory's 9.3M float and line objects took
# 57 s instead of 7 s, which brings a traced analyse_record run near its
# time limit.
ALLOCATING = (
    ("simulate", "simulate_photons", "tracemalloc"),
    ("simulate", "write_trajectory", "tracemalloc"),
    ("simulate", "read_trajectory", "resident"),
    ("simulate", "estimate_g", "tracemalloc"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)


def _span_name(qualname: str, args: tuple, kwargs: dict) -> str:
    if qualname == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        return "cli." + str(argv[0]).replace("-", "_")
    if qualname == "liouville.perturbative_rates":
        method = kwargs.get("method", args[1] if len(args) > 1 else "resolvent")
        return f"{qualname}.{method}"
    return qualname


def _annotate(span: Span, args: tuple, result) -> None:
    """Counts taken where the work happens."""
    if span.name == "simulate.write_trajectory":
        span.attrs["bytes"] = os.path.getsize(args[1])
    elif span.name == "simulate.estimate_g":
        series = result[0] if isinstance(result, tuple) else result
        span.attrs["bins"] = len(series)
    elif span.name == "fitting.least_squares":
        span.attrs["iterations"] = result.iterations
    elif span.name == "fitting.fit_full":
        ok = result.diagnostics.get("bootstrap_resamples", 0.0)
        span.attrs["bootstrap_ok"] = ok
        span.attrs["bootstrap_failed"] = result.diagnostics.get("bootstrap_failures", 0.0)


class _Patcher:
    """Replaces functions by wrappers in every loaded module of the
    package and restores them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


class Tracer:
    """Records a span for every call into a traced function. Spans stay in
    memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.expm_in_propagator = 0
        self._stack: list[int] = []
        self._patcher = _Patcher()
        self._expm = None

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qualname: str, func):
        def traced(*args, **kwargs):
            index = self._open(_span_name(qualname, args, kwargs))
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.spans[index].attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(index)
            _annotate(self.spans[index], args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for module_name, names in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            for name in names:
                original = getattr(module, name)
                self._patcher.replace(original, self._wrap(f"{module_name}.{name}", original))
        # markov reaches the matrix exponential as scipy.linalg.expm.
        self._expm = scipy.linalg.expm

        def counted_expm(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].name == "markov.propagator":
                self.expm_in_propagator += 1
            return self._expm(*args, **kwargs)

        scipy.linalg.expm = counted_expm

    def uninstall(self) -> None:
        self._patcher.restore()
        if self._expm is not None:
            scipy.linalg.expm = self._expm
            self._expm = None


class AllocationProbe:
    """Peak bytes allocated inside each call of the ALLOCATING functions,
    from tracemalloc, which also sees numpy buffers, or from the resident
    size's growth over the call."""

    def __init__(self) -> None:
        self.peaks: dict[str, list[int]] = {}
        self._patcher = _Patcher()

    def _wrap(self, qualname: str, func):
        def probed(*args, **kwargs):
            if tracemalloc.is_tracing():
                return func(*args, **kwargs)
            tracemalloc.start()
            try:
                return func(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks.setdefault(qualname, []).append(peak)

        return probed

    def _wrap_resident(self, qualname: str, func):
        def probed(*args, **kwargs):
            rss = PeakRss()
            base = rss.rss_bytes()
            rss.begin()
            try:
                return func(*args, **kwargs)
            finally:
                rss.end()
                rss.close()
                self.peaks.setdefault(qualname, []).append(rss.peak_bytes - base)

        return probed

    def install(self) -> None:
        for module_name, name, method in ALLOCATING:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], name)
            wrap = self._wrap if method == "tracemalloc" else self._wrap_resident
            self._patcher.replace(original, wrap(f"{module_name}.{name}", original))

    def uninstall(self) -> None:
        self._patcher.restore()


class PeakRss:
    """Highest resident set size seen while a timed operation runs.

    A sampling thread reads /proc/self/statm every few milliseconds while
    an operation is open; the opening and closing reads are taken on the
    calling thread, so short operations are covered too. The lock keeps
    the thread from sampling after ``end``, while the checks run.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._lock = threading.Lock()
        self._active = threading.Event()
        self._stop = False
        self._thread = threading.Thread(target=self._sample, name="peak-rss", daemon=True)
        self._thread.start()

    def rss_bytes(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _sample(self) -> None:
        while True:
            self._active.wait()
            with self._lock:
                if self._stop:
                    return
                if self._active.is_set():
                    self.peak_bytes = max(self.peak_bytes, self.rss_bytes())
            time.sleep(RSS_INTERVAL_S)

    def begin(self) -> None:
        with self._lock:
            self.peak_bytes = max(self.peak_bytes, self.rss_bytes())
            self._active.set()

    def end(self) -> None:
        with self._lock:
            self._active.clear()
            self.peak_bytes = max(self.peak_bytes, self.rss_bytes())

    def close(self) -> None:
        with self._lock:
            self._stop = True
            self._active.set()
        self._thread.join()
        os.close(self._fd)


# Per-layer metrics of the traced run: name, unit, better direction. All
# are per operation; a layer that a workload does not reach reads 0.
LAYER_METRICS = (
    ("cli.simulate.self_s", "s", "lower"),
    ("cli.estimate_g.self_s", "s", "lower"),
    ("cli.fit.self_s", "s", "lower"),
    ("simulate.simulate_periods.busy_s", "s", "lower"),
    ("simulate.simulate_photons.busy_s", "s", "lower"),
    ("simulate.simulate_photons.peak_alloc_mb", "MB", "lower"),
    ("simulate.write_trajectory.busy_s", "s", "lower"),
    ("simulate.write_trajectory.bytes", "B", "lower"),
    ("simulate.write_trajectory.peak_alloc_mb", "MB", "lower"),
    ("simulate.read_trajectory.busy_s", "s", "lower"),
    ("simulate.read_trajectory.peak_alloc_mb", "MB", "lower"),
    ("simulate.estimate_g.busy_s", "s", "lower"),
    ("simulate.estimate_g.bins", "count", "higher"),
    ("simulate.estimate_g.peak_alloc_mb", "MB", "lower"),
    ("fitting.fit_slow.busy_s", "s", "lower"),
    ("fitting.fit_fast.busy_s", "s", "lower"),
    ("fitting.fit_isc.busy_s", "s", "lower"),
    ("fitting.fit_slow.iterations", "count", "lower"),
    ("fitting.fit_fast.iterations", "count", "lower"),
    ("fitting.fit_isc.iterations", "count", "lower"),
    ("fitting.bootstrap.busy_s", "s", "lower"),
    ("fitting.bootstrap.ok_ratio", "ratio", "higher"),
    ("correlation.g_total.busy_s", "s", "lower"),
    ("markov.propagator.busy_s", "s", "lower"),
    ("markov.propagator.expm_calls", "count", "lower"),
    ("markov.g_general.busy_s", "s", "lower"),
    ("liouville.perturbative_rates.resolvent.busy_s", "s", "lower"),
    ("liouville.perturbative_rates.finite_dt.busy_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_metrics(tracer: Tracer, ops: int, peaks: dict[str, list[int]], overhead_pct: float) -> dict[str, float]:
    """Per-operation layer figures from the spans of ``ops`` operations.

    busy_s is the summed duration of a function's spans. A cli self_s is
    computed by difference: the command's span minus the spans of the
    library calls it made. The bootstrap's busy time runs from the end of
    the main fit's last stage to the end of ``fit_full``, and iterations
    add up every ``least_squares`` call a stage made, bootstrap refits
    included. Allocation peaks are the largest over the memory pass.
    """
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)

    def length(span: Span) -> float:
        return span.end - span.start

    busy: dict[str, float] = {}
    counts: dict[str, float] = {}
    self_time: dict[str, float] = {}
    bootstrap_s = 0.0
    boot_ok = boot_all = 0.0
    for index, span in enumerate(spans):
        busy[span.name] = busy.get(span.name, 0.0) + length(span)
        kids = [spans[k] for k in children.get(index, [])]
        if span.name.startswith("cli."):
            self_time[span.name] = self_time.get(span.name, 0.0) + length(span) - sum(map(length, kids))
        elif span.name == "fitting.least_squares" and span.parent is not None:
            stage = spans[span.parent].name
            counts[stage + ".iterations"] = counts.get(stage + ".iterations", 0) + span.attrs.get("iterations", 0)
        elif span.name == "fitting.fit_full" and "bootstrap_ok" in span.attrs:
            stages = [k for k in kids if k.name == "fitting.fit_isc"]
            if stages and span.attrs["bootstrap_ok"] + span.attrs["bootstrap_failed"] > 0:
                bootstrap_s += span.end - stages[0].end
            boot_ok += span.attrs["bootstrap_ok"]
            boot_all += span.attrs["bootstrap_ok"] + span.attrs["bootstrap_failed"]
        for key in ("bytes", "bins"):
            if key in span.attrs:
                counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + span.attrs[key]

    values: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = self_time.get(layer, 0.0) / ops
        elif kind == "busy_s":
            values[name] = (bootstrap_s if layer == "fitting.bootstrap" else busy.get(layer, 0.0)) / ops
        elif kind == "peak_alloc_mb":
            values[name] = max(peaks.get(layer, [0])) / 1e6
        elif kind == "expm_calls":
            values[name] = tracer.expm_in_propagator / ops
        elif kind == "ok_ratio":
            values[name] = boot_ok / boot_all if boot_all else 0.0
        elif name == "trace.overhead_pct":
            values[name] = overhead_pct
        else:
            values[name] = counts.get(name, 0) / ops
    return values
