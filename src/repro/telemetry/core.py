"""Dependency-free metrics core.

``MetricsRegistry`` holds three metric kinds behind per-metric locks:

* ``Counter`` -- monotonic float, ``inc(amount)``.
* ``Gauge`` -- last-write-wins float.
* ``Histogram`` -- fixed log-spaced buckets plus a bounded reservoir
  (Algorithm R with a name-seeded ``random.Random``) for approximate
  quantiles.  The reservoir never touches numpy RNG state, so
  instrumented runs stay bitwise-equal to uninstrumented ones.

A counter or gauge may instead read a zero-argument callback evaluated
lazily at snapshot time (never while a registry or metric lock is held,
so callbacks may take their own locks); that is how a component's own
counts reach the registry without being counted twice.

On top of the metrics sit per-window pipeline traces: ``phase(name)``
is a context manager that times a pipeline phase into the
``repro_window_phase_seconds{phase=...}`` histogram and, when a window
trace is open on the current thread, folds the span into that trace;
``window_trace(index, t0, t1)`` opens a ``WindowTrace`` that lands in a
bounded ring buffer for wire exposition.

Phases, window traces and the snapshot short-circuit when
``registry.enabled`` is false: the hot paths pay one attribute read and
a branch, which is what lets ``bench_telemetry.py`` pin the
enabled-vs-disabled overhead within 3%.
"""

from __future__ import annotations

import math
import threading
import time
import zlib
from bisect import bisect_left
from collections import deque
from random import Random

from repro.telemetry import spec as _spec

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetryError",
    "WindowTrace",
    "DEFAULT_SECONDS_BUCKETS",
]

#: ~1 microsecond to ~31.6 seconds in half-decade steps.
DEFAULT_SECONDS_BUCKETS = tuple(10.0 ** (k / 2.0) for k in range(-12, 4))

RESERVOIR_SIZE = 256
TRACE_RING_SIZE = 256


class TelemetryError(RuntimeError):
    """Metric registered twice with conflicting kinds, or bad arguments."""


class _Metric:
    kind = "untyped"
    __slots__ = ("name", "labels", "help", "_lock")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...], help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()

    def _base_data(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "layer": _spec.layer_of(self.name) or "",
            "help": self.help,
            "labels": dict(self.labels),
        }


class _Scalar(_Metric):
    """One stored value, or a zero-argument callback evaluated lazily at
    snapshot time (see :meth:`MetricsRegistry.callback`)."""

    __slots__ = ("_value", "_callback")

    def __init__(self, name, labels, help=""):
        super().__init__(name, labels, help)
        self._value = 0.0
        self._callback = None

    def set_callback(self, fn) -> None:
        """Evaluate ``fn()`` at snapshot time instead of a stored value."""
        with self._lock:
            self._callback = fn

    @property
    def value(self) -> float:
        with self._lock:
            callback = self._callback
            if callback is None:
                return self._value
        # Callbacks run outside the metric lock: they are free to take
        # their owner's locks (e.g. the stream lock in memory_stats()).
        try:
            return float(callback())
        except Exception:
            return float("nan")

    def snapshot_data(self) -> dict:
        data = self._base_data()
        data["value"] = self.value
        return data


class Counter(_Scalar):
    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(f"counter {self.name} cannot decrease (inc({amount!r}))")
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    kind = "gauge"
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._callback = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount


class Histogram(_Metric):
    kind = "histogram"
    __slots__ = ("buckets", "_counts", "_count", "_sum", "_min", "_max",
                 "_reservoir", "_seen", "_rng")

    def __init__(self, name, labels, help="", buckets=DEFAULT_SECONDS_BUCKETS):
        super().__init__(name, labels, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise TelemetryError(f"histogram {name} needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # last slot: > max bound
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir: list[float] = []
        self._seen = 0
        # Deterministic stdlib stream, keyed off the series identity --
        # never numpy's RNG, so estimator determinism is untouched.
        seed = zlib.crc32(repr((name, labels)).encode("utf-8"))
        self._rng = Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._counts[bisect_left(self.buckets, value)] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            # Algorithm R bounded reservoir for quantile estimates.
            self._seen += 1
            if len(self._reservoir) < RESERVOIR_SIZE:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self._seen)
                if slot < RESERVOIR_SIZE:
                    self._reservoir[slot] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantiles(self, qs=(0.5, 0.9, 0.99)) -> dict[str, float | None]:
        with self._lock:
            sample = sorted(self._reservoir)
        out = {}
        for q in qs:
            key = f"p{round(q * 100):d}"
            if not sample:
                out[key] = None
            else:
                idx = min(len(sample) - 1, int(q * len(sample)))
                out[key] = sample[idx]
        return out

    def snapshot_data(self) -> dict:
        data = self._base_data()
        with self._lock:
            counts = list(self._counts)
            count = self._count
            total = self._sum
            lo = self._min
            hi = self._max
        data.update(
            count=count,
            sum=total,
            min=None if count == 0 else lo,
            max=None if count == 0 else hi,
            buckets=[[le, c] for le, c in zip(self.buckets, counts)]
            + [[math.inf, counts[-1]]],
            quantiles=self.quantiles(),
        )
        return data


class WindowTrace:
    """Phase-span roll-up for one processed window."""

    __slots__ = ("index", "t0", "t1", "wall_start", "duration_seconds", "phases")

    def __init__(self, index: int, t0: float, t1: float):
        self.index = index
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.wall_start = time.time()
        self.duration_seconds = 0.0
        self.phases: dict[str, dict[str, float]] = {}

    def add_phase(self, name: str, seconds: float) -> None:
        entry = self.phases.get(name)
        if entry is None:
            self.phases[name] = {"seconds": seconds, "count": 1}
        else:
            entry["seconds"] += seconds
            entry["count"] += 1

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "t0": self.t0,
            "t1": self.t1,
            "wall_start": self.wall_start,
            "duration_seconds": self.duration_seconds,
            "phases": {name: dict(entry) for name, entry in self.phases.items()},
        }


class _NullContext:
    """Shared no-op stand-in for phase()/window_trace() when disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class _PhaseTimer:
    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry, name):
        self._registry = registry
        self._name = name

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self._t0
        reg = self._registry
        reg.histogram("repro_window_phase_seconds", phase=self._name).observe(dt)
        trace = getattr(reg._local, "trace", None)
        if trace is not None:
            trace.add_phase(self._name, dt)
        return False


class _WindowTraceRecorder:
    __slots__ = ("_registry", "_trace", "_prev", "_t0")

    def __init__(self, registry, index, t0, t1):
        self._registry = registry
        self._trace = WindowTrace(index, t0, t1)

    def __enter__(self):
        reg = self._registry
        self._prev = getattr(reg._local, "trace", None)
        reg._local.trace = self._trace
        self._t0 = time.perf_counter()
        return self._trace

    def __exit__(self, *exc):
        reg = self._registry
        self._trace.duration_seconds = time.perf_counter() - self._t0
        reg._local.trace = self._prev
        reg._traces.append(self._trace)  # deque append is atomic
        return False


class MetricsRegistry:
    """Process-wide metric store; one per process (or per test via
    ``telemetry.isolated()``)."""

    def __init__(self, enabled: bool = True, trace_ring: int = TRACE_RING_SIZE):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._metrics: dict[tuple, _Metric] = {}
        self._traces: deque[WindowTrace] = deque(maxlen=trace_ring)
        self._local = threading.local()

    # -- registration ---------------------------------------------------

    def _get(self, cls, name: str, labels: dict, **kwargs) -> _Metric:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                spec_kind = _spec.kind_of(name)
                if spec_kind is not None and spec_kind != cls.kind:
                    raise TelemetryError(
                        f"{name} is documented as a {spec_kind}, not a {cls.kind}")
                metric = cls(name, key[1], help=_spec.help_of(name), **kwargs)
                self._metrics[key] = metric
            elif type(metric) is not cls:
                raise TelemetryError(
                    f"{name}{dict(key[1])} already registered as {metric.kind}, "
                    f"not {cls.kind}")
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def callback(self, name: str, fn, **labels) -> Counter | Gauge:
        """Series *name* reads ``fn()`` at snapshot time, as the kind the
        spec documents (a gauge when undocumented).  Binding a series
        again replaces its callback: the newest binding wins."""
        cls = Counter if _spec.kind_of(name) == "counter" else Gauge
        metric = self._get(cls, name, labels)
        metric.set_callback(fn)
        return metric

    def histogram(self, name: str, buckets=None, **labels) -> Histogram:
        if buckets is None:
            buckets = _spec.BUCKETS.get(name, DEFAULT_SECONDS_BUCKETS)
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- window tracing -------------------------------------------------

    def phase(self, name: str):
        if not self.enabled:
            return _NULL_CONTEXT
        return _PhaseTimer(self, name)

    def window_trace(self, index: int, t0: float, t1: float):
        if not self.enabled:
            return _NULL_CONTEXT
        return _WindowTraceRecorder(self, index, t0, t1)

    # -- exposition -----------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Point-in-time metric values, sorted by (name, labels).

        Each metric is read under its own lock; callback gauges are
        evaluated with no telemetry lock held at all.  A disabled
        registry exposes nothing, even when an unguarded call site
        registered a series anyway.
        """
        if not self.enabled:
            return []
        with self._lock:
            items = sorted(self._metrics.items())
        return [metric.snapshot_data() for _key, metric in items]

    def window_traces(self) -> list[dict]:
        if not self.enabled:
            return []
        return [trace.as_dict() for trace in list(self._traces)]

    def report(self) -> dict:
        return {
            "schema": 1,
            "metrics": self.snapshot(),
            "window_traces": self.window_traces(),
        }
