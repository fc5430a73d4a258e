"""Unified telemetry for the repro serving tier.

One process-global ``MetricsRegistry`` backs every layer (stream,
estimators, kernels, service, wire, router); module-level helpers are
the instrumentation API so no constructor anywhere grows a telemetry
kwarg::

    from repro import telemetry

    telemetry.counter("repro_kernel_sweeps_total").inc()
    with telemetry.phase("sweeps"):
        ...

A count a component also reports in ``health`` is never counted here:
the component keeps it in a plain-int attribute, names it once in a
:class:`Counts` table, and the registry reads the attribute at snapshot
time (:func:`bind`).

Each shared-nothing router partition is its own process and therefore
its own registry; the router merges partition reports with provenance
labels at query time.  Set ``REPRO_TELEMETRY=0`` in the environment (or
call ``configure(enabled=False)``) to turn off histograms, phase spans,
window traces and the metrics export; the disabled hot path is a single
attribute read and branch.  The counts ``health`` reports never stop.

The documented metric surface lives in :mod:`repro.telemetry.spec`;
renderers in :mod:`repro.telemetry.render`; the ``repro top`` console
renderer in :mod:`repro.telemetry.console`.
"""

from __future__ import annotations

import math
import os
import weakref
from contextlib import contextmanager
from operator import attrgetter

from repro.telemetry.core import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
    WindowTrace,
)
from repro.telemetry.render import (
    label_metrics,
    label_traces,
    merge_reports,
    render_json,
    render_prometheus,
)
from repro.telemetry.spec import BUCKETS, SPEC

__all__ = [
    "Counter",
    "Counts",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetryError",
    "WindowTrace",
    "SPEC",
    "BUCKETS",
    "bind",
    "configure",
    "counter",
    "enabled",
    "gauge",
    "get_registry",
    "histogram",
    "isolated",
    "label_metrics",
    "label_traces",
    "merge_reports",
    "phase",
    "render_json",
    "render_prometheus",
    "report",
    "set_registry",
    "window_trace",
]


def _env_enabled() -> bool:
    raw = os.environ.get("REPRO_TELEMETRY", "1").strip().lower()
    return raw not in ("0", "false", "off", "no")


_REGISTRY = MetricsRegistry(enabled=_env_enabled())


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    global _REGISTRY
    _REGISTRY = registry
    return registry


def configure(enabled: bool | None = None) -> MetricsRegistry:
    if enabled is not None:
        _REGISTRY.enabled = bool(enabled)
    return _REGISTRY


def enabled() -> bool:
    return _REGISTRY.enabled


def counter(name: str, **labels) -> Counter:
    return _REGISTRY.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return _REGISTRY.gauge(name, **labels)


def histogram(name: str, buckets=None, **labels) -> Histogram:
    return _REGISTRY.histogram(name, buckets=buckets, **labels)


def phase(name: str):
    return _REGISTRY.phase(name)


def window_trace(index: int, t0: float, t1: float):
    return _REGISTRY.window_trace(index, t0, t1)


def report() -> dict:
    return _REGISTRY.report()


@contextmanager
def isolated(enabled: bool = True):
    """Swap in a fresh registry for the duration (tests, benchmarks)."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = MetricsRegistry(enabled=enabled)
    try:
        yield _REGISTRY
    finally:
        _REGISTRY = previous


def bind(owner, name: str, read, **labels) -> Counter | Gauge:
    """Expose ``read(owner)`` as series *name*, read at snapshot time.

    The registry holds *owner* by weakref, so a replaced owner is not
    kept alive (its series reads nan once collected), and a later
    ``bind`` of the same series replaces this one: in-process, a series
    follows its newest owner.  ``None`` reads as 0.
    """
    ref = weakref.ref(owner)

    def value() -> float:
        live = ref()
        return math.nan if live is None else float(read(live) or 0)

    return _REGISTRY.callback(name, value, **labels)


class Counts:
    """One component's counters, each named once.

    A row maps a key -- the component's ``health`` key, and by default
    the attribute it is read from -- to the metric series that exposes
    it (``None``: reported in ``health`` only), or to ``(series, read)``
    when ``read(owner)`` computes the value instead.  The component
    counts in its own plain ints; everything else reads them through
    this table: :meth:`bind` exposes the series, :meth:`read` is the
    component's ``health`` section, and :meth:`total` sums the same keys
    over several sections (the router's merge of its partitions).
    """

    def __init__(self, **rows) -> None:
        self.rows = {
            key: row if isinstance(row, tuple) else (row, attrgetter(key))
            for key, row in rows.items()
        }

    def bind(self, owner) -> None:
        for name, read in self.rows.values():
            if name is not None:
                bind(owner, name, read)

    def read(self, owner) -> dict:
        return {key: read(owner) for key, (_, read) in self.rows.items()}

    def total(self, sections) -> dict:
        sections = [s for s in sections if s]
        return {
            key: sum(int(s.get(key) or 0) for s in sections)
            for key in self.rows
        }
