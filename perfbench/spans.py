"""Span tracing installed from outside the program.

:class:`SpanRecorder` wraps public functions of ``repro`` (see
:data:`SUT_TARGETS`) so every call records one span: name, start, end,
parent span, request id, thread, and a few facts taken from the call's
arguments or result.  Spans stay in memory and are written out once,
when the traced process ends.  Nothing under ``src/`` changes: the
wrappers replace attributes on the imported classes and modules.

Time is ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans from different processes on one host line up.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import os
import pickle
import threading
import time
from collections import Counter

#: ``(module, owner, attribute, span name)`` of every wrapped callable.
#: ``owner`` is a class name, or ``None`` for a module-level function
#: (patched where the caller looks it up).  The client targets alone are
#: what the load generator's own process wraps.
CLIENT_TARGETS = (
    ("repro.live.server", "LiveClient", "ingest", "client.ingest"),
    ("repro.live.server", "LiveClient", "advance_watermark", "client.watermark"),
    ("repro.live.server", "LiveClient", "estimates", "client.estimates"),
    ("repro.live.server", "LiveClient", "health", "client.health"),
)
SUT_TARGETS = CLIENT_TARGETS + (
    ("repro.live.service", "EstimatorService", "ingest", "service.ingest"),
    ("repro.live.service", "EstimatorService", "advance_watermark",
     "service.watermark"),
    ("repro.live.service", "EstimatorService", "estimates", "service.estimates"),
    ("repro.live.service", "EstimatorService", "health", "service.health"),
    ("repro.live.router", "IngestRouter", "ingest", "router.ingest"),
    ("repro.live.router", "IngestRouter", "advance_watermark",
     "router.watermark"),
    ("repro.live.router", "IngestRouter", "estimates", "router.estimates"),
    ("repro.live.router", "IngestRouter", "health", "router.health"),
    ("repro.live.stream", "LiveTraceStream", "ingest", "stream.ingest"),
    ("repro.live.stream", "LiveTraceStream", "advance_watermark",
     "stream.watermark"),
    ("repro.live.stream", "LiveTraceStream", "poll", "stream.poll"),
    ("repro.live.stream", "LiveTraceStream", "subset", "stream.subset"),
    ("repro.live.stream", "LiveTraceStream", "compact", "stream.compact"),
    ("repro.live.stream", "LiveTraceStream", "trace", "stream.assemble"),
    ("repro.live.stream", "LiveTraceStream", "snapshot_state",
     "stream.snapshot"),
    ("repro.online.streaming", "StreamingEstimator", "process_window",
     "estimator.window"),
    ("repro.online.streaming", "StreamingEstimator", "state_dict",
     "estimator.state_dict"),
    ("repro.online.streaming", None, "run_stem", "inference.run_stem"),
    ("repro.inference.stem", None, "initial_rates_from_observed",
     "inference.rates_init"),
    ("repro.inference.pool", None, "initialize_state", "inference.init"),
    ("repro.inference.gibbs", "GibbsSampler", "__init__",
     "inference.kernel_build"),
    ("repro.inference.gibbs", "GibbsSampler", "run", "inference.sweep"),
    ("repro.inference.stem", None, "mle_rates_from_stats", "inference.mstep"),
)


def _info(name: str, args, kwargs, result) -> dict | None:
    """Facts a span keeps beyond its timing (counts, sizes, indices)."""
    if name in ("client.ingest", "service.ingest", "stream.ingest",
                "router.ingest"):
        return {"records": len(args[1])}
    if name == "estimator.window":
        return {"t0": float(args[1]), "n_tasks": int(result.n_tasks),
                "n_new": int(result.n_new_tasks)}
    if name == "inference.sweep":
        return {"moves": int(sum(s.n_moves for s in result))}
    if name == "service.estimates":
        return {"indices": [r["index"] for r in result]}
    return None


class SpanRecorder:
    """Thread-safe in-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._ordinals: Counter = Counter()
        self._originals: dict[str, object] = {}
        self._installed: list[tuple] = []
        self._last_stream = None

    def reset(self) -> None:
        """Forget everything recorded (a forked child starts clean)."""
        with self._lock:
            self.spans = []
            self._ordinals = Counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent, rid = stack[-1]
            else:
                parent = 0
                with recorder._lock:
                    recorder._ordinals[name] += 1
                    rid = f"{name}#{recorder._ordinals[name]}"
            sid = next(recorder._ids)
            stack.append((sid, rid))
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if name.startswith("stream.") and args:
                    recorder._last_stream = args[0]
                span = {"id": sid, "name": name, "start": start, "end": end,
                        "parent": parent, "rid": rid,
                        "thread": threading.get_ident()}
                if result is not None:
                    info = _info(name, args, kwargs, result)
                    if info is not None:
                        span["info"] = info
                with recorder._lock:
                    recorder.spans.append(span)

        return traced

    def install(self, targets=SUT_TARGETS) -> None:
        """Replace every target callable with its traced wrapper."""
        import importlib

        for module_name, owner_name, attr, name in targets:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            static = inspect.getattr_static(owner, attr)
            self._installed.append((owner, attr, static))
            if isinstance(static, property):
                self._originals[name] = static.fget
                setattr(owner, attr, property(self._wrap(name, static.fget)))
            else:
                self._originals[name] = static
                setattr(owner, attr, self._wrap(name, static))

    def uninstall(self) -> None:
        """Put every wrapped attribute back (newest first)."""
        while self._installed:
            owner, attr, static = self._installed.pop()
            setattr(owner, attr, static)

    def install_partition_hook(self, spans_dir: str) -> None:
        """Make each router partition process (forked with these wrappers
        already in place) drop the parent's spans and write its own."""
        import repro.live.router as router

        original = router._partition_service_main
        recorder = self

        def partition_main(*args, **kwargs):
            recorder.reset()
            try:
                return original(*args, **kwargs)
            finally:
                recorder.dump(spans_dir, role="partition")

        router._partition_service_main = partition_main

    def stream_snapshot_bytes(self) -> int | None:
        """Pickled size of the last traced stream's snapshot (untraced)."""
        stream = self._last_stream
        if stream is None:
            return None
        state = self._originals["stream.snapshot"](stream)
        return len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))

    def dump(self, spans_dir: str, role: str) -> str:
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"spans-{role}-{os.getpid()}.json.gz")
        with self._lock:
            spans = list(self.spans)
        payload = {"pid": os.getpid(), "role": role, "spans": spans,
                   "stream_snapshot_bytes": self.stream_snapshot_bytes()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path


def load_spans(spans_dir: str) -> list[dict]:
    """Every process's span file in *spans_dir*."""
    out = []
    for name in sorted(os.listdir(spans_dir)):
        if name.startswith("spans-") and name.endswith(".json.gz"):
            with gzip.open(os.path.join(spans_dir, name), "rt",
                           encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out


# ----------------------------------------------------------------------
# Self time.
# ----------------------------------------------------------------------


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(s["start"], s["end"], children.get(s["id"], ()))
        for s in spans
    }


def children_index(spans: list[dict]) -> dict[int, list[dict]]:
    """Parent span id -> its direct child spans."""
    by_parent: dict[int, list[dict]] = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    return by_parent


def descendants(by_parent: dict[int, list[dict]], root_id: int) -> list[dict]:
    """Spans below *root_id* (any depth), from a :func:`children_index`."""
    out, todo = [], [root_id]
    while todo:
        for child in by_parent.get(todo.pop(), ()):
            out.append(child)
            todo.append(child["id"])
    return out


def breakdown(spans: list[dict], root_name: str, layer_of) -> dict:
    """Split the total time of every *root_name* span into layers.

    Each span below a root contributes its self time to ``layer_of(name)``
    (``None`` puts it in ``"remainder"``, the stated unexplained part);
    the root's own self time goes to ``layer_of(root_name)``.  Because
    self times partition each root's interval, the layer totals plus the
    remainder add up to the roots' total duration — the returned
    ``closure_error_s`` is that sum minus the total, zero up to rounding.
    """
    selfs = self_times(spans)
    by_parent = children_index(spans)
    totals: dict[str, float] = {}
    roots = [s for s in spans if s["name"] == root_name]
    for root in roots:
        for s in [root, *descendants(by_parent, root["id"])]:
            layer = layer_of(s["name"]) or "remainder"
            totals[layer] = totals.get(layer, 0.0) + selfs[s["id"]]
    total = sum(r["end"] - r["start"] for r in roots)
    return {
        "root": root_name,
        "n_roots": len(roots),
        "total_s": total,
        "layers_s": totals,
        "closure_error_s": sum(totals.values()) - total,
    }
