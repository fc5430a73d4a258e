"""Per-layer metrics from a traced run's spans.

Every function here is pure arithmetic over the span files a traced run
wrote (one per process of the system under test), the client-side spans
of the load generator's process, and the run's own records.  A layer the
workload never reaches reports 0 and is listed in ``zero_valued``.
"""

from __future__ import annotations

from common import percentile, summarize
from spans import breakdown, children_index, descendants, self_times

#: Window-span descendants and the layer their self time belongs to.
#: ``inference.run_stem``'s own self time is deliberately unassigned: it
#: is the stated unexplained remainder of ``service.window``.
WINDOW_LAYERS = {
    "estimator.window": "estimator.bookkeeping",
    "stream.poll": "stream",
    "stream.subset": "stream",
    "stream.compact": "stream",
    "stream.assemble": "stream",
    "inference.rates_init": "inference.rates_init",
    "inference.init": "inference.init",
    "inference.kernel_build": "inference.kernel_build",
    "inference.sweep": "inference.sweep",
    "inference.mstep": "inference.mstep",
}

#: Client request span -> the server-side handler span it pairs with.
HANDLERS = {
    "serve-webapp": {"client.ingest": "service.ingest",
                     "client.watermark": "service.watermark",
                     "client.estimates": "service.estimates",
                     "client.health": "service.health"},
    "ingest-routed": {"client.ingest": "router.ingest",
                      "client.watermark": "router.watermark",
                      "client.estimates": "router.estimates",
                      "client.health": "router.health"},
}

#: The end-to-end metric the tracing overhead is read from: every traced
#: request pays the wrappers on its path through each layer.
OVERHEAD_METRIC = "ingest_ms"


def _ms(spans) -> list[float]:
    return [1e3 * (s["end"] - s["start"]) for s in spans]


def _p50(values) -> float:
    return percentile(values, 50.0) if values else 0.0


def _named(spans, *names) -> list[dict]:
    return [s for s in spans if s["name"] in names]


def _ordinal(span) -> int:
    return int(span["rid"].rsplit("#", 1)[1])


def _top(spans, name) -> dict[int, dict]:
    """Top-level spans called *name*, by request ordinal."""
    return {_ordinal(s): s for s in spans
            if s["name"] == name and not s["parent"]}


def wire_overheads(client_spans, server_spans, handlers) -> list[float]:
    """Per request: client round trip minus server handler time (ms)."""
    out = []
    for client_name, server_name in handlers.items():
        served = _top(server_spans, server_name)
        for k, c in _top(client_spans, client_name).items():
            s = served.get(k)
            if s is not None:
                out.append(1e3 * ((c["end"] - c["start"])
                                  - (s["end"] - s["start"])))
    return out


def _per_window(process_spans, fn) -> list[float]:
    """``fn(window_span, its descendants)`` for every window span."""
    out = []
    for spans in process_spans:
        by_parent = children_index(spans)
        out += [fn(w, descendants(by_parent, w["id"]))
                for w in _named(spans, "estimator.window")]
    return out


def ingest_breakdown(workload, client_spans, main, partitions) -> dict:
    """Split the total client ingest round trip into layer self times.

    The unexplained remainder is everything outside the program's own
    layers: framing, pickling, sockets and thread hand-offs on every wire
    hop (one for a single service, two behind the router).
    """
    rtt = sum(s["end"] - s["start"] for s in _named(client_spans,
                                                     "client.ingest"))
    service_procs = partitions if workload == "ingest-routed" else [main]
    layers: dict[str, float] = {}
    handler = 0.0
    if workload == "ingest-routed":
        selfs = self_times(main)
        routes = _named(main, "router.ingest")
        handler = sum(s["end"] - s["start"] for s in routes)
        layers["router"] = sum(selfs[s["id"]] for s in routes)
        ids = {s["id"] for s in routes}
        forwards = [s for s in main if s["parent"] in ids]
        forwarded = sum(s["end"] - s["start"] for s in forwards)
        inner = sum(s["end"] - s["start"]
                    for p in partitions for s in _named(p, "service.ingest"))
        wire = (rtt - handler) + (forwarded - inner)
    else:
        inner = sum(s["end"] - s["start"]
                    for s in _named(main, "service.ingest"))
        wire = rtt - inner
    streams = sum(s["end"] - s["start"]
                  for p in service_procs for s in _named(p, "stream.ingest"))
    layers["service"] = inner - streams
    layers["stream"] = streams
    n = len(_named(client_spans, "client.ingest"))
    return {"root": "client.ingest", "n_roots": n, "total_s": rtt,
            "layers_s": layers, "remainder_s": wire,
            "closure_error_s": sum(layers.values()) + wire - rtt}


def window_breakdown(process_spans) -> dict:
    """Sum of :func:`spans.breakdown` over every SUT process."""
    total = {"root": "estimator.window", "n_roots": 0, "total_s": 0.0,
             "layers_s": {}, "closure_error_s": 0.0}
    for spans in process_spans:
        part = breakdown(spans, "estimator.window", WINDOW_LAYERS.get)
        total["n_roots"] += part["n_roots"]
        total["total_s"] += part["total_s"]
        total["closure_error_s"] += part["closure_error_s"]
        for k, v in part["layers_s"].items():
            total["layers_s"][k] = total["layers_s"].get(k, 0.0) + v
    total["remainder_s"] = total["layers_s"].pop("remainder", 0.0)
    return total


def layer_metrics(result: dict, files: list[dict], untraced: dict) -> dict:
    """Every per-layer metric of one traced run (plus its breakdowns)."""
    workload = result["workload"]
    by_role: dict[str, list] = {}
    for f in files:
        by_role.setdefault(f["role"], []).append(f["spans"])
    main = (by_role.get("main") or [[]])[0]
    partitions = by_role.get("partition", [])
    sut = [*by_role.get("main", []), *partitions]
    services = partitions if workload == "ingest-routed" else sut
    client = result.get("client_spans") or []
    health = result["health"]
    m: dict[str, float] = {}

    # ---- wire ----
    handlers = HANDLERS[workload]
    records_sent = result["generator"]["records_sent"]
    wire = result["wire"]
    m["server.ingest_rtt_p50_ms"] = _p50(_ms(_named(client, "client.ingest")))
    m["server.watermark_rtt_p50_ms"] = _p50(
        _ms(_named(client, "client.watermark")))
    m["server.query_rtt_p50_ms"] = _p50(
        _ms(_named(client, "client.estimates", "client.health")))
    m["server.wire_overhead_p50_ms"] = _p50(
        wire_overheads(client, main, handlers))
    m["server.frame_bytes_per_record"] = wire["frame_bytes"] / records_sent
    m["server.requests"] = sum(
        1 for s in main if not s["parent"] and s["name"] in handlers.values())
    m["server.requests_failed"] = result["failed"]

    # ---- router ----
    routes = _named(main, "router.ingest")
    selfs = self_times(main)
    route_ids = {s["id"] for s in routes}
    path_ids = route_ids | {s["id"] for s in _named(main, "router.watermark")}
    forwards = [s for s in main
                if s["parent"] in path_ids and s["name"].startswith("client.")]
    router = health.get("router") or {}  # only behind the router
    m["router.ingest_p50_ms"] = _p50(_ms(routes))
    m["router.forward_p50_ms"] = _p50(_ms(forwards))
    m["router.forwards_per_batch"] = (
        sum(1 for s in forwards if s["parent"] in route_ids) / len(routes)
        if routes else 0.0)
    m["router.route_self_p50_ms"] = _p50([1e3 * selfs[s["id"]]
                                          for s in routes])
    m["router.records_routed"] = router.get("n_records_routed", 0)
    m["router.restarts"] = router.get("n_restarts", 0)
    m["router.spool_records_end"] = router.get("spool_records", 0)

    # ---- service ----
    windows = [s for p in services for s in _named(p, "estimator.window")]
    window_ms = _ms(windows)
    window_summary = (summarize(window_ms, 75.0) if window_ms
                      else {"p50": 0.0, "tail": 0.0})
    m["service.ingest_p50_ms"] = _p50(
        [x for p in services for x in _ms(_named(p, "service.ingest"))])
    m["service.window_p50_ms"] = window_summary["p50"]
    m["service.window_tail_ms"] = window_summary["tail"]
    m["service.pickup_wait_p50_ms"] = _p50(pickup_waits(result, main))
    m["service.visible_wait_p50_ms"] = _p50(
        [x for p in services for x in visible_waits(p)])
    m["service.query_p50_ms"] = _p50(
        [x for p in services
         for x in _ms(_named(p, "service.estimates", "service.health"))])
    m["service.checkpoint_capture_p50_ms"] = _p50(
        [x for p in services for x in checkpoint_captures(p)])
    service_health = health.get("service") or {}
    m["service.checkpoint_bytes"] = service_health.get("checkpoint_bytes") or 0
    outcomes = window_outcomes(result)
    m["service.windows_published"] = sum(outcomes.values())
    for key in ("ok", "skipped", "failed"):
        m[f"service.windows_{key}"] = outcomes[key]

    # ---- stream ----
    ingests = [s for p in sut for s in _named(p, "stream.ingest")]
    n_ingested = sum(s["info"]["records"] for s in ingests)
    m["stream.ingest_us_per_record"] = (
        1e6 * sum(s["end"] - s["start"] for s in ingests) / n_ingested
        if n_ingested else 0.0)
    for metric, name in (("watermark", "stream.watermark"),
                         ("poll", "stream.poll"),
                         ("subset", "stream.subset"),
                         ("compact", "stream.compact")):
        m[f"stream.{metric}_p50_ms"] = _p50(
            [x for p in sut for x in _ms(_named(p, name))])
    m["stream.assemble_p50_ms"] = _p50(assemble_ms(sut))
    counters = stream_counters(result)
    m["stream.retained_tasks_end"] = counters["retained_tasks"]
    m["stream.compacted_tasks_end"] = counters["compacted_tasks"]
    m["stream.snapshot_bytes_end"] = sum(
        f.get("stream_snapshot_bytes") or 0 for f in files)
    for key in ("admitted", "duplicates", "late", "stragglers"):
        m[f"stream.{key}"] = counters[key]

    # ---- estimator ----
    direct = {"stream.poll", "stream.subset", "inference.run_stem",
              "stream.compact"}
    m["estimator.bookkeeping_p50_ms"] = _p50(_per_window(
        sut, lambda w, below: 1e3 * (
            (w["end"] - w["start"])
            - sum(s["end"] - s["start"] for s in below
                  if s["parent"] == w["id"] and s["name"] in direct))))
    m["estimator.window_tasks_p50"] = _p50(
        [w["info"]["n_tasks"] for w in windows])
    m["estimator.new_tasks_p50"] = _p50([w["info"]["n_new"] for w in windows])

    # ---- inference ----
    for metric, name in (("run_stem", "inference.run_stem"),
                         ("rates_init", "inference.rates_init"),
                         ("init", "inference.init"),
                         ("sweep", "inference.sweep"),
                         ("mstep", "inference.mstep")):
        m[f"inference.{metric}_p50_ms"] = _p50(
            [x for p in sut for x in _ms(_named(p, name))])
    builds = [1e3 * self_times(p)[s["id"]] for p in sut
              for s in _named(p, "inference.kernel_build")]
    m["inference.kernel_build_p50_ms"] = _p50(builds)
    setup_ms = sum(builds) + sum(
        x for p in sut
        for x in _ms(_named(p, "inference.rates_init", "inference.init")))
    sweep_ms = sum(x for p in sut for x in _ms(_named(p, "inference.sweep")))
    m["inference.setup_over_sweeps"] = setup_ms / sweep_ms if sweep_ms else 0.0
    m["inference.latent_moves_per_window"] = _p50(_per_window(
        sut, lambda w, below: sum(s["info"]["moves"] for s in below
                                  if s["name"] == "inference.sweep")))

    # ---- generator / host ----
    late = result["generator"]["late_ms"] or []
    m["generator.late_tail_ms"] = (
        summarize(late, 75.0)["tail"] if late else 0.0)
    m["generator.records_sent"] = records_sent
    proc = result["process"]
    m["process.cpu_s"] = proc["cpu_s"]
    m["process.cpu_util"] = proc["cpu_s"] / proc["wall_s"]

    # ---- tracing ----
    traced_v = _headline(result["e2e"][OVERHEAD_METRIC])
    plain_v = _headline(untraced["e2e"][OVERHEAD_METRIC])
    m["tracing.overhead_frac"] = traced_v / plain_v - 1.0
    window_bd = window_breakdown(sut)
    ingest_bd = ingest_breakdown(workload, client, main, partitions)
    m["tracing.window_remainder_ms"] = (
        1e3 * window_bd["remainder_s"] / window_bd["n_roots"]
        if window_bd["n_roots"] else 0.0)
    m["tracing.ingest_remainder_ms"] = (
        1e3 * ingest_bd["remainder_s"] / ingest_bd["n_roots"]
        if ingest_bd["n_roots"] else 0.0)
    details = {
        "window_breakdown": window_bd,
        "ingest_breakdown": ingest_bd,
        "inference_setup_ms": setup_ms,
        "inference_sweeps_ms": sweep_ms,
        "tracing_overhead": {
            "metric": OVERHEAD_METRIC, "traced": traced_v, "untraced": plain_v,
            "all_e2e": {k: [_headline(untraced["e2e"][k]),
                            _headline(result["e2e"][k])]
                        for k in result["e2e"]},
        },
        # Zero: a layer the workload never reaches, or a true zero count.
        "zero_valued": sorted(k for k, v in m.items() if v == 0),
    }
    return {"metrics": m, "details": details}


def _headline(value) -> float:
    return value["p50"] if isinstance(value, dict) else value


def pickup_waits(result: dict, main: list[dict]) -> list[float]:
    """Window ready (end of the server call that made it final) to the
    start of its ``process_window`` — single service only (ms)."""
    wire = result.get("wire") or {}
    ready = wire.get("ready")
    if result["workload"] != "serve-webapp" or not ready:
        return []
    step = result["config"]["step"]
    ingests = _top(main, "service.ingest")
    watermarks = _top(main, "service.watermark")
    starts = {round(s["info"]["t0"] / step): s["start"]
              for s in _named(main, "estimator.window")}
    out = []
    for index, call in ready.items():
        if call >= wire["n_calls"] - 1:
            continue  # made final by the seal, which is not traced
        made_final = (watermarks if call % 2 == 0 else ingests).get(
            call // 2 + 1)
        start = starts.get(int(index))
        if made_final is not None and start is not None:
            out.append(1e3 * (start - made_final["end"]))
    return out


def visible_waits(spans: list[dict]) -> list[float]:
    """Window published (its ``process_window`` ended) to the end of the
    first ``estimates`` reply that carried it, within one service (ms)."""
    ended = {i: w["end"] for i, w in
             enumerate(_named(spans, "estimator.window"))}
    first_seen: dict[int, float] = {}
    for s in _named(spans, "service.estimates"):
        for index in (s.get("info") or {}).get("indices", ()):
            first_seen.setdefault(index, s["end"])
    return [1e3 * (first_seen[i] - ended[i]) for i in ended if i in first_seen]


def checkpoint_captures(spans: list[dict]) -> list[float]:
    """Snapshot capture time: stream snapshot + estimator state, per
    checkpoint (captures take both, in that order) (ms)."""
    snaps = _named(spans, "stream.snapshot")
    states = _named(spans, "estimator.state_dict")
    if not states:
        return []
    return [1e3 * ((a["end"] - a["start"]) + (b["end"] - b["start"]))
            for a, b in zip(snaps, states)]


def assemble_ms(process_spans) -> list[float]:
    """Trace assembly per occasion: each top-level ``trace`` read, and the
    summed nested reads of each window (most are cache hits) (ms)."""
    out = []
    for spans in process_spans:
        out += _ms([s for s in _named(spans, "stream.assemble")
                    if not s["parent"]])
    out += _per_window(process_spans, lambda w, below: 1e3 * sum(
        s["end"] - s["start"] for s in below
        if s["name"] == "stream.assemble"))
    return out


def window_outcomes(result: dict) -> dict:
    out = {"ok": 0, "skipped": 0, "failed": 0}
    for w in result["published"]:
        key = ("ok" if w["rates"] is not None else
               "failed" if w["failure"] is not None else "skipped")
        out[key] += 1
    return out


def stream_counters(result: dict) -> dict:
    s = result["health"]["stream"]
    return {"admitted": s["n_admitted"], "duplicates": s["n_duplicates"],
            "late": s["n_late"], "stragglers": s["n_stragglers"],
            "retained_tasks": s["n_retained_tasks"],
            "compacted_tasks": s["n_compacted_tasks"]}
