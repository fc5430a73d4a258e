"""Workload ``ingest-routed``: the wire crossed twice, inference idle.

``repro route --services 2`` runs as a child process (it forks its two
partition services), with estimation skipped (``--min-observed`` out of
reach) and a retention horizon set.  One connection sends synthetic
tandem batches as a closed loop for the run's duration: ingest, then a
watermark at the batch's last entry, then ``estimates`` reads, sent as
soon as the watermark is acknowledged and repeated until every window
that batch made final has appeared; the next batch follows.  Which
windows a batch makes final is known before it is sent (an in-process
replay of the same calls), so each window's publish lag runs from the
reply that made it final to the first read reply that holds it.  The run
then seals the tier and checks that every record sent was admitted, with
no stragglers, duplicates, unroutable records or restarts.
"""

from __future__ import annotations

import os
import time

from common import (
    BenchError, cpu_seconds, peak_rss_mb, process_tree, summarize,
)
from loadgen import OpSample
from synth import TANDEM_QUEUES, Readiness, TandemSource, ingest_frame_bytes
from wire import measure_setup, running, shutdown

NAME = "ingest-routed"

CONFIG = {
    "services": 2,
    "block": 32,
    # Two stripe blocks per batch: every batch is forwarded to both
    # partitions, and each partition gets one step of new tasks.
    "batch_tasks": 64,
    # Evenly spaced entries: every seed puts the same tasks in every
    # window, so which call makes a window final is the same across
    # seeds; the seed drives the service times.
    "spacing": 1.0,
    "service_mean": 0.5,
    # Window = eight stripe blocks of entries (four per partition),
    # sliding by two blocks, so every partition window holds 128 tasks of
    # which 32 are new.  Skipped windows still walk every task, which
    # keeps their cost well above scheduler jitter.
    "window": 256.0,
    "step": 64.0,
    "retain": 512.0,
    "min_observed": 10**9,
    "stem_iterations": 1,
    # A window the batch made final that no read shows this long after
    # the watermark reply fails the batch.
    "read_timeout_s": 5.0,
    "setup_reps": 3,
    "tail_p": {"ingest": 75.0, "publish_lag": 75.0, "query": 75.0},
}


def run(seed: int, seconds: float, out_dir: str, traced: bool,
        cfg: dict = CONFIG) -> dict:
    spans_dir = os.path.join(out_dir, "spans") if traced else None
    n_queues = TANDEM_QUEUES + 1

    def cli_args(rep: int) -> list[str]:
        return [
            "route", "--services", str(cfg["services"]),
            "--block", str(cfg["block"]), "--queues", str(n_queues),
            "--window", repr(cfg["window"]), "--step", repr(cfg["step"]),
            "--retain", repr(cfg["retain"]),
            "--min-observed", str(cfg["min_observed"]),
            "--iterations", str(cfg["stem_iterations"]),
            "--seed", str(seed),
        ]

    source = TandemSource(seed, spacing=cfg["spacing"],
                          service_mean=cfg["service_mean"])
    child, client, address, setup_times = measure_setup(
        cli_args, cfg["setup_reps"], out_dir, spans_dir
    )
    with running(child):
        recorder = None
        if traced:
            import spans

            recorder = spans.SpanRecorder()
            recorder.install(spans.CLIENT_TARGETS)
        try:
            pids = process_tree(child.proc.pid)
            cpu0 = cpu_seconds(pids)
            tracker = Readiness(n_queues, cfg["window"], cfg["step"],
                                n_partitions=cfg["services"],
                                block=cfg["block"])
            seen: dict[tuple, float] = {}
            final: dict[tuple, float] = {}
            batches, samples, reads, gaps = [], [], [], []

            def read_until_seen(expected, deadline):
                # Windows older than the first expected one sort before
                # it in the router's merged reply; skip only those.
                first = min((i for _, i in expected), default=None)
                since = (len(seen) if first is None
                         else sum(1 for _, i in seen if i < first))
                while True:
                    asked = time.perf_counter()
                    published = client.estimates(since)
                    got = time.perf_counter()
                    reads.append(OpSample(k=len(reads), due=asked,
                                          sent=asked, done=got, ok=True))
                    for r in published:
                        seen.setdefault(
                            (r["partition"], r["partition_index"]), got)
                    missing = [k for k in expected if k not in seen]
                    if not missing:
                        return
                    if got > deadline:
                        raise BenchError(f"windows {missing} never appeared")

            t_start = time.perf_counter()
            t_stop = t_start + seconds
            prev_done = None
            while True:
                _, records = source.next_batch(cfg["batch_tasks"])
                watermark = source.last_entry
                made_final = {
                    "ingest_done": tracker.feed(("ingest", records)),
                    "watermark_done": tracker.feed(("watermark", watermark)),
                }
                sent = time.perf_counter()
                if sent >= t_stop:
                    break
                if prev_done is not None:
                    gaps.append(sent - prev_done)
                sample = OpSample(k=len(samples), due=sent, sent=sent,
                                  done=sent, ok=True)
                try:
                    sample.result = client.ingest(records)
                    sample.marks["ingest_done"] = time.perf_counter()
                    client.advance_watermark(watermark)
                    sample.marks["watermark_done"] = time.perf_counter()
                    expected = [k for keys in made_final.values()
                                for k in keys]
                    for mark, keys in made_final.items():
                        for key in keys:
                            final[key] = sample.marks[mark]
                    read_until_seen(expected, sample.marks["watermark_done"]
                                    + cfg["read_timeout_s"])
                except Exception as exc:  # noqa: BLE001 — a failed op
                    sample.ok = False
                    sample.error = f"{type(exc).__name__}: {exc}"
                sample.done = prev_done = time.perf_counter()
                samples.append(sample)
                batches.append((records, watermark))
            t_end = samples[-1].done
            cpu_s = cpu_seconds(pids) - cpu0
            rss_mb = peak_rss_mb(pids)
            report = client.metrics("snapshot") if traced else None
            seal_ok = True
            try:
                seal = client.seal()
            except Exception:  # noqa: BLE001 — reported by the checks
                seal_ok, seal = False, {}
            health = client.health()
            published = client.estimates(0)
        finally:
            if recorder is not None:
                recorder.uninstall()
        shutdown(child, client)

    # ---- everything below runs outside the timed region ----
    lags = [seen[key] - t for key, t in final.items() if key in seen]

    n_records = sum(len(b[0]) for b in batches)
    stream, router = health["stream"], health["router"]
    checks = {
        "all_records_admitted": stream["n_admitted"] == n_records,
        "no_stragglers": stream["n_stragglers"] == 0,
        "no_duplicates": stream["n_duplicates"] == 0,
        "no_unroutable": (router["n_unroutable"] == 0
                          and seal.get("unroutable_records", 0) == 0),
        "no_restarts": router["n_restarts"] == 0,
        "seal_ok": seal_ok,
        "no_failed_ops": all(s.ok for s in samples),
        "windows_seen": len(lags) > 0,
        # Every window published before the seal is one the replay
        # predicted, so each lag has the right starting point.
        "no_unpredicted_windows": set(seen) <= set(final),
    }
    tail = cfg["tail_p"]
    ok = [s for s in samples if s.ok]
    e2e = {
        "setup_s": summarize(setup_times),
        # Ingest-path throughput: the reads that follow each batch are
        # timed as queries, not charged to the records.
        "records_per_s": n_records / sum(
            s.marks["watermark_done"] - s.sent for s in ok),
        "ingest_ms": summarize(
            [1e3 * (s.marks["ingest_done"] - s.sent) for s in ok],
            tail["ingest"]),
        "publish_lag_s": summarize(lags, tail["publish_lag"]),
        "query_ms": summarize([1e3 * r.latency for r in reads],
                              tail["query"]),
        "peak_rss_mb": rss_mb,
    }
    return {
        "workload": NAME,
        "config": cfg,
        "schedule": {"n_batches": len(batches), "n_records": n_records,
                     "n_queues": n_queues, "reads": len(reads)},
        "e2e": e2e,
        "checks": checks,
        "attempted": len(samples) + 1,
        "failed": sum(not s.ok for s in samples) + (not seal_ok),
        "generator": {
            "late_ms": [1e3 * g for g in gaps],
            "records_sent": n_records,
        },
        "process": {"cpu_s": cpu_s, "wall_s": t_end - t_start,
                    "peak_rss_mb": rss_mb},
        "health": health,
        "metrics_report": report,
        "client_spans": recorder.spans if recorder else None,
        "spans_dir": spans_dir,
        "wire": {"frame_bytes": ingest_frame_bytes(
            [(w, r) for r, w in batches])},
        "published": published,
    }

