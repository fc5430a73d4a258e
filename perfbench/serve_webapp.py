"""Workload ``serve-webapp``: the user-facing loop through one service.

``repro serve`` runs as a child process with overlapping StEM windows
(step < window), checkpointing every window.  One connection replays the
paper's Section 5.2 web-application trace (``TaskSampling(0.25)``) in
entry order as an open loop — one ``advance_watermark`` + ``ingest`` pair
per batch on a fixed schedule — and a second connection polls
``estimates(since)`` + ``health`` on its own fixed schedule.  After the
last batch the stream is sealed and the run waits until every window is
published, then checks the published rates bitwise against an offline
``StreamingEstimator(ReplayTraceStream(trace))`` run.
"""

from __future__ import annotations

import os
import shutil
import time

from common import cpu_seconds, peak_rss_mb, process_tree, summarize
from loadgen import Monitor, run_open_loop
from synth import Readiness, ingest_frame_bytes, webapp_batches
from wire import measure_setup, running, shutdown

NAME = "serve-webapp"

CONFIG = {
    # Open-loop pacing: one watermark + ingest pair every period.  On the
    # parent commit a pair completes ~131 ms after it is due (its round
    # trips stall on Nagle + delayed ACK), so the schedule is one it meets.
    "period_s": 0.25,
    "batch_tasks": 16,
    # The monitor reads late in each period, after the windows the pair
    # made final have been published, so whether a read sees them does
    # not hinge on a race with the window thread.  Publish lag therefore
    # moves in steps of one monitor period: a window is seen 240 ms into
    # its pair's period, or one period later.
    "monitor_period_s": 0.25,
    "monitor_offset_s": 0.24,
    "lead_s": 0.3,
    # Trace: the paper's request rate (5759 requests in 30 minutes).
    "observe": 0.25,
    "requests_per_clock": 3.2,
    # Estimator: 8x overlapping windows, real StEM (~75 ms each here).
    "window": 40.0,
    "step": 5.0,
    "stem_iterations": 6,
    "setup_reps": 3,
    "drain_timeout_s": 60.0,
    # Tail percentiles, fixed from the sample counts of a 20 s run.
    "tail_p": {"ingest": 75.0, "publish_lag": 75.0, "query": 75.0},
}


def reference_rates(trace, seed: int, cfg: dict) -> list:
    """Offline in-order reference: the replay path at the same seed."""
    from repro.online import StreamingEstimator
    from repro.online.streaming import ReplayTraceStream

    estimator = StreamingEstimator(
        ReplayTraceStream(trace), window=cfg["window"], step=cfg["step"],
        stem_iterations=cfg["stem_iterations"], random_state=seed,
    )
    return [None if w.rates is None else [float(r) for r in w.rates]
            for w in estimator.run()]


def run(seed: int, seconds: float, out_dir: str, traced: bool,
        cfg: dict = CONFIG, wrong_reference: bool = False) -> dict:
    n_batches = max(8, int(seconds / cfg["period_s"]))
    trace, batches = webapp_batches(
        seed, n_batches, cfg["batch_tasks"], cfg["observe"],
        cfg["requests_per_clock"],
    )
    n_queues = trace.skeleton.n_queues
    ckpt_dir = os.path.join(out_dir, "ckpt")
    os.makedirs(ckpt_dir)
    spans_dir = os.path.join(out_dir, "spans") if traced else None

    def cli_args(rep: int) -> list[str]:
        return [
            "serve", "--queues", str(n_queues),
            "--window", repr(cfg["window"]), "--step", repr(cfg["step"]),
            "--iterations", str(cfg["stem_iterations"]),
            "--seed", str(seed),
            "--checkpoint", os.path.join(ckpt_dir, f"service-{rep}.ckpt"),
            "--checkpoint-every", "1",
        ]

    from repro.live import LiveClient

    child, client, address, setup_times = measure_setup(
        cli_args, cfg["setup_reps"], out_dir, spans_dir
    )
    with running(child):
        recorder = None
        if traced:
            import spans

            recorder = spans.SpanRecorder()
            recorder.install(spans.CLIENT_TARGETS)
        monitor_client = LiveClient(address)
        try:
            pids = process_tree(child.proc.pid)
            cpu0 = cpu_seconds(pids)
            seen: dict[int, float] = {}
            status = {"since": 0, "health": None}

            def read(k, sample):
                records = monitor_client.estimates(status["since"])
                got = time.perf_counter()
                for r in records:
                    seen.setdefault(r["index"], got)
                while status["since"] in seen:
                    status["since"] += 1
                status["health"] = monitor_client.health()

            def pair(k, sample):
                watermark, records = batches[k]
                client.advance_watermark(watermark)
                return client.ingest(records)

            t_start = time.perf_counter() + cfg["lead_s"]
            monitor = Monitor(read, t_start, cfg["monitor_period_s"],
                              cfg["monitor_offset_s"]).start()
            pairs = run_open_loop(pair, t_start, cfg["period_s"],
                                  n_ops=len(batches))
            seal = run_open_loop(lambda k, s: client.seal(),
                                 t_start + len(batches) * cfg["period_s"],
                                 cfg["period_s"], n_ops=1)[0]
            deadline = time.monotonic() + cfg["drain_timeout_s"]
            while time.monotonic() < deadline:
                health = status["health"] or {}
                if health.get("status") in ("finished", "failed"):
                    n_windows = health["windows_published"]
                    if all(i in seen for i in range(n_windows)):
                        break
                time.sleep(0.05)
            reads = monitor.stop()
            t_end = pairs[-1].done
            cpu_s = cpu_seconds(pids) - cpu0
            rss_mb = peak_rss_mb(pids)
            health = client.health()
            report = client.metrics("snapshot") if traced else None
            published = client.estimates(0)
        finally:
            monitor_client.close()
            if recorder is not None:
                recorder.uninstall()
        shutdown(child, client)
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    # ---- everything below runs outside the timed region ----
    reference = reference_rates(trace, seed, cfg)
    if wrong_reference:
        reference = [None if r is None else [r[0] * (1 + 1e-12), *r[1:]]
                     for r in reference]
    calls = []
    for watermark, records in batches:
        calls += [("watermark", watermark), ("ingest", records)]
    calls.append(("seal",))
    tracker = Readiness(n_queues, cfg["window"], cfg["step"])
    ready = {key: c for c, call in enumerate(calls)
             for key in tracker.feed(call)}
    ready_due = {}
    for (_, i), c in ready.items():
        ready_due[i] = seal.due if c == len(calls) - 1 else pairs[c // 2].due
    lags = [seen[i] - ready_due[i] for i in ready_due if i in seen]

    stream = health["stream"]
    n_records = sum(len(b[1]) for b in batches)
    published_rates = [p["rates"] for p in published]
    checks = {
        "rates_bitwise_equal_offline_replay": published_rates == reference,
        "every_window_published": len(published) == len(reference) > 0,
        "every_window_seen_by_monitor": len(lags) == len(reference),
        "service_finished": health["status"] == "finished",
        "all_records_admitted": stream["n_admitted"] == n_records,
        "no_stragglers_or_duplicates": (
            stream["n_stragglers"] == 0 and stream["n_duplicates"] == 0
        ),
        "no_failed_ops": all(s.ok for s in [*pairs, seal, *reads]),
    }
    tail = cfg["tail_p"]
    e2e = {
        "setup_s": summarize(setup_times),
        "records_per_s": n_records / (t_end - t_start),
        "ingest_ms": summarize([1e3 * s.latency for s in pairs],
                               tail["ingest"]),
        "publish_lag_s": summarize(lags, tail["publish_lag"]),
        "query_ms": summarize([1e3 * s.latency for s in reads],
                              tail["query"]),
        "peak_rss_mb": rss_mb,
    }
    attempted = len(pairs) + 1 + len(reads)
    failed = sum(not s.ok for s in [*pairs, seal, *reads])
    return {
        "workload": NAME,
        "config": cfg,
        "schedule": {"n_batches": len(batches), "n_records": n_records,
                     "n_queues": n_queues, "monitor_reads": len(reads)},
        "e2e": e2e,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "generator": {
            "late_ms": [1e3 * s.late for s in pairs],
            "records_sent": n_records,
        },
        "process": {"cpu_s": cpu_s, "wall_s": t_end - t_start,
                    "peak_rss_mb": rss_mb},
        "health": health,
        "metrics_report": report,
        "client_spans": recorder.spans if recorder else None,
        "spans_dir": spans_dir,
        "wire": {
            "ready": {str(i): c for (_, i), c in ready.items()},
            "n_calls": len(calls),
            "frame_bytes": ingest_frame_bytes(batches),
        },
        "published": published,
    }

