"""End-to-end ingest throughput and window-publish latency of repro.live.

The live subsystem's claim is operational: measurement records stream in
over TCP from concurrent clients, and window estimates come out of the
query endpoint shortly after the watermark seals each window — an
always-on service, not a batch job.  This benchmark measures the whole
loop on a simulated webapp trace (the paper's Section 5.2 workload):

* **ingest throughput** — records/second admitted across two concurrent
  synthetic clients shipping the entry-ordered replay schedule (batches
  interleaved task-wise, watermark advanced alongside);
* **window-publish latency** — wall-clock delay from the moment a
  window's population became final (the watermark/seal passed its end)
  to the moment the service published its estimate, which bundles the
  StEM solve itself with every queueing/scheduling overhead in between;
* **steady-state memory + per-window latency** — a long compacting
  stream driven through the ingest -> watermark -> window -> compact
  cycle, reporting the warm-vs-tail per-window latency ratio (a flat
  ratio is the no-O(history) guarantee), the retained container sizes,
  and the checkpoint snapshot size at the end of the run.

Results land in the tracked ``benchmarks/results/live.json``, each
benchmark's under its own key together with the scale and the host's CPU
count, numba presence and Python/numpy versions; the committed copy is a
``REPRO_FULL=1`` run, so the trajectory lives in the repository.  The
smoke asserts the service finishes, every grid window is published, and
throughput clears a deliberately loose floor; regressions come from the
assertions.
"""

import os
import pickle
import threading
import time
from pathlib import Path

import numpy as np

from repro.experiments import render_table
from repro.live import EstimatorService, LiveClient, LiveServer, LiveTraceStream
from repro.live.records import replay_batches
from repro.observation import TaskSampling
from repro.online import StreamingEstimator
from repro.webapp import WebAppConfig, generate_webapp_trace

from conftest import full_scale, merge_result

#: Tracked result file: the committed trajectory of these measurements.
RESULT_PATH = Path(__file__).parent / "results" / "live.json"

#: Deliberately loose floor: catches "the server serialized everything
#: through one lock" class regressions, not scheduler noise.
MIN_RECORDS_PER_SECOND = 100.0

#: The steady-state tail may be this much slower than the warm early
#: batches — far inside any O(history) trend, far outside timer noise.
MAX_TAIL_TO_WARM_RATIO = 4.0


def test_live_serving_throughput_and_latency(benchmark):
    n_requests = 400 if not full_scale() else 2000
    sim = generate_webapp_trace(WebAppConfig(n_requests=n_requests), random_state=5)
    trace = TaskSampling(fraction=0.25).observe(sim.events, random_state=2)
    horizon = float(np.nanmax(sim.events.departure))
    n_windows = 6
    window = horizon / n_windows
    batches = replay_batches(trace, batch_tasks=16)

    def run():
        # Two unpaced clients interleave batches, so one can race its
        # watermark ahead of the other's in-flight measurements; a
        # lateness bound covering the whole replayed clock keeps those
        # legitimately-late records admitted (asserted: zero stragglers).
        stream = LiveTraceStream(
            n_queues=trace.skeleton.n_queues, lateness=horizon
        )
        estimator = StreamingEstimator(
            stream, window=window, stem_iterations=5, random_state=7
        )
        service = EstimatorService(estimator, poll_interval=0.01)
        window_ready_at: dict[int, float] = {}

        def note_ready(watermark: float) -> None:
            # Window i's population is final once the watermark clears
            # its end; the publish latency clock starts here.  (A couple
            # of spare slots: float rounding of horizon/n_windows can put
            # one more window on the service's grid than planned.)
            for i in range(n_windows + 2):
                if i not in window_ready_at and watermark >= (i + 1) * window:
                    window_ready_at[i] = time.time()

        def client_loop(my_batches, counters, index):
            client = LiveClient(server.address, authkey=b"bench")
            shipped = 0
            with client:
                for watermark, batch in my_batches:
                    client.advance_watermark(watermark)
                    note_ready(watermark)
                    client.ingest(batch)
                    shipped += len(batch)
            counters[index] = shipped

        with service.start(), LiveServer(service, authkey=b"bench") as server:
            counters = [0, 0]
            # Two concurrent producers, batches interleaved task-wise;
            # watermark advances race (monotone max) but stay harmless
            # under the lateness bound above.
            threads = [
                threading.Thread(
                    target=client_loop,
                    args=(batches[i::2], counters, i),
                    daemon=True,
                )
                for i in range(2)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            ingest_seconds = time.perf_counter() - t0
            seal_client = LiveClient(server.address, authkey=b"bench")
            with seal_client:
                seal_client.seal()
            seal_at = time.time()
            deadline = time.time() + 300.0
            while time.time() < deadline:
                health = service.health()
                if health["status"] in ("finished", "failed"):
                    break
                time.sleep(0.02)
            assert health["status"] == "finished", health["error"]
        published = service.windows()
        # Windows whose populations only the seal finalized (the grid
        # tail) start their latency clock at the seal.
        latencies = [
            max(published_at - window_ready_at.get(i, seal_at), 0.0)
            for i, published_at in enumerate(service.published_at)
        ]
        return sum(counters), ingest_seconds, published, latencies, health

    shipped, ingest_seconds, published, latencies, health = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    throughput = shipped / max(ingest_seconds, 1e-9)
    ok = [w for w in published if w.ok]
    rows = [
        ("records shipped (2 clients)", f"{shipped}"),
        ("ingest wall time", f"{ingest_seconds:.2f} s"),
        ("ingest throughput", f"{throughput:.0f} records/s"),
        ("windows published / grid", f"{len(published)} / {health['windows_published']}"),
        ("windows with estimates", f"{len(ok)}"),
        ("publish latency mean", f"{np.mean(latencies):.3f} s"),
        ("publish latency max", f"{np.max(latencies):.3f} s"),
    ]
    print(f"\n=== Live serving: ingest -> estimate -> query "
          f"({trace.skeleton.n_events} events, {n_windows} windows, "
          f"{len(os.sched_getaffinity(0))} cpu) ===")
    print(render_table(["metric", "value"], rows))
    result = {
        "benchmark": "live_serving",
        "n_events": int(trace.skeleton.n_events),
        "n_requests": int(n_requests),
        "n_windows": len(published),
        "records_shipped": int(shipped),
        "ingest_seconds": ingest_seconds,
        "ingest_records_per_second": throughput,
        "publish_latency_mean_seconds": float(np.mean(latencies)),
        "publish_latency_max_seconds": float(np.max(latencies)),
        "windows_ok": len(ok),
    }
    merge_result(RESULT_PATH, "live_serving", result)
    print(f"wrote {RESULT_PATH}")
    # Acceptance: every shipped record made it in (the racing watermarks
    # really were harmless), the service drained the whole grid, estimated
    # something, and ingestion was not pathologically serialized.
    assert health["n_stragglers"] == 0, (
        f"{health['n_stragglers']} records dropped as stragglers — the "
        "lateness bound no longer covers the client race"
    )
    assert health["n_admitted"] == shipped
    # Float rounding of horizon/n_windows can move the grid's window
    # count by one in either direction; off-by-more means lost windows.
    assert abs(len(published) - n_windows) <= 1
    assert ok, "no window produced an estimate"
    assert throughput > MIN_RECORDS_PER_SECOND, (
        f"ingest throughput {throughput:.0f} records/s below the "
        f"{MIN_RECORDS_PER_SECOND:.0f}/s floor"
    )


def test_steady_state_compaction_memory_and_latency(benchmark):
    """Per-window latency and memory of a long compacting stream.

    Drives the same ingest -> watermark -> window -> compact cycle a
    deployed service runs, with a retention horizon set and estimation
    stubbed out (``min_observed_tasks`` is unreachable) so the numbers
    isolate the stream machinery — assembly, reveal, compaction — which
    is exactly where the old lazy-rebuild path degraded with history.
    """
    n_tasks = 20_000 if not full_scale() else 120_000
    batch, dt, retain = 1000, 0.01, 50.0
    window = batch * dt  # one estimator window per ingest batch
    n_batches = n_tasks // batch

    def make_batch(start_task: int, t0: float) -> list[dict]:
        records = []
        for i in range(batch):
            task = start_task + i
            entry = t0 + i * dt
            records.append(
                {"task": task, "seq": 0, "queue": 0, "counter": task}
            )
            records.append(
                {"task": task, "seq": 1, "queue": 1, "counter": task,
                 "arrival": entry}
            )
            records.append(
                {"task": task, "seq": 2, "queue": 2, "counter": task,
                 "arrival": entry + 0.4, "departure": entry + 0.9,
                 "last": True}
            )
        return records

    def run():
        stream = LiveTraceStream(n_queues=3, retain=retain)
        estimator = StreamingEstimator(
            stream, window=window, stem_iterations=1, random_state=3,
            min_observed_tasks=10**9,
        )
        window_seconds = []
        t = 0.0
        for b in range(n_batches):
            records = make_batch(b * batch, t)
            start = time.perf_counter()
            stream.ingest(records)
            t += window
            stream.advance_watermark(t)
            while (estimator.n_windows_done + 1) * estimator.step <= t:
                estimator.process_window(
                    estimator.n_windows_done * estimator.step
                )
            stream.trace  # the per-window assembly access
            window_seconds.append(time.perf_counter() - start)
        snapshot_bytes = len(pickle.dumps(stream.snapshot_state()))
        return window_seconds, stream.memory_stats(), snapshot_bytes

    window_seconds, stats, snapshot_bytes = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    warm = window_seconds[max(2, n_batches // 10): max(3, n_batches // 4)]
    tail = window_seconds[-max(1, n_batches // 4):]
    ratio = float(np.median(tail)) / float(np.median(warm))
    horizon_tasks = retain / dt + batch
    rows = [
        ("records streamed", f"{3 * n_batches * batch}"),
        ("windows processed", f"{n_batches}"),
        ("retention horizon", f"{retain:.0f} clock (~{horizon_tasks:.0f} tasks)"),
        ("per-window latency (warm median)", f"{np.median(warm) * 1e3:.2f} ms"),
        ("per-window latency (tail median)", f"{np.median(tail) * 1e3:.2f} ms"),
        ("tail / warm ratio", f"{ratio:.2f}"),
        ("retained tasks at end", f"{stats['retained_tasks']}"),
        ("retained events at end", f"{stats['retained_events']}"),
        ("compacted tasks", f"{stats['compacted_tasks']}"),
        ("checkpoint snapshot size", f"{snapshot_bytes / 1024:.0f} KiB"),
    ]
    print(f"\n=== Live serving: steady-state compaction "
          f"({n_batches} windows, retain={retain:.0f}) ===")
    print(render_table(["metric", "value"], rows))
    merge_result(RESULT_PATH, "steady_state_compaction", {
        "n_records": int(3 * n_batches * batch),
        "n_windows": int(n_batches),
        "retain": retain,
        "window_latency_warm_median_seconds": float(np.median(warm)),
        "window_latency_tail_median_seconds": float(np.median(tail)),
        "window_latency_max_seconds": float(np.max(window_seconds)),
        "tail_to_warm_ratio": ratio,
        "retained_tasks": int(stats["retained_tasks"]),
        "retained_events": int(stats["retained_events"]),
        "compacted_tasks": int(stats["compacted_tasks"]),
        "snapshot_bytes": int(snapshot_bytes),
    })
    print(f"wrote {RESULT_PATH}")
    # Acceptance: no O(history) trend in the per-window cycle, and every
    # container plateaued at the horizon size instead of the stream age.
    assert ratio < MAX_TAIL_TO_WARM_RATIO, (
        f"steady-state tail is {ratio:.1f}x the warm median — the "
        "per-window cycle is growing with stream age again"
    )
    assert stats["retained_tasks"] <= 2 * horizon_tasks
    assert stats["compacted_tasks"] >= n_batches * batch - 2 * horizon_tasks
