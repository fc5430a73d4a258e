"""Live serving: ingest -> estimate -> query, end to end in one process.

Demonstrates the `repro.live` subsystem: an EstimatorService supervises
the streaming estimator over a LiveTraceStream, a LiveServer exposes it
over TCP, and a client ships a simulated webapp trace as measurement
records (in entry order, watermark advanced alongside — exactly what a
real reporting agent would do), then queries the published per-window
estimates and anomaly flags back.

Run:  python examples/live_serving.py

The same flow split across two terminals, with the CLI:

    # terminal 1 — the always-on service (3 queues incl. entry queue 0)
    repro-queueing simulate --topology tandem --tasks 300 \
        --servers 1 2 --out /tmp/trace.jsonl
    repro-queueing serve --queues 3 --window 15 --port 7577 --authkey demo

    # terminal 2 — replay the recording into it at 20x real time
    repro-queueing ingest /tmp/trace.jsonl --connect 127.0.0.1:7577 \
        --authkey demo --observe 0.3 --speedup 20 --wait --shutdown
"""

import time

import numpy as np

from repro.live import (
    EstimatorService,
    LiveClient,
    LiveServer,
    LiveTraceStream,
    replay_batches,
)
from repro.observation import TaskSampling
from repro.online import StreamingEstimator
from repro.webapp import WebAppConfig, generate_webapp_trace

SEED = 7


def main() -> None:
    # 1. A recorded workload standing in for the monitored system: the
    #    paper's movie-voting webapp, censored to 25 % observed tasks.
    sim = generate_webapp_trace(WebAppConfig(n_requests=300), random_state=SEED)
    trace = TaskSampling(fraction=0.25).observe(sim.events, random_state=SEED)
    horizon = float(np.nanmax(sim.events.departure))
    print(trace.summary())

    # 2. The service: live stream -> streaming estimator -> supervisor,
    #    served over TCP with a shared-secret handshake.
    stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
    estimator = StreamingEstimator(
        stream, window=horizon / 5, stem_iterations=10, random_state=SEED
    )
    service = EstimatorService(estimator, poll_interval=0.05)
    with service.start(), LiveServer(service, authkey=b"demo") as server:
        host, port = server.address
        print(f"\nservice listening on {host}:{port}")

        # 3. The reporting agent: ship measurement records in entry
        #    order, advancing the watermark ("nothing older than this is
        #    still coming") ahead of every batch.
        with LiveClient(server.address, authkey=b"demo") as client:
            shipped = 0
            for watermark, batch in replay_batches(trace, batch_tasks=25):
                client.advance_watermark(watermark)
                shipped += client.ingest(batch)["admitted"]
            client.seal()
            print(f"shipped {shipped} measurement records; stream sealed")

            # 4. Query the estimates back as they finish publishing.
            while client.health()["status"] == "serving":
                time.sleep(0.1)
            health = client.health()
            print(f"service status: {health['status']}, "
                  f"{health['windows_published']} windows published\n")
            print("win   interval          tasks  mean service per queue")
            for est in client.estimates():
                if est["rates"] is not None:
                    services = "  ".join(
                        f"{1.0 / r:.4f}" for r in est["rates"][1:]
                    )
                else:
                    services = est["failure"] or "skipped (too few observed)"
                flag = " <- anomaly" if est["anomalous_queues"] else ""
                print(f"{est['index']:>3}   [{est['t_start']:7.1f},"
                      f"{est['t_end']:7.1f})  {est['n_tasks']:>5}  "
                      f"{services}{flag}")
    service.stop()
    print("\nserver closed, service stopped — done")


if __name__ == "__main__":
    main()
