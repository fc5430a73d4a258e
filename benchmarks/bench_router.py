"""Ingest throughput of the multi-service tier (repro.live.router).

Partitions share nothing — each service owns its stripe of the entry
keyspace, its own stream, its own estimator process — so the tier's
ingest capacity can grow with N until the router's own per-record work
(routing, spool encoding and frame pickling, all in the front process)
caps it.  This benchmark measures both sides of that claim on one host:

* **tier throughput** — records/second admitted end to end through a
  real loopback tier (router + N service processes, concurrent clients,
  every record crossing two sockets), wall clock at N=1, 2 and 4;
* **router per-record work** — the front process's routing decision,
  owner bookkeeping, spool encode and forwarded-frame pickling, timed on
  an *unstarted* router (no sockets, no services); its inverse is the
  router's capacity, which bounds the tier at any N.  The bytes the
  replay spool holds per record ride along.

Gate: the router's capacity is at least ``MIN_CAPACITY_OVER_N1`` times
the measured N=1 throughput, so the front process leaves room for that
many services' worth of ingest.  Wall-clock scaling at N=4 is asserted
only with >= 5 cpus: a smaller host time-shares 4 busy services, the
router and the clients, so its wall-clock numbers are reported, not
gated.

Results land in the tracked ``benchmarks/results/router.json`` with the
scale and the host; the committed copy is a ``REPRO_FULL=1`` run.
"""

import os
import pickle
import threading
import time
from pathlib import Path

from repro.experiments import render_table
from repro.live import IngestRouter, LiveClient, LiveServer, ServiceConfig

from conftest import full_scale, merge_result

RESULT_PATH = Path(__file__).parent / "results" / "router.json"

#: Floor on the router's capacity over the measured N=1 tier throughput.
MIN_CAPACITY_OVER_N1 = 3.0

#: Tasks per synthetic ingest batch (3 records per task).
BATCH_TASKS = 250


def make_batches(n_tasks: int, dt: float = 0.01) -> list[list[dict]]:
    """Synthetic 3-queue tandem measurement records, whole tasks per
    batch, globally dense entry counters (what the stripe routes on)."""
    batches = []
    for start in range(0, n_tasks, BATCH_TASKS):
        records = []
        for task in range(start, min(start + BATCH_TASKS, n_tasks)):
            entry = task * dt
            records.append({"task": task, "seq": 0, "queue": 0,
                            "counter": task})
            records.append({"task": task, "seq": 1, "queue": 1,
                            "counter": task, "arrival": entry})
            records.append({"task": task, "seq": 2, "queue": 2,
                            "counter": task, "arrival": entry + 0.4,
                            "departure": entry + 0.9, "last": True})
        batches.append(records)
    return batches


def tier_config(horizon: float) -> ServiceConfig:
    # Estimation is stubbed out (min_observed_tasks unreachable) so the
    # numbers isolate the ingest path — routing, wire, admission,
    # assembly — which is what the tier multiplies.
    return ServiceConfig(
        n_queues=3, window=horizon, min_observed_tasks=10**9,
        stem_iterations=1, seed=0, lateness=horizon,
    )


def measure_tier(n_services: int, batches: list, horizon: float,
                 n_clients: int = 4) -> float:
    """Records/second admitted through a live loopback tier."""
    n_records = sum(len(b) for b in batches)
    config = tier_config(horizon)
    with IngestRouter(n_services, config) as router:
        with LiveServer(router, authkey=b"bench") as server:

            def client_loop(my_batches):
                with LiveClient(server.address, authkey=b"bench") as client:
                    for batch in my_batches:
                        client.ingest(batch)

            threads = [
                threading.Thread(target=client_loop, args=(batches[i::n_clients],),
                                 daemon=True)
                for i in range(n_clients)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - t0
            health = router.health()
    assert health["n_admitted"] == n_records, health
    assert health["router"]["n_restarts"] == 0, health
    return n_records / max(elapsed, 1e-9)


def measure_router_work(batches: list, horizon: float) -> tuple[float, float]:
    """The front process's own per-record work, and its spool's size.

    Routing decision + owner bookkeeping + spool append (which encodes
    the batch) + the pickling of every forwarded frame, timed on an
    *unstarted* router: the serial front-process cost every record pays
    regardless of N.  Returns ``(microseconds per record, spool bytes
    per record)``.
    """
    router = IngestRouter(4, tier_config(horizon))
    n_records = sum(len(b) for b in batches)
    t0 = time.perf_counter()
    for batch in batches:
        groups = router._route(batch)
        for p, group in groups.items():
            pickle.dumps(("ingest", group), protocol=pickle.HIGHEST_PROTOCOL)
            router._spool(router._partitions[p], group, 0)
    elapsed = time.perf_counter() - t0
    handles = router._partitions
    spooled = sum(h.spool_records for h in handles)
    spool_bytes = sum(len(blob) for h in handles for _, _, blob in h.spool)
    router.close()
    return 1e6 * elapsed / n_records, spool_bytes / spooled


def test_router_aggregate_scaling(benchmark):
    n_tasks = 8_000 if not full_scale() else 40_000
    dt = 0.01
    horizon = n_tasks * dt + 1.0
    batches = make_batches(n_tasks, dt)
    n_records = sum(len(b) for b in batches)

    def run():
        tiers = {n: measure_tier(n, batches, horizon) for n in (1, 2, 4)}
        return tiers, measure_router_work(batches, horizon)

    tiers, (us_per_record, spool_bytes) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    t1 = tiers[1]
    capacity = 1e6 / us_per_record
    capacity_over_n1 = capacity / t1
    cpus = len(os.sched_getaffinity(0))
    rows = [
        ("records shipped per tier", f"{n_records}"),
        ("cpus", f"{cpus}"),
        *[(f"tier throughput N={n} (wall clock)", f"{t:.0f} records/s")
          for n, t in tiers.items()],
        ("measured N=2 / N=1", f"{tiers[2] / t1:.2f}x"),
        ("measured N=4 / N=1", f"{tiers[4] / t1:.2f}x"),
        ("router work per record (incl. spool encode)",
         f"{us_per_record:.2f} us"),
        ("router capacity", f"{capacity:.0f} records/s"),
        ("router capacity / N=1 throughput",
         f"{capacity_over_n1:.1f}x (gate >= {MIN_CAPACITY_OVER_N1:.0f}x)"),
        ("spool bytes per record", f"{spool_bytes:.1f}"),
    ]
    print(f"\n=== Router tier: ingest throughput "
          f"({n_records} records, {cpus} cpu) ===")
    print(render_table(["metric", "value"], rows))
    merge_result(RESULT_PATH, "router_scaling", {
        "n_records": int(n_records),
        "tier_records_per_second": {f"n{n}": t for n, t in tiers.items()},
        "measured_scaling_n2": tiers[2] / t1,
        "measured_scaling_n4": tiers[4] / t1,
        "router_us_per_record": us_per_record,
        "router_capacity_records_per_second": capacity,
        "router_capacity_over_n1": capacity_over_n1,
        "spool_bytes_per_record": spool_bytes,
    })
    print(f"wrote {RESULT_PATH}")
    assert capacity_over_n1 >= MIN_CAPACITY_OVER_N1, (
        f"router capacity is {capacity_over_n1:.1f}x the N=1 throughput — "
        "the front process's own work eats the shared-nothing win"
    )
    if cpus >= 5:
        measured_scaling = tiers[4] / t1
        assert measured_scaling > 1.5, (
            f"wall-clock N=4 scaling {measured_scaling:.2f}x on {cpus} "
            "cpus — the tier is serializing somewhere"
        )
