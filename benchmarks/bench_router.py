"""Aggregate ingest throughput of the multi-service tier (repro.live.router).

The router's scaling claim is architectural: partitions share nothing —
each service owns its stripe of the entry keyspace, its own stream, its
own estimator process — so aggregate ingest capacity grows with N until
the router's own per-record work (routing + frame pickling, all in the
front process) becomes the bottleneck.  This benchmark measures both
sides of that claim on one host:

* **measured tier throughput** — records/second admitted end-to-end
  through a real loopback tier (router + N service processes, concurrent
  clients, every record crossing two sockets), at N=1 and N=4;
* **measured router capacity** — the front process's per-record cost
  (routing decision + spool + forwarded-frame pickling) micro-measured
  in isolation: its inverse bounds any N;
* **modeled aggregate at N=4** — ``min(4 x T1, router capacity)`` from
  the two measured numbers: a CI runner with a couple of cores cannot
  time-share 5 busy processes into a real 4x, so the wall-clock tier
  numbers are reported (and asserted only with >= 5 cpus) while the
  acceptance gate — modeled aggregate scaling at N=4 must clear
  ``MIN_MODELED_SCALING_AT_4`` — comes from measured component costs.

Results land in ``BENCH_router.json`` (uploaded as a CI artifact).
"""

import json
import os
import pickle
import threading
import time

from repro.experiments import render_table
from repro.live import IngestRouter, LiveClient, LiveServer, ServiceConfig

from conftest import full_scale

#: Where the machine-readable result lands (uploaded as a CI artifact).
RESULT_PATH = "BENCH_router.json"

#: Acceptance floor for the modeled aggregate scaling at N=4 services.
MIN_MODELED_SCALING_AT_4 = 3.0

#: Tasks per synthetic ingest batch (3 records per task).
BATCH_TASKS = 250


def merge_result(key: str, payload: dict) -> None:
    """Merge one benchmark's result into ``BENCH_router.json``."""
    data: dict = {}
    if os.path.exists(RESULT_PATH):
        try:
            with open(RESULT_PATH, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            data = {}
    data[key] = payload
    with open(RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


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


def measure_router_capacity(batches: list, horizon: float) -> float:
    """Records/second of the front process's own per-record work.

    Routing decision + owner bookkeeping + spool append + the pickling
    of every forwarded frame, measured on an *unstarted* router (no
    sockets, no services): the serial front-process cost every record
    pays regardless of N, whose inverse caps aggregate throughput.
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
    router.close()
    return n_records / max(elapsed, 1e-9)


def test_router_aggregate_scaling(benchmark):
    n_tasks = 8_000 if not full_scale() else 40_000
    dt = 0.01
    horizon = n_tasks * dt + 1.0
    batches = make_batches(n_tasks, dt)
    n_records = sum(len(b) for b in batches)

    def run():
        t1 = measure_tier(1, batches, horizon)
        t4 = measure_tier(4, batches, horizon)
        capacity = measure_router_capacity(batches, horizon)
        return t1, t4, capacity

    t1, t4, capacity = benchmark.pedantic(run, rounds=1, iterations=1)
    modeled_aggregate = min(4 * t1, capacity)
    modeled_scaling = modeled_aggregate / t1
    measured_scaling = t4 / t1
    cpus = len(os.sched_getaffinity(0))
    rows = [
        ("records shipped per tier", f"{n_records}"),
        ("tier throughput N=1", f"{t1:.0f} records/s"),
        ("tier throughput N=4 (wall clock)", f"{t4:.0f} records/s"),
        ("measured N=4 / N=1", f"{measured_scaling:.2f}x"),
        ("router front-process capacity", f"{capacity:.0f} records/s"),
        ("modeled aggregate at N=4", f"{modeled_aggregate:.0f} records/s"),
        ("modeled scaling at N=4", f"{modeled_scaling:.2f}x"),
        ("cpus", f"{cpus}"),
    ]
    print(f"\n=== Router tier: aggregate ingest scaling "
          f"({n_records} records, {cpus} cpu) ===")
    print(render_table(["metric", "value"], rows))
    merge_result("router_scaling", {
        "n_records": int(n_records),
        "cpus": int(cpus),
        "tier_records_per_second_n1": t1,
        "tier_records_per_second_n4": t4,
        "measured_scaling_n4": measured_scaling,
        "router_capacity_records_per_second": capacity,
        "modeled_aggregate_records_per_second_n4": modeled_aggregate,
        "modeled_scaling_n4": modeled_scaling,
    })
    print(f"wrote {RESULT_PATH}")
    # Acceptance: the shared-nothing split really buys aggregate capacity
    # — the router's own per-record work leaves >= 3x headroom over one
    # service at N=4.  Wall-clock scaling is asserted only when the host
    # can actually run 4 busy services + router + clients concurrently.
    assert modeled_scaling >= MIN_MODELED_SCALING_AT_4, (
        f"modeled aggregate scaling at N=4 is {modeled_scaling:.2f}x — "
        "the router's front-process work eats the shared-nothing win"
    )
    if cpus >= 5:
        assert measured_scaling > 1.5, (
            f"wall-clock N=4 scaling {measured_scaling:.2f}x on {cpus} "
            "cpus — the tier is serializing somewhere"
        )
