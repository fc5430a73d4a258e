"""Contract tests for the versioned health schema and the metrics wire
command, parametrized over both serving front-ends (single
EstimatorService behind a LiveServer, and a shared-nothing IngestRouter
tier) so the two can never drift apart.

The last group pins one source of truth per count: every series a
component's ``COUNTS`` table exposes reads, in ``metrics``, exactly the
owner's attribute and its ``health`` field — after a normal drain, after
a seal that drops unfinishable tasks, and after a restore from a
checkpoint into a fresh registry.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro import telemetry
from repro.errors import IngestError
from repro.live import (
    EstimatorService,
    IngestRouter,
    LiveClient,
    LiveServer,
    LiveTraceStream,
    replay_batches,
)
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.online import SMCEstimator
from repro.online.streaming import StreamingEstimator
from repro.simulate import simulate_network
from repro.telemetry.spec import kind_of

#: Sections every schema-1 health record must carry.
SECTIONS = ("service", "stream", "workers")


def make_trace(n_tasks=120, seed=3, fraction=0.4):
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=fraction).observe(sim.events, random_state=1)
    horizon = float(np.nanmax(sim.events.departure))
    return trace, horizon


def wait_finished(health_fn, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = health_fn()
        if health["status"] in ("finished", "failed"):
            return health
        time.sleep(0.05)
    raise AssertionError("service did not finish in time")


@pytest.fixture(scope="module")
def service_replies():
    """(health, metrics_fn) from a driven single-service instance."""
    trace, horizon = make_trace()
    with telemetry.isolated(enabled=True):
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        estimator = StreamingEstimator(
            stream, window=horizon / 2, stem_iterations=6,
            min_observed_tasks=2, random_state=5,
        )
        service = EstimatorService(estimator, poll_interval=0.02)
        service.start()
        try:
            for watermark, batch in replay_batches(trace, batch_tasks=32):
                service.advance_watermark(watermark)
                service.ingest(batch)
            service.seal()
            health = wait_finished(service.health)
            replies = {
                fmt: service.metrics_report(fmt)
                for fmt in ("snapshot", "json", "prometheus")
            }
        finally:
            service.stop()
    yield health, replies


@pytest.fixture(scope="module")
def router_replies():
    """(health, metrics replies) from a driven two-partition tier."""
    trace, horizon = make_trace()
    config = {
        "n_queues": trace.skeleton.n_queues,
        "window": horizon / 2,
        "stem_iterations": 6,
        "min_observed_tasks": 2,
        "random_state": 5,
        "poll_interval": 0.02,
    }
    with telemetry.isolated(enabled=True):
        with IngestRouter(2, config, block=8) as router:
            for watermark, batch in replay_batches(trace, batch_tasks=32):
                router.advance_watermark(watermark)
                router.ingest(batch)
            router.seal()
            health = wait_finished(router.health)
            replies = {
                fmt: router.metrics_report(fmt)
                for fmt in ("snapshot", "json", "prometheus")
            }
    yield health, replies


@pytest.fixture(scope="module", params=["service", "router"])
def replies(request, service_replies, router_replies):
    if request.param == "service":
        return service_replies
    return router_replies


class TestHealthSchema:
    def test_versioned_and_sectioned(self, replies):
        health, _ = replies
        assert health["schema"] == 1
        for section in SECTIONS:
            assert section in health
            assert health[section] is None or isinstance(
                health[section], dict
            )

    def test_service_section_contract(self, replies):
        health, _ = replies
        service = health["service"]
        for key in ("status", "error", "windows_published", "anomalies",
                    "horizon", "n_records_seen"):
            assert key in service
        assert service["status"] == "finished"
        assert service["windows_published"] >= 1

    def test_stream_section_contract(self, replies):
        health, _ = replies
        stream = health["stream"]
        for key in ("watermark", "sealed", "n_admitted", "n_duplicates",
                    "n_late", "n_stragglers", "n_dropped_tasks",
                    "n_revealed", "n_pending"):
            assert key in stream
        assert stream["sealed"] is True
        assert stream["n_admitted"] > 0

    def test_flat_compat_mirror(self, replies):
        """One-release shim: every nested service/stream key is mirrored
        flat at the top level with the same value."""
        health, _ = replies
        for section in ("service", "stream"):
            body = health[section]
            if body is None:
                continue
            for key, value in body.items():
                assert key in health
                assert health[key] == value


class TestRouterHealthExtras:
    def test_router_section(self, router_replies):
        health, _ = router_replies
        router = health["router"]
        for key in ("n_partitions", "n_records_routed", "n_parked",
                    "n_unroutable", "n_restarts", "spool_records",
                    "restarts_per_partition"):
            assert key in router
        assert router["n_records_routed"] > 0
        assert len(health["partitions"]) == 2

    def test_partitions_are_schema_1(self, router_replies):
        health, _ = router_replies
        for partition in health["partitions"]:
            assert partition["schema"] == 1
            assert partition["service"]["status"] == "finished"


class TestMetricsReplies:
    def test_snapshot_schema(self, replies):
        _, metrics = replies
        snap = metrics["snapshot"]
        assert snap["schema"] == 1
        names = {m["name"] for m in snap["metrics"]}
        assert "repro_window_phase_seconds" in names
        assert "repro_stream_records_admitted_total" in names
        assert "repro_kernel_sweeps_total" in names
        assert "repro_service_windows_published_total" in names
        assert len(snap["window_traces"]) >= 1

    def test_json_parses(self, replies):
        _, metrics = replies
        parsed = json.loads(metrics["json"])
        assert parsed["schema"] == 1
        assert parsed["metrics"]

    def test_prometheus_text(self, replies):
        _, metrics = replies
        text = metrics["prometheus"]
        assert "# TYPE repro_window_phase_seconds histogram" in text
        assert "repro_window_phase_seconds_bucket" in text
        assert "repro_stream_records_admitted_total" in text

    def test_router_partition_provenance(self, router_replies):
        _, metrics = router_replies
        snap = metrics["snapshot"]
        partitions = {
            m["labels"].get("partition")
            for m in snap["metrics"]
        }
        assert {"0", "1"} <= partitions
        assert None in partitions  # the router's own series
        names = {m["name"] for m in snap["metrics"]}
        assert "repro_router_records_routed_total" in names
        text = metrics["prometheus"]
        assert 'partition="0"' in text and 'partition="1"' in text


class TestWireRoundTrip:
    def test_metrics_command_over_tcp(self):
        trace, horizon = make_trace(n_tasks=80)
        with telemetry.isolated(enabled=True):
            stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
            estimator = StreamingEstimator(
                stream, window=horizon, stem_iterations=4,
                min_observed_tasks=2, random_state=5,
            )
            service = EstimatorService(estimator, poll_interval=0.02)
            with LiveServer(service) as server:
                service.start()
                try:
                    with LiveClient(server.address) as client:
                        for watermark, batch in replay_batches(
                            trace, batch_tasks=32
                        ):
                            client.advance_watermark(watermark)
                            client.ingest(batch)
                        client.seal()
                        wait_finished(client.health)
                        snap = client.metrics("snapshot")
                        assert snap["schema"] == 1
                        assert json.loads(client.metrics("json"))["metrics"]
                        text = client.metrics("prometheus")
                        assert "repro_window_phase_seconds_bucket" in text
                        # The wire layer counts its own dispatches.
                        names = {m["name"] for m in snap["metrics"]}
                        assert "repro_server_requests_total" in names
                finally:
                    service.stop()


# ----------------------------------------------------------------------
# One source of truth per count: metrics == owner attribute == health.
# ----------------------------------------------------------------------

#: Tasks whose closing (``last``) record is never shipped, so the seal
#: must drop them as unfinishable.
UNFINISHABLE = (11, 23, 35, 47, 59)

#: Health section -> the table of the component that owns it.  The SMC
#: estimator's table is a superset of StEM's, so SMC covers every series.
TABLES = {
    "service": EstimatorService.COUNTS,
    "stream": LiveTraceStream.COUNTS,
    "estimator": SMCEstimator.COUNTS,
    "server": LiveServer.COUNTS,
}

CASES = ("drained", "sealed-with-drops", "restored")


def owned(table):
    """``(key, series)`` for every row with a metric twin."""
    return [
        (key, name) for key, (name, _) in table.rows.items() if name is not None
    ]


def counter_counts(health, tables):
    """Every counter-kind count a health record reports, by section."""
    return {
        section: {
            key: health[section][key]
            for key, name in owned(table) if kind_of(name) == "counter"
        }
        for section, table in tables.items()
    }


def series_value(snapshot, name, **labels):
    """The one value of series *name* carrying exactly *labels*."""
    want = {key: str(value) for key, value in labels.items()}
    values = [
        m["value"] for m in snapshot["metrics"]
        if m["name"] == name and m["labels"] == want
    ]
    assert len(values) == 1, (name, want, values)
    return values[0]


def contract_config(trace, horizon):
    return {
        "n_queues": trace.skeleton.n_queues,
        "window": horizon / 4,
        "step": horizon / 8,
        "estimator": "smc",
        "stem_iterations": 6,
        "min_observed_tasks": 2,
        "n_particles": 8,
        "random_state": 5,
        "poll_interval": 0.02,
    }


def ship(client, trace, case, part=slice(None)):
    """Replay batches *part* of *trace* over *client*, holding back the
    closing records of UNFINISHABLE in the drops case."""
    withheld = UNFINISHABLE if case == "sealed-with-drops" else ()
    for watermark, batch in replay_batches(trace, batch_tasks=16)[part]:
        client.advance_watermark(watermark)
        client.ingest([
            r for r in batch if not (r["last"] and r["task"] in withheld)
        ])


def knock_with_the_wrong_key(address):
    """One handshake rejection, so the server's rejected count is not 0."""
    with pytest.raises(IngestError):
        LiveClient(address, authkey=b"not-the-key")


def settled(client, owners, timeout=120.0):
    """``(health, metrics, attributes)`` once the service has finished
    and health reads before and after the metrics read and the owners'
    attribute reads agree (a background checkpoint may still land right
    after the status flips to finished, and the router's probe trims its
    spools on its own schedule).  *owners* maps a health section to its
    ``(table, owner)``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        before = client.health()
        if before["service"]["status"] in ("finished", "failed"):
            metrics = client.metrics("snapshot")
            attributes = {
                section: table.read(owner)
                for section, (table, owner) in owners.items()
            }
            after = client.health()
            if all(after.get(k) == before.get(k) for k in (*TABLES, "router")):
                assert after["service"]["status"] == "finished", after
                return after, metrics, attributes
        time.sleep(0.05)
    raise AssertionError("service did not settle in time")


def service_owners(service, server):
    return {
        "service": (EstimatorService.COUNTS, service),
        "stream": (LiveTraceStream.COUNTS, service.stream),
        "estimator": (SMCEstimator.COUNTS, service.estimator),
        "server": (LiveServer.COUNTS, server),
    }


def run_service(case, workdir, enabled=True):
    """Drive one EstimatorService behind a LiveServer through *case*."""
    trace, horizon = make_trace()
    config = contract_config(trace, horizon)
    path = os.path.join(workdir, "service.ckpt")
    with telemetry.isolated(enabled=enabled):
        stream = LiveTraceStream(n_queues=config.pop("n_queues"))
        config.pop("estimator")
        poll_interval = config.pop("poll_interval")
        estimator = SMCEstimator(stream, **config)
        service = EstimatorService(
            estimator, checkpoint_path=path, poll_interval=poll_interval
        )
        with service, LiveServer(service) as server:
            knock_with_the_wrong_key(server.address)
            with LiveClient(server.address) as client:
                ship(client, trace, case)
                client.seal()
                result = settled(client, service_owners(service, server))
    if case == "restored":
        # A fresh registry: the restored owners must resume every series
        # from the checkpoint, not count from zero.
        with telemetry.isolated(enabled=enabled):
            service = EstimatorService.from_checkpoint(path)
            with service, LiveServer(service) as server:
                knock_with_the_wrong_key(server.address)
                with LiveClient(server.address) as client:
                    result = settled(client, service_owners(service, server))
    return result


def run_router(case, workdir, enabled=True):
    """Drive a two-partition tier behind a LiveServer through *case*; in
    the restored case partition 0 is SIGKILLed after its first
    checkpoint and restored from it mid-stream."""
    trace, horizon = make_trace()
    with telemetry.isolated(enabled=enabled):
        with IngestRouter(
            2, contract_config(trace, horizon), block=8,
            checkpoint_dir=workdir, probe_interval=0.2,
        ) as router, LiveServer(router) as server:
            knock_with_the_wrong_key(server.address)
            with LiveClient(server.address) as client:
                if case == "restored":
                    ship(client, trace, case, slice(None, 6))
                    deadline = time.monotonic() + 60.0
                    while not client.health()["partitions"][0]["service"][
                        "checkpoint_meta"
                    ]:
                        assert time.monotonic() < deadline, "no checkpoint"
                        time.sleep(0.05)
                    victim = router._partitions[0].process
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join(10.0)
                    ship(client, trace, case, slice(6, None))
                else:
                    ship(client, trace, case)
                client.seal()
                result = settled(client, {
                    "router": (IngestRouter.COUNTS, router),
                    "server": (LiveServer.COUNTS, server),
                })
    if case == "restored":
        assert result[0]["router"]["restarts_per_partition"][0] >= 1
    return result


@pytest.fixture(scope="module")
def contract_runs(tmp_path_factory):
    """Each (front-end, case) scenario, run once for the module."""
    cache = {}

    def get(front, case, enabled=True):
        key = (front, case, enabled)
        if key not in cache:
            workdir = str(tmp_path_factory.mktemp(f"{front}-{case}"))
            runner = run_service if front == "service" else run_router
            cache[key] = runner(case, workdir, enabled)
        return cache[key]

    return get


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("front", ["service", "router"])
def test_each_count_reads_the_same_in_metrics_and_health(
    contract_runs, front, case
):
    health, metrics, attributes = contract_runs(front, case)
    n_checked = 0

    def check(section_body, table, attribute=None, **labels):
        nonlocal n_checked
        for key, name in owned(table):
            value = series_value(metrics, name, **labels)
            assert value == (section_body[key] or 0), (name, labels)
            if attribute is not None:
                assert attribute[key] == section_body[key], (name, labels)
            n_checked += 1

    if front == "service":
        for section, table in TABLES.items():
            check(health[section], table, attributes[section])
    else:
        check(health["router"], IngestRouter.COUNTS, attributes["router"])
        check(health["server"], LiveServer.COUNTS, attributes["server"])
        # A partition's owners live in its own process: its health
        # sections are their attribute reads.
        for p, partition in enumerate(health["partitions"]):
            for section, table in TABLES.items():
                check(partition[section], table, partition=p)
        # The merged sections are the partitions' sums.
        for section in ("service", "stream", "estimator"):
            for key, _ in owned(TABLES[section]):
                assert health[section][key] == sum(
                    part[section][key] or 0 for part in health["partitions"]
                ), (section, key)
        # Only the router reports the router's series: a partition is
        # forked from the router, but starts a registry of its own.
        assert not [
            m for m in metrics["metrics"]
            if m["name"].startswith("repro_router_") and m["labels"]
        ]
    # Every owned series is exposed: 8 stream + 4 service + 2 estimator +
    # 2 server counts per service, plus the router's own 6.
    assert n_checked == (16 if front == "service" else 2 * 16 + 6 + 2)
    if case == "sealed-with-drops":
        assert health["stream"]["n_dropped_tasks"] == len(UNFINISHABLE)
    if case == "restored":
        assert health["stream"]["n_admitted"] > 0
    assert health["server"]["n_rejected"] == 1


@pytest.mark.parametrize("front", ["service", "router"])
def test_counts_do_not_depend_on_telemetry(contract_runs, front):
    """REPRO_TELEMETRY=0 turns the metrics export off, never the counts
    health reports: the same ingest sequence counts identically."""
    on, _, _ = contract_runs(front, "sealed-with-drops", enabled=True)
    off, off_metrics, _ = contract_runs(front, "sealed-with-drops",
                                        enabled=False)
    assert off_metrics["metrics"] == []
    tables = dict(TABLES)
    if front == "router":
        tables["router"] = IngestRouter.COUNTS
    assert counter_counts(off, tables) == counter_counts(on, tables)
    assert off["stream"]["n_dropped_tasks"] == len(UNFINISHABLE)
