"""Tests for the shared-nothing multi-service tier (repro.live.router).

Four layers:

* **Partition math** — the block-cyclic stripe and the slot rebase are
  pure functions; the rebase must enumerate each partition's entry slots
  densely (0, 1, 2, ...) in global-slot order, which is what lets every
  partition's stream believe it is watching a whole (smaller) system.
* **Tier end-to-end** — two real service processes behind one router,
  fronted by the stock :class:`LiveServer`: an unmodified
  :class:`LiveClient` drives the whole tier through one address.
* **Replay spool** — on an unstarted router: eviction by whole batches,
  trimming by checkpoint coverage, batches held pickled until replay.
* **Crash recovery** — SIGKILL one partition's process mid-stream; the
  router restarts it from its checkpoint, replays the spooled tail, and
  the tier's final estimates are bitwise the unkilled run's.
"""

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.errors import IngestError
from repro.live import (
    IngestRouter,
    LiveClient,
    LiveServer,
    ServiceConfig,
    entry_partition,
    rebase_slot,
    replay_batches,
    trace_to_records,
)
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.simulate import simulate_network


def make_trace(n_tasks=150, seed=3, fraction=0.3):
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=fraction).observe(sim.events, random_state=1)
    horizon = float(np.nanmax(sim.events.departure))
    return trace, horizon


def tier_config(trace, horizon, windows=2, **extra):
    return ServiceConfig(
        n_queues=trace.skeleton.n_queues, window=horizon / windows,
        stem_iterations=6, seed=5, poll_interval=0.02, **extra,
    )


def drive(target, trace, batch_tasks=16, kill_at=None, router=None,
          victim=0):
    """Replay *trace* into *target* (a router or a client), optionally
    SIGKILLing partition *victim*'s process before batch *kill_at*."""
    for i, (watermark, batch) in enumerate(
        replay_batches(trace, batch_tasks=batch_tasks)
    ):
        if kill_at is not None and i == kill_at:
            proc = router._partitions[victim].process
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(10.0)  # make the death visible before we continue
        target.advance_watermark(watermark)
        target.ingest(batch)
    target.seal()


def wait_finished(target, timeout=180.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        health = target.health()
        if health["status"] in ("finished", "failed"):
            return health
        time.sleep(0.05)
    raise AssertionError(f"tier never finished: {target.health()}")


def normalized(estimates):
    """Estimates as comparable tuples keyed on (partition, local index)."""
    out = []
    for r in estimates:
        rates = None if r["rates"] is None else np.asarray(r["rates"])
        out.append((r["partition"], r["partition_index"], r["t_start"],
                    r["t_end"], r["n_tasks"], rates))
    return out


class TestPartitionMath:
    def test_block_cyclic_stripe(self):
        n, block = 3, 4
        owners = [entry_partition(s, n, block) for s in range(3 * block * n)]
        # Whole blocks stay together, partitions rotate per block.
        assert owners[:4] == [0, 0, 0, 0]
        assert owners[4:8] == [1, 1, 1, 1]
        assert owners[8:12] == [2, 2, 2, 2]
        assert owners[12:16] == [0, 0, 0, 0]

    @pytest.mark.parametrize("n,block", [(1, 1), (2, 4), (3, 5), (4, 32)])
    def test_rebase_enumerates_each_partition_densely(self, n, block):
        """Each partition's rebased slots are exactly 0, 1, 2, ... in
        global-slot order — a dense entry prefix, as its stream requires."""
        owned = {p: [] for p in range(n)}
        for slot in range(10 * block * n + 3):
            p = entry_partition(slot, n, block)
            owned[p].append(rebase_slot(slot, n, block))
        for slots in owned.values():
            assert slots == list(range(len(slots)))

    def test_config_validation(self):
        with pytest.raises(IngestError, match="n_queues"):
            ServiceConfig(window=5.0)
        with pytest.raises(TypeError, match="window"):
            ServiceConfig(n_queues=3)
        with pytest.raises(TypeError, match="wibble"):
            ServiceConfig(n_queues=3, window=5.0, wibble=1)
        config = ServiceConfig(n_queues=3, window=5.0)
        with pytest.raises(IngestError, match="at least one"):
            IngestRouter(0, config)
        with pytest.raises(IngestError, match="block"):
            IngestRouter(2, config, block=0)


class TestTierEndToEnd:
    def test_one_address_serves_the_whole_tier(self):
        """An unmodified LiveClient drives an N=2 tier through a stock
        LiveServer: ingestion is striped across both services, queries
        come back merged with partition provenance."""
        trace, horizon = make_trace()
        config = tier_config(trace, horizon, windows=2)
        with IngestRouter(2, config, block=8) as router:
            with LiveServer(router, authkey=b"tier-key") as server:
                with LiveClient(server.address, authkey=b"tier-key") as client:
                    drive(client, trace)
                    health = wait_finished(client)
        assert health["status"] == "finished", health["error"]
        # Every record landed on some partition; none were lost in routing.
        assert health["n_admitted"] == trace.skeleton.n_events
        assert health["router"]["n_records_routed"] == trace.skeleton.n_events
        assert health["router"]["n_parked"] == 0
        assert health["router"]["n_restarts"] == 0
        assert len(health["partitions"]) == 2
        # Both partitions did real work (block=8 stripes 150 tasks widely).
        assert all(h["n_admitted"] > 0 for h in health["partitions"])
        assert sum(
            h["n_admitted"] for h in health["partitions"]
        ) == trace.skeleton.n_events

    def test_estimates_and_anomalies_merge_with_provenance(self):
        trace, horizon = make_trace()
        config = tier_config(trace, horizon, windows=2)
        with IngestRouter(2, config, block=8) as router:
            drive(router, trace)
            health = wait_finished(router)
            estimates = router.estimates()
            anomalies = router.anomalies()
            tail = router.estimates(since=1)
            with pytest.raises(IngestError, match="nonnegative"):
                router.estimates(since=-1)
        assert health["status"] == "finished", health["error"]
        assert estimates, "no windows published"
        assert health["windows_published"] == len(estimates)
        # Merged order is global time order with a stable partition tie
        # break, re-indexed; provenance keys survive.
        keys = [(r["t_start"], r["partition"]) for r in estimates]
        assert keys == sorted(keys)
        assert [r["index"] for r in estimates] == list(range(len(estimates)))
        assert {r["partition"] for r in estimates} == {0, 1}
        assert all("partition_index" in r for r in estimates)
        assert estimates[1:] == tail
        for report in anomalies:
            assert report["partition"] in (0, 1)

    def test_out_of_order_records_park_and_flush(self):
        """A record arriving before its task's entry record has no owner
        yet: it parks at the router and flushes to the owner the moment
        the entry record names one."""
        trace, horizon = make_trace(n_tasks=40)
        config = tier_config(trace, horizon, windows=1)
        records = trace_to_records(trace)
        by_task = {}
        for r in records:
            by_task.setdefault(r["task"], []).append(r)
        first = sorted(by_task)[0]
        followers = [r for r in by_task[first] if r["seq"] != 0]
        entry = [r for r in by_task[first] if r["seq"] == 0]
        with IngestRouter(2, config, block=4) as router:
            summary = router.ingest(followers)
            assert summary["parked"] == len(followers)
            assert summary["admitted"] == 0
            summary = router.ingest(entry)
            assert summary["parked"] == 0  # flushed with the entry record
            assert summary["admitted"] == 1 + len(followers)
            # Remaining tasks go in whole; sealing with nothing parked
            # reports nothing unroutable.
            rest = [r for t in sorted(by_task)[1:] for r in by_task[t]]
            router.ingest(rest)
            router.advance_watermark(horizon)
            sealed = router.seal()
            assert sealed["unroutable_records"] == 0
            with pytest.raises(IngestError, match="sealed"):
                router.ingest(entry)
            health = wait_finished(router)
        assert health["n_admitted"] == len(records)

    def test_sealing_drops_and_counts_orphaned_records(self):
        trace, horizon = make_trace(n_tasks=40)
        config = tier_config(trace, horizon, windows=1)
        records = trace_to_records(trace)
        orphans = [r for r in records if r["seq"] != 0][:3]
        with IngestRouter(2, config, block=4) as router:
            router.ingest(orphans)
            sealed = router.seal()
            assert sealed["unroutable_records"] == len(orphans)
            health = router.health()
            assert health["router"]["n_unroutable"] == len(orphans)


class TestSpool:
    """The replay spool on an unstarted router (no processes): bounded by
    whole batches, trimmed by checkpoint coverage, held encoded until a
    replay decodes it."""

    @staticmethod
    def spooled(max_spool_records):
        """Route and spool a 60-task trace in 8-task batches over two
        partitions; returns the router and each partition's groups in
        routing order."""
        trace, horizon = make_trace(n_tasks=60)
        router = IngestRouter(2, tier_config(trace, horizon), block=4,
                              max_spool_records=max_spool_records)
        routed = {0: [], 1: []}
        for _, batch in replay_batches(trace, batch_tasks=8):
            for p, group in router._route(batch).items():
                routed[p].append(group)
                # The clock a service would ack: records it has seen.
                clock = sum(len(g) for g in routed[p])
                router._spool(router._partitions[p], group, clock)
        return router, routed

    def test_eviction_drops_the_oldest_whole_batches(self):
        bound = 40
        router, routed = self.spooled(max_spool_records=bound)
        for p, groups in routed.items():
            handle = router._partitions[p]
            sizes = [len(g) for g in groups]
            clocks = [sum(sizes[:i + 1]) for i in range(len(sizes))]
            kept = len(handle.spool)
            assert 1 <= kept < len(groups)
            # The newest batches stay, whole; no older one would fit.
            assert [entry[0] for entry in handle.spool] == clocks[-kept:]
            assert handle.spool_records == sum(sizes[-kept:]) <= bound
            assert sum(sizes[-kept - 1:]) > bound
            assert handle.n_spool_evicted == sum(sizes[:-kept])
        counts = router.COUNTS.read(router)
        assert counts["spool_records"] + counts["n_spool_evicted"] == sum(
            len(g) for groups in routed.values() for g in groups
        )

    def test_eviction_keeps_at_least_one_batch(self):
        router, routed = self.spooled(max_spool_records=1)
        for p, groups in routed.items():
            handle = router._partitions[p]
            assert [entry[0] for entry in handle.spool] == [
                sum(len(g) for g in groups)
            ]
            assert handle.spool_records == len(groups[-1])
            assert handle.n_spool_evicted == sum(len(g) for g in groups[:-1])

    def test_trim_drops_exactly_the_covered_entries(self):
        router, routed = self.spooled(max_spool_records=100_000)
        handle = router._partitions[0]
        clocks = [entry[0] for entry in handle.spool]
        total = handle.spool_records
        # A checkpoint covering up to just before the fourth entry's ack.
        handle.trim_spool(clocks[3] - 1)
        assert [entry[0] for entry in handle.spool] == clocks[3:]
        assert handle.spool_records == total - sum(
            len(g) for g in routed[0][:3]
        )
        assert handle.n_spool_evicted == 0  # trimming is not eviction
        handle.trim_spool(clocks[-1])
        assert not handle.spool and handle.spool_records == 0

    def test_batches_are_held_encoded_and_decode_in_order(self):
        router, routed = self.spooled(max_spool_records=100_000)
        for p, groups in routed.items():
            entries = list(router._partitions[p].spool)
            assert len(entries) == len(groups)
            for (_, n_records, blob), group in zip(entries, groups):
                assert isinstance(blob, bytes)
                assert n_records == len(group)
                assert len(blob) <= 64 * n_records
                assert pickle.loads(blob) == group


@pytest.mark.slow
class TestCrashRecovery:
    def test_sigkill_partition_recovers_bitwise(self, tmp_path):
        """The acceptance contract: kill -9 one partition's service
        process mid-stream; the router restarts it from its newest
        checkpoint, replays the spooled tail, re-asserts the watermark,
        and the tier's final estimates are bitwise the unkilled run's."""
        trace, horizon = make_trace(n_tasks=150)
        config = tier_config(trace, horizon, windows=3, checkpoint_every=1)

        with IngestRouter(2, config, block=4) as router:
            drive(router, trace, batch_tasks=8)
            ref_health = wait_finished(router)
            ref = normalized(router.estimates())
        assert ref_health["status"] == "finished", ref_health["error"]
        assert ref, "reference run published nothing"

        with IngestRouter(
            2, config, block=4, checkpoint_dir=str(tmp_path),
            probe_interval=0.2,
        ) as router:
            # Kill partition 0 two thirds of the way through the replay —
            # late enough that windows (and with checkpoint_every=1, a
            # checkpoint) exist, early enough that real ingestion follows.
            n_batches = len(replay_batches(trace, batch_tasks=8))
            drive(router, trace, batch_tasks=8,
                  kill_at=(2 * n_batches) // 3, router=router, victim=0)
            health = wait_finished(router)
            got = normalized(router.estimates())
        assert health["status"] == "finished", health["error"]
        assert health["router"]["n_restarts"] >= 1
        assert health["router"]["restarts_per_partition"][0] >= 1
        assert health["n_admitted"] == trace.skeleton.n_events

        assert len(ref) == len(got)
        for a, b in zip(ref, got):
            assert a[:5] == b[:5]
            if a[5] is None:
                assert b[5] is None
            else:
                np.testing.assert_array_equal(a[5], b[5])

    def test_dead_partition_degrades_health_then_recovers(self, tmp_path):
        """Between the kill and the next probe/forward, health reports the
        tier degraded instead of lying or hanging; the supervisor then
        brings the partition back without any ingest traffic."""
        trace, horizon = make_trace(n_tasks=60)
        config = tier_config(trace, horizon, windows=1)
        with IngestRouter(
            2, config, block=4, checkpoint_dir=str(tmp_path),
            probe_interval=0.2,
        ) as router:
            proc = router._partitions[1].process
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(10.0)
            # The supervisor probe restores the partition on its own.
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if router._partitions[1].n_restarts >= 1:
                    break
                time.sleep(0.05)
            health = router.health()
            assert health["router"]["n_restarts"] >= 1
            assert health["status"] == "serving"
            # The revived partition serves traffic again.
            drive(router, trace)
            health = wait_finished(router)
            assert health["status"] == "finished", health["error"]
            assert health["n_admitted"] == trace.skeleton.n_events
