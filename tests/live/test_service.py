"""Tests for the estimation supervisor (repro.live.service)."""

import threading
import time

import numpy as np
import pytest

from repro.errors import IngestError, InferenceError
from repro.live import (
    EstimatorService,
    LiveTraceStream,
    estimate_to_record,
    replay_batches,
    trace_to_records,
)
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.online import SMCEstimator, StreamingEstimator
from repro.simulate import simulate_network


def make_trace(n_tasks=250, seed=11, fraction=0.3):
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=fraction).observe(sim.events, random_state=1)
    horizon = float(np.nanmax(sim.events.departure))
    return trace, horizon


def make_estimator(stream, horizon, windows=5, **kwargs):
    kwargs.setdefault("stem_iterations", 8)
    kwargs.setdefault("random_state", 5)
    return StreamingEstimator(stream, window=horizon / windows, **kwargs)


def wait_finished(service, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = service.health()["status"]
        if status in ("finished", "failed"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"service never drained: {service.health()}")


def assert_windows_equal(ref, got):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        assert (a.t_start, a.t_end) == (b.t_start, b.t_end)
        assert (a.n_tasks, a.n_observed_tasks) == (b.n_tasks, b.n_observed_tasks)
        if a.rates is None:
            assert b.rates is None
        else:
            np.testing.assert_array_equal(a.rates, b.rates)


class TestSupervisor:
    def test_windows_publish_incrementally_before_seal(self):
        """The service must not wait for end-of-input: windows whose task
        population is final are estimated while ingestion continues."""
        trace, horizon = make_trace()
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        service = EstimatorService(
            make_estimator(stream, horizon, windows=5), poll_interval=0.02
        )
        published_before_seal = 0
        with service.start():
            for watermark, batch in replay_batches(trace, batch_tasks=16):
                stream.advance_watermark(watermark)
                stream.ingest(batch)
                published_before_seal = max(
                    published_before_seal, len(service.windows())
                )
                time.sleep(0.005)  # let the supervisor interleave
            deadline = time.time() + 30.0
            while time.time() < deadline and not service.windows():
                time.sleep(0.02)
            published_before_seal = max(
                published_before_seal, len(service.windows())
            )
            stream.seal()
            assert wait_finished(service) == "finished"
            total = len(service.windows())
        assert published_before_seal >= 1
        assert total > published_before_seal  # the tail needed the seal

    def test_live_service_matches_offline_streaming_run_bitwise(self):
        trace, horizon = make_trace()
        offline_stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        offline_stream.ingest(trace_to_records(trace))
        offline_stream.seal()
        ref = make_estimator(offline_stream, horizon).run()
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        service = EstimatorService(
            make_estimator(stream, horizon), poll_interval=0.02
        )
        with service.start():
            for watermark, batch in replay_batches(trace):
                stream.advance_watermark(watermark)
                stream.ingest(batch)
            stream.seal()
            assert wait_finished(service) == "finished"
            got = service.windows()
        assert_windows_equal(ref, got)

    def test_estimator_failures_surface_in_health(self):
        trace, horizon = make_trace(n_tasks=80)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        estimator = make_estimator(stream, horizon, windows=2)
        estimator.process_window = lambda t0: (_ for _ in ()).throw(
            ValueError("boom")
        )
        service = EstimatorService(estimator, poll_interval=0.02)
        with service.start():
            stream.ingest(trace_to_records(trace))
            stream.seal()
            assert wait_finished(service) == "failed"
            health = service.health()
        assert "boom" in health["error"]

    def test_validation_and_estimate_records(self):
        trace, horizon = make_trace(n_tasks=80)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        estimator = make_estimator(stream, horizon, windows=1)
        with pytest.raises(IngestError, match="checkpoint_every"):
            EstimatorService(estimator, checkpoint_every=0)
        service = EstimatorService(estimator, poll_interval=0.02)
        with service.start():
            stream.ingest(trace_to_records(trace))
            stream.seal()
            assert wait_finished(service) == "finished"
            windows = service.windows()
            records = service.estimates()
        record = estimate_to_record(windows[0], 0)
        assert record["index"] == 0
        assert record["n_tasks"] == windows[0].n_tasks
        assert records[0]["rates"] == pytest.approx(list(windows[0].rates))
        assert records[0]["anomalous_queues"] == []

    def test_replay_only_streams_refuse_ingestion_commands(self):
        from repro.online import ReplayTraceStream

        trace, horizon = make_trace(n_tasks=80)
        service = EstimatorService(
            make_estimator(ReplayTraceStream(trace), horizon, windows=1)
        )
        with pytest.raises(IngestError, match="does not accept ingestion"):
            service.ingest([])
        with pytest.raises(IngestError, match="no watermark"):
            service.advance_watermark(1.0)
        with pytest.raises(IngestError, match="cannot be sealed"):
            service.seal()

    def test_service_over_a_replay_stream_finishes(self):
        """Regression: a stream without a seal notion is always-sealed —
        the service must drain its grid and reach 'finished', not spin in
        'serving' forever."""
        from repro.online import ReplayTraceStream

        trace, horizon = make_trace(n_tasks=80)
        service = EstimatorService(
            make_estimator(ReplayTraceStream(trace), horizon, windows=2),
            poll_interval=0.02,
        )
        with service.start():
            assert wait_finished(service, timeout=60.0) == "finished"
            assert len(service.windows()) == 2


class TestCheckpointRestore:
    """Acceptance: checkpoint -> restart -> resume reproduces frozen-window
    estimates bitwise, replaying only the tail."""

    def test_resumed_service_is_bitwise_the_uninterrupted_run(self, tmp_path):
        trace, horizon = make_trace()
        batches = replay_batches(trace, batch_tasks=8)
        # Uninterrupted reference over the identical record stream.
        ref_stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        ref_stream.ingest(trace_to_records(trace))
        ref_stream.seal()
        ref = make_estimator(
            ref_stream, horizon, shards=2, shard_workers=2,
            repartition="incremental",
        ).run()
        assert sum(w.ok for w in ref) >= 3
        # Interrupted run: ingest 60%, let some windows publish, "crash".
        ckpt = str(tmp_path / "service.ckpt")
        stream1 = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        service1 = EstimatorService(
            make_estimator(
                stream1, horizon, shards=2, shard_workers=2,
                repartition="incremental",
            ),
            checkpoint_path=ckpt, poll_interval=0.02,
        )
        cut = int(len(batches) * 0.6)
        with service1.start():
            for watermark, batch in batches[:cut]:
                stream1.advance_watermark(watermark)
                stream1.ingest(batch)
            deadline = time.time() + 60.0
            while time.time() < deadline and len(service1.windows()) < 1:
                time.sleep(0.02)
        pre_crash = service1.windows()
        assert len(pre_crash) >= 1
        # Restore and replay only the tail (overlapping the cut, as an
        # at-least-once client would; duplicates are ignored).
        service2 = EstimatorService.from_checkpoint(ckpt)
        stream2 = service2.stream
        assert len(service2.windows()) == len(pre_crash)
        with service2.start():
            for watermark, batch in batches[max(cut - 3, 0):]:
                stream2.advance_watermark(watermark)
                stream2.ingest(batch)
            stream2.seal()
            assert wait_finished(service2) == "finished"
            resumed = service2.windows()
        assert stream2.n_duplicates > 0  # the overlap really was replayed
        # Pre-crash windows survived the restart bitwise, and the resumed
        # tail is exactly what the uninterrupted run produced.
        assert_windows_equal(pre_crash, resumed[: len(pre_crash)])
        assert_windows_equal(ref, resumed)

    def test_restore_rejects_unknown_versions(self, tmp_path):
        import pickle

        path = tmp_path / "bad.ckpt"
        path.write_bytes(pickle.dumps({"version": 99}))
        with pytest.raises(IngestError, match="checkpoint version"):
            EstimatorService.from_checkpoint(str(path))

    def test_restore_rejects_a_checkpoint_without_an_estimator_name(
        self, tmp_path
    ):
        import pickle

        trace, horizon = make_trace(n_tasks=40)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        path = str(tmp_path / "service.ckpt")
        service = EstimatorService(
            make_estimator(stream, horizon, windows=1), checkpoint_path=path
        )
        service.ingest(trace_to_records(trace))
        service.checkpoint()
        with open(path, "rb") as fh:
            snapshot = pickle.load(fh)
        del snapshot["estimator"]["estimator"]
        with open(path, "wb") as fh:
            pickle.dump(snapshot, fh)
        with pytest.raises(InferenceError, match="unknown estimator None"):
            EstimatorService.from_checkpoint(path)

    def test_checkpoint_is_skipped_without_a_path(self):
        trace, horizon = make_trace(n_tasks=80)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        service = EstimatorService(
            make_estimator(stream, horizon, windows=1), poll_interval=0.02
        )
        service.checkpoint()  # no path: a no-op, not an error


class TestQueryValidation:
    def test_estimates_rejects_negative_since(self):
        trace, horizon = make_trace(n_tasks=80)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        service = EstimatorService(make_estimator(stream, horizon, windows=1))
        with pytest.raises(IngestError, match="nonnegative"):
            service.estimates(since=-1)
        assert service.estimates(since=0) == []

    def test_estimates_since_keeps_absolute_indices(self):
        trace, horizon = make_trace(n_tasks=120)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        service = EstimatorService(
            make_estimator(stream, horizon, windows=3), poll_interval=0.02
        )
        with service.start():
            stream.ingest(trace_to_records(trace))
            stream.seal()
            assert wait_finished(service) == "finished"
            total = len(service.estimates())
            tail = service.estimates(since=1)
        assert total >= 2
        assert len(tail) == total - 1
        assert [r["index"] for r in tail] == list(range(1, total))


class TestCheckpointOffloading:
    """The checkpoint bugfix: snapshot capture happens under the window
    lock, but serialization + disk I/O must not stall publishing."""

    def test_publishing_proceeds_during_a_slow_checkpoint_write(self, tmp_path):
        trace, horizon = make_trace()
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        stream.ingest(trace_to_records(trace))
        stream.seal()
        path = tmp_path / "slow.ckpt"
        service = EstimatorService(
            make_estimator(stream, horizon, windows=5),
            checkpoint_path=str(path), poll_interval=0.01,
        )
        gate = threading.Event()
        original = service._write_snapshot

        def slow_write(seq, snapshot):
            gate.wait(60.0)
            original(seq, snapshot)

        service._write_snapshot = slow_write
        try:
            with service.start():
                # With checkpoint_every=1 the writer blocks on the first
                # window's snapshot; later windows must keep publishing.
                deadline = time.time() + 60.0
                while time.time() < deadline and len(service.windows()) < 3:
                    time.sleep(0.01)
                published_while_blocked = len(service.windows())
                gate.set()
                assert wait_finished(service) == "finished"
        finally:
            gate.set()
        assert published_while_blocked >= 3
        assert path.exists()  # the final (released) snapshot landed

    def test_stale_snapshots_never_clobber_newer_ones(self, tmp_path):
        trace, horizon = make_trace(n_tasks=80)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        stream.ingest(trace_to_records(trace))
        stream.seal()
        path = tmp_path / "ordered.ckpt"
        service = EstimatorService(
            make_estimator(stream, horizon, windows=1),
            checkpoint_path=str(path),
        )
        old_seq, old_snap = service._build_snapshot()
        new_seq, new_snap = service._build_snapshot()
        service._write_snapshot(new_seq, new_snap)
        written = path.read_bytes()
        service._write_snapshot(old_seq, old_snap)  # stale: dropped
        assert path.read_bytes() == written
        assert service.last_checkpoint_bytes == len(written)

    def test_background_write_failures_surface_in_health(self, tmp_path):
        trace, horizon = make_trace(n_tasks=80)
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        stream.ingest(trace_to_records(trace))
        stream.seal()
        service = EstimatorService(
            make_estimator(stream, horizon, windows=1),
            checkpoint_path=str(tmp_path / "boom.ckpt"),
        )

        def boom(seq, snapshot):
            raise OSError("disk full")

        service._write_snapshot = boom
        assert service.health()["checkpoint_error"] is None
        service._checkpoint_now(wait=False)
        deadline = time.time() + 10.0
        while (
            time.time() < deadline
            and service.health()["checkpoint_error"] is None
        ):
            time.sleep(0.01)
        assert "disk full" in service.health()["checkpoint_error"]
        service.stop()


class TestRetentionBoundsCheckpoints:
    def test_retention_bounds_checkpoint_size(self, tmp_path):
        """With a retain horizon the snapshot's record log is the tail
        the estimator can still reach, so the final checkpoint of a long
        stream is a fraction of the full-history one."""
        trace, horizon = make_trace(n_tasks=500)

        def run(retain, name):
            stream = LiveTraceStream(
                n_queues=trace.skeleton.n_queues, retain=retain
            )
            stream.ingest(trace_to_records(trace))
            stream.seal()
            # A huge min_observed skips STEM per window: this test is
            # about checkpoint size, not estimation.
            service = EstimatorService(
                make_estimator(
                    stream, horizon, windows=10,
                    min_observed_tasks=10**9,
                ),
                checkpoint_path=str(tmp_path / name), poll_interval=0.01,
            )
            with service.start():
                assert wait_finished(service) == "finished"
            return service

        plain = run(None, "plain.ckpt")
        bounded = run(horizon / 10, "bounded.ckpt")
        assert bounded.stream.n_compacted_tasks > 0
        assert bounded.last_checkpoint_bytes < plain.last_checkpoint_bytes / 2
        health = bounded.health()
        assert health["checkpoint_bytes"] == bounded.last_checkpoint_bytes
        assert health["n_compacted_tasks"] == bounded.stream.n_compacted_tasks

    def test_restore_continues_a_compacted_service_bitwise(self, tmp_path):
        """Checkpoint -> restore across a compaction boundary: the
        resumed tail matches the uninterrupted compacting run bitwise."""
        trace, horizon = make_trace()
        batches = replay_batches(trace, batch_tasks=8)
        retain = horizon / 4

        def fresh_stream():
            return LiveTraceStream(
                n_queues=trace.skeleton.n_queues, retain=retain
            )

        ref_stream = fresh_stream()
        ref_stream.ingest(trace_to_records(trace))
        ref_stream.seal()
        ref = make_estimator(ref_stream, horizon).run()
        assert sum(w.ok for w in ref) >= 3
        ckpt = str(tmp_path / "compacted.ckpt")
        stream1 = fresh_stream()
        service1 = EstimatorService(
            make_estimator(stream1, horizon),
            checkpoint_path=ckpt, poll_interval=0.02,
        )
        cut = int(len(batches) * 0.6)
        with service1.start():
            for watermark, batch in batches[:cut]:
                stream1.advance_watermark(watermark)
                stream1.ingest(batch)
            deadline = time.time() + 60.0
            while time.time() < deadline and len(service1.windows()) < 2:
                time.sleep(0.02)
        pre_crash = service1.windows()
        assert len(pre_crash) >= 2
        service2 = EstimatorService.from_checkpoint(ckpt)
        stream2 = service2.stream
        assert stream2.retain == retain
        with service2.start():
            for watermark, batch in batches[max(cut - 3, 0):]:
                stream2.advance_watermark(watermark)
                stream2.ingest(batch)
            stream2.seal()
            assert wait_finished(service2) == "finished"
            resumed = service2.windows()
        assert_windows_equal(pre_crash, resumed[: len(pre_crash)])
        assert_windows_equal(ref, resumed)


class TestSMCBehindTheService:
    """Acceptance: the SMC estimator rides behind the service, the TCP
    server, and checkpoint/restore with no wire-protocol change."""

    @staticmethod
    def make_smc(stream, horizon, windows=4, **kwargs):
        kwargs.setdefault("stem_iterations", 8)
        kwargs.setdefault("n_particles", 8)
        kwargs.setdefault("random_state", 5)
        return SMCEstimator(stream, window=horizon / windows, **kwargs)

    def test_smc_over_live_tcp_matches_offline_run_bitwise(self):
        from repro.live import LiveClient, LiveServer

        trace, horizon = make_trace()
        offline_stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        offline_stream.ingest(trace_to_records(trace))
        offline_stream.seal()
        ref = self.make_smc(offline_stream, horizon).run()
        assert sum(w.ok for w in ref) >= 2
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        service = EstimatorService(
            self.make_smc(stream, horizon), poll_interval=0.02
        )
        with service, LiveServer(service, authkey=b"smc-key") as server:
            with LiveClient(server.address, authkey=b"smc-key") as client:
                for watermark, batch in replay_batches(trace):
                    client.advance_watermark(watermark)
                    client.ingest(batch)
                client.seal()
                deadline = time.time() + 120.0
                while time.time() < deadline:
                    health = client.health()
                    if health["status"] in ("finished", "failed"):
                        break
                    time.sleep(0.02)
                assert health["status"] == "finished", health["error"]
                published = client.estimates()
        assert len(published) == len(ref)
        for a, b in zip(ref, published):
            assert (a.t_start, a.t_end) == (b["t_start"], b["t_end"])
            if a.rates is None:
                assert b["rates"] is None
            else:
                np.testing.assert_array_equal(
                    np.asarray(a.rates), np.asarray(b["rates"])
                )

    def test_smc_checkpoint_restore_dispatches_by_name(self, tmp_path):
        trace, horizon = make_trace()
        batches = replay_batches(trace, batch_tasks=8)
        ref_stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        ref_stream.ingest(trace_to_records(trace))
        ref_stream.seal()
        ref = self.make_smc(ref_stream, horizon).run()
        ckpt = str(tmp_path / "smc.ckpt")
        stream1 = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        service1 = EstimatorService(
            self.make_smc(stream1, horizon),
            checkpoint_path=ckpt, poll_interval=0.02,
        )
        cut = int(len(batches) * 0.6)
        with service1.start():
            for watermark, batch in batches[:cut]:
                stream1.advance_watermark(watermark)
                stream1.ingest(batch)
            deadline = time.time() + 60.0
            while time.time() < deadline and len(service1.windows()) < 1:
                time.sleep(0.02)
        pre_crash = service1.windows()
        assert len(pre_crash) >= 1
        # The checkpoint names its estimator; restore must rebuild the
        # SMC flavor without being told.
        service2 = EstimatorService.from_checkpoint(ckpt)
        assert isinstance(service2.estimator, SMCEstimator)
        stream2 = service2.stream
        with service2.start():
            for watermark, batch in batches[max(cut - 3, 0):]:
                stream2.advance_watermark(watermark)
                stream2.ingest(batch)
            stream2.seal()
            assert wait_finished(service2) == "finished"
            resumed = service2.windows()
        assert stream2.n_duplicates > 0
        assert_windows_equal(pre_crash, resumed[: len(pre_crash)])
        assert_windows_equal(ref, resumed)
