"""Tests for streaming sharded estimation (repro.online.streaming)."""

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.inference.shard import ShardWorkerPool
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.online import (
    EstimatorConfig,
    ReplayTraceStream,
    StreamingEstimator,
    WindowedEstimator,
)
from repro.simulate import simulate_network


def make_trace(n_tasks=300, seed=11, fraction=0.25, obs_seed=1):
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=fraction).observe(sim.events, random_state=obs_seed)
    horizon = float(np.nanmax(sim.events.departure))
    return trace, horizon


def assert_windows_equal(ref, got):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        assert (a.t_start, a.t_end) == (b.t_start, b.t_end)
        assert (a.n_tasks, a.n_observed_tasks) == (b.n_tasks, b.n_observed_tasks)
        if a.rates is None:
            assert b.rates is None
        else:
            np.testing.assert_array_equal(a.rates, b.rates)


class TestReplayTraceStream:
    def test_reveals_in_entry_order_and_only_on_poll(self):
        trace, horizon = make_trace()
        stream = ReplayTraceStream(trace)
        assert stream.n_revealed == 0
        assert not stream.exhausted()
        first = stream.poll(horizon / 4)
        entries = [entry for _, entry in first]
        assert entries == sorted(entries)
        assert all(entry < horizon / 4 for entry in entries)
        # Polling the same point again reveals nothing new.
        assert stream.poll(horizon / 4) == []
        rest = stream.poll(float("inf"))
        assert stream.exhausted()
        assert len(first) + len(rest) == trace.skeleton.n_tasks

    def test_subset_matches_unindexed_subset(self):
        from repro.events.subset import subset_trace

        trace, horizon = make_trace()
        stream = ReplayTraceStream(trace)
        tasks = [task for task, _ in stream.poll(horizon / 3)]
        fast = stream.subset(tasks)
        slow = subset_trace(trace, tasks)
        np.testing.assert_array_equal(fast.skeleton.task, slow.skeleton.task)
        np.testing.assert_array_equal(fast.skeleton.arrival, slow.skeleton.arrival)
        np.testing.assert_array_equal(fast.arrival_observed, slow.arrival_observed)
        for q in range(fast.skeleton.n_queues):
            np.testing.assert_array_equal(
                fast.skeleton.queue_order(q), slow.skeleton.queue_order(q)
            )


class TestStreamingEquivalence:
    """The acceptance contract: every window matches the windowed path
    bitwise at the same seed, for any shard count, any worker count and
    any transport."""

    @pytest.mark.parametrize(
        "shards, shard_workers",
        [(1, None), (2, None), (2, 1), (2, 2), (3, None), (3, 1), (3, 2)],
        ids=lambda v: str(v),
    )
    def test_every_window_matches_windowed_bitwise(self, shards, shard_workers):
        """Overlapping windows (step = window / 2), default partitioning:
        each window partitions from scratch, so every one of them is the
        windowed estimator's, not just the first."""
        trace, horizon = make_trace(n_tasks=200)
        window = horizon / 4
        ref = WindowedEstimator(
            trace, window=window, step=window / 2, stem_iterations=6,
            random_state=5, shards=shards,
        ).run()
        got = StreamingEstimator(
            ReplayTraceStream(trace), window=window, step=window / 2,
            stem_iterations=6, random_state=5, shards=shards,
            shard_workers=shard_workers,
        ).run()
        assert_windows_equal(ref, got)
        assert sum(w.ok for w in got) >= 4
        if shards > 1:
            assert any(w.ok and w.n_shards == shards for w in got)

    def test_serial_streaming_matches_windowed_bitwise(self):
        trace, horizon = make_trace()
        window = horizon / 5
        ref = WindowedEstimator(
            trace, window=window, stem_iterations=12, random_state=2
        ).run()
        got = StreamingEstimator(
            ReplayTraceStream(trace), window=window, stem_iterations=12,
            random_state=2,
        ).run()
        assert_windows_equal(ref, got)
        assert any(w.ok for w in got)

    def test_warm_pool_sharded_matches_windowed_bitwise(self):
        """Sharded windows on the stream's pool are bitwise the windowed
        estimator's in-process runs."""
        trace, horizon = make_trace()
        window = horizon / 4
        ref = WindowedEstimator(
            trace, window=window, stem_iterations=10, random_state=5, shards=2
        ).run()
        est = StreamingEstimator(
            ReplayTraceStream(trace), window=window, stem_iterations=10,
            random_state=5, shards=2, shard_workers=2,
        )
        got = est.run()
        assert not est.pooled  # run() closes the pool
        assert_windows_equal(ref, got)

    def test_worker_count_does_not_change_results(self):
        trace, horizon = make_trace(n_tasks=200)
        window = horizon / 3
        results = []
        for workers in (1, 3):
            got = StreamingEstimator(
                ReplayTraceStream(trace), window=window, stem_iterations=8,
                random_state=9, shards=3, shard_workers=workers,
            ).run()
            results.append(got)
        assert_windows_equal(results[0], results[1])


class TestWorkerCrashRecovery:
    @pytest.mark.slow
    def test_kill9_shard_worker_mid_stream_is_bitwise_transparent(self):
        """Acceptance: kill -9 a shard worker while the stream runs.  The
        next exchange closes the pool; the estimator relaunches it and
        retries the window on the *same* per-window seed child, so every
        frozen-window estimate is bitwise the uninterrupted run's."""
        import os
        import signal

        trace, horizon = make_trace(n_tasks=200)
        kwargs = dict(window=horizon / 3, stem_iterations=6, random_state=7,
                      shards=2, shard_workers=2)
        ref = StreamingEstimator(ReplayTraceStream(trace), **kwargs).run()

        est = StreamingEstimator(ReplayTraceStream(trace), **kwargs)
        gen = est.estimates()
        got = [next(gen)]  # first window brings the stream's pool up
        stats = est.pool_stats()
        assert stats is not None and stats["n_alive"] == 2
        victim = next(pid for pid in est._pool.worker_pids() if pid)
        os.kill(victim, signal.SIGKILL)  # no cleanup, no goodbye
        got.extend(gen)
        est.close()

        assert est.n_worker_relaunches >= 1
        assert est.pool_stats()["n_relaunches"] == est.n_worker_relaunches
        assert_windows_equal(ref, got)

    def test_exhausted_relaunch_budget_fails_the_window_as_data(
        self, monkeypatch
    ):
        """A pool that dies under *every* attempt does not retry forever:
        the relaunch budget (worker_retries) bounds the loop, and the
        window then records the failure as data — the pre-existing
        failed-window contract."""
        import repro.online.streaming as streaming_mod

        trace, horizon = make_trace(n_tasks=200)
        est = StreamingEstimator(
            ReplayTraceStream(trace), window=horizon / 3, stem_iterations=6,
            random_state=7, shards=2, shard_workers=2,
        )
        attempts = []

        def doomed_run_stem(*args, **kwargs):
            attempts.append(1)
            pool = kwargs.get("shard_pool")
            if pool is not None:
                pool.close()  # every attempt loses its worker host
            raise InferenceError("worker host lost")

        monkeypatch.setattr(streaming_mod, "run_stem", doomed_run_stem)
        gen = est.estimates()
        w0 = next(gen)
        est.close()
        assert not w0.ok and "worker host lost" in w0.failure
        # One original attempt + worker_retries relaunched ones, no more.
        assert est.worker_retries == 1
        assert len(attempts) == 1 + est.worker_retries
        assert est.n_worker_relaunches == est.worker_retries


class TestStreamingLifecycle:
    def test_pool_survives_windows_and_closes_once(self):
        trace, horizon = make_trace(n_tasks=200)
        est = StreamingEstimator(
            ReplayTraceStream(trace), window=horizon / 3, stem_iterations=6,
            random_state=7, shards=2, shard_workers=2,
        )
        first = None
        pool = None
        for w in est.estimates():
            first = first or w
            if est.pooled:
                pool = est._pool
        assert pool is not None and not pool.closed
        est.close()
        assert pool.closed
        est.close()  # idempotent

    def test_pool_is_rebuilt_after_a_worker_failure(self):
        """A dead pool must not poison every later window."""
        trace, horizon = make_trace(n_tasks=200)
        est = StreamingEstimator(
            ReplayTraceStream(trace), window=horizon / 3, stem_iterations=6,
            random_state=7, shards=2, shard_workers=2,
        )
        gen = est.estimates()
        w0 = next(gen)
        assert w0.ok
        est._pool.close()  # simulate a worker crash between windows
        w1 = next(gen)
        assert w1.ok
        est.close()

    def test_run_closes_the_owned_transport(self):
        """No listener-fd leak: run() releases the transport it was given."""
        from repro.inference.transport import SocketTransport

        trace, horizon = make_trace(n_tasks=120)
        transport = SocketTransport()
        StreamingEstimator(
            ReplayTraceStream(trace), window=horizon, stem_iterations=5,
            random_state=1, shards=2, shard_workers=1, transport=transport,
        ).run()
        assert transport._listener.fileno() == -1  # listener closed

    def test_validation(self):
        trace, _ = make_trace(n_tasks=120)
        stream = ReplayTraceStream(trace)
        with pytest.raises(InferenceError):
            StreamingEstimator(stream, window=-1.0)
        with pytest.raises(InferenceError):
            StreamingEstimator(stream, window=1.0, step=0.0)
        with pytest.raises(InferenceError):
            StreamingEstimator(stream, window=1.0, shards=0)
        with pytest.raises(InferenceError):  # config error, not "all windows failed"
            StreamingEstimator(stream, window=1.0, stem_iterations=0)
        with pytest.raises(InferenceError):  # workers without shards: silent no-op
            StreamingEstimator(stream, window=1.0, shard_workers=2)
        with pytest.raises(InferenceError):
            StreamingEstimator(stream, window=1.0, shards=2, shard_workers=0)
        with pytest.raises(InferenceError, match="kernel"):
            StreamingEstimator(stream, window=1.0, kernel="simd")

    def test_kernel_and_threads_do_not_change_estimates(self):
        """kernel='native' windows agree with the defaults (bitwise when
        native falls back to the array evaluation)."""
        from repro.inference.native import NUMBA_AVAILABLE

        trace, horizon = make_trace(n_tasks=150)
        ref = StreamingEstimator(
            ReplayTraceStream(trace), window=horizon / 2, stem_iterations=5,
            random_state=7,
        ).run()
        got = StreamingEstimator(
            ReplayTraceStream(trace), window=horizon / 2, stem_iterations=5,
            random_state=7, kernel="native",
        ).run()
        if not NUMBA_AVAILABLE:
            assert_windows_equal(ref, got)
        else:
            for a, b in zip(ref, got):
                if a.rates is not None:
                    np.testing.assert_allclose(b.rates, a.rates, rtol=1e-6)

    def test_checkpoint_missing_config_fields_is_rejected(self):
        """A checkpoint whose config lacks a field (one written before
        kernel/worker_retries existed), carries fields this build no
        longer has (one written before threads/repartition/warm_workers
        were removed), or names no estimator is refused with an
        InferenceError; an explicit non-default kernel still refuses a
        default checkpoint."""
        trace, horizon = make_trace(n_tasks=120)
        est = StreamingEstimator(
            ReplayTraceStream(trace), window=horizon, stem_iterations=5,
            random_state=3,
        )
        state = est.state_dict()
        assert state["config"]["kernel"] == "array"
        assert state["config"]["worker_retries"] == 1
        fresh = StreamingEstimator(
            ReplayTraceStream(trace), window=horizon, stem_iterations=5,
            random_state=3,
        )
        mismatched = StreamingEstimator(
            ReplayTraceStream(trace), window=horizon, stem_iterations=5,
            random_state=3, kernel="native",
        )
        with pytest.raises(InferenceError, match="captured under config"):
            mismatched.load_state_dict(state)
        old_config = dict(state["config"])
        del old_config["kernel"]
        del old_config["worker_retries"]
        with pytest.raises(InferenceError, match="missing"):
            fresh.load_state_dict({**state, "config": old_config})
        # The estimator state an older build wrote: its config carries the
        # removed knobs, and the state the carried partition.
        older = {
            **state,
            "config": {
                **state["config"], "repartition": "incremental",
                "warm_workers": True, "threads": 1,
            },
            "assignment": {0: 0}, "prev_n_shards": 1,
        }
        unknown = r"unknown \['repartition', 'threads', 'warm_workers'\]"
        with pytest.raises(InferenceError, match=unknown):
            fresh.load_state_dict(older)
        with pytest.raises(InferenceError, match=unknown):
            EstimatorConfig.from_state(older["config"])
        unnamed = {k: v for k, v in state.items() if k != "estimator"}
        with pytest.raises(InferenceError, match="captured by the None"):
            fresh.load_state_dict(unnamed)
        fresh.load_state_dict(state)  # the complete checkpoint still loads

    def test_warm_pool_reuse_across_runs_is_transparent(self):
        """A pool outlives the stream that used it: a second pass over the
        same stream content on the same pool matches the first bitwise."""
        trace, horizon = make_trace(n_tasks=200)
        window = horizon  # one frozen window covering everything
        pool = ShardWorkerPool(2)
        try:
            runs = []
            for _ in range(2):
                est = StreamingEstimator(
                    ReplayTraceStream(trace), window=window, stem_iterations=6,
                    random_state=3, shards=2, shard_workers=2,
                )
                est._pool = pool  # share one pool across runs
                runs.append(list(est.estimates()))
            assert_windows_equal(runs[0], runs[1])
            assert runs[1][0].ok
        finally:
            pool.close()
