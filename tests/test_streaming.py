"""Tests for streaming estimation (repro.online.streaming)."""

import numpy as np
import pytest

from repro.errors import InferenceError
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
    bitwise at the same seed."""

    def test_every_window_matches_windowed_bitwise(self):
        """Overlapping windows (step = window / 2): every one of them is
        the windowed estimator's, not just the first."""
        trace, horizon = make_trace(n_tasks=200)
        window = horizon / 4
        ref = WindowedEstimator(
            trace, window=window, step=window / 2, stem_iterations=6,
            random_state=5,
        ).run()
        got = StreamingEstimator(
            ReplayTraceStream(trace), window=window, step=window / 2,
            stem_iterations=6, random_state=5,
        ).run()
        assert_windows_equal(ref, got)
        assert sum(w.ok for w in got) >= 4

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


class TestStreamingLifecycle:
    def test_validation(self):
        trace, _ = make_trace(n_tasks=120)
        stream = ReplayTraceStream(trace)
        with pytest.raises(InferenceError):
            StreamingEstimator(stream, window=-1.0)
        with pytest.raises(InferenceError):
            StreamingEstimator(stream, window=1.0, step=0.0)
        with pytest.raises(InferenceError):  # config error, not "all windows failed"
            StreamingEstimator(stream, window=1.0, stem_iterations=0)
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
        kernel existed), carries fields this build no longer has (one
        written before threads/repartition/warm_workers or
        shards/shard_workers/worker_retries were removed), or names no
        estimator is refused with an InferenceError; an explicit
        non-default kernel still refuses a default checkpoint."""
        trace, horizon = make_trace(n_tasks=120)
        est = StreamingEstimator(
            ReplayTraceStream(trace), window=horizon, stem_iterations=5,
            random_state=3,
        )
        state = est.state_dict()
        assert state["config"]["kernel"] == "array"
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
        with pytest.raises(InferenceError, match="missing"):
            fresh.load_state_dict({**state, "config": old_config})
        # The estimator state an older build wrote: its config carries the
        # removed knobs, and the state the carried partition.
        older = {
            **state,
            "config": {
                **state["config"], "repartition": "incremental",
                "warm_workers": True, "threads": 1, "shards": 1,
                "shard_workers": None, "worker_retries": 1,
            },
            "assignment": {0: 0}, "prev_n_shards": 1,
        }
        unknown = (
            r"unknown \['repartition', 'shard_workers', 'shards', 'threads', "
            r"'warm_workers', 'worker_retries'\]"
        )
        with pytest.raises(InferenceError, match=unknown):
            fresh.load_state_dict(older)
        with pytest.raises(InferenceError, match=unknown):
            EstimatorConfig.from_state(older["config"])
        unnamed = {k: v for k, v in state.items() if k != "estimator"}
        with pytest.raises(InferenceError, match="captured by the None"):
            fresh.load_state_dict(unnamed)
        fresh.load_state_dict(state)  # the complete checkpoint still loads
