"""Streaming sharded estimation over an incrementally revealed trace.

The windowed estimator answers "what were the rates five minutes ago?"
by rebuilding *everything* per window — sub-trace, shard plan, worker
processes, blanket caches, kernels — even though consecutive windows
share almost all of their tasks.  This module is the online form the
paper points at: a :class:`TraceStream` reveals tasks as they enter the
system, a :class:`StreamingEstimator` slides a window over the revealed
prefix, and the expensive state is kept **warm across windows**:

* worker processes and their transport connections live in a
  :class:`~repro.inference.shard.WarmShardWorkerPool` for the whole
  stream — spawned once, never per window;
* the task partition is updated *incrementally*
  (:func:`~repro.inference.shard.refresh_partition`): surviving tasks
  keep their shard, arrivals join the shard pulling hardest on them,
  age-outs are dropped — so shards away from the window edges keep
  identical task sets and their workers keep their built blanket caches
  and conflict-free kernel batches, adopting only fresh time arrays;
* per-window bookkeeping (entry-time estimates, observed-task checks,
  sub-trace restriction via :class:`~repro.events.subset.SubsetIndex`)
  is O(window), independent of how much trace has already streamed past.

Equivalence contract (pinned by ``tests/test_streaming.py``): a frozen
window processed by the streaming path is **bitwise identical** to
:class:`~repro.online.windowed.WindowedEstimator` on the same sub-trace
at the same seed, for any worker count and any transport; with
``repartition="cold"`` this holds for *every* window of the stream.
Under incremental re-partitioning later windows use a different (equally
exact) scan order, so their estimates agree statistically rather than
bitwise — sharding never changes the posterior, only the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.errors import InferenceError
from repro.events.subset import SubsetIndex, subset_trace
from repro.inference import run_stem
from repro.inference.shard import (
    WarmShardWorkerPool,
    partition_tasks,
    refresh_partition,
)
from repro.inference.transport import WorkerTransport
from repro.observation import ObservedTrace

# Re-exported for backward compatibility (REPARTITION_MODES lived here
# before the config extraction).
from repro.online.config import (
    REPARTITION_MODES,
    EstimatorConfig,
    estimator_config_keys,
)
from repro.online.windowed import (
    WindowEstimate,
    _entry_time_estimates,
    task_fully_observed,
)
from repro.rng import RandomState, as_generator, as_seed_sequence


class TraceStream:
    """An incrementally revealed censored trace.

    Subclasses reveal tasks in (estimated) system-entry order; the
    estimator only ever touches tasks the stream has revealed, which is
    what makes the adapter honest about what an online deployment could
    know.  :class:`ReplayTraceStream` replays a recorded trace for tests
    and benchmarks; :class:`~repro.live.stream.LiveTraceStream`
    accumulates measurements from a running system as they are reported.
    The contract both must satisfy — poll monotonicity, horizon
    semantics, subset stability — is pinned by
    ``tests/test_trace_stream_contract.py``.
    """

    @property
    def trace(self) -> ObservedTrace:
        """Backing store of everything revealed so far."""
        raise NotImplementedError

    @property
    def horizon(self) -> float:
        """Largest (estimated) entry time currently known to the stream.

        Fixed for a replay source; a live adapter may keep advancing it
        as tasks enter — the estimator re-reads it before every window,
        so the window grid simply grows with the stream.
        """
        raise NotImplementedError

    def poll(self, until: float) -> list[tuple[int, float]]:
        """Reveal ``(task id, entry time)`` pairs with entry < *until*."""
        raise NotImplementedError

    def subset(self, task_ids) -> ObservedTrace:
        """Sub-trace over already revealed tasks."""
        raise NotImplementedError

    def exhausted(self) -> bool:
        """Whether every task has been revealed."""
        raise NotImplementedError


class ReplayTraceStream(TraceStream):
    """Replays a recorded censored trace in estimated entry order.

    The replay source for tests and benchmarks — and the reference
    semantics for live adapters: entry times come from the same
    interpolation the windowed estimator uses, tasks are revealed in
    entry order, and sub-traces are restricted through a
    :class:`~repro.events.subset.SubsetIndex` so each window costs
    O(window) regardless of the full trace length.
    """

    def __init__(self, trace: ObservedTrace) -> None:
        self._trace = trace
        self._entries = _entry_time_estimates(trace)
        # Entry estimates are non-decreasing along the queue-0 order (the
        # anchors are the frozen entry order's own times), so revelation
        # is a cursor over this list.
        self._pending = list(self._entries.items())
        self._cursor = 0
        self._index = SubsetIndex(trace.skeleton)

    @property
    def trace(self) -> ObservedTrace:
        return self._trace

    @property
    def horizon(self) -> float:
        return max(self._entries.values())

    @property
    def n_revealed(self) -> int:
        """Tasks revealed so far."""
        return self._cursor

    def poll(self, until: float) -> list[tuple[int, float]]:
        out: list[tuple[int, float]] = []
        while (
            self._cursor < len(self._pending)
            and self._pending[self._cursor][1] < until
        ):
            out.append(self._pending[self._cursor])
            self._cursor += 1
        return out

    def subset(self, task_ids) -> ObservedTrace:
        return subset_trace(self._trace, task_ids, index=self._index)

    def exhausted(self) -> bool:
        return self._cursor >= len(self._pending)


@dataclass
class StreamEstimate(WindowEstimate):
    """A :class:`~repro.online.windowed.WindowEstimate` plus stream facts.

    Attributes
    ----------
    n_new_tasks / n_aged_out:
        Tasks the stream revealed for this window / tasks that slid out
        of reach before it.
    n_shards:
        Effective shard count of the window's sweeps (clamped to the
        window's task count).
    n_warm_shards / n_migrated_shards:
        Under a warm worker pool: shards whose resident structure was
        unchanged (workers kept their kernels, adopting only fresh times
        and streams) versus shards shipped as full rebuilds.
    """

    n_new_tasks: int = 0
    n_aged_out: int = 0
    n_shards: int = 1
    n_warm_shards: int = 0
    n_migrated_shards: int = 0


class StreamingEstimator:
    """Sliding-window StEM over a :class:`TraceStream` with warm workers.

    Parameters
    ----------
    stream:
        The revealed trace (a :class:`ReplayTraceStream` for recorded
        data).
    config / **knobs:
        The estimator's :class:`~repro.online.config.EstimatorConfig`,
        or its fields as keywords (``window=...``, ``stem_iterations=...``;
        the dataclass documents every knob) — one spelling or the other,
        never both.
    random_state:
        Seed material, spawned once per window: window *i* consumes the
        *i*-th child, as in
        :class:`~repro.online.windowed.WindowedEstimator`, so a frozen
        window matches the windowed path bitwise.  ``stream``,
        ``random_state`` and ``transport`` stay outside the config
        because they are runtime substrate, not configuration.
    transport:
        Worker transport for the pool (see
        :mod:`repro.inference.transport`); pipes by default, sockets for
        cross-machine workers.  The estimator takes ownership: its
        :meth:`close` (and therefore :meth:`run`) also closes the
        transport, releasing e.g. a
        :class:`~repro.inference.transport.SocketTransport` listener.
    """

    #: Registry name carried in checkpoints (see ``repro.online.ESTIMATORS``).
    estimator_name = "stem"

    #: The estimator's counts, named once (see
    #: :class:`repro.telemetry.Counts`): its ``health`` section.
    COUNTS = telemetry.Counts(
        n_worker_relaunches="repro_worker_relaunches_total",
    )

    def __init__(
        self,
        stream: TraceStream,
        *,
        config: EstimatorConfig | None = None,
        random_state: RandomState = None,
        transport: WorkerTransport | None = None,
        **knobs,
    ) -> None:
        if config is None:
            if knobs.get("window") is None:
                raise InferenceError("either window= or config= is required")
            config = EstimatorConfig(**knobs)
        elif knobs:
            raise InferenceError(
                "pass either config= or the individual knobs, not both"
            )
        #: The estimator's validated configuration (single source of truth;
        #: the knob attributes below are read-only views into it).
        self.config = config
        self.stream = stream
        self.transport = transport
        # One child per window, spawned lazily from the same sequence the
        # windowed estimator spawns up front — identical streams without
        # knowing the window count in advance.
        self._seed_seq = as_seed_sequence(random_state)
        self._entries: dict[int, float] = {}
        self._observed: dict[int, bool] = {}
        self._assignment: dict[int, int] = {}
        self._prev_n_shards = 0
        self._pool: WarmShardWorkerPool | None = None
        self.n_windows_done = 0
        #: Pools relaunched after dying mid-window (fault observability).
        self.n_worker_relaunches = 0
        self.COUNTS.bind(self)

    # ------------------------------------------------------------------
    # Config views.
    # ------------------------------------------------------------------

    @property
    def worker_retries(self) -> int:
        """Relaunch budget per window (see :class:`EstimatorConfig`)."""
        return self.config.worker_retries

    @worker_retries.setter
    def worker_retries(self, value: int) -> None:
        value = int(value)
        if value < 0:
            raise InferenceError(f"worker_retries must be >= 0, got {value}")
        self.config.worker_retries = value

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    @property
    def pooled(self) -> bool:
        """Whether a warm worker pool is currently alive."""
        return self._pool is not None and not self._pool.closed

    def _ensure_pool(self) -> WarmShardWorkerPool | None:
        if self.shards <= 1 or not self.shard_workers or not self.warm_workers:
            return None
        if self._pool is None or self._pool.closed:
            # Clamp like the dedicated pools do: a worker beyond the shard
            # count could never host a shard, only idle for the stream.
            self._pool = WarmShardWorkerPool(
                min(self.shard_workers, self.shards), transport=self.transport
            )
        return self._pool

    def pool_stats(self) -> dict | None:
        """Liveness probe of the warm shard pool (``None`` when unpooled).

        What a supervising service folds into its health record: worker
        pids and alive counts from the pool plus this estimator's
        relaunch tally, so a killed shard worker is visible to a
        monitoring consumer before *and* after the recovery path runs.
        """
        if self._pool is None:
            if not (self.shards > 1 and self.shard_workers and self.warm_workers):
                return None
            return {"closed": True, "n_workers": 0, "n_alive": 0,
                    "pids": [], "n_hosted_shards": 0,
                    "n_relaunches": self.n_worker_relaunches}
        stats = self._pool.probe()
        stats["n_relaunches"] = self.n_worker_relaunches
        return stats

    def close(self) -> None:
        """Shut the worker pool and the owned transport down; idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self.transport is not None:
            self.transport.close()

    def __enter__(self) -> "StreamingEstimator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Checkpointing (the live service's crash-recovery hook).
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Everything needed to resume window processing bitwise.

        Captures the estimator's configuration, its per-window bookkeeping
        (entry estimates, observed-task cache, carried partition), and —
        the part that makes resumption exact — the seed material plus the
        number of per-window children already spawned from it: window *i*
        always consumes the *i*-th spawn, so a restored estimator's next
        window draws the same stream the uninterrupted run would have.
        Worker pools and transports are runtime substrate, never state;
        they are rebuilt on demand and cannot change a draw.
        """
        return {
            "version": 2,
            "estimator": self.estimator_name,
            "config": self.config.as_dict(),
            "seed": {
                "entropy": self._seed_seq.entropy,
                "spawn_key": tuple(self._seed_seq.spawn_key),
                "n_children_spawned": self._seed_seq.n_children_spawned,
            },
            "entries": dict(self._entries),
            "observed": dict(self._observed),
            "assignment": dict(self._assignment),
            "prev_n_shards": self._prev_n_shards,
            "n_windows_done": self.n_windows_done,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this estimator.

        The estimator must have been constructed with the same
        configuration the state was captured under (checked), and its
        stream must be positioned where the snapshot left it (the live
        stream's own snapshot carries that).
        """
        captured_by = state.get("estimator")
        if captured_by != self.estimator_name:
            raise InferenceError(
                f"checkpoint was captured by the {captured_by!r} estimator, "
                f"but this is the {self.estimator_name!r} estimator — "
                "construct the matching estimator from the checkpoint"
            )
        config = EstimatorConfig.from_state(state["config"]).as_dict()
        mine = self.config.as_dict()
        if config != mine:
            raise InferenceError(
                f"checkpoint was captured under config {config}, but this "
                f"estimator was built with {mine}; estimates would not be "
                "reproducible — construct the estimator from the checkpoint"
            )
        seed = state["seed"]
        self._seed_seq = np.random.SeedSequence(
            entropy=seed["entropy"],
            spawn_key=tuple(seed["spawn_key"]),
            n_children_spawned=seed["n_children_spawned"],
        )
        self._entries = {int(k): float(v) for k, v in state["entries"].items()}
        self._observed = {int(k): bool(v) for k, v in state["observed"].items()}
        self._assignment = {int(k): int(v) for k, v in state["assignment"].items()}
        self._prev_n_shards = int(state["prev_n_shards"])
        self.n_windows_done = int(state["n_windows_done"])

    # ------------------------------------------------------------------
    # Window processing.
    # ------------------------------------------------------------------

    def _next_window_seed(self) -> np.random.SeedSequence:
        # One incremental spawn from the preserved SeedSequence — the same
        # child the windowed estimator's up-front spawn(n) hands window i.
        # The *child sequence* (not a generator) is what a window keeps:
        # a retry after a worker crash rebuilds a fresh generator from it,
        # so the re-run draws exactly the stream the first attempt did.
        return self._seed_seq.spawn(1)[0]

    @staticmethod
    def _attempt_seed(window_seed: np.random.SeedSequence) -> np.random.SeedSequence:
        # A pristine clone of the window's seed child for one run_stem
        # attempt.  The sharded path derives shard streams by *spawning*
        # from the generator's underlying sequence, which advances the
        # sequence's child counter in place — so handing every attempt the
        # same SeedSequence object would give a retried window different
        # shard streams than its first attempt consumed.  Cloning resets
        # the counter: each attempt spawns the exact children the
        # uninterrupted run would have.
        return np.random.SeedSequence(
            entropy=window_seed.entropy,
            spawn_key=window_seed.spawn_key,
            pool_size=window_seed.pool_size,
        )

    def _task_observed(self, task_id: int) -> bool:
        # Only a True verdict is cacheable: a live stream's measurements
        # may still be landing when a task is first revealed, so "not yet
        # fully observed" can flip to True between overlapping windows —
        # observed events are never un-observed, so True is final.
        if self._observed.get(task_id):
            return True
        hit = task_fully_observed(self.stream.trace, task_id)
        if hit:
            self._observed[task_id] = True
        return hit

    def _window_partition(self, skeleton, n_tasks: int):
        """The window's task partition, carried across windows when warm."""
        if self.shards <= 1 or self.repartition == "cold":
            self._assignment = {}
            return None  # the engine partitions from scratch
        n_shards = min(self.shards, n_tasks)
        if self._assignment and self._prev_n_shards == n_shards:
            part = refresh_partition(skeleton, self._assignment, n_shards)
        else:
            part = partition_tasks(skeleton, n_shards)
        self._assignment = dict(part.assignment)
        self._prev_n_shards = part.n_shards
        return part

    def process_window(self, t0: float) -> StreamEstimate:
        """Advance the stream past ``t0 + window`` and estimate the window.

        After the window is estimated, the stream is asked to compact the
        prefix no future window can reach (streams without a compaction
        notion — a replay source — skip this).
        """
        estimate = self._process_window(t0)
        self._compact_stream()
        if estimate.rates is not None:
            telemetry.counter("repro_windows_processed_total").inc()
        elif estimate.failure is not None:
            telemetry.counter("repro_windows_failed_total").inc()
        else:
            telemetry.counter("repro_windows_skipped_total").inc()
        return estimate

    def _compact_stream(self) -> None:
        # Every remaining window starts at ``n_windows_done * step`` or
        # later, so tasks with entries strictly below that bound are out
        # of reach for all future subsets; the stream additionally holds
        # its own retention horizon against the watermark, so this bound
        # only ever tightens what the stream would allow.
        compact = getattr(self.stream, "compact", None)
        if compact is not None:
            compact(before=self.n_windows_done * self.step)

    def _begin_window(self, t0: float):
        """Shared per-window bookkeeping: poll, age out, seed, count.

        Every estimator flavor advances a window identically — reveal
        tasks up to the window's end, age out tasks that slid below its
        start, spawn the window's seed child (windows that end up skipped
        consume their child too, so the spawn index stays aligned with
        the window index) — and diverges only in how it estimates.
        Returns ``(t0, t1, arrived, aged, tasks, n_observed,
        window_seed)``.
        """
        t0 = float(t0)
        t1 = t0 + self.window
        with telemetry.phase("poll"):
            arrived = self.stream.poll(t1)
        for task, entry in arrived:
            self._entries[task] = entry
        aged = [k for k, t in self._entries.items() if t < t0]
        for k in aged:
            # The partition map needs no pruning here: refresh_partition
            # filters to the window's tasks itself.
            del self._entries[k]
            self._observed.pop(k, None)
        tasks = [k for k, t in self._entries.items() if t0 <= t < t1]
        n_observed = sum(self._task_observed(k) for k in tasks)
        window_seed = self._next_window_seed()  # one child per window
        self.n_windows_done += 1
        return t0, t1, arrived, aged, tasks, n_observed, window_seed

    def _process_window(self, t0: float) -> StreamEstimate:
        t0, t1, arrived, aged, tasks, n_observed, window_seed = (
            self._begin_window(t0)
        )
        if len(tasks) < 2 or n_observed < self.min_observed_tasks:
            return StreamEstimate(
                t0, t1, len(tasks), n_observed, None,
                n_new_tasks=len(arrived), n_aged_out=len(aged),
            )
        with telemetry.phase("subset"):
            window_trace = self.stream.subset(tasks)
        with telemetry.phase("partition"):
            partition = self._window_partition(window_trace.skeleton, len(tasks))
        n_shards = (
            partition.n_shards if partition is not None
            else min(self.shards, len(tasks))
        )
        cold_workers = (
            self.shard_workers
            if (self.shard_workers and self.shards > 1 and not self.warm_workers)
            else None
        )
        rates = None
        failure = None
        relaunches_left = self.worker_retries
        while True:
            pool = self._ensure_pool()
            if pool is not None:
                pool.last_adoption = {}
            try:
                stem = run_stem(
                    window_trace,
                    n_iterations=self.stem_iterations,
                    init_method="heuristic",
                    # A fresh generator over a pristine clone of the
                    # window's seed child per attempt: every draw (and
                    # every shard-stream spawn) is a pure function of the
                    # seed child and the window inputs, so a retried
                    # window is bitwise the uninterrupted window.
                    random_state=as_generator(self._attempt_seed(window_seed)),
                    kernel=self.kernel,
                    shards=self.shards,
                    shard_partition=partition,
                    shard_pool=pool,
                    persistent_workers=cold_workers,
                    shard_transport=self.transport if cold_workers else None,
                    threads=self.threads,
                )
                rates = stem.rates
            except InferenceError as exc:
                if pool is not None and pool.closed and relaunches_left > 0:
                    # The warm pool died under the window (a kill -9'd or
                    # crashed worker shuts the whole pool down).  Relaunch
                    # it — _ensure_pool sees the closed pool and spawns a
                    # fresh one, whose empty adoption diff re-ships every
                    # resident — and re-run this window from its own seed.
                    relaunches_left -= 1
                    self.n_worker_relaunches += 1
                    continue
                failure = str(exc)  # a failed window is data, not a crash
            break
        adoption = pool.last_adoption if pool is not None else {}
        return StreamEstimate(
            t0, t1, len(tasks), n_observed, rates, failure,
            n_new_tasks=len(arrived),
            n_aged_out=len(aged),
            n_shards=n_shards,
            n_warm_shards=sum(1 for k in adoption.values() if k == "times"),
            n_migrated_shards=sum(
                1 for k in adoption.values() if k == "resident"
            ),
        )

    def estimates(self):
        """Process every window of the stream, yielding as they complete.

        The window grid is the windowed estimator's ``np.arange(0,
        horizon, step)`` — reproduced lazily (``arange`` materializes
        ``ceil(horizon / step)`` points at ``i * step``), with the
        stream's horizon re-read before every window.  A replay source's
        horizon is fixed, so this enumerates exactly the windowed grid; a
        live adapter's horizon may keep advancing, and the generator
        simply keeps producing windows until it stops.
        """
        i = 0
        while True:
            horizon = self.stream.horizon
            n_known = int(np.ceil(horizon / self.step)) if horizon > 0.0 else 0
            if i >= n_known:
                return
            yield self.process_window(float(i * self.step))
            i += 1

    def run(self) -> list[StreamEstimate]:
        """Consume the whole stream; closes the worker pool afterwards."""
        try:
            return list(self.estimates())
        finally:
            self.close()


def _config_view(name: str) -> property:
    return property(
        lambda self, _name=name: getattr(self.config, _name),
        doc=f"``{name}`` from the estimator's "
            ":class:`~repro.online.config.EstimatorConfig` (read-only view; "
            "``worker_retries`` is the one knob with a validating setter).",
    )


# Knob attributes delegate to ``self.config`` so there is exactly one copy
# of every setting; read sites (service health, CLI summaries, tests) keep
# working unchanged.
# ``worker_retries`` keeps its own property, the one with a setter.
for _name in estimator_config_keys():
    if not hasattr(StreamingEstimator, _name):
        setattr(StreamingEstimator, _name, _config_view(_name))
del _name
