"""Shared estimator configuration: one dataclass, every construction path.

Before this module existed the estimator knobs were a 13-kwarg signature
copy-pasted across ``StreamingEstimator``, ``EstimatorService`` checkpoints,
``IngestRouter`` key tuples, and two CLI call sites.  ``EstimatorConfig``
is now the single source of truth: estimators hold one, checkpoints carry
``dataclasses.asdict(config)``, the router filters its ``service_config``
against :func:`estimator_config_keys`, and the CLI builds one instance and
hands it to whichever estimator the ``--estimator`` flag names.

Validation lives in ``__post_init__`` so every path — keyword knobs, the
``config=`` spelling, checkpoint restore, router service configs — rejects
bad values with the same messages the old constructor raised.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Mapping

from repro.errors import InferenceError
from repro.inference.gibbs import KERNELS
from repro.online.windowed import validate_window_params

#: How the streaming estimator re-partitions work between windows.
REPARTITION_MODES = ("incremental", "cold")


@dataclass
class EstimatorConfig:
    """Every estimator knob, in one validated place.

    ``window`` is the only required field.  ``step`` defaults to the
    window (non-overlapping).  The StEM fields (``stem_iterations``,
    ``shards``, ``shard_workers``, ``repartition``, ``warm_workers``) are
    ignored by the SMC estimator; the SMC fields (``n_particles``,
    ``ess_threshold``, ``rejuvenation_sweeps``) are ignored by StEM.
    Both estimators honor ``kernel``/``threads``/``worker_retries`` and
    the window geometry.

    Attributes
    ----------
    window / step / stem_iterations / min_observed_tasks:
        As in :class:`~repro.online.windowed.WindowedEstimator`.
    shards:
        Sharded sweeps per window (clamped to each window's task count).
    shard_workers:
        With ``shards > 1``: host the shard sweeps on this many worker
        processes — one warm
        :class:`~repro.inference.shard.WarmShardWorkerPool` for the whole
        stream, or with ``warm_workers=False`` a dedicated pool per
        window (the cold-rebuild baseline ``benchmarks/bench_streaming.py``
        measures against).  Results are bitwise identical either way.
    repartition:
        ``"incremental"`` carries the task partition across windows via
        :func:`~repro.inference.shard.refresh_partition`, maximizing
        warm-shard reuse; ``"cold"`` re-partitions every window, which
        keeps every window bitwise equal to the windowed estimator.
    kernel / threads:
        Sweep kernel (``"array"``, its JIT lowering ``"native"``, or
        ``"object"``; see :class:`~repro.inference.gibbs.GibbsSampler`)
        and its thread count; draws are bitwise invariant to threads.
    worker_retries:
        Times a window whose worker pool died under it is re-run on a
        relaunched pool before its failure is recorded as data; a retry
        re-derives its draws from the same per-window seed child.
    n_particles / ess_threshold / rejuvenation_sweeps:
        The SMC population size, its resampling trigger (a fraction of
        ``n_particles``), and the Gibbs sweeps per rejuvenation.
    """

    window: float
    step: float | None = None
    stem_iterations: int = 40
    min_observed_tasks: int = 3
    shards: int = 1
    shard_workers: int | None = None
    repartition: str = "incremental"
    warm_workers: bool = True
    kernel: str = "array"
    threads: int = 1
    worker_retries: int = 1
    n_particles: int = 16
    ess_threshold: float = 0.5
    rejuvenation_sweeps: int = 1

    def __post_init__(self) -> None:
        validate_window_params(self.window, self.step, self.stem_iterations, self.shards)
        self.window = float(self.window)
        self.step = self.window if self.step is None else float(self.step)
        self.stem_iterations = int(self.stem_iterations)
        self.min_observed_tasks = int(self.min_observed_tasks)
        self.shards = int(self.shards)
        if self.kernel not in KERNELS:
            raise InferenceError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        self.threads = int(self.threads)
        if self.threads < 1:
            raise InferenceError(f"need at least one thread, got {self.threads}")
        if self.shard_workers is not None:
            self.shard_workers = int(self.shard_workers)
            if self.shard_workers < 1:
                raise InferenceError(
                    f"need at least one shard worker, got {self.shard_workers}"
                )
            if self.shards == 1:
                raise InferenceError(
                    "shard_workers requires shards > 1 — a single shard "
                    "sweeps in-process"
                )
        if self.repartition not in REPARTITION_MODES:
            raise InferenceError(
                f"repartition must be one of {REPARTITION_MODES}, "
                f"got {self.repartition!r}"
            )
        self.warm_workers = bool(self.warm_workers)
        self.worker_retries = int(self.worker_retries)
        if self.worker_retries < 0:
            raise InferenceError(
                f"worker_retries must be >= 0, got {self.worker_retries}"
            )
        self.n_particles = int(self.n_particles)
        if self.n_particles < 2:
            raise InferenceError(
                f"need at least two particles, got {self.n_particles}"
            )
        self.ess_threshold = float(self.ess_threshold)
        if not 0.0 < self.ess_threshold <= 1.0:
            raise InferenceError(
                f"ess_threshold must be in (0, 1], got {self.ess_threshold}"
            )
        self.rejuvenation_sweeps = int(self.rejuvenation_sweeps)
        if self.rejuvenation_sweeps < 1:
            raise InferenceError(
                "need at least one rejuvenation sweep per trigger, "
                f"got {self.rejuvenation_sweeps}"
            )

    def as_dict(self) -> dict:
        """Plain-dict spelling, suitable for checkpoints (all JSON types)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_state(cls, config: Mapping) -> "EstimatorConfig":
        """Rebuild from a checkpoint's config mapping: every field, no
        other key (a checkpoint stores :meth:`as_dict`)."""
        names = set(estimator_config_keys())
        missing, unknown = names - set(config), set(config) - names
        if missing or unknown:
            raise InferenceError(
                "checkpoint config does not match this build's fields: "
                f"missing {sorted(missing)}, unknown {sorted(unknown)}"
            )
        return cls(**config)

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "EstimatorConfig":
        """Build from a loose mapping, ignoring keys that are not fields.

        The router's ``service_config`` mixes estimator, stream, and
        service keys in one flat dict; this picks out ours.
        """
        names = {field.name for field in fields(cls)}
        return cls(**{k: v for k, v in dict(mapping).items() if k in names})


def estimator_config_keys() -> tuple[str, ...]:
    """Field names of :class:`EstimatorConfig`, in declaration order."""
    return tuple(field.name for field in fields(EstimatorConfig))
