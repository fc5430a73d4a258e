"""Shared estimator configuration: one dataclass, every construction path.

``EstimatorConfig`` is the single source of truth for the estimator
knobs: estimators hold one, checkpoints carry ``dataclasses.asdict
(config)``, and :class:`repro.live.service.ServiceConfig` extends it with
the stream and service fields the ``stream``/``serve``/``route`` commands
generate their flags from.  Each field declares its default and its help
text once (:func:`knob`).

Validation lives in ``__post_init__`` so every path — keyword knobs, the
``config=`` spelling, checkpoint restore, a service config — rejects bad
values with the same messages.  Every message starts with the name of the
field it rejects, so the CLI can name the flag instead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Mapping

from repro.errors import InferenceError
from repro.inference.gibbs import KERNELS
from repro.online.windowed import validate_window_params


def knob(help: str, default: Any = MISSING, **cli) -> Any:
    """A config field declaring its default and its help text once.

    *cli* refines the field's command-line flag (see :mod:`repro.cli`):
    ``flag`` (default: ``--`` and the dashed name), ``type`` (default:
    the default's type), ``choices``, and ``commands``, the subcommands
    that take it (default: ``stream``, ``serve`` and ``route``; empty
    for a field without a flag).
    """
    return field(default=default, metadata={"help": help, **cli})


@dataclass
class EstimatorConfig:
    """Every estimator knob, in one validated place.

    ``window`` is the only required field.  The SMC estimator burns in
    for half of ``stem_iterations``; the SMC fields (``n_particles``,
    ``ess_threshold``, ``rejuvenation_sweeps``) are ignored by StEM.
    Each field's metadata holds its help text.
    """

    window: float = knob(
        "estimation window length in trace clock units", type=float
    )
    step: float | None = knob(
        "window start spacing; below the window length, windows overlap "
        "(default: the window length)", None, type=float,
    )
    stem_iterations: int = knob(
        "StEM iterations per window", 40, flag="--iterations"
    )
    min_observed_tasks: int = knob(
        "windows with fewer fully observed tasks are skipped", 3,
        flag="--min-observed",
    )
    kernel: str = knob(
        "sweep kernel: 'array' (vectorized conflict-free batches), "
        "'native' (its JIT lowering; 'array' when numba is missing) or "
        "'object' (the per-move scalar reference)", "array", choices=KERNELS,
    )
    n_particles: int = knob("SMC particle count", 16, flag="--particles")
    ess_threshold: float = knob(
        "SMC resamples and rejuvenates when the effective sample size "
        "falls below this fraction of the particle count", 0.5,
    )
    rejuvenation_sweeps: int = knob(
        "SMC Gibbs sweeps per particle per rejuvenation", 1
    )

    def __post_init__(self) -> None:
        validate_window_params(self.window, self.step, self.stem_iterations)
        self.window = float(self.window)
        self.step = self.window if self.step is None else float(self.step)
        self.stem_iterations = int(self.stem_iterations)
        self.min_observed_tasks = int(self.min_observed_tasks)
        if self.kernel not in KERNELS:
            raise InferenceError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        self.n_particles = int(self.n_particles)
        if self.n_particles < 2:
            raise InferenceError(
                "n_particles must be >= 2 (at least two particles), "
                f"got {self.n_particles}"
            )
        self.ess_threshold = float(self.ess_threshold)
        if not 0.0 < self.ess_threshold <= 1.0:
            raise InferenceError(
                f"ess_threshold must be in (0, 1], got {self.ess_threshold}"
            )
        self.rejuvenation_sweeps = int(self.rejuvenation_sweeps)
        if self.rejuvenation_sweeps < 1:
            raise InferenceError(
                "rejuvenation_sweeps must be >= 1 (at least one rejuvenation "
                f"sweep per trigger), got {self.rejuvenation_sweeps}"
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


def estimator_config_keys() -> tuple[str, ...]:
    """Field names of :class:`EstimatorConfig`, in declaration order."""
    return tuple(field.name for field in fields(EstimatorConfig))
