"""Online (windowed and streaming) inference and anomaly detection.

Paper Section 6 names "online, distributed inference" as the most useful
future direction, and the introduction motivates the whole enterprise
with anomaly detection and diagnosis of *past* performance problems.
This package implements that direction in three stages:

* :mod:`repro.online.windowed` — slide a time window over a recorded
  trace, rerun StEM per window against the same partial-observation
  regime, and monitor the resulting per-queue rate series for change
  points — "five minutes ago, a brief spike occurred; which component
  was the bottleneck?" becomes a lookup into the window series.
* :mod:`repro.online.streaming` — the online form: consume an
  incrementally revealed trace (:class:`~repro.online.streaming.TraceStream`)
  with per-window bookkeeping that costs O(window).  Every window
  matches the windowed estimator bitwise at the same seed.
* :mod:`repro.online.smc` — the O(arrival) form: a particle population
  over the rate vector reweighted per poll batch, with ESS-triggered
  systematic resampling and Gibbs-refreshed rejuvenation on the shared
  sweep kernels.

Every estimator flavor implements :class:`StreamEstimatorProtocol` and is
registered in :data:`ESTIMATORS` under a short name (``"stem"``,
``"smc"``) — the name a checkpoint carries, the value the CLIs'
``--estimator`` flag takes, and the key the service/router layers
dispatch construction on.  Configuration is one shared
:class:`~repro.online.config.EstimatorConfig` regardless of flavor.
"""

from typing import Protocol, runtime_checkable

from repro.errors import InferenceError
from repro.telemetry import Counts
from repro.online.config import EstimatorConfig, estimator_config_keys
from repro.online.windowed import (
    WindowEstimate,
    WindowedEstimator,
    task_fully_observed,
)
from repro.online.streaming import (
    ReplayTraceStream,
    StreamEstimate,
    StreamingEstimator,
    TraceStream,
)
from repro.online.smc import SMCEstimator, systematic_resample
from repro.online.anomaly import AnomalyReport, detect_anomalies


@runtime_checkable
class StreamEstimatorProtocol(Protocol):
    """The estimator surface the live tier programs against.

    Anything implementing this protocol can sit behind
    ``EstimatorService``, ``IngestRouter``, checkpoint/restore, and the
    ``repro stream/serve/route`` CLIs; the wire protocol never sees
    which flavor is running.  ``estimator_name`` is the registry key
    carried in ``state_dict()["estimator"]`` so a checkpoint knows which
    class to rebuild.  ``COUNTS`` (a :class:`repro.telemetry.Counts`)
    names the estimator's counts: its ``health`` section and the series
    the ``metrics`` command reads them through.
    """

    estimator_name: str
    COUNTS: Counts
    stream: "TraceStream"
    config: EstimatorConfig
    n_windows_done: int

    @property
    def window(self) -> float: ...

    @property
    def step(self) -> float: ...

    def process_window(self, t0: float) -> StreamEstimate: ...

    def estimates(self): ...

    def run(self) -> list: ...

    def state_dict(self) -> dict: ...

    def load_state_dict(self, state: dict) -> None: ...


#: Registered estimator flavors, keyed by the name checkpoints carry.
ESTIMATORS: dict[str, type] = {}


def register_estimator(cls: type) -> type:
    """Register an estimator class under its ``estimator_name``."""
    ESTIMATORS[cls.estimator_name] = cls
    return cls


def get_estimator(name: str) -> type:
    """Look up a registered estimator class by name."""
    try:
        return ESTIMATORS[name]
    except KeyError:
        raise InferenceError(
            f"unknown estimator {name!r}; registered: {sorted(ESTIMATORS)}"
        ) from None


register_estimator(StreamingEstimator)
register_estimator(SMCEstimator)

__all__ = [
    "WindowedEstimator",
    "WindowEstimate",
    "task_fully_observed",
    "StreamingEstimator",
    "SMCEstimator",
    "StreamEstimate",
    "TraceStream",
    "ReplayTraceStream",
    "EstimatorConfig",
    "estimator_config_keys",
    "StreamEstimatorProtocol",
    "ESTIMATORS",
    "register_estimator",
    "get_estimator",
    "systematic_resample",
    "detect_anomalies",
    "AnomalyReport",
]
