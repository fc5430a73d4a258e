"""Sliding-window parameter estimation over a censored trace."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.events.subset import SubsetIndex, subset_trace
from repro.inference import run_stem
from repro.observation import ObservedTrace
from repro.rng import RandomState, spawn


@dataclass
class WindowEstimate:
    """Per-window estimation result.

    Attributes
    ----------
    t_start / t_end:
        The window's clock interval.
    n_tasks / n_observed_tasks:
        Tasks whose (estimated) entry falls in the window, and how many of
        them are fully observed.
    rates:
        StEM rate estimate for the window (index 0 = arrival rate), or
        ``None`` when the window held too little observed data or its
        estimation failed.
    failure:
        Why estimation failed (the :class:`~repro.errors.InferenceError`
        message), or ``None`` for successful and skipped windows alike.
    """

    t_start: float
    t_end: float
    n_tasks: int
    n_observed_tasks: int
    rates: np.ndarray | None
    failure: str | None = None

    @property
    def ok(self) -> bool:
        """Whether this window produced an estimate."""
        return self.rates is not None

    def mean_service(self, q: int) -> float:
        """Window estimate of queue *q*'s mean service time (nan if absent)."""
        if self.rates is None:
            return float("nan")
        return float(1.0 / self.rates[q])


def _entry_time_estimates(trace: ObservedTrace) -> dict[int, float]:
    """Entry time per task; unobserved entries interpolated from the
    queue-0 order between observed neighbors (the counter information)."""
    skeleton = trace.skeleton
    order = skeleton.queue_order(0)  # initial events in entry order
    entries = np.full(order.size, np.nan)
    for i, e in enumerate(order):
        succ = skeleton.pi_inv[e]
        if succ >= 0 and trace.arrival_observed[succ]:
            entries[i] = skeleton.arrival[succ]
    # Interpolate nan gaps by position between known anchors.
    known = np.flatnonzero(~np.isnan(entries))
    if known.size == 0:
        raise InferenceError("no observed entries; cannot window the trace")
    positions = np.arange(order.size, dtype=float)
    entries = np.interp(positions, positions[known], entries[known])
    return {int(skeleton.task[e]): float(entries[i]) for i, e in enumerate(order)}


def validate_window_params(
    window: float, step: float | None, stem_iterations: int
) -> None:
    """The window-estimation parameter contract, shared by the windowed
    and streaming estimators so the two can never drift apart.  Each
    message starts with the parameter it rejects."""
    if window <= 0.0:
        raise InferenceError(f"window must be positive, got {window}")
    if step is not None and step <= 0.0:
        raise InferenceError(f"step must be positive, got {step}")
    if stem_iterations < 1:
        # Rejected here, not per window: otherwise run_stem's own
        # validation error would be misread as every window failing.
        raise InferenceError(
            f"stem_iterations must be >= 1, got {stem_iterations}"
        )


def task_fully_observed(trace: ObservedTrace, task_id: int) -> bool:
    """Whether every non-initial arrival of *task_id* was measured.

    The per-window "observed task" count of the windowed and streaming
    estimators — one definition so the two paths can never disagree.
    """
    skeleton = trace.skeleton
    idx = skeleton.events_of_task(task_id)
    non_init = idx[skeleton.seq[idx] != 0]
    return bool(np.all(trace.arrival_observed[non_init]))


class WindowedEstimator:
    """Re-run StEM over sliding time windows of a censored trace.

    Parameters
    ----------
    trace:
        The full censored trace.
    window:
        Window length (same clock units as the trace).
    step:
        Window start spacing; defaults to the window length (tumbling
        windows).  Smaller values give overlapping windows.
    stem_iterations:
        StEM iterations per window (windows are small; a short run
        suffices).
    min_observed_tasks:
        Windows with fewer fully observed tasks are skipped (``rates=None``).
    kernel:
        Sweep kernel for every window's E-step chains (see
        :class:`~repro.inference.gibbs.GibbsSampler`).
    """

    def __init__(
        self,
        trace: ObservedTrace,
        window: float,
        step: float | None = None,
        stem_iterations: int = 40,
        min_observed_tasks: int = 3,
        random_state: RandomState = None,
        kernel: str = "array",
    ) -> None:
        validate_window_params(window, step, stem_iterations)
        self.trace = trace
        self.window = float(window)
        self.step = float(step) if step is not None else float(window)
        self.stem_iterations = int(stem_iterations)
        self.min_observed_tasks = int(min_observed_tasks)
        self._random_state = random_state
        self.kernel = str(kernel)
        self._entries = _entry_time_estimates(trace)
        self._subset_index = SubsetIndex(trace.skeleton)

    def _task_observed(self, task_id: int) -> bool:
        return task_fully_observed(self.trace, task_id)

    def run(self) -> list[WindowEstimate]:
        """Estimate every window; returns them in time order.

        A window whose StEM run raises
        :class:`~repro.errors.InferenceError` is recorded as a failed
        window (``rates=None``, the reason on ``failure``) — a failed
        window is data, not a crash.  Programming errors propagate.
        """
        horizon = max(self._entries.values())
        starts = np.arange(0.0, horizon, self.step)
        streams = iter(spawn(self._random_state, max(len(starts), 1)))
        results: list[WindowEstimate] = []
        for t0 in starts:
            t1 = t0 + self.window
            tasks = [k for k, t in self._entries.items() if t0 <= t < t1]
            n_observed = sum(self._task_observed(k) for k in tasks)
            stream = next(streams)
            if len(tasks) < 2 or n_observed < self.min_observed_tasks:
                results.append(WindowEstimate(t0, t1, len(tasks), n_observed, None))
                continue
            window_trace = subset_trace(self.trace, tasks, index=self._subset_index)
            rates = None
            failure = None
            try:
                stem = run_stem(
                    window_trace,
                    n_iterations=self.stem_iterations,
                    init_method="heuristic",
                    random_state=stream,
                    kernel=self.kernel,
                )
                rates = stem.rates
            except InferenceError as exc:
                failure = str(exc)
            results.append(
                WindowEstimate(t0, t1, len(tasks), n_observed, rates, failure)
            )
        return results
