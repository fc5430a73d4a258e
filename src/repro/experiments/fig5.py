"""Figure 5: per-queue estimates vs observation rate on the web application.

Paper Section 5.2: the movie-voting application's trace (simulated here —
see :mod:`repro.webapp` and DESIGN.md) is censored at a range of observed
fractions up to 50 %; for each fraction, StEM estimates every queue's
mean service time (left panel) and the Gibbs sampler at the estimate gives
the mean waiting time (right panel).  The paper's qualitative findings to
reproduce: estimates stable down to ~10 %, and one web server (19 requests
assigned) visibly unstable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.inference import estimate_posterior, run_stem
from repro.observation import TaskSampling
from repro.rng import RandomState, spawn
from repro.simulate import SimulationResult
from repro.webapp import WebAppConfig, generate_webapp_trace


@dataclass(frozen=True)
class Fig5Config:
    """Scale knobs for the Figure-5 experiment."""

    webapp: WebAppConfig
    fractions: tuple[float, ...] = (0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50)
    stem_iterations: int = 80
    posterior_samples: int = 20
    posterior_burn_in: int = 10


def paper_fig5_config() -> Fig5Config:
    """Full scale: 5 759 requests / 23 036 events, seven fractions."""
    return Fig5Config(webapp=WebAppConfig())


def quick_fig5_config() -> Fig5Config:
    """Reduced scale (same topology and starved server) for fast benches."""
    return Fig5Config(
        webapp=WebAppConfig(n_requests=800, duration=250.0),
        fractions=(0.05, 0.10, 0.25, 0.50),
        stem_iterations=50,
        posterior_samples=12,
        posterior_burn_in=6,
    )


@dataclass
class Fig5Result:
    """Estimate series per queue and observed fraction.

    ``service[f][q]`` / ``waiting[f][q]`` hold the estimates at observed
    fraction ``f`` (nan for a queue with no events, which has nothing to
    estimate); ``requests_per_queue`` counts ground-truth events so the
    starved server can be identified.
    """

    queue_names: tuple[str, ...]
    fractions: tuple[float, ...]
    service: dict[float, np.ndarray] = field(default_factory=dict)
    waiting: dict[float, np.ndarray] = field(default_factory=dict)
    true_service: np.ndarray | None = None
    true_waiting: np.ndarray | None = None
    requests_per_queue: np.ndarray | None = None

    def starved_queue(self) -> int:
        """Index of the web server the balancer starved."""
        counts = self.requests_per_queue.copy().astype(float)
        counts[0] = np.inf  # arrival queue
        return int(np.argmin(counts))

    def stability_spread(self, q: int, min_fraction: float = 0.10) -> float:
        """Max - min of a queue's service estimates over fractions >= min_fraction.

        The paper's stability claim: for well-fed queues this spread is
        small once at least ~10 % of requests are observed.
        """
        vals = [
            self.service[f][q] for f in self.fractions if f >= min_fraction
        ]
        return float(np.max(vals) - np.min(vals))

    def table(self, panel: str = "service") -> tuple[list[str], list[tuple]]:
        """Headers and rows of one Figure-5 panel (``"service"`` or
        ``"waiting"``): per queue, its event count, the estimate at every
        fraction and the truth.  A queue with no events reads "no data"."""
        series = self.service if panel == "service" else self.waiting
        truth = self.true_service if panel == "service" else self.true_waiting

        def cell(value) -> float | str:
            return float(value) if np.isfinite(value) else "no data"

        headers = ["queue", "events", *(f"{f:.0%}" for f in self.fractions),
                   "truth"]
        rows = [
            (self.queue_names[q], int(self.requests_per_queue[q]),
             *(cell(series[f][q]) for f in self.fractions), cell(truth[q]))
            for q in range(1, len(self.queue_names))
        ]
        return headers, rows


def run_fig5(
    config: Fig5Config,
    random_state: RandomState = None,
    sim: SimulationResult | None = None,
) -> Fig5Result:
    """Run the observation-rate sweep on the (simulated) web application."""
    streams = iter(spawn(random_state, 1 + 2 * len(config.fractions)))
    if sim is None:
        sim = generate_webapp_trace(config.webapp, random_state=next(streams))
    else:
        next(streams)
    events = sim.events
    result = Fig5Result(
        queue_names=sim.network.queue_names,
        fractions=tuple(config.fractions),
        true_service=events.mean_service_by_queue(),
        true_waiting=events.mean_waiting_by_queue(),
        requests_per_queue=events.events_per_queue(),
    )
    # A queue without events has no estimate; the M-step's rate clamp
    # would otherwise read as a 1e9 mean service time.
    no_data = result.requests_per_queue == 0
    for fraction in config.fractions:
        trace = TaskSampling(fraction=fraction).observe(
            events, random_state=next(streams)
        )
        rng = next(streams)
        stem = run_stem(
            trace,
            n_iterations=config.stem_iterations,
            init_method="heuristic",
            random_state=rng,
        )
        posterior = estimate_posterior(
            trace,
            rates=stem.rates,
            n_samples=config.posterior_samples,
            burn_in=config.posterior_burn_in,
            state=stem.sampler.state,
            random_state=rng,
        )
        service = stem.mean_service_times()
        waiting = np.array(posterior.waiting_mean, dtype=float)
        service[no_data] = np.nan
        waiting[no_data] = np.nan
        result.service[fraction] = service
        result.waiting[fraction] = waiting
    return result
