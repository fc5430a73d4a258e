"""Stochastic EM (paper Section 4).

StEM alternates

* **E-step**: replace the unobserved times with the output of *one* Gibbs
  sweep at the current parameters (not a full posterior expectation), and
* **M-step**: the closed-form exponential MLE of :mod:`repro.inference.mstep`.

Unlike Monte-Carlo EM, the iterates do not converge pointwise — they
converge to a stationary *distribution* concentrated near the MLE — so the
returned point estimate averages the post-burn-in iterates, the standard
practice for SEM-type algorithms [Celeux & Diebolt 1985; Celeux 1992].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.telemetry import phase as _phase
from repro.inference.gibbs import GibbsSampler
from repro.inference.init_heuristic import initial_rates_from_observed
from repro.inference.mstep import chain_service_totals, mle_rates_from_stats
from repro.inference.pool import (
    PersistentChainPool,
    build_chain_sampler,
    chain_recipes,
    initialize_state,
)
from repro.observation import ObservedTrace
from repro.rng import RandomState

__all__ = ["StEMResult", "initialize_state", "run_stem"]


@dataclass
class StEMResult:
    """Output of a stochastic-EM run.

    Attributes
    ----------
    rates:
        The point estimate: post-burn-in average of the rate iterates
        (index 0 = arrival rate ``lambda``).
    rates_history:
        All iterates, shape ``(n_iterations + 1, n_queues)``; row 0 is the
        initialization.
    sampler:
        The Gibbs sampler in its final state — reusable for posterior
        summaries at the estimated parameters.
    burn_in:
        Number of leading iterates excluded from the average.
    samplers:
        All E-step chains (``samplers[0] is sampler``); more than one when
        the run pooled sufficient statistics across ``n_chains`` chains.
    """

    rates: np.ndarray
    rates_history: np.ndarray
    sampler: GibbsSampler
    burn_in: int
    samplers: list[GibbsSampler] | None = None

    @property
    def n_chains(self) -> int:
        """Number of parallel E-step chains the run used."""
        return len(self.samplers) if self.samplers else 1

    @property
    def arrival_rate(self) -> float:
        """Estimated system arrival rate ``lambda``."""
        return float(self.rates[0])

    def mean_service_times(self) -> np.ndarray:
        """Estimated mean service time per queue, ``1 / mu_q``."""
        return 1.0 / self.rates

    def iterate_std(self) -> np.ndarray:
        """Std of the post-burn-in iterates (a stability diagnostic)."""
        return self.rates_history[self.burn_in :].std(axis=0)


def run_stem(
    trace: ObservedTrace,
    n_iterations: int = 200,
    burn_in: int | None = None,
    initial_rates: np.ndarray | None = None,
    init_method: str = "auto",
    sweeps_per_iteration: int = 1,
    random_state: RandomState = None,
    shuffle: bool = True,
    n_chains: int = 1,
    jitter: float = 0.15,
    kernel: str = "array",
    persistent_workers: int | None = None,
) -> StEMResult:
    """Estimate ``lambda`` and all ``mu_q`` from an incomplete trace.

    Parameters
    ----------
    trace:
        The observed trace.
    n_iterations:
        Number of StEM iterations (each = E-sweep + M-step).
    burn_in:
        Iterates discarded before averaging; defaults to ``n_iterations // 2``.
    initial_rates:
        Starting rates; default derives them from observed responses via
        :func:`~repro.inference.init_heuristic.initial_rates_from_observed`.
    init_method:
        Latent-time initializer: ``"lp"``, ``"heuristic"``, or ``"auto"``.
    sweeps_per_iteration:
        Gibbs sweeps per E-step.  The paper's StEM uses 1; larger values
        interpolate toward Monte-Carlo EM.
    random_state, shuffle:
        Randomness controls (see :class:`~repro.inference.gibbs.GibbsSampler`).
    n_chains:
        Number of parallel E-step chains.  With more than one chain every
        M-step divides the shared event counts by the cross-chain *mean*
        of the sampled total service times
        (:func:`~repro.inference.mstep.mle_rates_pooled`), which damps the
        sweep-to-sweep noise of the rate iterates; chains beyond the first
        start from jittered initializations and independent seed-sequence
        spawns.  ``n_chains=1`` reproduces the historical single-chain
        stream exactly.
    jitter:
        Log-normal sigma of the extra chains' initializer-rate jitter.
    kernel:
        Sweep engine for every E-step chain (see
        :class:`~repro.inference.gibbs.GibbsSampler`).
    persistent_workers:
        ``None`` (default) runs the E-step chains serially in-process.  A
        positive count fans them out over that many *persistent* worker
        processes (:class:`~repro.inference.pool.PersistentChainPool`):
        chains stay resident in their worker across EM iterations and only
        rate vectors and per-queue sufficient statistics cross the process
        boundary each round.  Results are bitwise identical to the serial
        run at any worker count.
    """
    if n_iterations < 1:
        raise InferenceError(f"need at least one iteration, got {n_iterations}")
    if n_chains < 1:
        raise InferenceError(f"need at least one chain, got {n_chains}")
    if burn_in is None:
        burn_in = n_iterations // 2
    if not 0 <= burn_in < n_iterations:
        raise InferenceError(
            f"burn_in must lie in [0, n_iterations), got {burn_in}/{n_iterations}"
        )
    rates = (
        np.asarray(initial_rates, dtype=float).copy()
        if initial_rates is not None
        else initial_rates_from_observed(trace)
    )
    recipes = chain_recipes(
        trace, rates, init_method, n_chains, jitter, random_state, shuffle, kernel
    )
    counts = trace.skeleton.events_per_queue().astype(float)
    history = np.empty((n_iterations + 1, trace.skeleton.n_queues))
    history[0] = rates
    if persistent_workers:
        with PersistentChainPool(recipes, workers=persistent_workers) as pool:
            for it in range(1, n_iterations + 1):
                with _phase("sweeps"):
                    totals = pool.step(rates, n_keep=sweeps_per_iteration)
                with _phase("m-step"):
                    rates = mle_rates_from_stats(counts, totals)
                history[it] = rates
            estimate = history[burn_in:].mean(axis=0)
            samplers = pool.finish(estimate)
    else:
        # Serial chains, built from the same recipes and reduced with the
        # same statistic as the pooled ones, so both paths stay bitwise
        # aligned.
        samplers = [build_chain_sampler(recipe) for recipe in recipes]
        for it in range(1, n_iterations + 1):
            with _phase("sweeps"):
                for sampler in samplers:
                    sampler.run(sweeps_per_iteration)
            with _phase("m-step"):
                rates = mle_rates_from_stats(
                    counts, [chain_service_totals(s.state) for s in samplers]
                )
                for sampler in samplers:
                    sampler.set_rates(rates)
            history[it] = rates
        estimate = history[burn_in:].mean(axis=0)
        for sampler in samplers:
            sampler.set_rates(estimate)
    return StEMResult(
        rates=estimate,
        rates_history=history,
        sampler=samplers[0],
        burn_in=burn_in,
        samplers=samplers,
    )
