"""Monte-Carlo EM — the alternative the paper weighs against StEM.

Paper Section 4: "The E-step can be approximated using the output of a
Gibbs sampler, which results in Monte Carlo EM [Wei & Tanner 1990], but
this requires running an independent Gibbs sampler for a large number of
iterations at each outer EM iteration."

We implement it for the ``abl-em`` ablation: each outer iteration runs the
chain for ``e_sweeps`` sweeps, averages the per-queue sufficient statistics
(total service time; counts are constant), and takes the closed-form
M-step on the averaged statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.inference.gibbs import GibbsSampler
from repro.inference.init_heuristic import initial_rates_from_observed
from repro.inference.pool import (
    PersistentChainPool,
    build_chain_sampler,
    chain_recipes,
)
from repro.observation import ObservedTrace
from repro.rng import RandomState


@dataclass
class MCEMResult:
    """Output of a Monte-Carlo-EM run.

    Attributes mirror :class:`~repro.inference.stem.StEMResult`, except the
    point estimate is the *final* iterate (MCEM converges pointwise as the
    E-step sample size grows).
    """

    rates: np.ndarray
    rates_history: np.ndarray
    sampler: GibbsSampler
    total_sweeps: int
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
        """Estimated mean service time per queue."""
        return 1.0 / self.rates


def run_mcem(
    trace: ObservedTrace,
    n_iterations: int = 30,
    e_sweeps: int = 20,
    e_burn_in: int = 5,
    growth: float = 1.0,
    initial_rates: np.ndarray | None = None,
    init_method: str = "auto",
    random_state: RandomState = None,
    n_chains: int = 1,
    jitter: float = 0.15,
    kernel: str = "array",
    persistent_workers: int | None = None,
) -> MCEMResult:
    """Estimate rates by Monte-Carlo EM.

    Parameters
    ----------
    trace:
        The observed trace.
    n_iterations:
        Outer EM iterations.
    e_sweeps:
        Gibbs sweeps averaged per E-step (after *e_burn_in* warm-up sweeps),
        summed across chains: with ``n_chains > 1`` each chain contributes
        ``e_sweeps`` kept sweeps and the sufficient statistics pool over
        ``n_chains * e_sweeps`` imputations.
    e_burn_in:
        Warm-up sweeps discarded at the start of each E-step (the chains
        are warm-started from the previous iteration, so this can be small).
    growth:
        Multiplicative growth of *e_sweeps* per outer iteration; values
        slightly above 1 implement the increasing-precision schedule that
        makes MCEM converge.
    initial_rates, init_method, random_state:
        As in :func:`~repro.inference.stem.run_stem`.
    n_chains, jitter:
        Parallel E-step chains with jittered over-dispersed starts, as in
        :func:`~repro.inference.stem.run_stem`; ``n_chains=1`` reproduces
        the historical single-chain stream exactly.
    kernel:
        Sweep engine for every E-step chain (see
        :class:`~repro.inference.gibbs.GibbsSampler`).
    persistent_workers:
        As in :func:`~repro.inference.stem.run_stem`: fan the E-step
        chains out over persistent worker processes that keep chain state
        resident across EM iterations, shipping only rate vectors and
        per-sweep sufficient statistics.  Bitwise identical to the serial
        run at any worker count.
    """
    if n_iterations < 1 or e_sweeps < 1 or e_burn_in < 0:
        raise InferenceError("need n_iterations >= 1, e_sweeps >= 1, e_burn_in >= 0")
    if growth < 1.0:
        raise InferenceError(f"growth must be >= 1, got {growth}")
    if n_chains < 1:
        raise InferenceError(f"need at least one chain, got {n_chains}")
    rates = (
        np.asarray(initial_rates, dtype=float).copy()
        if initial_rates is not None
        else initial_rates_from_observed(trace)
    )
    recipes = chain_recipes(
        trace, rates, init_method, n_chains, jitter, random_state,
        shuffle=True, kernel=kernel,
    )
    counts = trace.skeleton.events_per_queue().astype(float)
    history = np.empty((n_iterations + 1, trace.skeleton.n_queues))
    history[0] = rates
    total_sweeps = 0
    sweeps = float(e_sweeps)
    if persistent_workers:
        with PersistentChainPool(recipes, workers=persistent_workers) as pool:
            for it in range(1, n_iterations + 1):
                n_keep = max(1, int(round(sweeps)))
                kept = pool.step(
                    rates, burn_in=e_burn_in, n_keep=n_keep, accumulate=True
                )
                total_sweeps += n_chains * (e_burn_in + n_keep)
                # Accumulate in exact serial order (chain-major, then
                # sweep) so the reduction is bitwise identical to the
                # in-process loop below.
                acc = np.zeros(trace.skeleton.n_queues)
                for chain_kept in kept:
                    for row in chain_kept:
                        acc += row
                rates = _mcem_m_step(counts, acc, n_keep * n_chains)
                history[it] = rates
                sweeps *= growth
            samplers = pool.finish(rates)
    else:
        samplers = [build_chain_sampler(recipe) for recipe in recipes]
        for it in range(1, n_iterations + 1):
            n_keep = max(1, int(round(sweeps)))
            acc = np.zeros(trace.skeleton.n_queues)
            for sampler in samplers:
                sampler.run(e_burn_in)
                total_sweeps += e_burn_in
                for _ in range(n_keep):
                    sampler.sweep()
                    acc += sampler.state.total_service_by_queue()
                total_sweeps += n_keep
            rates = _mcem_m_step(counts, acc, n_keep * len(samplers))
            for sampler in samplers:
                sampler.set_rates(rates)
            history[it] = rates
            sweeps *= growth
    return MCEMResult(
        rates=rates,
        rates_history=history,
        sampler=samplers[0],
        total_sweeps=total_sweeps,
        samplers=samplers,
    )


def _mcem_m_step(counts: np.ndarray, acc: np.ndarray, n_imputations: int) -> np.ndarray:
    """Closed-form M-step on E-step-averaged sufficient statistics."""
    expected_totals = acc / n_imputations
    with np.errstate(divide="ignore"):
        rates = counts / np.maximum(expected_totals, 1e-300)
    return np.clip(rates, 1e-9, 1e12)
