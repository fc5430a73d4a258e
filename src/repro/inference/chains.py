"""Parallel multi-chain Gibbs inference with cross-chain diagnostics.

Deterministic dependencies are "known to impair the performance of Gibbs
samplers" (paper Section 3).  The only credible way to detect the resulting
non-convergence — and the cheapest way to use more than one core — is to
run several independent chains from over-dispersed starting points and
compare them.  This module provides exactly that:

* :class:`MultiChainSampler` runs ``K`` independent
  :class:`~repro.inference.gibbs.GibbsSampler` chains, serially or on a
  :class:`concurrent.futures.ProcessPoolExecutor`;
* starting states are over-dispersed by construction — chain 0 starts from
  the heuristic initializer at the given rates, chain 1 from the LP
  initializer (when the trace is small enough for it), and every further
  chain from the heuristic initializer at multiplicatively *jittered*
  rates, which spreads the initial latent times while keeping every start
  feasible;
* every chain derives its generator from one
  :class:`numpy.random.SeedSequence` spawn tree, so results are bitwise
  identical at any worker count — parallelism only changes scheduling;
* the result, :class:`MultiChainPosterior`, stacks the per-chain
  :class:`~repro.inference.gibbs.PosteriorSamples` and exposes per-queue
  split-R̂ and cross-chain ESS from :mod:`repro.inference.diagnostics`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.inference.diagnostics import multichain_ess, split_r_hat
from repro.inference.gibbs import GibbsSampler, PosteriorSamples
from repro.inference.init_heuristic import (
    heuristic_initialize,
    initial_rates_from_observed,
)
from repro.inference.init_lp import lp_initialize
from repro.observation import ObservedTrace
from repro.rng import RandomState, as_seed_sequence

#: Chain summaries R̂ / ESS can be computed over.
_KINDS = ("waiting", "service", "log_joint")


def chain_seed_sequences(
    random_state: RandomState, n_chains: int
) -> list[tuple[np.random.SeedSequence, np.random.SeedSequence]]:
    """Derive each chain's ``(init, sweep)`` seed pair from one master seed.

    The master seed spawns one child per chain and each child spawns an
    initialization stream (rate jitter) and a sweep stream (Gibbs moves).
    Everything any chain ever draws is a pure function of the master seed
    and the chain index, which is what makes multi-chain runs bitwise
    reproducible at any worker count.  A caller-supplied ``Generator`` is
    never drawn from (its seed sequence is spawned instead), so sharing
    one with other components leaves their streams untouched.
    """
    master = as_seed_sequence(random_state)
    return [tuple(child.spawn(2)) for child in master.spawn(n_chains)]


def jittered_rates(
    rates: np.ndarray, jitter: float, init_seed: np.random.SeedSequence
) -> np.ndarray:
    """The over-dispersed chains' initializer rates.

    Multiplies each rate by ``exp(jitter * N(0, 1))`` drawn from the
    chain's dedicated init stream — a different feasible corner of the
    constraint polytope per chain, shared by :class:`MultiChainSampler`
    and the StEM/MCEM multi-chain E-steps.
    """
    rng = np.random.Generator(np.random.PCG64(init_seed))
    return np.asarray(rates, dtype=float) * np.exp(
        jitter * rng.standard_normal(np.asarray(rates).size)
    )


@dataclass
class ChainSpec:
    """Everything one worker needs to run one chain (picklable)."""

    index: int
    trace: ObservedTrace
    rates: np.ndarray
    init_method: str
    init_seed: np.random.SeedSequence
    sweep_seed: np.random.SeedSequence
    jitter: float
    n_samples: int
    thin: int
    burn_in: int
    shuffle: bool
    batch_draws: bool
    kernel: str = "array"


def _initialize_chain(spec: ChainSpec):
    """Build the chain's (possibly jittered) init rates and starting state."""
    rates = np.asarray(spec.rates, dtype=float)
    if spec.init_method == "heuristic":
        return rates, heuristic_initialize(spec.trace, rates)
    if spec.init_method == "lp":
        return rates, lp_initialize(spec.trace, rates)
    if spec.init_method == "heuristic-jitter":
        jittered = jittered_rates(rates, spec.jitter, spec.init_seed)
        return jittered, heuristic_initialize(spec.trace, jittered)
    raise InferenceError(f"unknown chain init method {spec.init_method!r}")


def run_chain(spec: ChainSpec) -> PosteriorSamples:
    """Run one complete chain: initialize, burn in, collect.

    Module-level so a :class:`~concurrent.futures.ProcessPoolExecutor` can
    pickle it; the sampler always samples at ``spec.rates`` — the jitter
    only over-disperses the *starting state*, not the target distribution.
    """
    _, state = _initialize_chain(spec)
    sampler = GibbsSampler(
        spec.trace,
        state,
        spec.rates,
        random_state=spec.sweep_seed,
        shuffle=spec.shuffle,
        batch_draws=spec.batch_draws,
        kernel=spec.kernel,
    )
    return sampler.collect(
        n_samples=spec.n_samples, thin=spec.thin, burn_in=spec.burn_in
    )


class MultiChainSampler:
    """Run ``K`` independent Gibbs chains and pool their posteriors.

    Parameters
    ----------
    trace:
        The observed trace (shared, read-only, by every chain).
    rates:
        Fixed rate vector all chains sample at (e.g. a StEM estimate).
        Defaults to the crude observed-response initialization.
    n_chains:
        Number of independent chains ``K``.
    random_state:
        Master seed; see :func:`chain_seed_sequences`.
    jitter:
        Log-normal sigma of the per-chain initializer-rate jitter used for
        the over-dispersed chains (chains 2+, and chain 1 when the trace
        is too large for the LP initializer).
    lp_size_limit:
        Largest trace (in events) for which chain 1 uses the exact LP
        initializer.
    shuffle, batch_draws:
        Passed to every :class:`~repro.inference.gibbs.GibbsSampler`;
        batched draws default on here because the multi-chain stream has
        no historical single-chain run to stay bit-compatible with.
    kernel:
        Sweep engine for every chain (see
        :class:`~repro.inference.gibbs.GibbsSampler`).
    """

    def __init__(
        self,
        trace: ObservedTrace,
        rates: np.ndarray | None = None,
        n_chains: int = 4,
        random_state: RandomState = None,
        jitter: float = 0.15,
        lp_size_limit: int = 6000,
        shuffle: bool = True,
        batch_draws: bool = True,
        kernel: str = "array",
    ) -> None:
        if n_chains < 1:
            raise InferenceError(f"need at least one chain, got {n_chains}")
        if jitter < 0.0:
            raise InferenceError(f"jitter must be nonnegative, got {jitter}")
        self.trace = trace
        if rates is None:
            rates = initial_rates_from_observed(trace)
        self.rates = np.asarray(rates, dtype=float).copy()
        self.n_chains = int(n_chains)
        self.jitter = float(jitter)
        self.shuffle = shuffle
        self.batch_draws = batch_draws
        self.kernel = kernel
        self.seed_pairs = chain_seed_sequences(random_state, self.n_chains)
        self.init_methods = [
            self._init_method_for(k, trace.skeleton.n_events, lp_size_limit)
            for k in range(self.n_chains)
        ]

    @staticmethod
    def _init_method_for(chain: int, n_events: int, lp_size_limit: int) -> str:
        if chain == 0:
            return "heuristic"
        if chain == 1 and n_events <= lp_size_limit:
            return "lp"
        return "heuristic-jitter"

    def chain_specs(
        self, n_samples: int, thin: int = 1, burn_in: int = 0
    ) -> list[ChainSpec]:
        """The fully resolved per-chain work descriptions."""
        return [
            ChainSpec(
                index=k,
                trace=self.trace,
                rates=self.rates,
                init_method=self.init_methods[k],
                init_seed=init_seed,
                sweep_seed=sweep_seed,
                jitter=self.jitter,
                n_samples=n_samples,
                thin=thin,
                burn_in=burn_in,
                shuffle=self.shuffle,
                batch_draws=self.batch_draws,
                kernel=self.kernel,
            )
            for k, (init_seed, sweep_seed) in enumerate(self.seed_pairs)
        ]

    def collect(
        self,
        n_samples: int,
        thin: int = 1,
        burn_in: int = 0,
        workers: int | None = None,
    ) -> "MultiChainPosterior":
        """Run every chain and stack the results.

        Parameters
        ----------
        n_samples, thin, burn_in:
            Per-chain schedule (see :meth:`GibbsSampler.collect`).
        workers:
            ``None`` or ``1`` runs the chains serially in-process; larger
            values fan the chains out over a process pool.  The results
            are bitwise identical either way.
        """
        if n_samples < 1 or thin < 1 or burn_in < 0:
            raise InferenceError("need n_samples >= 1, thin >= 1, burn_in >= 0")
        specs = self.chain_specs(n_samples, thin=thin, burn_in=burn_in)
        if workers is not None and workers > 1:
            with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
                chains = list(pool.map(run_chain, specs))
        else:
            chains = [run_chain(spec) for spec in specs]
        return MultiChainPosterior(chains=chains, init_methods=list(self.init_methods))


@dataclass
class MultiChainPosterior:
    """Stacked posterior draws from ``K`` independent chains.

    Attributes
    ----------
    chains:
        One :class:`~repro.inference.gibbs.PosteriorSamples` per chain,
        all with the same schedule.
    init_methods:
        How each chain's starting state was built (diagnostic provenance).
    """

    chains: list[PosteriorSamples]
    init_methods: list[str]

    @property
    def n_chains(self) -> int:
        """Number of chains ``K``."""
        return len(self.chains)

    @property
    def n_samples(self) -> int:
        """Retained draws per chain."""
        return self.chains[0].n_samples

    @property
    def n_queues(self) -> int:
        """Number of queues (including the arrival pseudo-queue 0)."""
        return self.chains[0].mean_service.shape[1]

    def stacked(self, kind: str = "waiting") -> np.ndarray:
        """Per-chain draws as one array.

        Shape ``(K, n_samples, n_queues)`` for ``"waiting"``/``"service"``
        and ``(K, n_samples)`` for ``"log_joint"``.
        """
        if kind not in _KINDS:
            raise InferenceError(f"kind must be one of {_KINDS}, got {kind!r}")
        if kind == "log_joint":
            return np.stack([c.log_joint for c in self.chains])
        attr = "mean_waiting" if kind == "waiting" else "mean_service"
        return np.stack([getattr(c, attr) for c in self.chains])

    def pooled(self) -> PosteriorSamples:
        """All chains concatenated into one sample set (post-R̂ use only)."""
        return PosteriorSamples(
            mean_service=np.concatenate([c.mean_service for c in self.chains]),
            mean_waiting=np.concatenate([c.mean_waiting for c in self.chains]),
            total_service=np.concatenate([c.total_service for c in self.chains]),
            log_joint=np.concatenate([c.log_joint for c in self.chains]),
            events_per_queue=self.chains[0].events_per_queue,
        )

    def split_r_hat(self, kind: str = "waiting") -> np.ndarray:
        """Per-queue split-R̂ (scalar 0-d array for ``"log_joint"``)."""
        return self._per_queue(split_r_hat, kind)

    def ess(self, kind: str = "waiting") -> np.ndarray:
        """Per-queue cross-chain effective sample size."""
        return self._per_queue(multichain_ess, kind)

    def _per_queue(self, statistic, kind: str) -> np.ndarray:
        stacked = self.stacked(kind)
        if stacked.ndim == 2:
            return np.asarray(statistic(stacked))
        return np.array(
            [statistic(stacked[:, :, q]) for q in range(stacked.shape[2])]
        )

    def max_r_hat(self, kind: str = "waiting") -> float:
        """The worst finite per-queue split-R̂ (the headline statistic)."""
        values = np.atleast_1d(self.split_r_hat(kind))
        finite = values[np.isfinite(values)]
        return float(finite.max()) if finite.size else float("nan")

    def summary(self) -> str:
        """One-line convergence report across all chains."""
        ess = np.atleast_1d(self.ess("waiting"))
        finite_ess = ess[np.isfinite(ess)]
        min_ess = float(finite_ess.min()) if finite_ess.size else float("nan")
        return (
            f"MultiChainPosterior: {self.n_chains} chains x {self.n_samples} "
            f"samples, max split-R^hat(waiting) = {self.max_r_hat('waiting'):.4f}, "
            f"min ESS(waiting) = {min_ess:.1f}"
        )
