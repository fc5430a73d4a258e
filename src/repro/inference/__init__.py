"""The paper's contribution: posterior inference for M/M/1 queueing networks.

Layout
------
* :mod:`repro.inference.piecewise` — log-space piecewise-exponential
  densities (the family every Gibbs conditional belongs to).
* :mod:`repro.inference.conditional` — builds the local conditional
  ``p(a_e | E \\ e)`` of paper Eq. (2)–(4) and the analogous final-departure
  conditional, as piecewise-exponential objects.
* :mod:`repro.inference.gibbs` — the Gibbs sampler over unobserved times
  (paper Section 3).
* :mod:`repro.inference.init_heuristic` / :mod:`repro.inference.init_lp` —
  feasible initialization (paper Section 3, last paragraph).
* :mod:`repro.inference.mstep` / :mod:`repro.inference.stem` /
  :mod:`repro.inference.mcem` — parameter estimation (paper Section 4).
* :mod:`repro.inference.posterior` — posterior summaries of service and
  waiting times with fixed parameters.
* :mod:`repro.inference.kernel` — the array-native vectorized sweep
  engine (conflict-free move batches, numpy log-mass and inverse-CDF
  kernels); selected with ``GibbsSampler(kernel="array")``, the default.
* :mod:`repro.inference.chains` — parallel multi-chain runs from
  over-dispersed starts, with cross-chain convergence diagnostics.
* :mod:`repro.inference.pool` — persistent worker processes holding warm
  E-step chains across StEM/MCEM iterations (only rate vectors and
  sufficient statistics cross the process boundary).
* :mod:`repro.inference.transport` — length-prefixed pickle frames over
  an HMAC-authenticated socket, the framing the live wire
  (:mod:`repro.live.server`) speaks.
* :mod:`repro.inference.diagnostics` — MCMC convergence diagnostics
  (within-chain and cross-chain).
"""

from repro.inference.chains import (
    ChainSpec,
    MultiChainPosterior,
    MultiChainSampler,
    chain_seed_sequences,
)
from repro.inference.conditional import (
    ArrivalBlanketCache,
    ArrivalNeighborhood,
    DepartureBlanketCache,
    arrival_conditional,
    arrival_neighborhood,
    final_departure_conditional,
    markov_blanket,
)
from repro.inference.diagnostics import (
    autocorrelation,
    effective_sample_size,
    geweke_z,
    multichain_ess,
    split_r_hat,
)
from repro.inference.gibbs import KERNELS, GibbsSampler, PosteriorSamples
from repro.inference.init_heuristic import heuristic_initialize, initial_rates_from_observed
from repro.inference.init_lp import lp_initialize
from repro.inference.kernel import ArraySweepKernel, color_conflict_free_batches
from repro.inference.mcem import MCEMResult, run_mcem
from repro.inference.mstep import mle_rates, mle_rates_from_stats, mle_rates_pooled
from repro.inference.pool import (
    ChainRecipe,
    PersistentChainPool,
    build_chain_sampler,
    chain_recipes,
)
from repro.inference.paths_mh import (
    PathResampler,
    PathSweepStats,
    tier_candidates_from_fsm,
)
from repro.inference.piecewise import PiecewiseExponential
from repro.inference.posterior import PosteriorSummary, estimate_posterior
from repro.inference.stem import StEMResult, run_stem

__all__ = [
    "PiecewiseExponential",
    "ArrivalBlanketCache",
    "ArrivalNeighborhood",
    "DepartureBlanketCache",
    "arrival_neighborhood",
    "arrival_conditional",
    "final_departure_conditional",
    "markov_blanket",
    "GibbsSampler",
    "PosteriorSamples",
    "KERNELS",
    "ArraySweepKernel",
    "color_conflict_free_batches",
    "ChainRecipe",
    "PersistentChainPool",
    "build_chain_sampler",
    "chain_recipes",
    "ChainSpec",
    "MultiChainPosterior",
    "MultiChainSampler",
    "chain_seed_sequences",
    "heuristic_initialize",
    "lp_initialize",
    "initial_rates_from_observed",
    "mle_rates",
    "mle_rates_from_stats",
    "mle_rates_pooled",
    "PathResampler",
    "PathSweepStats",
    "tier_candidates_from_fsm",
    "run_stem",
    "StEMResult",
    "run_mcem",
    "MCEMResult",
    "estimate_posterior",
    "PosteriorSummary",
    "effective_sample_size",
    "autocorrelation",
    "geweke_z",
    "multichain_ess",
    "split_r_hat",
]
