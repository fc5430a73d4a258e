"""The Gibbs sampler over unobserved event times (paper Section 3).

A *sweep* resamples, one at a time, every latent scalar of the trace:

* the arrival ``a_e`` of every non-initial event whose arrival was not
  measured (which simultaneously moves ``d_pi(e)``, the same quantity), and
* the departure of every task-final event that was not measured.

Each move draws exactly from the local conditional (paper Eq. 2–4, built by
:mod:`repro.inference.conditional`), so the sweep is a systematic-scan
Gibbs kernel whose stationary distribution is the posterior
``p(E | O, mu)``.

The cost of a sweep is linear in the number of latent variables and
independent of the number of queues — the scaling property the paper calls
out in Section 5.2 and that ``benchmarks/bench_scaling.py`` measures.

Sweeps run on one of two engines, selected by the ``kernel`` argument:

* ``kernel="array"`` (default): the vectorized
  :class:`~repro.inference.kernel.ArraySweepKernel`.  Moves are partitioned
  once into conflict-free batches (no move writes a time another move in
  the batch reads), and each batch's conditionals are built, normalized and
  inverse-CDF sampled with numpy array kernels — no per-move Python object
  allocation.  The scan remains sequential across batches, so every draw is
  exact; only the random stream differs from the object kernel.
* ``kernel="object"``: the reference per-move scalar path, with the
  optimizations below.

Two object-kernel sweep-speed optimizations are available and on by default:

* **blanket caching** (``cache_blankets=True``): the static neighbor
  indices of every move's Markov blanket are extracted once at
  construction instead of re-derived from the :class:`~repro.events.EventSet`
  on every move; draws are bitwise identical to the uncached sweep.  The
  cache tracks ``EventSet.structure_version`` and rebuilds itself after
  path-MH queue reassignments, so interleaving with
  :class:`~repro.inference.paths_mh.PathResampler` stays correct.
* **batched draws** (``batch_draws=True``, off by default): all the
  uniforms a sweep can consume are drawn in one generator call up front.
  This produces a *different* (still exact and fully deterministic) random
  stream than the scalar-draw sweep, because every visited move consumes
  its two uniforms whether or not the move is skipped; use the default
  when bit-compatibility with historical runs matters.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InferenceError
from repro.events import EventSet
from repro.inference.conditional import (
    ArrivalBlanketCache,
    DepartureBlanketCache,
    arrival_conditional,
    arrival_conditional_cached,
    final_departure_conditional,
    final_departure_conditional_cached,
)
from repro.inference.kernel import ArraySweepKernel
from repro.inference.native import make_sweep_kernel
from repro.observation import ObservedTrace
from repro.rng import RandomState, as_generator

#: Sweep engines a :class:`GibbsSampler` can run on.  ``"native"`` is the
#: array kernel with its batch evaluation lowered to numba-compiled loops
#: (:mod:`repro.inference.native`); it degrades to the plain array path
#: when numba is not installed.
KERNELS = ("array", "native", "object")

#: Kernels that run on the batched array engine.
BATCH_KERNELS = ("array", "native")


@contextmanager
def _ignore_empty_slice_warnings():
    # Queues with no events produce all-nan columns (e.g. a server the
    # balancer never picked); nan is the intended answer there, so the
    # "mean of empty slice" / "all-nan slice" warnings are noise.
    with np.errstate(invalid="ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            yield


@dataclass
class SweepStats:
    """Bookkeeping for one Gibbs sweep."""

    n_moves: int = 0
    n_skipped: int = 0

    @property
    def n_attempted(self) -> int:
        """Total latent variables visited."""
        return self.n_moves + self.n_skipped


class GibbsSampler:
    """Systematic-scan Gibbs sampler for an M/M/1/FIFO queueing network.

    Parameters
    ----------
    trace:
        The observed (censored) trace; defines which variables are latent.
    state:
        A *feasible* event set whose observed entries match the trace and
        whose latent entries hold the current sample.  Produced by an
        initializer (:func:`~repro.inference.init_heuristic.heuristic_initialize`
        or :func:`~repro.inference.init_lp.lp_initialize`); mutated in place.
    rates:
        Exponential rate per queue (index 0 = arrival rate ``lambda``).
        Update via :meth:`set_rates` between sweeps for StEM.
    random_state:
        Seed or generator for all moves.
    shuffle:
        Visit latent variables in a fresh random order every sweep (default);
        with ``False`` the scan order is the event index order.
    cache_blankets:
        Precompute the static Markov-blanket indices of every move (see
        module docstring).  Draw-for-draw identical to the uncached sweep.
        Only meaningful for ``kernel="object"``.
    batch_draws:
        Pre-draw each sweep's uniforms in one generator call (implies the
        blanket cache; changes the random stream — see module docstring).
        Only meaningful for ``kernel="object"``.
    kernel:
        ``"array"`` (default) runs sweeps on the vectorized
        :class:`~repro.inference.kernel.ArraySweepKernel`: moves are
        partitioned into conflict-free batches and each batch's
        conditionals are built and inverted with numpy kernels.  The scan
        stays sequential (batch concatenation order, shuffled per sweep
        when *shuffle* is set), so the draws are exact; the random stream
        differs from the object kernel, so results agree statistically,
        not bitwise.  ``"native"`` is the same engine with its batch
        evaluation lowered to numba-compiled fused loops
        (:class:`~repro.inference.native.NativeSweepKernel`; agrees with
        the array kernel to 1e-10 per move, falls back to the numpy path
        when numba is missing).  ``"object"`` is the reference per-move
        scalar path.
    """

    def __init__(
        self,
        trace: ObservedTrace,
        state: EventSet,
        rates: np.ndarray,
        random_state: RandomState = None,
        shuffle: bool = True,
        cache_blankets: bool = True,
        batch_draws: bool = False,
        kernel: str = "array",
    ) -> None:
        self.trace = trace
        self.state = state
        self._rates = np.asarray(rates, dtype=float).copy()
        if self._rates.shape != (state.n_queues,):
            raise InferenceError(
                f"expected {state.n_queues} rates, got shape {self._rates.shape}"
            )
        if np.any(~np.isfinite(self._rates)) or np.any(self._rates <= 0.0):
            raise InferenceError("all rates must be positive and finite")
        self.rng = as_generator(random_state)
        self.shuffle = shuffle
        if kernel not in KERNELS:
            raise InferenceError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        self.kernel = kernel
        # The array kernel is built on top of the blanket caches.
        self.cache_blankets = (
            bool(cache_blankets) or bool(batch_draws) or kernel in BATCH_KERNELS
        )
        self.batch_draws = bool(batch_draws)
        self._arrival_moves = trace.latent_arrival_events.copy()
        self._departure_moves = trace.latent_departure_events.copy()
        self._arrival_slots = np.arange(self._arrival_moves.size)
        self._departure_slots = np.arange(self._departure_moves.size)
        if np.any(np.isnan(state.arrival)) or np.any(np.isnan(state.departure)):
            raise InferenceError(
                "the state still contains nan times; run an initializer first"
            )
        self._arrival_cache: ArrivalBlanketCache | None = None
        self._departure_cache: DepartureBlanketCache | None = None
        self._array_kernel: ArraySweepKernel | None = None
        if self.cache_blankets:
            self.rebuild_blanket_cache()
        self.n_sweeps_done = 0

    # ------------------------------------------------------------------
    # Parameters.
    # ------------------------------------------------------------------

    @property
    def rates(self) -> np.ndarray:
        """Current rate vector (copy; use :meth:`set_rates` to change)."""
        return self._rates.copy()

    def set_rates(self, rates: np.ndarray) -> None:
        """Replace the rate vector (the StEM M-step hook)."""
        rates = np.asarray(rates, dtype=float)
        if rates.shape != self._rates.shape:
            raise InferenceError(f"rate vector shape changed: {rates.shape}")
        if np.any(~np.isfinite(rates)) or np.any(rates <= 0.0):
            raise InferenceError("all rates must be positive and finite")
        self._rates = rates.copy()
        if self._arrival_cache is not None:
            self._arrival_cache.refresh_rates(self.state, self._rates)
        if self._departure_cache is not None:
            self._departure_cache.refresh_rates(self.state, self._rates)
        if self._array_kernel is not None:
            self._array_kernel.refresh_rates(self._rates)

    @property
    def n_latent(self) -> int:
        """Number of latent scalars resampled per sweep."""
        return self._arrival_moves.size + self._departure_moves.size

    def reseed(self, random_state) -> None:
        """Swap the sampler's random stream (per-particle kernel reuse).

        An SMC rejuvenation pass runs a few sweeps for *every* particle
        of a population over the same window trace.  Building a sampler
        (and its blanket caches and batch kernel) per particle would
        dominate the cost, so the particle loop builds one sampler and,
        per particle, reseeds it, loads that particle's times
        (:meth:`load_times`), and sets its rates.
        """
        self.rng = as_generator(random_state)

    def load_times(self, arrival: np.ndarray, departure: np.ndarray) -> None:
        """Overwrite the resident state's time columns in place.

        The companion of :meth:`reseed`: swaps which particle's latent
        times the shared sampler is sweeping.  Times-only writes are
        exactly what the sweep kernels themselves perform (the blanket
        caches and conflict-free batches key on the event-set
        *structure*, which time moves never touch), so the built caches
        stay valid.  Both arrays must come from a state with identical
        structure — e.g. copies of one initialized state's columns.
        """
        arrival = np.asarray(arrival, dtype=float)
        departure = np.asarray(departure, dtype=float)
        state = self.state
        if arrival.shape != state.arrival.shape or departure.shape != state.departure.shape:
            raise InferenceError(
                "time arrays do not match the resident state's shape"
            )
        if np.any(np.isnan(arrival)) or np.any(np.isnan(departure)):
            raise InferenceError("loaded times contain nan")
        state.arrival[:] = arrival
        state.departure[:] = departure

    # ------------------------------------------------------------------
    # Blanket cache maintenance.
    # ------------------------------------------------------------------

    def rebuild_blanket_cache(self) -> None:
        """(Re)extract the static part of every move's Markov blanket.

        Called automatically at construction and whenever the event set's
        ``structure_version`` has moved (a path-MH queue reassignment
        changed ``rho``/``rho_inv`` pointers or queue memberships).
        """
        self._arrival_cache = ArrivalBlanketCache(
            self.state, self._arrival_moves, self._rates
        )
        self._departure_cache = DepartureBlanketCache(
            self.state, self._departure_moves, self._rates
        )
        if self.kernel in BATCH_KERNELS:
            self._array_kernel = make_sweep_kernel(
                self.kernel, self.state, self._arrival_cache,
                self._departure_cache, self._rates,
            )

    def _fresh_caches(self) -> tuple[ArrivalBlanketCache, DepartureBlanketCache]:
        if (
            self._arrival_cache is None
            or self._arrival_cache.structure_version != self.state.structure_version
        ):
            self.rebuild_blanket_cache()
        return self._arrival_cache, self._departure_cache

    # ------------------------------------------------------------------
    # Sweeping.
    # ------------------------------------------------------------------

    def sweep(self) -> SweepStats:
        """Resample every latent variable once; returns move statistics."""
        if self.kernel in BATCH_KERNELS:
            stats = self._sweep_array()
        elif self.cache_blankets:
            stats = self._sweep_cached()
        else:
            stats = self._sweep_reference()
        self.n_sweeps_done += 1
        return stats

    def _sweep_array(self) -> SweepStats:
        """One sweep on the vectorized array kernel."""
        self._fresh_caches()
        n_moves, n_skipped = self._array_kernel.sweep(
            self.state, self.rng, shuffle=self.shuffle
        )
        return SweepStats(n_moves=n_moves, n_skipped=n_skipped)

    def _sweep_reference(self) -> SweepStats:
        """The uncached sweep: derive every blanket from the event set."""
        stats = SweepStats()
        arrivals = self._arrival_moves
        departures = self._departure_moves
        if self.shuffle:
            arrivals = self.rng.permutation(arrivals)
            departures = self.rng.permutation(departures)
        state = self.state
        rates = self._rates
        for e in arrivals:
            dist = arrival_conditional(state, int(e), rates)
            if dist is None:
                stats.n_skipped += 1
                continue
            state.set_arrival(int(e), dist.sample(self.rng))
            stats.n_moves += 1
        for e in departures:
            dist = final_departure_conditional(state, int(e), rates)
            if dist is None:
                stats.n_skipped += 1
                continue
            state.set_final_departure(int(e), dist.sample(self.rng))
            stats.n_moves += 1
        return stats

    def _sweep_cached(self) -> SweepStats:
        """Blanket-cached sweep, optionally with batched uniform draws.

        With ``batch_draws=False`` this consumes the generator exactly like
        :meth:`_sweep_reference` (slot permutations draw the same variates
        as event permutations of equal length; each non-skipped move draws
        its two uniforms scalar-by-scalar) and therefore reproduces its
        output bitwise.
        """
        stats = SweepStats()
        arr_cache, dep_cache = self._fresh_caches()
        arr_order = self._arrival_slots
        dep_order = self._departure_slots
        if self.shuffle:
            arr_order = self.rng.permutation(arr_order)
            dep_order = self.rng.permutation(dep_order)
        rng = self.rng
        state = self.state
        arrival = state.arrival
        departure = state.departure
        if self.batch_draws:
            # One generator call covers the whole sweep.  Every visited
            # move consumes its pair, skipped or not, which keeps the
            # draw-to-move alignment independent of the skip pattern.
            draws = rng.random(2 * (arr_order.size + dep_order.size))
            pos = 0
            for i in arr_order:
                u, v = draws[pos], draws[pos + 1]
                pos += 2
                dist = arrival_conditional_cached(arrival, departure, arr_cache, i)
                if dist is None:
                    stats.n_skipped += 1
                    continue
                state.set_arrival(arr_cache.events[i], dist.sample_uv(u, v, rng))
                stats.n_moves += 1
            for i in dep_order:
                u, v = draws[pos], draws[pos + 1]
                pos += 2
                dist = final_departure_conditional_cached(
                    arrival, departure, dep_cache, i
                )
                if dist is None:
                    stats.n_skipped += 1
                    continue
                departure[dep_cache.events[i]] = dist.sample_uv(u, v, rng)
                stats.n_moves += 1
            return stats
        for i in arr_order:
            dist = arrival_conditional_cached(arrival, departure, arr_cache, i)
            if dist is None:
                stats.n_skipped += 1
                continue
            state.set_arrival(arr_cache.events[i], dist.sample(rng))
            stats.n_moves += 1
        for i in dep_order:
            dist = final_departure_conditional_cached(arrival, departure, dep_cache, i)
            if dist is None:
                stats.n_skipped += 1
                continue
            departure[dep_cache.events[i]] = dist.sample(rng)
            stats.n_moves += 1
        return stats

    def run(self, n_sweeps: int) -> list[SweepStats]:
        """Run *n_sweeps* sweeps; returns per-sweep statistics."""
        return [self.sweep() for _ in range(n_sweeps)]

    # ------------------------------------------------------------------
    # Posterior sample collection.
    # ------------------------------------------------------------------

    def collect(
        self,
        n_samples: int,
        thin: int = 1,
        burn_in: int = 0,
    ) -> "PosteriorSamples":
        """Run the chain and collect per-queue summaries at each kept sweep.

        Parameters
        ----------
        n_samples:
            Number of retained samples.
        thin:
            Sweeps between retained samples.
        burn_in:
            Sweeps discarded before collection starts.
        """
        if n_samples < 1 or thin < 1 or burn_in < 0:
            raise InferenceError("need n_samples >= 1, thin >= 1, burn_in >= 0")
        self.run(burn_in)
        n_queues = self.state.n_queues
        mean_service = np.empty((n_samples, n_queues))
        mean_waiting = np.empty((n_samples, n_queues))
        total_service = np.empty((n_samples, n_queues))
        log_joint = np.empty(n_samples)
        for i in range(n_samples):
            self.run(thin)
            mean_service[i] = self.state.mean_service_by_queue()
            mean_waiting[i] = self.state.mean_waiting_by_queue()
            total_service[i] = self.state.total_service_by_queue()
            log_joint[i] = self.state.log_joint(self._rates)
        return PosteriorSamples(
            mean_service=mean_service,
            mean_waiting=mean_waiting,
            total_service=total_service,
            log_joint=log_joint,
            events_per_queue=self.state.events_per_queue(),
        )


@dataclass
class PosteriorSamples:
    """Per-sweep posterior draws of queue-level summaries.

    Attributes
    ----------
    mean_service / mean_waiting:
        Arrays of shape ``(n_samples, n_queues)``: the realized per-queue
        mean service/waiting time of each retained latent-state sample.
    total_service:
        Per-queue summed service times (the M-step sufficient statistic).
    log_joint:
        Eq. (1) log-density of each retained sample.
    events_per_queue:
        Event counts (constant across samples; kept for convenience).
    """

    mean_service: np.ndarray
    mean_waiting: np.ndarray
    total_service: np.ndarray
    log_joint: np.ndarray
    events_per_queue: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_samples(self) -> int:
        """Number of retained posterior draws."""
        return self.mean_service.shape[0]

    @staticmethod
    def _nan_reduce(reducer, values: np.ndarray) -> np.ndarray:
        with _ignore_empty_slice_warnings():
            return reducer(values, axis=0)

    def posterior_mean_service(self) -> np.ndarray:
        """Posterior-mean of the per-queue mean service time."""
        return self._nan_reduce(np.nanmean, self.mean_service)

    def posterior_mean_waiting(self) -> np.ndarray:
        """Posterior-mean of the per-queue mean waiting time."""
        return self._nan_reduce(np.nanmean, self.mean_waiting)

    def posterior_std_service(self) -> np.ndarray:
        """Posterior standard deviation of the per-queue mean service time."""
        return self._nan_reduce(np.nanstd, self.mean_service)

    def posterior_std_waiting(self) -> np.ndarray:
        """Posterior standard deviation of the per-queue mean waiting time."""
        return self._nan_reduce(np.nanstd, self.mean_waiting)

    def credible_interval(
        self, kind: str = "waiting", level: float = 0.9
    ) -> tuple[np.ndarray, np.ndarray]:
        """Equal-tailed posterior credible interval per queue.

        Parameters
        ----------
        kind:
            ``"waiting"`` or ``"service"``.
        level:
            Central coverage, e.g. 0.9 for a 5%-95% interval.

        Returns
        -------
        (lower, upper)
            Arrays of shape ``(n_queues,)``; nan for queues with no events.
        """
        if kind not in ("waiting", "service"):
            raise InferenceError(f"kind must be 'waiting' or 'service', got {kind!r}")
        if not 0.0 < level < 1.0:
            raise InferenceError(f"level must lie in (0, 1), got {level}")
        values = self.mean_waiting if kind == "waiting" else self.mean_service
        alpha = (1.0 - level) / 2.0
        with _ignore_empty_slice_warnings():
            lower = np.nanquantile(values, alpha, axis=0)
            upper = np.nanquantile(values, 1.0 - alpha, axis=0)
        return lower, upper
