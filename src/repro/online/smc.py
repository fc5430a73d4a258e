"""Sequential Monte Carlo estimation: O(arrival) online rate updates.

The streaming StEM path re-runs an M-step-coupled Gibbs chain per window,
so its cost per window scales with the window's *size* even when
consecutive windows overlap almost entirely — exactly the regime live
serving sits in (``step << window``).  :class:`SMCEstimator` replaces the
per-window rebuild with a **particle population over the rate vector**
advanced per ``poll()`` batch, in the iterated-batch-importance-sampling /
resample–move scheme (Chopin 2002; the ``ParticleFilter``/``MCMC`` split
of the tomcat-coordination exemplar):

1. **Reweight — O(new arrivals).**  Each newly revealed task contributes
   cheap observed-only sufficient statistics (entry gaps for queue 0's
   interarrival process; within-task response gaps for the service
   queues), reduced to per-queue ``(count, total)``.  Under particle
   rates θ the batch's surrogate log-likelihood is
   ``Σ_q count_q·log θ_q − θ_q·total_q`` — a vectorized
   ``(n_particles × n_queues)`` update touching nothing but the new
   records.  The surrogate is deliberately crude (response gaps include
   queueing delay); it only *steers resampling* and never reaches a
   published estimate directly, because —

2. **Resample + rejuvenate — only when the population degrades.**  When
   the effective sample size ``1/Σ w²`` falls below
   ``ess_threshold · n_particles``, particles are systematically
   resampled and then **rejuvenated on the window's data**: one shared
   heuristic initialization, burned in by a short StEM loop, and one
   shared :class:`~repro.inference.gibbs.GibbsSampler` (array/native
   kernel, blanket caches built once) serve the whole population — per
   particle the sampler is reseeded
   (:meth:`~repro.inference.gibbs.GibbsSampler.reseed`), loaded with the
   shared burned-in times
   (:meth:`~repro.inference.gibbs.GibbsSampler.load_times`), swept
   ``rejuvenation_sweeps`` times at the particle's rates, and the rates
   are redrawn from the swept latent state's conjugate Gamma
   conditional.  The published rates thus rest on the window's data,
   not on the surrogate alone.  The move is **not** an exact MCMC move
   for the window posterior: every particle starts from the same latent
   state, burned in at the StEM point estimate, so its times are never a
   draw from ``p(E | θ_p, O)``.  A probe measured the particles' rate
   spread at 0.58–0.73 of a reference posterior's standard deviation
   (ROADMAP item 5); carrying one latent state per particle (ROADMAP
   item 6) is the planned fix.

3. **Publish.**  The window estimate is the weighted particle mean, in
   the same :class:`~repro.online.streaming.StreamEstimate` envelope the
   StEM estimator emits — services, routers, checkpoints, and the wire
   protocol cannot tell the estimators apart.

Cost model: a StEM window pays one initialization plus
``stem_iterations`` coupled sweep/M-step rounds (default 40) on *every*
window; SMC pays a vectorized reweight per window and, only on ESS
triggers, one initialization plus a shared ``stem_iterations // 2``
burn-in plus ``n_particles · rejuvenation_sweeps`` per-particle sweeps.
Under heavy overlap (``step << window``) most windows never trigger,
which is the latency crossover ``benchmarks/bench_smc.py`` gates on.

Seeding follows the streaming estimator's discipline exactly: window *i*
consumes the *i*-th spawn of the seed material, and every window spawns
its resample/rejuvenation streams from its own child — runs are
bit-reproducible and checkpoint→restore→resume is
bitwise (``state_dict`` carries θ, log-weights, and the spawn counter).
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.errors import InferenceError
from repro.inference.gibbs import GibbsSampler
from repro.inference.init_heuristic import initial_rates_from_observed
from repro.inference.mstep import chain_service_totals, mle_rates_from_stats
from repro.inference.pool import initialize_state
from repro.observation import ObservedTrace
from repro.online.streaming import StreamEstimate, StreamingEstimator
from repro.rng import as_generator

#: Rate clamps shared with the M-step (`repro.inference.mstep.mle_rates`).
_MIN_RATE = 1e-9
_MAX_RATE = 1e12

#: Power applied to the surrogate batch log-likelihood before it touches
#: the particle weights.  The surrogate is overconfident by construction
#: — observed response gaps include queueing delay, so treating them as
#: iid exponential service draws overstates the information a batch
#: carries about θ.  Raising the surrogate to a fractional power (a
#: power-posterior / tempered-likelihood correction for a misspecified
#: likelihood) slows the ESS decay to match the surrogate's real
#: information content: degradation still accumulates monotonically, so
#: drift always triggers rejuvenation eventually, but stable stretches
#: stop paying for Gibbs moves the population does not need.
_SURROGATE_POWER = 0.4


def systematic_resample(weights, random_state=None) -> np.ndarray:
    """Systematic (low-variance) resampling: ancestor indices for *weights*.

    One uniform offset ``u ~ U[0, 1)`` places ``n`` equally spaced
    pointers ``(u + i) / n`` on the cumulative weight profile, so every
    particle's offspring count is ``floor(n·w_i)`` or ``ceil(n·w_i)`` —
    the minimum-variance unbiased counts — at the cost of a single draw.

    Weights need not be normalized (they are normalized internally) but
    must be finite, nonnegative, and not all zero; a fully degenerate
    population is an error, not a silent reset, because it means every
    particle's surrogate likelihood underflowed and the caller's state is
    no longer a posterior approximation at all.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise InferenceError(
            f"weights must be a nonempty 1-d array, got shape {weights.shape}"
        )
    if np.any(~np.isfinite(weights)) or np.any(weights < 0.0):
        raise InferenceError("weights must be finite and nonnegative")
    total = float(weights.sum())
    if total <= 0.0:
        raise InferenceError(
            "cannot resample an all-zero weight vector — every particle "
            "has degenerate weight"
        )
    n = weights.size
    rng = as_generator(random_state)
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(weights / total)
    cumulative[-1] = 1.0  # guard the top edge against rounding
    return np.searchsorted(cumulative, positions, side="left").astype(np.int64)


def effective_sample_size(log_weights) -> float:
    """``1 / Σ w²`` of the normalized weights — the resampling trigger."""
    w = _normalize_log_weights(np.asarray(log_weights, dtype=float))
    return float(1.0 / np.sum(w * w))


def _normalize_log_weights(log_weights: np.ndarray) -> np.ndarray:
    shift = float(np.max(log_weights))
    if not np.isfinite(shift):
        raise InferenceError(
            "particle log-weights are degenerate (no finite weight left)"
        )
    w = np.exp(log_weights - shift)
    return w / w.sum()


class SMCEstimator(StreamingEstimator):
    """Particle-filter streaming estimator behind the StEM surface.

    Construction mirrors :class:`~repro.online.streaming.StreamingEstimator`
    (same kwargs, same ``config=`` spelling, same seed discipline); the
    SMC-specific knobs are ``n_particles``, ``ess_threshold``, and
    ``rejuvenation_sweeps`` on :class:`~repro.online.config.EstimatorConfig`.
    """

    estimator_name = "smc"

    COUNTS = telemetry.Counts(
        **StreamingEstimator.COUNTS.rows,
        n_rejuvenations="repro_smc_rejuvenations_total",
    )

    def __init__(self, stream, **kwargs) -> None:
        super().__init__(stream, **kwargs)
        # Particle state.  θ lives in a (n_particles, n_queues) array —
        # None until the first estimable window sizes it from the trace.
        self._thetas: np.ndarray | None = None
        self._log_weights = np.zeros(self.n_particles)
        #: ESS-triggered resample+rejuvenation passes (observability).
        self.n_rejuvenations = 0

    # ------------------------------------------------------------------
    # Checkpointing.
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["smc"] = {
            "thetas": None if self._thetas is None else self._thetas.tolist(),
            "log_weights": self._log_weights.tolist(),
            "n_rejuvenations": int(self.n_rejuvenations),
        }
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        smc = state.get("smc", {})
        thetas = smc.get("thetas")
        self._thetas = None if thetas is None else np.asarray(thetas, dtype=float)
        log_weights = smc.get("log_weights")
        self._log_weights = (
            np.zeros(self.n_particles)
            if log_weights is None
            else np.asarray(log_weights, dtype=float)
        )
        self.n_rejuvenations = int(smc.get("n_rejuvenations", 0))

    # ------------------------------------------------------------------
    # Window processing.
    # ------------------------------------------------------------------

    def _process_window(self, t0: float) -> StreamEstimate:
        t0, t1, arrived, aged, tasks, n_observed, window_seed = (
            self._begin_window(t0)
        )
        if len(tasks) < 2 or n_observed < self.min_observed_tasks:
            return StreamEstimate(
                t0, t1, len(tasks), n_observed, None,
                n_new_tasks=len(arrived), n_aged_out=len(aged),
            )
        # The poll advanced the revealed prefix by one step (by a full
        # window for the very first window) — the exposure interval of
        # the batch's Poisson arrival-count likelihood.
        interval = self.window if self.n_windows_done == 1 else self.step
        rates = None
        failure = None
        try:
            rates = self._advance(tasks, arrived, interval, window_seed)
        except InferenceError as exc:
            failure = str(exc)  # a failed window is data, not a crash
        return StreamEstimate(
            t0, t1, len(tasks), n_observed, rates, failure,
            n_new_tasks=len(arrived), n_aged_out=len(aged),
        )

    def _advance(
        self,
        tasks: np.ndarray,
        arrived: list[tuple[int, float]],
        interval: float,
        window_seed: np.random.SeedSequence,
    ) -> np.ndarray:
        """One SMC step: reweight on the batch, maybe move, publish."""
        # The window's streams, spawned from its seed child whether or not
        # the trigger fires, so the draw tree is a pure function of the
        # window index.
        resample_seed, burnin_seed, move_seed = window_seed.spawn(3)
        # 1. Reweight on the newly revealed records (O(arrivals)).
        with telemetry.phase("reweight"):
            counts, totals = self._batch_statistics(arrived, interval)
            if self._thetas is not None and totals.sum() > 0.0:
                theta = self._thetas
                self._log_weights = self._log_weights + _SURROGATE_POWER * (
                    np.log(theta) @ counts - theta @ totals
                )
                # Keep the stored log-weights bounded over long streams.
                self._log_weights = self._log_weights - np.max(self._log_weights)
        # 2. Resample + rejuvenate when the population degraded (or was
        # never initialized).
        weights = _normalize_log_weights(self._log_weights)
        ess = 1.0 / float(np.sum(weights * weights))
        if telemetry.enabled():
            telemetry.gauge("repro_smc_ess").set(ess)
        if self._thetas is None or ess < self.ess_threshold * self.n_particles:
            # Only a triggering window materializes its task subset —
            # between triggers a window's cost stays O(new arrivals),
            # never O(window).
            with telemetry.phase("subset"):
                window_trace = self.stream.subset(tasks)
            self._rejuvenate(
                window_trace, weights, resample_seed, burnin_seed, move_seed
            )
            weights = _normalize_log_weights(self._log_weights)
        # 3. Publish the weighted particle mean.
        return np.clip(weights @ self._thetas, _MIN_RATE, _MAX_RATE)

    def _batch_statistics(
        self, arrived, interval: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Observed-only per-queue ``(count, total)`` of a poll batch.

        Queue 0 (the interarrival process): the batch's Poisson count
        likelihood — ``len(arrived)`` entries over the poll's exposure
        *interval* (``k·log λ − λ·Δ``).  Crucially this carries signal
        even when the batch is *empty*: a quiet step is evidence against
        high-λ particles, so a draining stream degrades the ESS and
        triggers re-anchoring on the current window instead of freezing
        the population on stale rates.  Service queues: within-task
        response gaps between consecutive *observed* arrivals (the gap a
        task spent at the earlier event's queue) plus the final observed
        departure gap.  Everything here is read off revealed records —
        no latent state — which is what keeps the fast path O(arrivals).
        """
        trace = self.stream.trace
        skeleton = trace.skeleton
        counts = np.zeros(skeleton.n_queues)
        totals = np.zeros(skeleton.n_queues)
        counts[0] += len(arrived)
        totals[0] += float(interval)
        for task_id, _ in arrived:
            events = skeleton.events_of_task(int(task_id))
            observed = trace.arrival_observed[events]
            arrival = skeleton.arrival[events]
            queue = skeleton.queue[events]
            seq = skeleton.seq[events]
            for i in range(events.size - 1):
                if seq[i] < 1 or not (observed[i] and observed[i + 1]):
                    continue
                gap = float(arrival[i + 1] - arrival[i])
                if np.isfinite(gap) and gap >= 0.0:
                    counts[queue[i]] += 1
                    totals[queue[i]] += gap
            last = int(events[-1])
            if seq[-1] >= 1 and observed[-1] and trace.departure_observed[last]:
                gap = float(skeleton.departure[last] - arrival[-1])
                if np.isfinite(gap) and gap >= 0.0:
                    counts[queue[-1]] += 1
                    totals[queue[-1]] += gap
        return counts, totals

    def _rejuvenate(
        self,
        window_trace: ObservedTrace,
        weights: np.ndarray,
        resample_seed: np.random.SeedSequence,
        burnin_seed: np.random.SeedSequence,
        move_seed: np.random.SeedSequence,
    ) -> None:
        """Systematic resample, then Gibbs-refreshed rates on the window.

        The expensive substrate — heuristic initialization, a shared
        latent-state burn-in, and the sampler with its blanket caches and
        batch kernel — is built *once* and shared by the whole
        population.  The burn-in is a short StEM loop
        (``stem_iterations // 2`` coupled sweep/M-step rounds, the same
        count StEM itself discards as burn-in) that carries the heuristic
        initialization into the posterior's bulk; without it a handful of
        per-particle sweeps would still reflect the initializer.  Per
        particle only the random stream, the time columns, and the rates
        are swapped (:meth:`~repro.inference.gibbs.GibbsSampler.reseed` /
        :meth:`~repro.inference.gibbs.GibbsSampler.load_times`): each
        particle sweeps the latent times at its own θ and then redraws θ
        from the conjugate Gamma conditional of its swept state.  Every
        particle starts from the same burned-in times, not from a draw of
        ``p(E | θ_p, O)``, so this does not leave the window posterior
        invariant (ROADMAP items 5 and 6).
        """
        n_queues = window_trace.skeleton.n_queues
        needs_init = self._thetas is None
        if needs_init:
            base_rates = np.clip(
                initial_rates_from_observed(window_trace), _MIN_RATE, _MAX_RATE
            )
            thetas = np.tile(base_rates, (self.n_particles, 1))
        else:
            if self._thetas.shape[1] != n_queues:
                raise InferenceError(
                    f"stream changed queue count: particles track "
                    f"{self._thetas.shape[1]} queues, window has {n_queues}"
                )
            indices = systematic_resample(weights, as_generator(resample_seed))
            thetas = self._thetas[indices]
            base_rates = np.clip(weights @ self._thetas, _MIN_RATE, _MAX_RATE)
        state = initialize_state(window_trace, base_rates, method="heuristic")
        event_counts = window_trace.skeleton.events_per_queue().astype(float)
        sampler = GibbsSampler(
            window_trace,
            state,
            base_rates,
            random_state=burnin_seed,
            kernel=self.kernel,
        )
        with telemetry.phase("burn-in"):
            for _ in range(max(1, self.stem_iterations // 2)):
                sampler.sweep()
                base_rates = mle_rates_from_stats(
                    event_counts, [chain_service_totals(state)],
                    min_rate=_MIN_RATE, max_rate=_MAX_RATE,
                )
                sampler.set_rates(base_rates)
        init_arrival = state.arrival.copy()
        init_departure = state.departure.copy()
        if needs_init:
            # Particles anchor on the burned-in rates; the first Gamma
            # refresh below scatters them around it.
            thetas = np.tile(base_rates, (self.n_particles, 1))
        with telemetry.phase("sweeps"):
            for p, child in enumerate(move_seed.spawn(self.n_particles)):
                rng = as_generator(child)
                sampler.reseed(rng)
                sampler.load_times(init_arrival, init_departure)
                # Rates are loaded before each sweep, not after each
                # refresh: the last refreshed θ is stored without a final
                # set_rates, whose rebuilt rate caches no draw would read.
                theta = thetas[p]
                for _ in range(self.rejuvenation_sweeps):
                    sampler.set_rates(theta)
                    sampler.sweep()
                    theta = self._gamma_refresh(
                        event_counts, chain_service_totals(state), rng
                    )
                thetas[p] = theta
        self._thetas = thetas
        self._log_weights = np.zeros(self.n_particles)
        self.n_rejuvenations += 1

    @staticmethod
    def _gamma_refresh(
        counts: np.ndarray, totals: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw rates from the conjugate conditional given complete times.

        With exponential services, ``θ_q | times ~ Gamma(c_q + 1,
        s_q)`` under a unit-shape reference prior — the stochastic
        counterpart of the M-step's ``c_q / s_q`` point estimate, with
        the same clamps for empty or degenerate queues.
        """
        draw = rng.gamma(counts + 1.0) / np.maximum(totals, 1e-300)
        draw[counts == 0.0] = _MIN_RATE
        return np.clip(draw, _MIN_RATE, _MAX_RATE)
