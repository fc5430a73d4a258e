"""Sharding equivalence harness.

Four layers of guarantees, from exact to statistical:

1. **Plan soundness** — partitions cover the tasks, the reported cut is
   the recomputed cut, interior moves' Markov blankets never cross a
   shard cut, and interior+boundary moves partition the latent set.
2. **Bitwise reductions** — at ``shards=1`` the sharded engine consumes
   the caller's generator exactly like the plain array kernel (identical
   draws); at any shard count the scan is deterministic at a fixed seed;
   the in-process and worker-pool executions are bitwise identical, and a
   pooled run continues bitwise after :meth:`finish_shards`.
3. **Statistical equivalence** — sharded sweeps target the same posterior
   as unsharded sweeps: K-S agreement of posterior rate/service draws for
   ``shards in {2, 3}`` on the three-tier fixture.
4. **Lifecycle** — ``run_stem(persistent_workers=2, shards=2)`` recovers
   seeded rates like the serial path does, and a shard worker raising
   :class:`~repro.errors.InferenceError` takes the pool down cleanly.
"""

import numpy as np
import pytest
from scipy import stats

from repro.errors import InferenceError
from repro.inference import (
    GibbsSampler,
    boundary_event_sets,
    build_shard_plan,
    heuristic_initialize,
    partition_tasks,
    run_stem,
    task_interaction_graph,
)
from repro.inference.shard import ShardedSweepEngine
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.simulate import simulate_network
from repro.webapp import WebAppConfig, generate_webapp_trace


@pytest.fixture(scope="module")
def shard_setup():
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, 150, random_state=101)
    trace = TaskSampling(fraction=0.2).observe(sim.events, random_state=3)
    return sim, trace


class TestPartition:
    def test_covers_tasks_disjointly(self, shard_setup):
        sim, _ = shard_setup
        part = partition_tasks(sim.events, 4)
        seen = [t for block in part.shards for t in block]
        assert sorted(seen) == sim.events.task_ids
        assert len(seen) == len(set(seen))
        assert part.n_shards == 4

    def test_cut_size_matches_recount(self, shard_setup):
        sim, _ = shard_setup
        part = partition_tasks(sim.events, 3)
        weights = task_interaction_graph(sim.events)
        cut = sum(
            w
            for (a, b), w in weights.items()
            if part.assignment[a] != part.assignment[b]
        )
        assert part.cut_size == cut

    def test_refinement_does_not_worsen_cut(self, shard_setup):
        sim, _ = shard_setup
        refined = partition_tasks(sim.events, 3, refine_passes=2)
        unrefined = partition_tasks(sim.events, 3, refine_passes=0)
        assert refined.cut_size <= unrefined.cut_size

    def test_balance_bounds_hold(self, shard_setup):
        sim, _ = shard_setup
        part = partition_tasks(sim.events, 4, balance=0.3)
        n = sim.events.n_tasks
        sizes = [len(block) for block in part.shards]
        assert min(sizes) >= int(np.floor(0.7 * n / 4))
        assert max(sizes) <= int(np.ceil(1.3 * n / 4))

    def test_shard_count_clamped_to_tasks(self, shard_setup):
        sim, _ = shard_setup
        part = partition_tasks(sim.events, 10**6)
        assert part.n_shards == sim.events.n_tasks

    def test_deterministic(self, shard_setup):
        sim, _ = shard_setup
        a = partition_tasks(sim.events, 3)
        b = partition_tasks(sim.events, 3)
        assert a.shards == b.shards and a.cut_size == b.cut_size

    def test_validation(self, shard_setup):
        sim, _ = shard_setup
        with pytest.raises(InferenceError):
            partition_tasks(sim.events, 0)
        with pytest.raises(InferenceError):
            partition_tasks(sim.events, 2, balance=1.5)


class TestShardPlan:
    def test_moves_partitioned(self, shard_setup):
        sim, trace = shard_setup
        part = partition_tasks(sim.events, 3)
        state = heuristic_initialize(trace, sim.true_rates())
        plan = build_shard_plan(trace, state, part)
        assert plan.n_interior + plan.n_boundary == trace.n_latent
        got_arr = np.sort(
            np.concatenate([*plan.interior_arrivals, plan.boundary_arrivals])
        )
        np.testing.assert_array_equal(
            got_arr, np.sort(trace.latent_arrival_events)
        )

    def test_interior_blankets_stay_in_shard(self, shard_setup):
        """The invariant that makes concurrent shard sweeps exact."""
        sim, trace = shard_setup
        part = partition_tasks(sim.events, 3)
        state = heuristic_initialize(trace, sim.true_rates())
        plan = build_shard_plan(trace, state, part)
        sv = plan.shard_of_event
        for s, moves in enumerate(plan.interior_arrivals):
            for e in map(int, moves):
                p = int(state.pi[e])
                partners = [state.rho[e], state.rho_inv[e],
                            state.rho[p], state.rho_inv[p]]
                for n in map(int, partners):
                    if n >= 0:
                        assert sv[n] == s, f"arrival move {e} leaks to {n}"
        for s, moves in enumerate(plan.interior_departures):
            for e in map(int, moves):
                for n in (int(state.rho[e]), int(state.rho_inv[e])):
                    if n >= 0:
                        assert sv[n] == s, f"departure move {e} leaks to {n}"

    def test_boundary_reads_cover_blankets(self, shard_setup):
        sim, trace = shard_setup
        part = partition_tasks(sim.events, 2)
        state = heuristic_initialize(trace, sim.true_rates())
        plan = build_shard_plan(trace, state, part)
        reads = set(plan.boundary_reads.tolist())
        for e in map(int, plan.boundary_arrivals):
            p = int(state.pi[e])
            for n in (e, p, state.rho[e], state.rho_inv[e],
                      state.rho[p], state.rho_inv[p]):
                if int(n) >= 0:
                    assert int(n) in reads

    def test_boundary_sets_symmetric(self, shard_setup):
        sim, _ = shard_setup
        part = partition_tasks(sim.events, 3)
        sets = boundary_event_sets(sim.events, part)
        for (a, b), members in sets.items():
            assert (b, a) in sets
            sv = part.event_shards(sim.events)
            mirror = set(sets[(b, a)].tolist())
            # Every (a, b) boundary event has a queue neighbor in (b, a).
            for e in map(int, members):
                assert sv[e] == a
                neighbors = {int(sim.events.rho[e]), int(sim.events.rho_inv[e])}
                assert neighbors & mirror


class TestBitwiseEquivalence:
    def test_shards1_engine_matches_plain_array_kernel(self, shard_setup):
        """The fast-lane smoke: shards=1 is the plain kernel, draw for draw."""
        sim, trace = shard_setup
        rates = sim.true_rates()
        plain_state = heuristic_initialize(trace, rates)
        plain = GibbsSampler(
            trace, plain_state, rates, random_state=11, kernel="array"
        )
        plain.run(4)
        engine_state = heuristic_initialize(trace, rates)
        engine = ShardedSweepEngine(trace, engine_state, rates, n_shards=1)
        rng = np.random.default_rng(11)
        for _ in range(4):
            engine.sweep(engine_state, rng)
        np.testing.assert_array_equal(plain_state.arrival, engine_state.arrival)
        np.testing.assert_array_equal(plain_state.departure, engine_state.departure)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_deterministic_at_fixed_seed(self, shard_setup, shards):
        sim, trace = shard_setup
        rates = sim.true_rates()
        runs = []
        for _ in range(2):
            state = heuristic_initialize(trace, rates)
            sampler = GibbsSampler(
                trace, state, rates, random_state=42, shards=shards
            )
            for _ in range(5):
                sweep_stats = sampler.sweep()
                assert sweep_stats.n_attempted == trace.n_latent
            state.validate()
            runs.append((state.arrival.copy(), state.departure.copy()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_pool_matches_serial_bitwise(self, shard_setup, workers):
        sim, trace = shard_setup
        rates = sim.true_rates()
        serial_state = heuristic_initialize(trace, rates)
        serial = GibbsSampler(trace, serial_state, rates, random_state=7, shards=2)
        pooled_state = heuristic_initialize(trace, rates)
        pooled = GibbsSampler(
            trace, pooled_state, rates, random_state=7, shards=2,
            shard_workers=workers,
        )
        try:
            for _ in range(5):
                serial.sweep()
                pooled.sweep()
            np.testing.assert_array_equal(
                serial.service_totals(), pooled.service_totals()
            )
            pooled.finish_shards()
            np.testing.assert_array_equal(serial_state.arrival, pooled_state.arrival)
            np.testing.assert_array_equal(
                serial_state.departure, pooled_state.departure
            )
            # The evolved shard streams came home: continuation matches too.
            serial.sweep()
            pooled.sweep()
            np.testing.assert_array_equal(serial_state.arrival, pooled_state.arrival)
        finally:
            pooled.close()

    def test_service_totals_match_unsharded_values(self, shard_setup):
        sim, trace = shard_setup
        rates = sim.true_rates()
        state = heuristic_initialize(trace, rates)
        sharded = GibbsSampler(trace, state, rates, random_state=5, shards=3)
        sharded.run(3)
        from repro.inference.mstep import chain_service_totals

        np.testing.assert_allclose(
            sharded.service_totals(), chain_service_totals(state),
            rtol=1e-12, atol=1e-12,
        )

    def test_validation(self, shard_setup):
        sim, trace = shard_setup
        rates = sim.true_rates()
        state = heuristic_initialize(trace, rates)
        with pytest.raises(InferenceError):
            GibbsSampler(trace, state, rates, shards=0)
        with pytest.raises(InferenceError):
            GibbsSampler(trace, state, rates, shards=2, kernel="object")
        with pytest.raises(InferenceError):
            GibbsSampler(trace, state, rates, shards=1, shard_workers=2)


@pytest.mark.slow
class TestStatisticalAgreement:
    """Sharded and unsharded sweeps target the same posterior."""

    @pytest.fixture(scope="class")
    def setup(self, three_tier_sim):
        trace = TaskSampling(fraction=0.15).observe(
            three_tier_sim.events, random_state=5
        )
        return three_tier_sim, trace

    def _collect(self, trace, rates, shards, seed, n_samples=110, thin=2):
        state = heuristic_initialize(trace, rates)
        sampler = GibbsSampler(
            trace, state, rates, random_state=seed, shards=shards
        )
        return sampler.collect(n_samples=n_samples, thin=thin, burn_in=40)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_ks_on_sampled_arrivals(self, setup, shards):
        """K-S on posterior draws of individual latent arrival times.

        Individual arrivals mix fast (unlike whole-trace summaries, whose
        autocorrelation defeats the K-S iid assumption at feasible sample
        sizes), so this is the sharpest statistical comparison available —
        the same design the kernel equivalence suite uses.
        """
        sim, trace = setup
        rates = sim.true_rates()
        events = trace.latent_arrival_events[:8]
        samples = {}
        for label, n_shards, seed in (("base", 1, 3), ("shard", shards, 4)):
            state = heuristic_initialize(trace, rates)
            sampler = GibbsSampler(
                trace, state, rates, random_state=seed, shards=n_shards
            )
            sampler.run(40)  # burn-in
            draws = np.empty((100, events.size))
            for s in range(draws.shape[0]):
                sampler.run(3)
                draws[s] = state.arrival[events]
            samples[label] = draws
        p_values = [
            stats.ks_2samp(samples["base"][:, j], samples["shard"][:, j]).pvalue
            for j in range(events.size)
        ]
        assert min(p_values) > 1e-4, p_values
        assert float(np.median(p_values)) > 0.05, p_values

    @pytest.mark.parametrize("shards", [2, 3])
    def test_posterior_moments_agree(self, setup, shards):
        sim, trace = setup
        rates = sim.true_rates()
        base = self._collect(trace, rates, 1, seed=3)
        shard = self._collect(trace, rates, shards, seed=4)
        se = np.maximum(
            base.posterior_std_service(), shard.posterior_std_service()
        ) / np.sqrt(base.n_samples / 4.0)
        gap = np.abs(
            base.posterior_mean_service() - shard.posterior_mean_service()
        )
        ok = np.isfinite(gap[1:])
        assert np.all(gap[1:][ok] < 4.0 * se[1:][ok] + 1e-12)


class TestShardPoolLifecycle:
    def test_worker_inference_error_shuts_down_cleanly(self, shard_setup):
        """A worker-side InferenceError surfaces and kills every worker."""
        sim, trace = shard_setup
        rates = sim.true_rates()
        state = heuristic_initialize(trace, rates)
        sampler = GibbsSampler(
            trace, state, rates, random_state=3, shards=2, shard_workers=2
        )
        engine = sampler._shard_engine
        pool = engine._pool
        sampler.sweep()
        bad = rates.copy()
        bad[1] = -bad[1]
        inbound = {
            s: (
                state.arrival[engine._inbound_full[s]].copy(),
                state.departure[engine._inbound_full[s]].copy(),
            )
            for s in range(engine.n_shards)
        }
        with pytest.raises(InferenceError, match="shard sweep worker failed"):
            # Worker-side rate validation rejects the negative rate.
            pool.sweep(bad, 1, inbound)
        assert pool.closed
        for handle in pool._handles:
            assert not handle.is_alive()
        pool.close()  # idempotent
        with pytest.raises(InferenceError, match="closed"):
            pool.sweep(rates, 1, inbound)

    @pytest.mark.slow
    def test_run_stem_sharded_pool_recovers_webapp_rates(self):
        """The integration contract: persistent_workers=2 + shards=2 on a
        censored webapp trace estimates like the serial path."""
        sim = generate_webapp_trace(WebAppConfig(n_requests=220), random_state=21)
        trace = TaskSampling(fraction=0.3).observe(sim.events, random_state=2)
        kwargs = dict(
            n_iterations=60, random_state=17, init_method="heuristic"
        )
        serial = run_stem(trace, shards=2, **kwargs)
        pooled = run_stem(trace, shards=2, persistent_workers=2, **kwargs)
        # The two paths are the same algorithm — bitwise, not just close:
        # "within the same tolerance as serial" is an identity here.
        np.testing.assert_array_equal(serial.rates_history, pooled.rates_history)
        truth = sim.true_rates()
        counts = sim.events.events_per_queue()
        checked = 0
        for q in range(truth.size):
            if not np.isfinite(truth[q]) or counts[q] < 50:
                continue  # sparse queues estimate noisily at any shard count
            rel = pooled.rates[q] / truth[q]
            assert 0.5 < rel < 2.0, (
                f"queue {q}: estimated {pooled.rates[q]:.3g} vs true "
                f"{truth[q]:.3g}"
            )
            checked += 1
        assert checked >= 3
        pooled.sampler.state.validate()
        pooled.sampler.sweep()  # detached and still sweepable
