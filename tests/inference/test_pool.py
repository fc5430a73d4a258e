"""Tests for the persistent StEM/MCEM worker pool.

The contract: E-step chains are pure functions of their recipes, so a
persistent-pool run is **bitwise identical** to the serial in-process run
at any worker count — and a worker that raises ``InferenceError`` mid
E-step takes the whole pool down cleanly (error surfaced, every process
joined, ``close`` idempotent).
"""

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.inference import (
    PersistentChainPool,
    build_chain_sampler,
    chain_recipes,
    run_mcem,
    run_stem,
)
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.simulate import simulate_network


@pytest.fixture(scope="module")
def pool_setup():
    net = build_tandem_network(4.0, [6.0, 9.0])
    sim = simulate_network(net, 200, random_state=88)
    trace = TaskSampling(fraction=0.15).observe(sim.events, random_state=8)
    return sim, trace


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_stem_matches_serial_at_any_worker_count(self, pool_setup, workers):
        _, trace = pool_setup
        kwargs = dict(
            n_iterations=8, random_state=9, init_method="heuristic", n_chains=3
        )
        serial = run_stem(trace, **kwargs)
        pooled = run_stem(trace, persistent_workers=workers, **kwargs)
        np.testing.assert_array_equal(serial.rates_history, pooled.rates_history)
        np.testing.assert_array_equal(serial.rates, pooled.rates)
        # The evolved chain states come back identical too.
        for s, p in zip(serial.samplers, pooled.samplers):
            np.testing.assert_array_equal(s.state.arrival, p.state.arrival)
            np.testing.assert_array_equal(s.state.departure, p.state.departure)

    def test_stem_single_chain_matches_serial(self, pool_setup):
        _, trace = pool_setup
        kwargs = dict(n_iterations=8, random_state=4, init_method="heuristic")
        serial = run_stem(trace, **kwargs)
        pooled = run_stem(trace, persistent_workers=1, **kwargs)
        np.testing.assert_array_equal(serial.rates_history, pooled.rates_history)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mcem_matches_serial(self, pool_setup, workers):
        _, trace = pool_setup
        kwargs = dict(
            n_iterations=3, e_sweeps=4, e_burn_in=1, random_state=2,
            init_method="heuristic", n_chains=2,
        )
        serial = run_mcem(trace, **kwargs)
        pooled = run_mcem(trace, persistent_workers=workers, **kwargs)
        np.testing.assert_array_equal(serial.rates_history, pooled.rates_history)
        assert serial.total_sweeps == pooled.total_sweeps

    def test_returned_samplers_are_usable(self, pool_setup):
        _, trace = pool_setup
        result = run_stem(
            trace, n_iterations=6, random_state=3, init_method="heuristic",
            n_chains=2, persistent_workers=2,
        )
        result.sampler.state.validate()
        np.testing.assert_allclose(result.sampler.rates, result.rates)
        result.sampler.sweep()  # still sweepable after crossing the pipe


class TestPoolMechanics:
    def _recipes(self, trace, rates, n_chains=2):
        return chain_recipes(trace, rates, "heuristic", n_chains, 0.15, 7, True)

    def test_worker_count_clamped_to_chains(self, pool_setup):
        sim, trace = pool_setup
        pool = PersistentChainPool(
            self._recipes(trace, sim.true_rates()), workers=8
        )
        try:
            assert pool.n_workers == 2
            totals = pool.step(sim.true_rates())
            assert len(totals) == 2
        finally:
            pool.close()

    def test_step_statistics_match_inprocess_chains(self, pool_setup):
        """One pool round == running the same recipes in-process."""
        sim, trace = pool_setup
        rates = sim.true_rates()
        recipes = self._recipes(trace, rates)
        with PersistentChainPool(recipes, workers=2) as pool:
            shipped = pool.step(rates, n_keep=2)
        samplers = [build_chain_sampler(r) for r in recipes]
        for sampler, totals in zip(samplers, shipped):
            sampler.set_rates(rates)
            sampler.run(2)
            np.testing.assert_array_equal(
                totals, np.maximum(sampler.state.total_service_by_queue(), 0.0)
            )

    def test_inference_error_mid_step_shuts_down_cleanly(self, pool_setup):
        """A worker-side InferenceError surfaces and kills every worker."""
        sim, trace = pool_setup
        pool = PersistentChainPool(
            self._recipes(trace, sim.true_rates(), n_chains=3), workers=3
        )
        pool.step(sim.true_rates())
        with pytest.raises(InferenceError, match="persistent E-step worker failed"):
            # set_rates inside the worker rejects the negative rate.
            pool.step(np.array([4.0, -6.0, 9.0]))
        assert pool.closed
        for proc, _ in pool._workers:
            assert not proc.is_alive()
        pool.close()  # idempotent
        with pytest.raises(InferenceError, match="closed"):
            pool.step(sim.true_rates())

    def test_dead_worker_connection_surfaces_as_inference_error(self, pool_setup):
        """A connection that dies *before* the request (send-side failure)
        must surface as InferenceError and close the pool, not leak a raw
        OSError with live workers behind it."""
        sim, trace = pool_setup
        pool = PersistentChainPool(
            self._recipes(trace, sim.true_rates(), n_chains=2), workers=2
        )
        for proc, conn in pool._workers:
            proc.terminate()
            proc.join(timeout=5.0)
            conn.close()
        with pytest.raises(InferenceError, match="failed"):
            pool.step(sim.true_rates())
        assert pool.closed

    def test_validation(self, pool_setup):
        sim, trace = pool_setup
        with pytest.raises(InferenceError):
            PersistentChainPool([])
        with pytest.raises(InferenceError):
            PersistentChainPool(
                self._recipes(trace, sim.true_rates()), workers=0
            )
