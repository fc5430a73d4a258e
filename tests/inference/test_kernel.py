"""Equivalence suite: the array sweep kernel vs the object reference path.

Three layers of agreement, from exact to statistical:

1. **Per-move pieces** — for every latent move of every fixture topology,
   the array kernel's bounds (L, U), knots, slopes and ``Z1..Z3``
   log-masses must match the object-path conditional to 1e-10.
2. **Per-move sampling** — driven by the same two uniforms, the vectorized
   inverse-CDF must return the object path's ``sample_uv`` value.
3. **Full sweeps** — with shared seeds the two kernels' random streams
   differ, so posterior means/variances must agree within Monte-Carlo
   error and the sampled-arrival distributions must pass a K-S test.
"""

import numpy as np
import pytest
from scipy import stats

from repro.errors import InferenceError
from repro.inference import GibbsSampler, heuristic_initialize
from repro.inference.conditional import (
    arrival_conditional,
    final_departure_conditional,
)
from repro.inference.kernel import (
    _invert_pieces,
    color_conflict_free_batches,
)
from repro.network import build_tandem_network, build_three_tier_network
from repro.observation import TaskSampling
from repro.simulate import simulate_network


def make_sampler(sim, fraction, seed, warm_sweeps=3):
    """An array-kernel sampler whose state has been warmed off the initializer."""
    trace = TaskSampling(fraction=fraction).observe(sim.events, random_state=seed)
    rates = sim.true_rates()
    state = heuristic_initialize(trace, rates)
    sampler = GibbsSampler(trace, state, rates, random_state=seed, kernel="array")
    sampler.run(warm_sweeps)
    return sampler


def surviving(knots_row, values_row):
    """Entries of a fixed-width piece row whose piece has positive width."""
    widths = np.diff(knots_row)
    return values_row[widths > 0.0]


class TestPerMovePieceEquivalence:
    """Array-kernel rows == object-path conditionals, move for move."""

    @pytest.fixture(
        scope="class",
        params=[
            ("tandem", 0.2, 9),
            ("tandem", 0.5, 3),
            ("three-tier", 0.15, 13),
            ("three-tier", 0.3, 7),
        ],
        ids=lambda p: f"{p[0]}-{int(p[1] * 100)}pct",
    )
    def warm(self, request):
        topology, fraction, seed = request.param
        if topology == "tandem":
            net = build_tandem_network(4.0, [6.0, 8.0])
            sim = simulate_network(net, 150, random_state=101)
        else:
            net = build_three_tier_network(10.0, (1, 2, 4), service_rate=5.0)
            sim = simulate_network(net, 120, random_state=7)
        return make_sampler(sim, fraction, seed)

    def test_arrival_bounds_and_masses(self, warm):
        kernel = warm._array_kernel
        state = warm.state
        pieces = kernel.arrival_pieces(state.arrival, state.departure)
        rates = warm.rates
        assert pieces["events"].size > 0
        for i, e in enumerate(pieces["events"]):
            dist = arrival_conditional(state, int(e), rates)
            if dist is None:
                assert not pieces["valid"][i]
                continue
            assert pieces["valid"][i]
            lo, hi = dist.support
            assert pieces["lower"][i] == pytest.approx(lo, abs=1e-10)
            assert pieces["upper"][i] == pytest.approx(hi, abs=1e-10)
            np.testing.assert_allclose(
                surviving(pieces["knots"][i], pieces["knots"][i][1:]),
                np.asarray(dist.knots[1:]),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                surviving(pieces["knots"][i], pieces["slopes"][i]),
                np.asarray(dist.slopes),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                surviving(pieces["knots"][i], pieces["log_masses"][i]),
                np.asarray(dist.piece_log_masses),
                atol=1e-10,
            )
            assert pieces["log_z"][i] == pytest.approx(dist.log_z, abs=1e-10)

    def test_departure_bounds_and_masses(self, warm):
        kernel = warm._array_kernel
        state = warm.state
        pieces = kernel.departure_pieces(state.arrival, state.departure)
        rates = warm.rates
        for i, e in enumerate(pieces["events"]):
            dist = final_departure_conditional(state, int(e), rates)
            if dist is None:
                assert not pieces["valid"][i]
                continue
            assert pieces["valid"][i]
            assert pieces["lower"][i] == pytest.approx(dist.knots[0], abs=1e-10)
            if pieces["tail"][i]:
                assert np.isinf(dist.knots[-1])
                continue
            np.testing.assert_allclose(
                surviving(pieces["knots"][i], pieces["knots"][i][1:]),
                np.asarray(dist.knots[1:]),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                surviving(pieces["knots"][i], pieces["log_masses"][i]),
                np.asarray(dist.piece_log_masses),
                atol=1e-10,
            )

    def test_arrival_sampling_matches_sample_uv(self, warm):
        """Same (u, v) -> same draw, for every valid arrival move."""
        kernel = warm._array_kernel
        state = warm.state
        pieces = kernel.arrival_pieces(state.arrival, state.departure)
        rates = warm.rates
        rng = np.random.default_rng(42)
        m = pieces["events"].size
        log_z = pieces["log_z"]
        for _ in range(5):
            u = rng.random(m)
            v = rng.random(m)
            probs = np.exp(pieces["log_masses"] - log_z[:, None])
            cum = np.cumsum(probs, axis=1)
            idx = np.minimum(np.sum(u[:, None] > cum, axis=1), 2)
            x = _invert_pieces(pieces["knots"], pieces["slopes"], idx, v)
            for i, e in enumerate(pieces["events"]):
                if not pieces["valid"][i]:
                    continue
                dist = arrival_conditional(state, int(e), rates)
                expected = dist.sample_uv(float(u[i]), float(v[i]))
                assert x[i] == pytest.approx(expected, rel=1e-9, abs=1e-12), (
                    f"move {i} (event {e}): {x[i]} != {expected}"
                )

    def test_native_arrival_draws_match_sample_uv(self, warm):
        """Fused native lowering == object path, move for move (the third
        backend of the equivalence suite; runs the pure-python loops when
        numba is absent, the compiled ones when present)."""
        from repro.inference.native import make_sweep_kernel

        twin = make_sweep_kernel(
            "native", warm.state, warm._arrival_cache,
            warm._departure_cache, warm.rates,
        )
        twin.native_active = True  # lowered arithmetic even without numba
        state = warm.state
        rates = warm.rates
        sel = np.arange(twin.a_ev.size)
        rng = np.random.default_rng(29)
        u = rng.random(sel.size)
        v = rng.random(sel.size)
        ev, x = twin._eval_arrival_batch(state.arrival, state.departure, sel, u, v)
        ptr = 0
        for i, e in enumerate(twin.a_ev):
            dist = arrival_conditional(state, int(e), rates)
            if dist is None:
                continue
            assert ev[ptr] == e
            expected = dist.sample_uv(float(u[i]), float(v[i]))
            assert x[ptr] == pytest.approx(expected, rel=1e-9, abs=1e-10), (
                f"move {i} (event {e}): {x[ptr]} != {expected}"
            )
            ptr += 1
        assert ptr == ev.size

    def test_native_departure_draws_match_sample_uv(self, warm):
        from repro.inference.native import make_sweep_kernel

        twin = make_sweep_kernel(
            "native", warm.state, warm._arrival_cache,
            warm._departure_cache, warm.rates,
        )
        twin.native_active = True
        state = warm.state
        rates = warm.rates
        sel = np.arange(twin.d_ev.size)
        rng = np.random.default_rng(31)
        u = rng.random(sel.size)
        v = rng.random(sel.size)
        ev, x = twin._eval_departure_batch(state.arrival, state.departure, sel, u, v)
        ptr = 0
        for i, e in enumerate(twin.d_ev):
            dist = final_departure_conditional(state, int(e), rates)
            if dist is None:
                continue
            assert ev[ptr] == e
            if np.isinf(dist.knots[-1]):
                # Unbounded tail: the object path draws the exponential
                # from a generator, the batch paths invert it from v —
                # statistically the same draw, so compare against the
                # batch transform both backends document.
                expected = dist.knots[0] - np.log1p(-v[i]) / -dist.slopes[-1]
            else:
                expected = dist.sample_uv(float(u[i]), float(v[i]))
            assert x[ptr] == pytest.approx(expected, rel=1e-9, abs=1e-10), (
                f"move {i} (event {e}): {x[ptr]} != {expected}"
            )
            ptr += 1
        assert ptr == ev.size

    def test_batches_are_conflict_free(self, warm):
        """No batch may contain a move that writes what another one touches."""
        kernel = warm._array_kernel
        writes, touched = kernel._arrival_slots()
        for batch in kernel.a_batches:
            written = set()
            for i in batch:
                written.update(writes[i])
            for i in batch:
                reads_others = set(touched[i]) - set(writes[i])
                assert not (reads_others & written), f"conflict inside batch {batch}"
            # Distinct writes within the batch.
            assert len(written) == sum(len(writes[i]) for i in batch)

    def test_batches_partition_all_moves(self, warm):
        kernel = warm._array_kernel
        for batches, total in (
            (kernel.a_batches, kernel.n_arrival_moves),
            (kernel.d_batches, kernel.n_departure_moves),
        ):
            seen = np.concatenate([b for b in batches]) if batches else np.empty(0)
            assert seen.size == total
            assert np.unique(seen).size == total


class TestColoring:
    def test_disjoint_moves_share_one_color(self):
        batches = color_conflict_free_batches(
            [(0,), (1,), (2,)], [(0, 10), (1, 11), (2, 12)]
        )
        assert len(batches) == 1
        assert batches[0].size == 3

    def test_chain_conflicts_alternate(self):
        # Move i writes slot i and reads slot i+1: neighbors conflict.
        writes = [(i,) for i in range(6)]
        touched = [(i, i + 1) for i in range(6)]
        batches = color_conflict_free_batches(writes, touched)
        assert len(batches) == 2
        for batch in batches:
            assert np.all(np.diff(batch) >= 2)

    def test_empty(self):
        assert color_conflict_free_batches([], []) == []


class TestSweepValidity:
    """Array sweeps must preserve every deterministic constraint."""

    def test_states_stay_valid_across_sweeps(self, three_tier_trace, three_tier_sim):
        rates = three_tier_sim.true_rates()
        state = heuristic_initialize(three_tier_trace, rates)
        sampler = GibbsSampler(three_tier_trace, state, rates, random_state=5,
                               kernel="array")
        for _ in range(10):
            stats_ = sampler.sweep()
            assert stats_.n_attempted == three_tier_trace.n_latent
            state.validate()

    def test_observed_values_never_move(self, tandem_trace, tandem_sim):
        rates = tandem_sim.true_rates()
        state = heuristic_initialize(tandem_trace, rates)
        sampler = GibbsSampler(tandem_trace, state, rates, random_state=0,
                               kernel="array")
        obs = np.flatnonzero(
            tandem_trace.arrival_observed & (tandem_trace.skeleton.seq != 0)
        )
        before = state.arrival[obs].copy()
        sampler.run(8)
        np.testing.assert_array_equal(state.arrival[obs], before)

    def test_reproducible_and_kernel_validated(self, tandem_trace, tandem_sim):
        rates = tandem_sim.true_rates()
        runs = []
        for _ in range(2):
            state = heuristic_initialize(tandem_trace, rates)
            sampler = GibbsSampler(tandem_trace, state, rates, random_state=11,
                                   kernel="array")
            sampler.run(5)
            runs.append(state.arrival.copy())
        np.testing.assert_array_equal(runs[0], runs[1])
        with pytest.raises(InferenceError):
            GibbsSampler(
                tandem_trace, heuristic_initialize(tandem_trace, rates),
                rates, kernel="simd",
            )

    def test_cache_rebuilds_after_queue_reassignment(self, three_tier_sim):
        """Path-MH structural moves must invalidate the array kernel too."""
        trace = TaskSampling(fraction=0.15).observe(
            three_tier_sim.events, random_state=13
        )
        rates = three_tier_sim.true_rates()
        state = heuristic_initialize(trace, rates)
        sampler = GibbsSampler(trace, state, rates, random_state=13, kernel="array")
        sampler.sweep()
        version = state.structure_version
        tier2 = [
            e for e in trace.latent_arrival_events
            if 2 <= int(state.queue[e]) <= 3
        ]
        moved = False
        for e in map(int, tier2):
            target = 3 if int(state.queue[e]) == 2 else 2
            old = int(state.queue[e])
            state.reassign_queue(e, target)
            if state.is_valid():
                moved = True
                break
            state.reassign_queue(e, old)
        assert moved and state.structure_version > version
        sampler.sweep()
        state.validate()
        assert sampler._array_kernel.structure_version == state.structure_version


@pytest.mark.slow
class TestStatisticalAgreement:
    """Both kernels target the same posterior (shared seeds, MC tolerance)."""

    @pytest.fixture(scope="class")
    def setup(self):
        net = build_tandem_network(4.0, [6.0, 8.0])
        sim = simulate_network(net, 250, random_state=17)
        trace = TaskSampling(fraction=0.2).observe(sim.events, random_state=2)
        return sim, trace

    def _collect(self, trace, rates, kernel, seed, n_samples=120, thin=2):
        state = heuristic_initialize(trace, rates)
        sampler = GibbsSampler(trace, state, rates, random_state=seed, kernel=kernel)
        return sampler.collect(n_samples=n_samples, thin=thin, burn_in=40)

    def test_posterior_moments_agree(self, setup):
        sim, trace = setup
        rates = sim.true_rates()
        a = self._collect(trace, rates, "array", seed=1)
        o = self._collect(trace, rates, "object", seed=1)
        # Means within a few MC standard errors of each other.
        se = np.maximum(
            a.posterior_std_service(), o.posterior_std_service()
        ) / np.sqrt(a.n_samples / 4.0)  # /4: thinned chains still correlate
        gap = np.abs(a.posterior_mean_service() - o.posterior_mean_service())
        assert np.all(gap[1:] < 4.0 * se[1:] + 1e-12)
        np.testing.assert_allclose(
            a.posterior_std_service()[1:], o.posterior_std_service()[1:],
            rtol=0.5, atol=1e-3,
        )

    def test_ks_on_sampled_arrivals(self, setup):
        """K-S test on the posterior draws of individual latent arrivals."""
        sim, trace = setup
        rates = sim.true_rates()
        events = trace.latent_arrival_events[:8]
        samples = {}
        for kernel in ("array", "object"):
            state = heuristic_initialize(trace, rates)
            sampler = GibbsSampler(
                trace, state, rates, random_state=3, kernel=kernel
            )
            sampler.run(40)  # burn-in
            draws = np.empty((100, events.size))
            for s in range(draws.shape[0]):
                sampler.run(3)
                draws[s] = state.arrival[events]
            samples[kernel] = draws
        p_values = [
            stats.ks_2samp(samples["array"][:, j], samples["object"][:, j]).pvalue
            for j in range(events.size)
        ]
        # With 8 independent-ish tests, demand no catastrophic rejection
        # and a healthy median (both kernels draw from the same law).
        assert min(p_values) > 1e-4, p_values
        assert float(np.median(p_values)) > 0.05, p_values

    def test_ks_on_waiting_summaries(self, setup):
        # mean_waiting is a slowly mixing global summary; thin hard so the
        # K-S test's iid assumption approximately holds.
        sim, trace = setup
        rates = sim.true_rates()
        a = self._collect(trace, rates, "array", seed=5, n_samples=80, thin=8)
        o = self._collect(trace, rates, "object", seed=5, n_samples=80, thin=8)
        for q in range(1, a.mean_waiting.shape[1]):
            p = stats.ks_2samp(a.mean_waiting[:, q], o.mean_waiting[:, q]).pvalue
            assert p > 1e-3, f"queue {q}: K-S p={p}"
