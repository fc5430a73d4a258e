"""The native (JIT-lowered) backend: fuzzed agreement + fallback contract.

Three claims, each pinned on every platform (the lowered loops are tested
through ``py_func`` so they run as plain Python when numba is absent):

1. **Scalar core** — the compiled ``_lie`` is branch-for-branch the scalar
   reference ``_log_integral_exp``: bitwise across the ``_FLAT_EPS`` flat
   transition, the ``|slope * width|`` ~1e6 overflow regimes and the
   unbounded exponential tail, and within 1 ulp of the vectorized numpy
   ``log_integral_exp`` (numpy's SIMD ``expm1``/``log1p`` legitimately
   differ from libm by up to 1 ulp on a small fraction of inputs).
2. **Lowered helpers and fused loops** — the loop mirrors of the kernel
   module's ``_piece_log_masses`` / ``_log_normalizer`` / ``_select_pieces``
   / ``_invert_pieces`` and the fused batch evaluators agree with the numpy
   path to 1e-10 per move on real sampler batches.
3. **Fallback** — without numba, ``kernel="native"`` degrades to the
   inherited pure-numpy evaluation: sweeps are bitwise the array kernel's,
   and capability reporting says so.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InferenceError
from repro.inference import GibbsSampler, heuristic_initialize
from repro.inference import native
from repro.inference.kernel import (
    ArraySweepKernel,
    _invert_pieces as np_invert_pieces,
    _log_normalizer as np_log_normalizer,
    _piece_log_masses as np_piece_log_masses,
    _select_pieces as np_select_pieces,
)
from repro.inference.native import (
    NUMBA_AVAILABLE,
    NativeSweepKernel,
    log_integral_exp as native_log_integral_exp,
    make_sweep_kernel,
    native_capability,
    py_func,
)
from repro.inference.piecewise import (
    _FLAT_EPS,
    _log_integral_exp,
    log_integral_exp as np_log_integral_exp,
)
from repro.network import build_tandem_network, build_three_tier_network
from repro.observation import TaskSampling
from repro.simulate import simulate_network

# The pure-python implementations behind the (possibly) jitted loops: these
# run the exact lowered arithmetic on every platform.
_lie = py_func(native._lie)
_piece_log_masses = py_func(native._piece_log_masses)
_log_normalizer = py_func(native._log_normalizer)
_select_pieces = py_func(native._select_pieces)
_invert_pieces = py_func(native._invert_pieces)
_fused_arrival = py_func(native._fused_arrival)
_fused_departure = py_func(native._fused_departure)


def assert_ulp(a: float, b: float, n: int = 1) -> None:
    """a and b equal within *n* ulp (infinities must match exactly)."""
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        assert a == b, f"{a} != {b}"
        return
    scale = max(abs(a), abs(b), 5e-324)
    assert abs(a - b) <= n * math.ulp(scale), f"{a} vs {b} differ by >{n} ulp"


# ----------------------------------------------------------------------
# Capability and factory.
# ----------------------------------------------------------------------


class TestCapability:
    def test_capability_report(self):
        cap = native_capability()
        assert cap["available"] is NUMBA_AVAILABLE
        if NUMBA_AVAILABLE:
            assert isinstance(cap["numba_version"], str)
            assert cap["fallback"] is None
        else:
            assert cap["numba_version"] is None
            assert cap["fallback"] == "array"

    def test_factory_selects_backend(self, tandem_trace, tandem_sim):
        rates = tandem_sim.true_rates()
        state = heuristic_initialize(tandem_trace, rates)
        for name, cls in (("array", ArraySweepKernel), ("native", NativeSweepKernel)):
            sampler = GibbsSampler(tandem_trace, state.copy(), rates,
                                   random_state=0, kernel=name)
            assert type(sampler._array_kernel) is cls

    def test_native_kernel_pickles_across_capability(
        self, tandem_trace, tandem_sim
    ):
        rates = tandem_sim.true_rates()
        state = heuristic_initialize(tandem_trace, rates)
        sampler = GibbsSampler(tandem_trace, state, rates, random_state=0,
                               kernel="native")
        kernel = pickle.loads(pickle.dumps(sampler._array_kernel))
        # Capability is decided per process, never baked into the pickle.
        assert kernel.native_active is NUMBA_AVAILABLE


# ----------------------------------------------------------------------
# 1. Scalar core fuzz: native vs scalar reference vs vectorized numpy.
# ----------------------------------------------------------------------

finite_slopes = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
finite_widths = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestScalarCoreFuzz:
    @given(slope=finite_slopes, width=finite_widths)
    @settings(max_examples=300, deadline=None)
    def test_bitwise_vs_scalar_reference(self, slope, width):
        """The lowered core IS the scalar reference on bounded pieces."""
        a = _lie(slope, width)
        b = _log_integral_exp(slope, width)
        assert a == b or (math.isnan(a) and math.isnan(b))

    @given(slope=finite_slopes, width=st.floats(min_value=1e-12, max_value=1e6))
    @settings(max_examples=300, deadline=None)
    def test_one_ulp_vs_vectorized(self, slope, width):
        """Within 1 ulp of numpy's SIMD evaluation everywhere."""
        a = _lie(slope, width)
        b = float(np_log_integral_exp(np.array([slope]), np.array([width]))[0])
        assert_ulp(a, b)

    @given(
        width=st.sampled_from([1.0, 3.7, 0.01, 123.456]),
        frac=st.sampled_from([0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0]),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_flat_eps_transition_bitwise(self, width, frac, sign):
        """On both sides of the flat threshold all three paths agree
        bitwise: same |z| < _FLAT_EPS test on the same z product."""
        slope = sign * _FLAT_EPS * frac / width
        a = _lie(slope, width)
        b = _log_integral_exp(slope, width)
        c = float(np_log_integral_exp(np.array([slope]), np.array([width]))[0])
        assert a == b == c
        if frac < 1.0:
            assert a == math.log(width)

    @given(slope=st.floats(min_value=-1e6, max_value=-1e-12))
    @settings(max_examples=200, deadline=None)
    def test_unbounded_tail_bitwise(self, slope):
        a = _lie(slope, math.inf)
        b = _log_integral_exp(slope, math.inf)
        c = float(np_log_integral_exp(np.array([slope]), np.array([math.inf]))[0])
        assert a == b == c == -math.log(-slope)

    @given(slope=st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_invalid_unbounded_piece_raises_identically(self, slope):
        """Non-negative slope on an infinite width: both vectorized paths
        reject with the same InferenceError."""
        with pytest.raises(InferenceError, match="strictly negative slope"):
            np_log_integral_exp(np.array([slope]), np.array([math.inf]))
        with pytest.raises(InferenceError, match="strictly negative slope"):
            native_log_integral_exp(np.array([slope]), np.array([math.inf]))

    @given(slope=finite_slopes)
    @settings(max_examples=100, deadline=None)
    def test_zero_and_negative_widths_are_empty(self, slope):
        assert _lie(slope, 0.0) == -math.inf
        assert _lie(slope, -1.0) == -math.inf

    def test_vectorized_shapes_and_broadcast(self):
        slopes = np.array([[-2.0, 0.0], [3.0, -1e-20]])
        widths = np.array([1.5, 2.5])
        got = native_log_integral_exp(slopes, widths)
        want = np_log_integral_exp(slopes, np.broadcast_to(widths, slopes.shape))
        assert got.shape == (2, 2)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


# ----------------------------------------------------------------------
# 2. Lowered helpers + fused loops vs the numpy kernel path.
# ----------------------------------------------------------------------


def _random_piece_grid(rng, m=64, k=3):
    """Random fixed-width piece rows like the kernel builds (some empty)."""
    start = rng.normal(size=(m, 1)) * 5.0
    widths = rng.random((m, k)) * 3.0
    # Some zero-width (degenerate) pieces, as clamped knots produce.
    widths[rng.random((m, k)) < 0.3] = 0.0
    knots = np.concatenate([start, start + np.cumsum(widths, axis=1)], axis=1)
    slopes = rng.normal(size=(m, k)) * 4.0
    return knots, slopes


class TestLoweredHelpers:
    def test_piece_log_masses_and_normalizer(self):
        rng = np.random.default_rng(7)
        knots, slopes = _random_piece_grid(rng)
        want_masses = np_piece_log_masses(knots, slopes)
        got_masses = np.empty_like(want_masses)
        _piece_log_masses(knots, slopes, got_masses)
        np.testing.assert_allclose(
            got_masses, want_masses, rtol=1e-13, atol=1e-300
        )
        want_z = np_log_normalizer(want_masses)
        got_z = np.empty(knots.shape[0])
        _log_normalizer(got_masses, got_z)
        np.testing.assert_allclose(got_z, want_z, rtol=1e-13)

    def test_select_and_invert(self):
        rng = np.random.default_rng(11)
        knots, slopes = _random_piece_grid(rng)
        masses = np_piece_log_masses(knots, slopes)
        log_z = np_log_normalizer(masses)
        u = rng.random(knots.shape[0])
        v = rng.random(knots.shape[0])
        want_idx = np_select_pieces(masses, log_z, u)
        got_idx = np.empty(knots.shape[0], dtype=np.int64)
        _select_pieces(masses, log_z, u, got_idx)
        np.testing.assert_array_equal(got_idx, want_idx)
        want_x = np_invert_pieces(knots, slopes, want_idx, v)
        got_x = np.empty(knots.shape[0])
        _invert_pieces(knots, slopes, got_idx.astype(np.int64), v, got_x)
        np.testing.assert_allclose(got_x, want_x, rtol=1e-13, atol=1e-13)


def warm_array_sampler(seed=5):
    net = build_three_tier_network(10.0, (1, 2, 4), service_rate=5.0)
    sim = simulate_network(net, 120, random_state=7)
    trace = TaskSampling(fraction=0.3).observe(sim.events, random_state=seed)
    rates = sim.true_rates()
    state = heuristic_initialize(trace, rates)
    sampler = GibbsSampler(trace, state, rates, random_state=seed, kernel="array")
    sampler.run(3)
    return sampler


class TestFusedLoops:
    """The fused batch evaluators vs the numpy chunk path, move for move."""

    @pytest.fixture(scope="class")
    def warm(self):
        sampler = warm_array_sampler()
        return sampler

    def _native_twin(self, warm):
        array = warm._array_kernel
        twin = make_sweep_kernel(
            "native", warm.state, warm._arrival_cache, warm._departure_cache,
            warm.rates,
        )
        # Force the lowered evaluation path regardless of numba presence:
        # the pure-python loops are the same arithmetic the JIT compiles.
        twin.native_active = True
        return array, twin

    def test_arrival_batches_agree_per_move(self, warm):
        array, twin = self._native_twin(warm)
        state = warm.state
        rng = np.random.default_rng(17)
        for sel in array.a_batches:
            u = rng.random(sel.size)
            v = rng.random(sel.size)
            ev_a, x_a = array._eval_arrival_batch(
                state.arrival, state.departure, sel, u, v
            )
            ev_n, x_n = twin._eval_arrival_batch(
                state.arrival, state.departure, sel, u, v
            )
            np.testing.assert_array_equal(ev_a, ev_n)
            np.testing.assert_allclose(x_n, x_a, rtol=1e-12, atol=1e-10)

    def test_departure_batches_agree_per_move(self, warm):
        array, twin = self._native_twin(warm)
        state = warm.state
        rng = np.random.default_rng(23)
        for sel in array.d_batches:
            u = rng.random(sel.size)
            v = rng.random(sel.size)
            ev_a, x_a = array._eval_departure_batch(
                state.arrival, state.departure, sel, u, v
            )
            ev_n, x_n = twin._eval_departure_batch(
                state.arrival, state.departure, sel, u, v
            )
            np.testing.assert_array_equal(ev_a, ev_n)
            np.testing.assert_allclose(x_n, x_a, rtol=1e-12, atol=1e-10)


# ----------------------------------------------------------------------
# 3. Fallback contract.
# ----------------------------------------------------------------------


class TestFallback:
    def test_full_sweeps_match_array_backend(self, tandem_trace, tandem_sim):
        """kernel="native" sweeps agree with kernel="array" to 1e-10 per
        time (bitwise when numba is absent and the fallback runs)."""
        rates = tandem_sim.true_rates()
        runs = {}
        for name in ("array", "native"):
            state = heuristic_initialize(tandem_trace, rates)
            sampler = GibbsSampler(tandem_trace, state, rates,
                                   random_state=33, kernel=name)
            sampler.run(5)
            runs[name] = (state.arrival.copy(), state.departure.copy())
        if not NUMBA_AVAILABLE:
            np.testing.assert_array_equal(runs["array"][0], runs["native"][0])
            np.testing.assert_array_equal(runs["array"][1], runs["native"][1])
        else:
            np.testing.assert_allclose(
                runs["native"][0], runs["array"][0], rtol=1e-10, atol=1e-10
            )
            np.testing.assert_allclose(
                runs["native"][1], runs["array"][1], rtol=1e-10, atol=1e-10
            )

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="exercises the no-numba path")
    def test_without_numba_reports_inactive(self, tandem_trace, tandem_sim):
        rates = tandem_sim.true_rates()
        state = heuristic_initialize(tandem_trace, rates)
        sampler = GibbsSampler(tandem_trace, state, rates, random_state=0,
                               kernel="native")
        assert sampler._array_kernel.native_active is False
