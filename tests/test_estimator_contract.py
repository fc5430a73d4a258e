"""Cross-estimator contract tests.

Every estimator registered in :data:`repro.online.ESTIMATORS` must honor
the same surface: one shared ``EstimatorConfig``, protocol-shaped
instances, name-dispatched checkpoints that restore bitwise, and window
posteriors that agree statistically with the windowed StEM reference.
The SMC-specific mechanics (systematic resampling, ESS trigger) get
property-based coverage of their own.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.errors import InferenceError
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.online import (
    ESTIMATORS,
    EstimatorConfig,
    ReplayTraceStream,
    SMCEstimator,
    StreamEstimatorProtocol,
    StreamingEstimator,
    estimator_config_keys,
    get_estimator,
    register_estimator,
    systematic_resample,
)
from repro.online.smc import effective_sample_size
from repro.simulate import simulate_network
from repro.webapp import WebAppConfig, generate_webapp_trace

ESTIMATOR_NAMES = ["stem", "smc"]


def make_trace(n_tasks=300, seed=11, fraction=0.25, obs_seed=1):
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=fraction).observe(sim.events, random_state=obs_seed)
    horizon = float(np.nanmax(sim.events.departure))
    return trace, horizon


def build(name, trace, horizon, *, windows=4, seed=7, **overrides):
    kwargs = dict(
        window=horizon / windows, stem_iterations=6, n_particles=8,
    )
    kwargs.update(overrides)
    config = EstimatorConfig(**kwargs)
    return get_estimator(name)(
        ReplayTraceStream(trace), random_state=seed, config=config
    )


def assert_windows_equal(ref, got):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        assert (a.t_start, a.t_end) == (b.t_start, b.t_end)
        assert (a.n_tasks, a.n_observed_tasks) == (b.n_tasks, b.n_observed_tasks)
        assert a.failure == b.failure
        if a.rates is None:
            assert b.rates is None
        else:
            np.testing.assert_array_equal(a.rates, b.rates)


class TestRegistryAndProtocol:
    def test_both_flavors_registered(self):
        assert ESTIMATORS["stem"] is StreamingEstimator
        assert ESTIMATORS["smc"] is SMCEstimator
        assert get_estimator("stem") is StreamingEstimator
        assert get_estimator("smc") is SMCEstimator

    def test_unknown_name_is_an_inference_error(self):
        with pytest.raises(InferenceError, match="unknown estimator"):
            get_estimator("kalman")

    def test_register_returns_class_for_decorator_use(self):
        class Fake:
            estimator_name = "_contract_fake"

        try:
            assert register_estimator(Fake) is Fake
            assert get_estimator("_contract_fake") is Fake
        finally:
            del ESTIMATORS["_contract_fake"]

    @pytest.mark.parametrize("name", ESTIMATOR_NAMES)
    def test_instances_satisfy_the_protocol(self, name):
        trace, horizon = make_trace(n_tasks=80)
        est = build(name, trace, horizon)
        assert isinstance(est, StreamEstimatorProtocol)
        assert est.estimator_name == name
        assert type(est) is ESTIMATORS[name]


class TestEstimatorConfig:
    def test_field_validation(self):
        with pytest.raises(InferenceError, match="two particles"):
            EstimatorConfig(window=1.0, n_particles=1)
        with pytest.raises(InferenceError, match="ess_threshold"):
            EstimatorConfig(window=1.0, ess_threshold=0.0)
        with pytest.raises(InferenceError, match="ess_threshold"):
            EstimatorConfig(window=1.0, ess_threshold=1.5)
        with pytest.raises(InferenceError, match="rejuvenation sweep"):
            EstimatorConfig(window=1.0, rejuvenation_sweeps=0)
        # Legacy validations stay word-for-word where tests pin them.
        with pytest.raises(InferenceError, match="kernel"):
            EstimatorConfig(window=1.0, kernel="simd")

    def test_from_state_rejects_missing_and_unknown_keys(self):
        state = EstimatorConfig(window=2.0).as_dict()
        assert EstimatorConfig.from_state(state) == EstimatorConfig(window=2.0)
        for skew in ("stem_iterations", "n_particles", "ess_threshold",
                     "rejuvenation_sweeps", "kernel"):
            partial = dict(state)
            partial.pop(skew)
            with pytest.raises(InferenceError, match=f"missing \\['{skew}'\\]"):
                EstimatorConfig.from_state(partial)
        with pytest.raises(InferenceError, match=r"unknown \['particles'\]"):
            EstimatorConfig.from_state({**state, "particles": 8})

    def test_legacy_kwargs_and_config_build_identically(self):
        trace, horizon = make_trace(n_tasks=80)
        legacy = StreamingEstimator(
            ReplayTraceStream(trace), window=horizon, stem_iterations=9,
            random_state=3, min_observed_tasks=2, n_particles=12,
        )
        explicit = StreamingEstimator(
            ReplayTraceStream(trace), random_state=3,
            config=EstimatorConfig(
                window=horizon, stem_iterations=9, min_observed_tasks=2,
                n_particles=12,
            ),
        )
        assert legacy.config == explicit.config
        assert legacy.state_dict()["config"] == explicit.state_dict()["config"]

    def test_config_and_kwargs_are_exclusive(self):
        trace, horizon = make_trace(n_tasks=80)
        with pytest.raises(InferenceError, match="not both"):
            StreamingEstimator(
                ReplayTraceStream(trace), window=horizon,
                config=EstimatorConfig(window=horizon),
            )
        with pytest.raises(InferenceError, match="not both"):
            StreamingEstimator(
                ReplayTraceStream(trace), stem_iterations=3,
                config=EstimatorConfig(window=horizon),
            )
        with pytest.raises(InferenceError, match="window= or config="):
            StreamingEstimator(ReplayTraceStream(trace))

    @pytest.mark.parametrize("name", ESTIMATOR_NAMES)
    def test_knobs_are_read_only_views_of_the_config(self, name):
        trace, horizon = make_trace(n_tasks=80)
        est = build(name, trace, horizon, min_observed_tasks=2)
        assert est.window == horizon / 4
        assert est.step == horizon / 4
        assert est.min_observed_tasks == 2
        assert est.n_particles == 8
        for knob in estimator_config_keys():
            with pytest.raises(AttributeError):
                setattr(est, knob, getattr(est, knob))

    def test_config_keys_cover_every_dataclass_field(self):
        assert estimator_config_keys() == (
            "window", "step", "stem_iterations", "min_observed_tasks",
            "kernel", "n_particles", "ess_threshold", "rejuvenation_sweeps",
        )


class TestCheckpointContract:
    @pytest.mark.parametrize("name", ESTIMATOR_NAMES)
    def test_checkpoint_restart_resume_is_bitwise(self, name):
        trace, horizon = make_trace(n_tasks=200)
        ref = build(name, trace, horizon, windows=4).run()
        assert any(w.rates is not None for w in ref)

        first = build(name, trace, horizon, windows=4)
        prefix = [first.process_window(float(i * first.step)) for i in range(2)]
        state = first.state_dict()
        assert state["estimator"] == name
        assert state["version"] == 2

        # A restart knows nothing but the checkpoint: class and config
        # both come from the state it carries.
        resumed = get_estimator(state["estimator"])(
            ReplayTraceStream(trace),
            config=EstimatorConfig.from_state(state["config"]),
        )
        resumed.load_state_dict(state)
        assert resumed.n_windows_done == 2
        # load_state_dict's contract: the stream must be positioned where
        # the snapshot left it (a live stream's own snapshot carries that;
        # a replay source is advanced by hand).  StEM tolerates a rewound
        # stream because re-revealed entries are idempotent bookkeeping,
        # but SMC's reweight consumes the poll *batch*, so the position is
        # part of the cross-estimator contract, not an SMC quirk.
        resumed.stream.poll(float(resumed.step + resumed.window))
        tail = [
            resumed.process_window(float(i * resumed.step))
            for i in range(2, len(ref))
        ]
        assert_windows_equal(ref, prefix + tail)

    def test_checkpoint_names_its_estimator(self):
        trace, horizon = make_trace(n_tasks=80)
        stem = build("stem", trace, horizon)
        smc = build("smc", trace, horizon)
        state = stem.state_dict()
        with pytest.raises(InferenceError, match="captured by"):
            smc.load_state_dict(state)
        with pytest.raises(InferenceError, match="captured by"):
            stem.load_state_dict(smc.state_dict())

    def test_checkpoint_rejects_config_mismatch(self):
        trace, horizon = make_trace(n_tasks=80)
        est = build("smc", trace, horizon)
        other = build("smc", trace, horizon, n_particles=12)
        with pytest.raises(InferenceError, match="captured under config"):
            other.load_state_dict(est.state_dict())

    def test_smc_state_rides_in_the_stem_envelope(self):
        trace, horizon = make_trace(n_tasks=150)
        est = build("smc", trace, horizon, windows=2)
        est.process_window(0.0)
        state = est.state_dict()
        assert set(state["smc"]) == {"thetas", "log_weights", "n_rejuvenations"}
        if state["smc"]["thetas"] is not None:
            assert len(state["smc"]["thetas"]) == 8
        assert len(state["smc"]["log_weights"]) == 8


class TestSMCBehavior:
    def test_same_seed_is_bitwise_deterministic(self):
        trace, horizon = make_trace(n_tasks=200)
        a = build("smc", trace, horizon, windows=4).run()
        b = build("smc", trace, horizon, windows=4).run()
        assert_windows_equal(a, b)

    def test_overlapping_windows_trigger_sparsely(self):
        """The O(arrival) claim in miniature: with step << window most
        windows ride on reweighting alone instead of re-running Gibbs."""
        trace, horizon = make_trace(n_tasks=300)
        est = build(
            "smc", trace, horizon, windows=3,
            step=horizon / 12, stem_iterations=8,
        )
        windows = est.run()
        ok = [w for w in windows if w.rates is not None]
        assert len(ok) >= 8
        assert 1 <= est.n_rejuvenations < len(ok)
        for w in ok:
            rates = np.asarray(w.rates)
            assert np.all(np.isfinite(rates)) and np.all(rates > 0.0)

    @pytest.mark.slow
    def test_ks_agreement_with_windowed_stem_on_webapp(self):
        """Per-queue window-rate series from SMC and from the windowed
        StEM reference must be draws from statistically indistinguishable
        distributions on the paper-shaped webapp workload."""
        sim = generate_webapp_trace(WebAppConfig(n_requests=220), random_state=21)
        trace = TaskSampling(fraction=0.3).observe(sim.events, random_state=2)
        horizon = float(np.nanmax(sim.events.departure))
        kwargs = dict(windows=3, step=horizon / 9, stem_iterations=20, seed=13)
        stem = build("stem", trace, horizon, **kwargs).run()
        smc = build("smc", trace, horizon, n_particles=16, **kwargs).run()
        stem_rates = np.array([w.rates for w in stem if w.rates is not None])
        smc_rates = np.array([w.rates for w in smc if w.rates is not None])
        assert stem_rates.shape[0] >= 6 and smc_rates.shape[0] >= 6
        counts = sim.events.events_per_queue()
        checked = 0
        for q in range(stem_rates.shape[1]):
            if counts[q] < 50:
                continue  # sparse queues estimate noisily under any scheme
            p = stats.ks_2samp(stem_rates[:, q], smc_rates[:, q]).pvalue
            assert p > 0.01, (
                f"queue {q}: SMC and StEM window-rate series diverge "
                f"(KS p={p:.4f})"
            )
            checked += 1
        assert checked >= 3


positive_weights = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1, max_size=64,
).filter(lambda ws: sum(ws) > 0.0)


class TestSystematicResample:
    @given(weights=positive_weights, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_offspring_counts_are_weight_proportional(self, weights, seed):
        w = np.asarray(weights, dtype=float)
        idx = systematic_resample(w, random_state=seed)
        assert idx.shape == w.shape
        assert idx.min() >= 0 and idx.max() < w.size
        counts = np.bincount(idx, minlength=w.size)
        expected = w.size * w / w.sum()
        # Systematic resampling's defining property: every offspring
        # count is floor or ceil of its expectation.
        assert np.all(np.abs(counts - expected) <= 1.0 + 1e-6)

    @given(weights=positive_weights, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_fixed_seed_is_deterministic(self, weights, seed):
        a = systematic_resample(weights, random_state=seed)
        b = systematic_resample(weights, random_state=seed)
        np.testing.assert_array_equal(a, b)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(InferenceError, match="all-zero"):
            systematic_resample(np.zeros(4))
        with pytest.raises(InferenceError, match="finite"):
            systematic_resample([1.0, np.nan])
        with pytest.raises(InferenceError, match="nonnegative|finite"):
            systematic_resample([1.0, -0.5])
        with pytest.raises(InferenceError, match="nonempty"):
            systematic_resample([])
        with pytest.raises(InferenceError, match="nonempty"):
            systematic_resample(np.ones((2, 2)))

    def test_effective_sample_size_bounds(self):
        n = 16
        uniform = np.zeros(n)
        assert effective_sample_size(uniform) == pytest.approx(n)
        point_mass = np.full(n, -np.inf)
        point_mass[3] = 0.0
        assert effective_sample_size(point_mass) == pytest.approx(1.0)
        with pytest.raises(InferenceError, match="degenerate"):
            effective_sample_size(np.full(n, -np.inf))
