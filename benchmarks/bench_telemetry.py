"""Telemetry overhead gate: instrumentation must cost ≤ 3%.

The telemetry subsystem rides inside the serving tier's two hot paths —
record ingestion (``LiveTraceStream.ingest``) and the per-window
estimation pipeline — so its cost is pinned, not assumed.  Each workload
is sized so that one pass takes at least ~0.5 s, and runs as ``PAIRS``
enabled/disabled pairs (``telemetry.isolated``), alternating which mode
of a pair runs first.  The gate is the median of the per-pair
enabled/disabled ratios, which must stay within ``MAX_OVERHEAD``; the
ratios' quartiles are recorded, so a busy runner shows up as spread
rather than as a verdict.

The same window-latency workload also re-asserts the subsystem's other
contract: the published rate series is **bitwise identical** with
telemetry on and off at the same seed (histogram reservoirs use their
own stdlib RNG stream, never numpy's).

The result is written to ``BENCH_telemetry.json`` so the workflow can
archive the overhead trajectory across PRs.
"""

import json
import time

import numpy as np

from repro import telemetry
from repro.experiments import render_table
from repro.live import LiveTraceStream, replay_batches, trace_to_records
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.online import EstimatorConfig, ReplayTraceStream, get_estimator
from repro.simulate import simulate_network

from conftest import full_scale

#: Where the machine-readable result lands (uploaded as a CI artifact).
RESULT_PATH = "BENCH_telemetry.json"

#: Enabled/disabled wall-time ratio each workload must stay within.
MAX_OVERHEAD = 1.03

#: Enabled/disabled pairs per workload; the median ratio is the statistic.
#: On a 2-CPU x86_64 host the per-pair ratios spread with an IQR of
#: 0.1-0.2 (pass-to-pass speed jitter), so the median needs more than
#: the 9 pairs a quieter host would.
PAIRS = 15


def make_trace(n_tasks: int, seed: int = 23):
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=0.3).observe(sim.events, random_state=seed)
    horizon = float(np.nanmax(sim.events.departure))
    return trace, horizon


def ingest_pass(trace, horizon, n_queues, batch: int = 64) -> float:
    """One full replay into a fresh stream; returns wall seconds."""
    stream = LiveTraceStream(n_queues=n_queues)
    t0 = time.perf_counter()
    for watermark, records in replay_batches(trace, batch_tasks=batch):
        stream.advance_watermark(watermark)
        stream.ingest(records)
    stream.advance_watermark(horizon + 1.0)
    stream.seal()
    stream.poll(horizon + 1.0)
    return time.perf_counter() - t0


def window_pass(trace, horizon, seed: int = 9):
    """One streaming-estimator run; returns (seconds, rates ndarray)."""
    config = EstimatorConfig(
        window=horizon / 4, stem_iterations=6, min_observed_tasks=2
    )
    estimator = get_estimator("stem")(
        ReplayTraceStream(trace), random_state=seed, config=config
    )
    t0 = time.perf_counter()
    windows = estimator.run()
    seconds = time.perf_counter() - t0
    rates = np.array([
        w.rates if w.rates is not None else [] for w in windows
        if w.rates is not None
    ])
    return seconds, rates


def timed_pairs(fn, pairs: int = PAIRS) -> dict:
    """Run *fn* in enabled/disabled pairs, alternating the leading mode."""
    seconds = {True: [], False: []}
    for i in range(pairs):
        for mode in ((True, False) if i % 2 == 0 else (False, True)):
            with telemetry.isolated(enabled=mode):
                seconds[mode].append(fn())
    ratios = np.array(seconds[True]) / np.array(seconds[False])
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return {
        "enabled_s": float(np.median(seconds[True])),
        "disabled_s": float(np.median(seconds[False])),
        "ratio": float(median),
        "ratio_q1": float(q1),
        "ratio_q3": float(q3),
        "ratio_iqr": float(q3 - q1),
        "ratios": [float(r) for r in ratios],
    }


def test_telemetry_overhead(benchmark):
    # Sized so one pass takes >= ~0.5 s on a 2-CPU x86_64 host (ingest
    # ~0.6 s, window ~0.65 s): long enough that a scheduler blip is a
    # small fraction of a pass.
    n_ingest = 15000 if not full_scale() else 40000
    n_window = 9000 if not full_scale() else 20000
    ingest_trace, ingest_horizon = make_trace(n_ingest)
    window_trace, window_horizon = make_trace(n_window)
    n_queues = ingest_trace.skeleton.n_queues
    n_records = len(trace_to_records(ingest_trace))

    def run():
        ingest = timed_pairs(
            lambda: ingest_pass(ingest_trace, ingest_horizon, n_queues)
        )
        window = timed_pairs(
            lambda: window_pass(window_trace, window_horizon)[0]
        )
        with telemetry.isolated(enabled=True):
            _, rates_on = window_pass(window_trace, window_horizon)
        with telemetry.isolated(enabled=False):
            _, rates_off = window_pass(window_trace, window_horizon)
        return ingest, window, rates_on, rates_off

    ingest, window, rates_on, rates_off = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # The determinism contract: instrumentation never perturbs a draw.
    np.testing.assert_array_equal(rates_on, rates_off)

    rows = []
    result = {
        "max_overhead": MAX_OVERHEAD,
        "pairs": PAIRS,
        "statistic": "median of per-pair enabled/disabled ratios",
        "bitwise_equal": True,
        "workloads": {},
    }
    for name, times, unit in (
        ("ingest", ingest, f"{n_records} records"),
        ("window", window, f"{len(rates_on)} windows"),
    ):
        result["workloads"][name] = {**times, "scale": unit}
        rows.append((name, f"{times['disabled_s'] * 1e3:.1f}",
                     f"{times['enabled_s'] * 1e3:.1f}", f"{times['ratio']:.4f}",
                     f"{times['ratio_iqr']:.4f}", unit))

    print(f"\n=== Telemetry overhead (median of {PAIRS} paired ratios) ===")
    print(render_table(
        ["workload", "off (ms)", "on (ms)", "ratio", "ratio IQR", "scale"], rows,
    ))
    with open(RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(f"wrote {RESULT_PATH}")

    for name, data in result["workloads"].items():
        assert data["ratio"] <= MAX_OVERHEAD, (
            f"telemetry overhead gate: {name} enabled/disabled ratio "
            f"{data['ratio']:.4f} exceeds {MAX_OVERHEAD}"
        )
