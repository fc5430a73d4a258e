"""Parallel estimation paths against the default, in wall-clock time.

A parallel path stays in the repo only where a wall-clock measurement on
the host that ran it shows it winning.  This benchmark times a whole
:class:`~repro.online.streaming.StreamingEstimator` pass under every
parallel configuration the estimator still offers, on three workloads:

* ``live`` — webapp replay at the live tier's window geometry
  (window 40, step 5, ~170-task windows);
* ``large`` — webapp windows of ~10k events (``REPRO_FULL=1``; a
  ~3.6k-event median at the default reduced scale);
* ``tandem`` — a tandem network at ``shards=4`` with 2 workers.

Configurations:

* ``default`` — one shard, in process;
* ``sharded`` — ``shards=S`` in process;
* ``stream_pool`` — ``shards=S, shard_workers=2``: one worker pool for
  the whole stream;
* ``window_pool`` — the per-window pool baseline: the windowed
  estimator's per-window recipe with ``run_stem(..., shards=S,
  persistent_workers=2)``, which spawns and closes a pool per window, on
  the same sub-traces and seed children.  Its rates must equal the
  stream pool's bitwise.

After one untimed warm-up pass of every configuration, every round
runs each configuration once, in an order that reverses from round to
round, so each pair of configurations is compared over interleaved
runs.  Medians and quartiles of the wall seconds go to the
tracked ``benchmarks/results/parallel.json`` together with the host's
CPU count, numba presence and Python/numpy versions.

The one gate: the stream pool's median beats the per-window pool's on
the ``live`` and ``tandem`` workloads.  Whether any sharded
configuration beats the default is recorded, not asserted.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.events.subset import SubsetIndex, subset_trace
from repro.experiments import render_table
from repro.inference import run_stem
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.online import ReplayTraceStream, StreamingEstimator
from repro.online.windowed import _entry_time_estimates, task_fully_observed
from repro.rng import spawn
from repro.simulate import simulate_network
from repro.webapp import WebAppConfig, generate_webapp_trace

from conftest import full_scale, host

#: Tracked result file: the committed trajectory of these measurements.
RESULT_PATH = Path(__file__).parent / "results" / "parallel.json"

#: Interleaved rounds; each round yields one pair per comparison.
ROUNDS = 5

#: StEM iterations per window, as on the live tier.
STEM_ITERATIONS = 6

#: Worker processes of every pooled configuration.
WORKERS = 2

#: Workloads whose stream-pool-versus-per-window-pool comparison is gated.
GATED = ("live", "tandem")

CONFIGS = ("default", "sharded", "stream_pool", "window_pool")


def webapp_trace(n_requests: int, requests_per_clock: float, seed: int):
    sim = generate_webapp_trace(
        WebAppConfig(n_requests=n_requests,
                     duration=n_requests / requests_per_clock),
        random_state=seed,
    )
    trace = TaskSampling(fraction=0.25).observe(sim.events, random_state=seed + 1)
    return sim, trace


def tandem_trace(n_tasks: int, seed: int = 19):
    sim = simulate_network(
        build_tandem_network(4.0, [6.0, 8.0]), n_tasks, random_state=seed
    )
    trace = TaskSampling(fraction=0.3).observe(sim.events, random_state=seed)
    return sim, trace


def workloads() -> dict:
    """Name -> trace, window geometry and shard count."""
    large_requests = 10000 if full_scale() else 3000
    _, live = webapp_trace(450, 4.5, seed=1)
    _, large = webapp_trace(large_requests, 3.2, seed=1)
    large_window = max(_entry_time_estimates(large).values()) / 4
    sim, tandem = tandem_trace(700)
    tandem_window = float(np.nanmax(sim.events.departure)) / 4
    return {
        "live": dict(trace=live, window=40.0, step=5.0, shards=2),
        "large": dict(trace=large, window=large_window,
                      step=large_window / 2, shards=2),
        "tandem": dict(trace=tandem, window=tandem_window,
                       step=tandem_window / 3, shards=4),
    }


def window_tasks(trace, window: float, step: float) -> list[list[int]]:
    """Each window's task ids, on the windowed estimator's grid."""
    entries = _entry_time_estimates(trace)
    starts = np.arange(0.0, max(entries.values()), step)
    return [
        [k for k, t in entries.items() if t0 <= t < t0 + window]
        for t0 in starts
    ]


def stream_pass(w: dict, seed: int, **knobs) -> list:
    estimator = StreamingEstimator(
        ReplayTraceStream(w["trace"]), window=w["window"], step=w["step"],
        stem_iterations=STEM_ITERATIONS, random_state=seed, **knobs,
    )
    return [est.rates for est in estimator.run()]


def window_pool_pass(w: dict, seed: int) -> list:
    """The windowed estimator's recipe, a fresh shard pool per window."""
    trace = w["trace"]
    index = SubsetIndex(trace.skeleton)
    windows = window_tasks(trace, w["window"], w["step"])
    streams = spawn(seed, max(len(windows), 1))
    rates = []
    for tasks, stream in zip(windows, streams):
        n_observed = sum(task_fully_observed(trace, k) for k in tasks)
        if len(tasks) < 2 or n_observed < 3:
            rates.append(None)
            continue
        rates.append(run_stem(
            subset_trace(trace, tasks, index=index),
            n_iterations=STEM_ITERATIONS, init_method="heuristic",
            random_state=stream, shards=w["shards"],
            persistent_workers=WORKERS,
        ).rates)
    return rates


def run_config(name: str, w: dict, seed: int) -> list:
    if name == "default":
        return stream_pass(w, seed)
    if name == "sharded":
        return stream_pass(w, seed, shards=w["shards"])
    if name == "stream_pool":
        return stream_pass(w, seed, shards=w["shards"], shard_workers=WORKERS)
    return window_pool_pass(w, seed)


def same_rates(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        (x is None and y is None)
        or (x is not None and y is not None and np.array_equal(x, y))
        for x, y in zip(a, b)
    )


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_s": float(median), "q1_s": float(q1), "q3_s": float(q3),
            "iqr_s": float(q3 - q1), "samples_s": [float(x) for x in samples]}


def measure(w: dict, seed: int = 7) -> dict:
    """Interleaved rounds of every configuration on one workload."""
    times = {name: [] for name in CONFIGS}
    rates = {}
    for name in CONFIGS:  # untimed warm-up: imports and first-call set-up
        run_config(name, w, seed)
    for r in range(ROUNDS):
        order = CONFIGS if r % 2 == 0 else CONFIGS[::-1]
        for name in order:
            t0 = time.perf_counter()
            rates[name] = run_config(name, w, seed)
            times[name].append(time.perf_counter() - t0)
    sizes = [len(t) for t in window_tasks(w["trace"], w["window"], w["step"])]
    events_per_task = w["trace"].skeleton.n_events / w["trace"].skeleton.n_tasks
    stream, per_window = times["stream_pool"], times["window_pool"]
    configs = {name: quartiles(times[name]) for name in CONFIGS}
    default = configs["default"]["median_s"]
    return {
        "shards": w["shards"],
        "workers": WORKERS,
        "n_windows": len(sizes),
        "n_estimated": sum(x is not None for x in rates["default"]),
        "median_window_tasks": float(np.median(sizes)),
        "median_window_events": float(np.median(sizes) * events_per_task),
        "configs": configs,
        "stream_pool_wins": int(sum(s < p for s, p in zip(stream, per_window))),
        "pools_bitwise_equal": same_rates(rates["stream_pool"],
                                          rates["window_pool"]),
        "sharded_beats_default": any(
            configs[name]["median_s"] < default for name in CONFIGS[1:]
        ),
    }


def test_parallel_paths(benchmark):
    loads = workloads()
    results = benchmark.pedantic(
        lambda: {name: measure(w) for name, w in loads.items()},
        rounds=1, iterations=1,
    )
    record = {
        "benchmark": "parallel_paths",
        "scale": "full" if full_scale() else "reduced",
        "rounds": ROUNDS,
        "stem_iterations": STEM_ITERATIONS,
        "host": host(),
        "workloads": results,
        "gated": list(GATED),
    }
    rows = []
    for name, res in results.items():
        for config, q in res["configs"].items():
            rows.append((
                name, config, f"{q['median_s']:.3f}", f"{q['iqr_s']:.3f}",
                res["n_windows"], f"{res['median_window_tasks']:.0f}",
            ))
    print(f"\n=== Parallel paths, wall seconds per stream "
          f"({record['host']['cpus_usable']} cpu, {ROUNDS} rounds, "
          f"{record['scale']} scale) ===")
    print(render_table(
        ["workload", "config", "median s", "IQR s", "windows", "tasks/window"],
        rows,
    ))
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RESULT_PATH}")

    for name, res in results.items():
        assert res["n_estimated"] > 0, f"{name}: no window produced an estimate"
        assert res["pools_bitwise_equal"], (
            f"{name}: per-window pool rates differ from the stream pool's"
        )
    for name in GATED:
        q = results[name]["configs"]
        assert q["stream_pool"]["median_s"] < q["window_pool"]["median_s"], (
            f"{name}: stream pool median {q['stream_pool']['median_s']:.3f}s "
            f"does not beat the per-window pool's "
            f"{q['window_pool']['median_s']:.3f}s"
        )

