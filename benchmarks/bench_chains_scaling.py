"""Multi-chain throughput: sweep engines and the two chain pools.

Three measurements back the multi-chain engine:

* the per-sweep speedup of the blanket-cached (and batched-draw) object
  sweep over the derive-everything-per-move reference sweep, plus the
  vectorized array kernel head to head;
* the posterior chains' process pool (``MultiChainSampler.collect
  (workers=)``, ``repro infer --workers``): 4-chain wall clock serial and
  at 1 and 2 workers, with a bitwise check that the worker count never
  changes the draws;
* the persistent StEM E-step pool (``run_stem(persistent_workers=)``,
  ``repro infer --persistent-workers``): the same three configurations,
  with a bitwise serial-equivalence check.

Each pool measurement runs :data:`ROUNDS` interleaved rounds (every
configuration once per round, in rotating order) and records the
samples, median and IQR per configuration, with the scale and the host,
in the tracked ``benchmarks/results/chains.json``; the committed copy is
a ``REPRO_FULL=1`` run.  At full scale each pool's 2-worker median must
beat its serial median — the measured reason both pools exist.  At quick
scale the work is small enough that process start-up and pickling eat
the margin, which has gone either way on a 2-CPU host, so quick runs
record without asserting.
"""

import time
from pathlib import Path

import numpy as np

from repro.experiments import render_table
from repro.inference import GibbsSampler, MultiChainSampler, heuristic_initialize
from repro.network import build_three_tier_network
from repro.observation import TaskSampling
from repro.simulate import simulate_network

from conftest import full_scale, merge_result

#: Tracked result file: the committed trajectory of the pool timings.
RESULT_PATH = Path(__file__).parent / "results" / "chains.json"

#: Interleaved timing rounds per pool measurement.
ROUNDS = 5

#: Pool configurations, by worker count (``None``: serial in process).
WORKERS = (None, 1, 2)


def label(workers) -> str:
    return "serial" if workers is None else f"workers_{workers}"


def interleaved(run_once, rounds: int = ROUNDS) -> tuple[dict, dict]:
    """Time ``run_once(workers)`` for every :data:`WORKERS` entry in
    *rounds* interleaved rounds; returns per-configuration timing
    summaries and the last result of each configuration."""
    samples = {workers: [] for workers in WORKERS}
    results = {}
    for r in range(rounds):
        order = WORKERS[r % len(WORKERS):] + WORKERS[:r % len(WORKERS)]
        for workers in order:
            t0 = time.perf_counter()
            results[workers] = run_once(workers)
            samples[workers].append(time.perf_counter() - t0)
    summary = {}
    for workers, values in samples.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        summary[label(workers)] = {
            "workers": workers,
            "samples_s": [float(v) for v in values],
            "median_s": float(median),
            "iqr_s": float(q3 - q1),
        }
    return summary, results


def print_timings(title: str, subtitle: str, summary: dict) -> None:
    serial = summary["serial"]["median_s"]
    rows = [
        (name, f"{t['median_s']:.3f}", f"{t['iqr_s']:.3f}",
         f"{serial / t['median_s']:.2f}x")
        for name, t in summary.items()
    ]
    print(f"\n=== {title} ===")
    print(render_table(
        ["config", "median s", "IQR s", "vs serial"], rows,
        title=f"{subtitle}, {ROUNDS} interleaved rounds",
    ))


def make_trace(n_tasks: int, seed: int = 17):
    net = build_three_tier_network(10.0, (1, 2, 4))
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=0.1).observe(sim.events, random_state=seed)
    return trace, sim.true_rates()


def sweep_rate(trace, rates, n_sweeps=8, **kwargs):
    sampler = GibbsSampler(
        trace, heuristic_initialize(trace, rates), rates, random_state=3, **kwargs
    )
    sampler.sweep()  # warm-up
    t0 = time.perf_counter()
    sampler.run(n_sweeps)
    elapsed = (time.perf_counter() - t0) / n_sweeps
    return elapsed, sampler.n_latent


def test_blanket_cache_speedup(benchmark):
    """Cached sweeps must never be slower than the reference sweep."""
    n_tasks = 2000 if full_scale() else 500
    trace, rates = make_trace(n_tasks)

    def run():
        return {
            "uncached": sweep_rate(
                trace, rates, cache_blankets=False, kernel="object"
            ),
            "cached": sweep_rate(
                trace, rates, cache_blankets=True, kernel="object"
            ),
            "cached+batch": sweep_rate(
                trace, rates, batch_draws=True, kernel="object"
            ),
            "array": sweep_rate(trace, rates, kernel="array"),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    base = results["uncached"][0]
    rows = [
        (label, latent, f"{sec * 1e3:.1f}", f"{sec / latent * 1e6:.1f}",
         f"{base / sec:.2f}x")
        for label, (sec, latent) in results.items()
    ]
    print("\n=== Sweep throughput: blanket cache + batched draws ===")
    print(render_table(
        ["sweep", "latent vars", "ms / sweep", "us / latent", "speedup"],
        rows, title="static blankets precomputed once vs re-derived per move",
    ))
    # Generous bound: the point is catching a real regression (cached
    # sweeps ~1.3-1.8x faster locally), not failing CI on a noisy runner.
    assert results["cached"][0] < base * 1.5
    assert results["cached+batch"][0] < base * 1.5
    # The vectorized kernel must beat every object-path variant outright.
    assert results["array"][0] < base


def test_chain_worker_scaling(benchmark):
    """Posterior chains' process pool: wall clock serial and at 1 and 2
    workers, plus bitwise worker invariance."""
    n_tasks = 800 if full_scale() else 200
    trace, rates = make_trace(n_tasks)
    n_samples = 10 if full_scale() else 5
    n_chains = 4

    def run_once(workers):
        return MultiChainSampler(
            trace, rates, n_chains=n_chains, random_state=29
        ).collect(n_samples=n_samples, burn_in=2, workers=workers)

    summary, posts = benchmark.pedantic(
        lambda: interleaved(run_once), rounds=1, iterations=1
    )
    print_timings(
        "Posterior chains: process pool vs serial",
        f"{trace.n_latent} latent vars, {n_chains} chains x "
        f"{n_samples + 2} sweeps",
        summary,
    )
    # Determinism across worker counts: every configuration drew identically.
    reference = posts[None]
    bitwise = all(
        np.array_equal(a.mean_waiting, b.mean_waiting)
        and np.array_equal(a.log_joint, b.log_joint)
        for post in posts.values()
        for a, b in zip(reference.chains, post.chains)
    )
    merge_result(RESULT_PATH, "posterior_chains", {
        "n_latent": int(trace.n_latent),
        "n_chains": n_chains,
        "n_samples": n_samples,
        "rounds": ROUNDS,
        "configs": summary,
        "workers_bitwise_equal": bitwise,
    })
    assert bitwise
    if full_scale():
        assert summary["workers_2"]["median_s"] < summary["serial"]["median_s"]


def test_persistent_stem_worker_scaling(benchmark):
    """Persistent-pool StEM E-steps: wall clock serial and at 1 and 2
    workers, plus the bitwise serial-equivalence check.

    Chains stay resident in their workers across EM iterations; only rate
    vectors and per-queue sufficient statistics cross the process
    boundary each round.
    """
    from repro.inference import run_stem

    n_tasks = 600 if full_scale() else 150
    trace, _ = make_trace(n_tasks)
    n_chains = 4
    n_iterations = 30 if full_scale() else 12

    def run_once(workers):
        return run_stem(
            trace, n_iterations=n_iterations, random_state=23,
            init_method="heuristic", n_chains=n_chains,
            persistent_workers=workers,
        )

    summary, results = benchmark.pedantic(
        lambda: interleaved(run_once), rounds=1, iterations=1
    )
    print_timings(
        "Persistent-pool StEM: E-step pool vs serial",
        f"{trace.n_latent} latent vars, {n_chains} chains x "
        f"{n_iterations} iterations",
        summary,
    )
    reference = results[None]
    bitwise = all(
        np.array_equal(reference.rates_history, result.rates_history)
        for result in results.values()
    )
    merge_result(RESULT_PATH, "persistent_stem", {
        "n_latent": int(trace.n_latent),
        "n_chains": n_chains,
        "n_iterations": n_iterations,
        "rounds": ROUNDS,
        "configs": summary,
        "workers_bitwise_equal": bitwise,
    })
    assert bitwise
    if full_scale():
        assert summary["workers_2"]["median_s"] < summary["serial"]["median_s"]
