"""Figure 5: per-queue estimates vs observation rate on the web application.

Left panel: estimated mean service time per queue; right panel: estimated
mean waiting time — both as the observed request fraction sweeps up to
50 %.  The paper's findings to reproduce:

* estimates at 50 % are essentially the 100 % estimates (convergence);
* estimates stay stable down to ~10 % observed;
* the one web server that received only ~19 requests is visibly unstable.

``REPRO_FULL=1`` runs the paper's 5 759-request / 23 036-event trace.
"""

import numpy as np

from benchmarks.conftest import full_scale
from repro.experiments import (
    paper_fig5_config,
    quick_fig5_config,
    render_table,
    run_fig5,
)
from repro.viz import series_panel


def test_fig5_webapp_estimates(benchmark, scale_label):
    config = paper_fig5_config() if full_scale() else quick_fig5_config()

    result = benchmark.pedantic(
        run_fig5, args=(config,), kwargs={"random_state": 2008},
        rounds=1, iterations=1,
    )

    n_queues = len(result.queue_names)
    for panel in ("service", "waiting"):
        print(render_table(
            *result.table(panel),
            title=f"\n=== Figure 5 {panel} estimates ({scale_label}) ===",
        ))

    starved = result.starved_queue()
    print(f"\nstarved server: {result.queue_names[starved]} "
          f"({int(result.requests_per_queue[starved])} events; paper saw 19 requests)")

    series = {
        result.queue_names[q]: [result.service[f][q] for f in result.fractions]
        for q in range(1, n_queues)
    }
    print("\n" + series_panel(
        series,
        x_labels=[f"{f:.0%}" for f in result.fractions],
        title="service estimates vs observed fraction (Figure 5 left):",
    ))

    # Reproduction targets.
    # 1. Well-fed queues are stable for fractions >= 10% (spread small
    #    relative to the truth).
    fractions = [f for f in result.fractions if f >= 0.10]
    assert len(fractions) >= 2
    stable_spreads = []
    for q in range(1, n_queues):
        if q == starved:
            continue
        spread = result.stability_spread(q, min_fraction=0.10)
        stable_spreads.append(spread / max(result.true_service[q], 1e-9))
    assert np.median(stable_spreads) < 0.8, stable_spreads
    # 2. At the largest fraction, estimates track the truth.
    top = max(result.fractions)
    rel_err = []
    for q in range(1, n_queues):
        if q == starved:
            continue
        rel_err.append(
            abs(result.service[top][q] - result.true_service[q])
            / max(result.true_service[q], 1e-9)
        )
    assert np.median(rel_err) < 0.35, rel_err
