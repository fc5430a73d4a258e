"""Repo benchmark: one command, two workloads, every metric by name.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-webapp --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs the workload with no wrappers and reports the
end-to-end metrics; ``--trace 1`` runs it untraced and then traced, and
reports the per-layer metrics (including tracing overhead, the
difference between the two).  Human-readable lines come first; the last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The full result — provenance, sample counts, pacing,
checks, breakdowns — is written to ``.perfbench_out/``.  Any failed
output check makes ``correct`` false.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BenchError, provenance, use_checkout_sources, write_json,
)

WORKLOADS = ("serve-webapp", "ingest-routed")

#: ``(name, unit, better, bound, (e2e key, field))`` of every end-to-end
#: metric; ``field`` is ``None`` for a single number.  Every timing shares
#: the widest bound: on a shared 2-CPU host, CPU-bound figures drift with
#: the host's speed (see ``cpu_calibration_ms`` in the provenance).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, ("setup_s", "p50")),
    ("records_per_s", "records/s", "higher", 0.25, ("records_per_s", None)),
    ("ingest_p50_ms", "ms", "lower", 0.25, ("ingest_ms", "p50")),
    ("ingest_tail_ms", "ms", "lower", 0.25, ("ingest_ms", "tail")),
    ("publish_lag_p50_s", "s", "lower", 0.25, ("publish_lag_s", "p50")),
    ("publish_lag_tail_s", "s", "lower", 0.25, ("publish_lag_s", "tail")),
    ("query_p50_ms", "ms", "lower", 0.25, ("query_ms", "p50")),
    ("query_tail_ms", "ms", "lower", 0.25, ("query_ms", "tail")),
    ("peak_rss_mb", "MB", "lower", 0.1, ("peak_rss_mb", None)),
)

#: ``(name, unit, better)`` of every per-layer metric, in layer order.
#: Counts of work done are "higher"; times, sizes and failures "lower".
PER_LAYER = (
    ("server.ingest_rtt_p50_ms", "ms", "lower"),
    ("server.watermark_rtt_p50_ms", "ms", "lower"),
    ("server.query_rtt_p50_ms", "ms", "lower"),
    ("server.wire_overhead_p50_ms", "ms", "lower"),
    ("server.frame_bytes_per_record", "bytes/record", "lower"),
    ("server.requests", "count", "higher"),
    ("server.requests_failed", "count", "lower"),
    ("router.ingest_p50_ms", "ms", "lower"),
    ("router.forward_p50_ms", "ms", "lower"),
    ("router.forwards_per_batch", "calls/batch", "lower"),
    ("router.route_self_p50_ms", "ms", "lower"),
    ("router.records_routed", "count", "higher"),
    ("router.restarts", "count", "lower"),
    ("router.spool_records_end", "count", "lower"),
    ("service.ingest_p50_ms", "ms", "lower"),
    ("service.window_p50_ms", "ms", "lower"),
    ("service.window_tail_ms", "ms", "lower"),
    ("service.pickup_wait_p50_ms", "ms", "lower"),
    ("service.visible_wait_p50_ms", "ms", "lower"),
    ("service.query_p50_ms", "ms", "lower"),
    ("service.checkpoint_capture_p50_ms", "ms", "lower"),
    ("service.checkpoint_bytes", "bytes", "lower"),
    ("service.windows_published", "count", "higher"),
    ("service.windows_ok", "count", "higher"),
    ("service.windows_skipped", "count", "lower"),
    ("service.windows_failed", "count", "lower"),
    ("stream.ingest_us_per_record", "us/record", "lower"),
    ("stream.watermark_p50_ms", "ms", "lower"),
    ("stream.poll_p50_ms", "ms", "lower"),
    ("stream.subset_p50_ms", "ms", "lower"),
    ("stream.compact_p50_ms", "ms", "lower"),
    ("stream.assemble_p50_ms", "ms", "lower"),
    ("stream.retained_tasks_end", "count", "lower"),
    ("stream.compacted_tasks_end", "count", "higher"),
    ("stream.snapshot_bytes_end", "bytes", "lower"),
    ("stream.admitted", "count", "higher"),
    ("stream.duplicates", "count", "lower"),
    ("stream.late", "count", "lower"),
    ("stream.stragglers", "count", "lower"),
    ("estimator.bookkeeping_p50_ms", "ms", "lower"),
    ("estimator.window_tasks_p50", "tasks", "higher"),
    ("estimator.new_tasks_p50", "tasks", "higher"),
    ("inference.run_stem_p50_ms", "ms", "lower"),
    ("inference.rates_init_p50_ms", "ms", "lower"),
    ("inference.init_p50_ms", "ms", "lower"),
    ("inference.kernel_build_p50_ms", "ms", "lower"),
    ("inference.sweep_p50_ms", "ms", "lower"),
    ("inference.mstep_p50_ms", "ms", "lower"),
    ("inference.setup_over_sweeps", "ratio", "lower"),
    ("inference.latent_moves_per_window", "moves", "higher"),
    ("generator.late_tail_ms", "ms", "lower"),
    ("generator.records_sent", "count", "higher"),
    ("process.cpu_s", "s", "lower"),
    ("process.cpu_util", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("tracing.overhead_frac", "ratio", "lower"),
    ("tracing.window_remainder_ms", "ms", "lower"),
    ("tracing.ingest_remainder_ms", "ms", "lower"),
)


def _module(workload: str):
    import ingest_routed
    import serve_webapp

    return {m.NAME: m for m in (serve_webapp, ingest_routed)}[workload]


def end_to_end(result: dict) -> dict:
    out = {}
    for name, unit, _, _, (key, field) in END_TO_END:
        value = result["e2e"][key]
        out[name] = {"value": value if field is None else value[field],
                     "unit": unit}
    return out


def samples(result: dict) -> dict:
    """Sample count (and the tail percentile used) behind each metric."""
    return {k: {f: v[f] for f in ("n", "tail_p", "n_beyond", "tail_fallback")
                if f in v}
            for k, v in result["e2e"].items() if isinstance(v, dict)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import wire

    module = _module(workload)
    plain_dir = wire.run_dir(workload, seed, False)
    plain = module.run(seed, seconds, plain_dir, traced=False)
    runs = [plain]
    if not trace:
        metrics = end_to_end(plain)
        details = None
    else:
        import layers
        import spans

        traced_dir = wire.run_dir(workload, seed, True)
        traced = module.run(seed, seconds, traced_dir, traced=True)
        runs.append(traced)
        if traced["client_spans"]:
            write_json(os.path.join(traced["spans_dir"], "client-spans.json"),
                       traced["client_spans"])
        if traced.get("metrics_report") is not None:
            write_json(os.path.join(traced["spans_dir"],
                                    "metrics-snapshot.json"),
                       traced.pop("metrics_report"))
        computed = layers.layer_metrics(
            traced, spans.load_spans(traced["spans_dir"]), plain)
        per_layer = computed["metrics"]
        per_layer["failed_frac"] = (
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        )
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        details = computed["details"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    checks = {f"{'traced' if i else 'plain'}.{k}": v
              for i, r in enumerate(runs) for k, v in r["checks"].items()}
    record = {
        "provenance": provenance(seed, workload, trace),
        "seconds": seconds,
        "config": plain["config"],
        "schedule": plain["schedule"],
        "samples": [samples(r) for r in runs],
        "e2e_plain": end_to_end(plain),
        "checks": checks,
        "metrics": metrics,
        "details": details,
        "attempted": attempted,
        "failed": failed,
    }
    write_json(os.path.join(
        plain_dir, f"result-trace{int(trace)}.json"), record)
    for r in runs:
        r.pop("metrics_report", None)
    return {"correct": all(checks.values()), "attempted": attempted,
            "failed": failed, "metrics": metrics, "record": record}


def _report(out: dict) -> None:
    record = out["record"]
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("pacing " + json.dumps({"config": record["config"],
                                  "schedule": record["schedule"]},
                                 sort_keys=True, default=str))
    print("samples " + json.dumps(record["samples"], sort_keys=True))
    print(f"failed_frac {out['failed']}/{out['attempted']}")
    for name, check in sorted(record["checks"].items()):
        print(f"check {name}: {'ok' if check else 'FAILED'}")
    for name, m in out["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        use_checkout_sources()
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 — no result line, non-zero exit
        traceback.print_exc()
        return 1
    _report(out)
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed",
                                           "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
