"""Pure renderer behind ``repro top`` — the live ops console.

``render_top`` turns one polling round's replies (``health``,
``estimates``, a ``metrics`` snapshot, and optionally ``anomalies``)
into a fixed-width terminal frame: tier status and partition liveness,
per-queue rate and utilization sparklines with anomaly flags,
phase-latency bars, and the stream's admission counters.  It touches no
sockets and no global state, so tests drive it with plain dicts.
"""

from __future__ import annotations

import math

from repro.viz.sparkline import bar_row, hbar, liveness_dots, spark

__all__ = ["render_top"]

#: Pipeline order for the phase-latency panel (unknown phases follow).
_PHASE_ORDER = (
    "poll", "subset", "burn-in", "sweeps", "m-step", "reweight",
    "publish", "checkpoint",
)


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    value = float(value)
    if math.isnan(value):
        return "-"
    if math.isinf(value):
        return "∞" if value > 0 else "-∞"
    return f"{value:.{digits}g}"


def _fmt_seconds(value) -> str:
    if value is None or not math.isfinite(float(value)):
        return "    -"
    value = float(value)
    if value < 1e-3:
        return f"{value * 1e6:6.1f}µs"
    if value < 1.0:
        return f"{value * 1e3:6.1f}ms"
    return f"{value:6.2f}s "


def _phase_means(metrics: list[dict]) -> list[tuple[str, float, int]]:
    """Aggregate ``repro_window_phase_seconds`` across label sets (the
    router's partition provenance) into per-phase (mean, count)."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for entry in metrics:
        if entry.get("name") != "repro_window_phase_seconds":
            continue
        phase = (entry.get("labels") or {}).get("phase", "?")
        sums[phase] = sums.get(phase, 0.0) + float(entry.get("sum") or 0.0)
        counts[phase] = counts.get(phase, 0) + int(entry.get("count") or 0)
    out = []
    for phase in sorted(sums, key=lambda p: (
        _PHASE_ORDER.index(p) if p in _PHASE_ORDER else len(_PHASE_ORDER), p
    )):
        n = counts[phase]
        out.append((phase, sums[phase] / n if n else float("nan"), n))
    return out


def _metric_total(metrics: list[dict], name: str) -> float | None:
    """Sum a counter/gauge across its label sets; None when absent."""
    found = False
    total = 0.0
    for entry in metrics:
        if entry.get("name") == name and "value" in entry:
            found = True
            value = float(entry["value"])
            if math.isfinite(value):
                total += value
    return total if found else None


def _quantiles(metrics: list[dict], name: str) -> dict:
    """Pooled quantile estimate across label sets (count-weighted p50 is
    not recoverable from per-partition digests; the max over partitions
    is the honest upper summary for an ops console)."""
    out: dict = {}
    for entry in metrics:
        if entry.get("name") != name or "quantiles" not in entry:
            continue
        for key, value in (entry.get("quantiles") or {}).items():
            if value is None:
                continue
            value = float(value)
            if key not in out or value > out[key]:
                out[key] = value
    return out


def render_top(
    health: dict,
    estimates: list[dict],
    report: dict,
    anomalies: list[dict] | None = None,
    width: int = 80,
) -> str:
    """Render one console frame; every input is the matching wire reply.

    ``health`` is a schema-1 record from either a single service or a
    router tier (flat compatibility keys are not consulted);
    ``estimates`` the window-estimate records; ``report`` a metrics
    *snapshot* report; ``anomalies`` the flagged (window, queue) reports.
    """
    metrics = list((report or {}).get("metrics") or [])
    service = (health or {}).get("service") or {}
    stream = (health or {}).get("stream") or {}
    anomalies = list(anomalies or [])
    lines: list[str] = []
    rule = "─" * min(width, 80)

    # -- header: tier vitals -------------------------------------------
    status = str(service.get("status", "?"))
    lines.append(
        f"repro top — {status.upper():<9} "
        f"windows {service.get('windows_published', 0):<5} "
        f"anomalies {service.get('anomalies', 0):<4} "
        f"records {service.get('n_records_seen', 0)}"
    )
    lines.append(
        f"watermark {_fmt(stream.get('watermark'))} / "
        f"horizon {_fmt(service.get('horizon'))}"
        + ("   [sealed]" if stream.get("sealed") else "")
        + (f"   error: {service['error']}" if service.get("error") else "")
    )

    # -- partitions -----------------------------------------------------
    router = (health or {}).get("router")
    if isinstance(router, dict):
        partitions = (health or {}).get("partitions") or []
        up = sum(
            1 for p in partitions
            if p.get("status") not in ("unreachable", "failed")
        )
        lines.append(
            f"partitions {liveness_dots(up, len(partitions))} "
            f"{up}/{len(partitions)} up   restarts {router.get('n_restarts', 0)}"
            f"   parked {router.get('n_parked', 0)}"
            f"   spooled {router.get('spool_records', 0)}"
        )
    lines.append(rule)

    # -- per-queue rate estimates + utilization ------------------------
    rate_rows = [e.get("rates") for e in estimates]
    done = [r for r in rate_rows if r]
    flagged: dict[int, int] = {}
    for a in anomalies:
        q = int(a.get("queue", -1))
        flagged[q] = flagged.get(q, 0) + 1
    if done:
        n_rates = len(done[0])
        lam = [float(r[0]) if r else float("nan") for r in rate_rows]
        lines.append(
            f"{'arrival λ':<12} {_fmt(done[-1][0]):>8} "
            f"{spark(lam, width=32)}"
        )
        for q in range(1, n_rates):
            mu = [float(r[q]) if r else float("nan") for r in rate_rows]
            util = [
                l / m if math.isfinite(l) and math.isfinite(m) and m > 0
                else float("nan")
                for l, m in zip(lam, mu)
            ]
            last_util = next(
                (u for u in reversed(util) if math.isfinite(u)), float("nan")
            )
            flag = f"  ⚠{flagged[q]}" if flagged.get(q) else ""
            lines.append(
                f"{f'queue {q} µ':<12} {_fmt(done[-1][q]):>8} "
                f"{spark(mu, width=32)}{flag}"
            )
            lines.append(
                f"{'  util ρ':<12} {_fmt(last_util, 3):>8} "
                f"|{hbar(last_util, 20)}| {spark(util, width=18)}"
            )
    else:
        lines.append("no published windows yet")
    lines.append(rule)

    # -- phase latency bars --------------------------------------------
    phases = _phase_means(metrics)
    if phases:
        scale = max((m for _, m, _ in phases if math.isfinite(m)),
                    default=0.0)
        lines.append("phase latency (mean)")
        for phase, mean, count in phases:
            lines.append(
                bar_row(phase, mean, scale, width=24, label_width=11,
                        value_format="{:>9.4g}")
                + f" ×{count}"
            )
        pub = _quantiles(metrics, "repro_service_publish_seconds")
        if pub:
            lines.append(
                "publish latency  "
                + "  ".join(
                    f"{k} {_fmt_seconds(pub[k]).strip()}"
                    for k in ("p50", "p90", "p99") if k in pub
                )
            )
        lines.append(rule)

    # -- stream / kernel counters --------------------------------------
    def _count(name: str) -> str:
        value = _metric_total(metrics, name)
        return "-" if value is None else str(int(value))

    # Admission counts come from health, which reports them even with
    # the metrics export turned off (REPRO_TELEMETRY=0).
    lines.append("ingest  " + "  ".join(
        f"{label} {stream.get(key, '-')}" for label, key in (
            ("admitted", "n_admitted"), ("dup", "n_duplicates"),
            ("late", "n_late"), ("straggler", "n_stragglers"),
            ("dropped", "n_dropped_tasks"),
        )
    ))
    lines.append(
        "kernel  sweeps "
        + _count("repro_kernel_sweeps_total")
        + "  moves " + _count("repro_kernel_moves_total")
        + "  windows ok/skip/fail "
        + _count("repro_windows_processed_total")
        + "/" + _count("repro_windows_skipped_total")
        + "/" + _count("repro_windows_failed_total")
    )
    return "\n".join(line[:width] for line in lines)
