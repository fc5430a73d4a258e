"""Tests for the unified telemetry subsystem.

Covers the metric primitives and registry semantics, the per-window
pipeline traces, the Prometheus/JSON renderers and the router's
label/merge helpers, the disabled no-op path, the console renderer, the
sparkline primitives — and the two registry contracts: every metric
name emitted anywhere in ``src/repro`` must appear in the documented
spec table (and vice versa), and the README reference table must match
the spec row for row.
"""

import json
import math
import re
from pathlib import Path

import pytest

from repro import telemetry
from repro.telemetry import (
    MetricsRegistry,
    SPEC,
    TelemetryError,
    label_metrics,
    merge_reports,
    render_json,
    render_prometheus,
)
from repro.telemetry.console import render_top
from repro.viz.sparkline import bar_row, hbar, liveness_dots, resample, spark

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def reg():
    with telemetry.isolated(enabled=True) as registry:
        yield registry


class TestCounter:
    def test_inc_accumulates(self, reg):
        c = reg.counter("repro_stream_records_admitted_total")
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_negative_rejected(self, reg):
        c = reg.counter("repro_stream_records_admitted_total")
        with pytest.raises(TelemetryError):
            c.inc(-1)

    def test_same_series_shared(self, reg):
        a = reg.counter("repro_stream_records_admitted_total")
        b = reg.counter("repro_stream_records_admitted_total")
        assert a is b

    def test_kind_conflict_rejected(self, reg):
        reg.counter("repro_stream_records_admitted_total")
        with pytest.raises(TelemetryError):
            reg.gauge("repro_stream_records_admitted_total")

    def test_spec_kind_enforced(self, reg):
        # repro_stream_watermark is documented as a gauge.
        with pytest.raises(TelemetryError):
            reg.counter("repro_stream_watermark")


class TestGauge:
    def test_set_and_inc(self, reg):
        g = reg.gauge("repro_stream_watermark")
        g.set(3.5)
        g.inc(0.5)
        assert g.value == 4.0

    def test_callback_evaluated_at_read(self, reg):
        state = {"v": 1.0}
        reg.callback("repro_stream_horizon", lambda: state["v"])
        state["v"] = 7.0
        (entry,) = reg.snapshot()
        assert entry["value"] == 7.0

    def test_callback_exception_reads_nan(self, reg):
        def boom():
            raise RuntimeError("dead")

        reg.callback("repro_stream_horizon", boom)
        (entry,) = reg.snapshot()
        assert math.isnan(entry["value"])


class TestOwnedCounts:
    class Owner:
        def __init__(self, n):
            self.n_admitted = n
            self.n_pending = 2 * n

    COUNTS = telemetry.Counts(
        n_admitted="repro_stream_records_admitted_total", n_pending=None,
    )

    def test_bound_series_keep_their_documented_kind(self, reg):
        owner = self.Owner(3)
        self.COUNTS.bind(owner)
        (entry,) = reg.snapshot()
        assert entry["type"] == "counter" and entry["value"] == 3.0
        owner.n_admitted = 5  # read at snapshot time, never copied
        assert reg.snapshot()[0]["value"] == 5.0
        assert "repro_stream_records_admitted_total 5" in render_prometheus(
            reg.snapshot()
        )

    def test_newest_owner_wins_and_a_dead_owner_reads_nan(self, reg):
        old, new = self.Owner(1), self.Owner(7)
        self.COUNTS.bind(old)
        self.COUNTS.bind(new)
        assert reg.snapshot()[0]["value"] == 7.0
        del new
        assert math.isnan(reg.snapshot()[0]["value"])

    def test_read_and_total_cover_every_row(self):
        sections = [self.COUNTS.read(self.Owner(n)) for n in (1, 4)]
        assert sections == [
            {"n_admitted": 1, "n_pending": 2},
            {"n_admitted": 4, "n_pending": 8},
        ]
        assert self.COUNTS.total([*sections, None]) == {
            "n_admitted": 5, "n_pending": 10,
        }


class TestHistogram:
    def test_bucket_counts_le_inclusive(self, reg):
        h = reg.histogram("repro_kernel_batch_size")  # buckets from spec
        for v in (1, 2, 2, 3, 10_000_000):
            h.observe(v)
        data = h.snapshot_data()
        counts = {le: c for le, c in data["buckets"]}
        assert counts[1.0] == 1
        assert counts[2.0] == 2  # le-inclusive, non-cumulative
        assert counts[math.inf] == 1  # overflow slot
        assert data["count"] == 5
        assert data["min"] == 1.0 and data["max"] == 10_000_000.0

    def test_quantiles_from_reservoir(self, reg):
        h = reg.histogram("repro_service_publish_seconds")
        for v in range(1, 101):
            h.observe(float(v))
        q = h.quantiles()
        assert 40 <= q["p50"] <= 60
        assert q["p99"] >= q["p90"] >= q["p50"]

    def test_empty_quantiles_none(self, reg):
        h = reg.histogram("repro_service_publish_seconds")
        assert h.quantiles() == {"p50": None, "p90": None, "p99": None}

    def test_reservoir_deterministic_per_series(self):
        def fill():
            r = MetricsRegistry(enabled=True)
            h = r.histogram("repro_service_publish_seconds")
            for v in range(10_000):
                h.observe(float(v))
            return h.quantiles()

        assert fill() == fill()


class TestPhasesAndTraces:
    def test_phase_observes_histogram(self, reg):
        with telemetry.phase("sweeps"):
            pass
        (entry,) = [
            e for e in reg.snapshot()
            if e["name"] == "repro_window_phase_seconds"
        ]
        assert entry["labels"] == {"phase": "sweeps"}
        assert entry["count"] == 1

    def test_window_trace_collects_phases(self, reg):
        with telemetry.window_trace(3, 10.0, 20.0):
            with telemetry.phase("poll"):
                pass
            with telemetry.phase("sweeps"):
                pass
            with telemetry.phase("sweeps"):
                pass
        (trace,) = reg.window_traces()
        assert trace["index"] == 3
        assert trace["t0"] == 10.0 and trace["t1"] == 20.0
        assert trace["phases"]["sweeps"]["count"] == 2
        assert trace["phases"]["poll"]["count"] == 1
        assert trace["duration_seconds"] >= 0.0

    def test_trace_ring_bounded(self, reg):
        small = MetricsRegistry(enabled=True, trace_ring=4)
        telemetry.set_registry(small)
        for i in range(10):
            with telemetry.window_trace(i, 0.0, 1.0):
                pass
        traces = small.window_traces()
        assert [t["index"] for t in traces] == [6, 7, 8, 9]

    def test_phase_outside_trace_is_fine(self, reg):
        with telemetry.phase("publish"):
            pass
        assert reg.window_traces() == []


class TestDisabled:
    def test_no_series_recorded(self):
        with telemetry.isolated(enabled=False):
            telemetry.counter("repro_stream_records_admitted_total").inc()
            with telemetry.phase("sweeps"):
                pass
            with telemetry.window_trace(0, 0.0, 1.0):
                pass
            report = telemetry.report()
        assert report["metrics"] == []
        assert report["window_traces"] == []
        assert telemetry.enabled()  # restored

    def test_env_knob_parsed(self, monkeypatch):
        from repro.telemetry import _env_enabled

        for value in ("0", "false", "off", "no"):
            monkeypatch.setenv("REPRO_TELEMETRY", value)
            assert _env_enabled() is False
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert _env_enabled() is True


class TestRenderers:
    def _report(self, reg):
        reg.counter("repro_stream_records_admitted_total").inc(7)
        reg.gauge("repro_stream_watermark").set(float("inf"))
        h = reg.histogram("repro_window_phase_seconds", phase="sweeps")
        h.observe(0.01)
        h.observe(0.5)
        return reg.report()

    def test_prometheus_text(self, reg):
        text = render_prometheus(self._report(reg)["metrics"])
        assert "# TYPE repro_stream_records_admitted_total counter" in text
        assert "repro_stream_records_admitted_total 7" in text
        assert "repro_stream_watermark +Inf" in text
        assert re.search(
            r'repro_window_phase_seconds_bucket{le="\+Inf",phase="sweeps"} 2',
            text,
        )
        assert 'repro_window_phase_seconds_count{phase="sweeps"} 2' in text

    def test_prometheus_buckets_cumulative(self, reg):
        text = render_prometheus(self._report(reg)["metrics"])
        les, counts = [], []
        for m in re.finditer(
            r'_bucket{le="([^"]+)",phase="sweeps"} (\d+)', text
        ):
            les.append(m.group(1))
            counts.append(int(m.group(2)))
        assert counts == sorted(counts)  # cumulative
        assert les[-1] == "+Inf" and counts[-1] == 2

    def test_json_round_trips_nonfinite(self, reg):
        text = render_json(self._report(reg))
        parsed = json.loads(text)  # strict: +Inf must be encoded as string
        gauge = next(
            m for m in parsed["metrics"]
            if m["name"] == "repro_stream_watermark"
        )
        assert gauge["value"] == "+Inf"

    def test_label_and_merge(self, reg):
        report = self._report(reg)
        tagged = label_metrics(report["metrics"], partition="2")
        assert all(m["labels"]["partition"] == "2" for m in tagged)
        merged = merge_reports(
            [report, {"schema": 1, "metrics": tagged, "window_traces": []}]
        )
        assert merged["schema"] == 1
        assert len(merged["metrics"]) == 2 * len(report["metrics"])


class TestConsole:
    def _inputs(self, reg):
        with telemetry.window_trace(0, 0.0, 10.0):
            with telemetry.phase("sweeps"):
                pass
        health = {
            "schema": 1,
            "service": {"status": "serving", "windows_published": 2,
                        "anomalies": 1, "horizon": 20.0,
                        "n_records_seen": 100},
            "stream": {"watermark": 10.0, "sealed": False},
            "router": {"n_restarts": 1},
            "partitions": [{"status": "serving"}] * 3
            + [{"status": "unreachable"}],
        }
        estimates = [
            {"index": 0, "rates": [2.0, 5.0, 8.0], "failure": None},
            {"index": 1, "rates": [2.2, 5.5, 8.1], "failure": None},
        ]
        anomalies = [{"queue": 2, "window_index": 1, "z_score": 5.0}]
        return health, estimates, reg.report(), anomalies

    def test_frame_contents(self, reg):
        health, estimates, report, anomalies = self._inputs(reg)
        frame = render_top(health, estimates, report, anomalies)
        assert "SERVING" in frame
        assert "●●●○" in frame  # 3/4 partitions up
        assert "arrival λ" in frame and "queue 2 µ" in frame
        assert "util ρ" in frame
        assert "⚠1" in frame  # anomaly flag on queue 2
        assert "sweeps" in frame  # phase latency bar
        assert all(len(line) <= 80 for line in frame.splitlines())

    def test_empty_inputs_render(self, reg):
        frame = render_top({}, [], {}, None)
        assert "no published windows" in frame

    def test_ingest_counts_come_from_health(self, reg):
        """With the metrics export off (REPRO_TELEMETRY=0) the snapshot is
        empty, but health still carries the admission counts."""
        health, estimates, _, anomalies = self._inputs(reg)
        health["stream"].update(n_admitted=120, n_duplicates=3, n_late=2,
                                n_stragglers=1, n_dropped_tasks=4)
        empty = {"schema": 1, "metrics": [], "window_traces": []}
        frame = render_top(health, estimates, empty, anomalies)
        assert ("ingest  admitted 120  dup 3  late 2  straggler 1  dropped 4"
                in frame)


class TestSparklinePrimitives:
    def test_resample_preserves_short_series(self):
        assert resample([1.0, 2.0], 8) == [1.0, 2.0]

    def test_resample_bucket_means(self):
        out = resample([0.0, 2.0, 4.0, 6.0], 2)
        assert out == [1.0, 5.0]

    def test_spark_width_bounded(self):
        assert len(spark(list(range(500)), width=32)) == 32

    def test_hbar_full_and_empty(self):
        assert hbar(1.0, 4) == "████"
        assert hbar(0.0, 4) == "    "
        assert len(hbar(0.37, 20)) == 20

    def test_hbar_partial_blocks(self):
        assert hbar(0.5, 1) in "▌▍▋"

    def test_bar_row_shape(self):
        row = bar_row("sweeps", 0.5, 1.0, width=8, label_width=8)
        assert row.startswith("sweeps")
        assert "|" in row

    def test_liveness_dots(self):
        assert liveness_dots(2, 3) == "●●○"
        assert liveness_dots(5, 3) == "●●●"


def _emitted_names() -> set:
    """Every ``repro_*`` metric name literal in the source tree."""
    names = set()
    pattern = re.compile(r'"(repro_[a-z0-9_]+)"')
    for path in (REPO / "src" / "repro").rglob("*.py"):
        if "telemetry" in path.parts and path.name == "spec.py":
            continue  # the table itself
        for name in pattern.findall(path.read_text(encoding="utf-8")):
            names.add(name)
    return names


class TestSpecCoverage:
    def test_every_emitted_name_documented(self):
        undocumented = _emitted_names() - set(SPEC)
        assert not undocumented, (
            f"metric names emitted but missing from telemetry.spec.SPEC "
            f"(document them): {sorted(undocumented)}"
        )

    def test_every_documented_name_emitted(self):
        stale = set(SPEC) - _emitted_names()
        assert not stale, (
            f"telemetry.spec.SPEC documents names no code emits "
            f"(stale rows): {sorted(stale)}"
        )

    def test_readme_table_matches_spec(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        rows = re.findall(
            r"^\| `(repro_[a-z0-9_]+)` \| (\w+) \| (\w+) \|", readme,
            flags=re.MULTILINE,
        )
        table = {name: (kind, layer) for name, kind, layer in rows}
        assert set(table) == set(SPEC), (
            "README metrics reference out of sync with telemetry.spec.SPEC: "
            f"missing={sorted(set(SPEC) - set(table))} "
            f"stale={sorted(set(table) - set(SPEC))}"
        )
        for name, (kind, layer) in table.items():
            assert (kind, layer) == (SPEC[name][0], SPEC[name][1]), (
                f"README row for {name} disagrees with spec"
            )
        # Exactly once each: a duplicated row is as stale as a missing one.
        assert len(rows) == len(SPEC)
