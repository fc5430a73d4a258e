"""Self-tests of the benchmark (not of the program).

Run from the checkout root::

    python3 -m pytest perfbench/tests/selftest.py -q

The file name keeps these out of the repository's default test
collection: the smoke runs start real servers and take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import common  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402

common.use_checkout_sources()


# ----------------------------------------------------------------------
# The ``_tail`` percentile rule.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (5000, 99.0),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert common.tail_percentile(n) == expected
    if expected is not None:
        assert common.samples_beyond(n, expected) >= common.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 41))  # 1..40
    assert common.percentile(values, 50.0) == 20
    assert common.percentile(values, 75.0) == 30
    assert common.samples_beyond(40, 75.0) == 10


def test_summarize_keeps_the_fixed_tail_and_falls_back_when_short():
    fixed = common.summarize(range(100), tail_p=75.0)
    assert fixed["tail_p"] == 75.0 and "tail_fallback" not in fixed
    assert fixed["tail"] == 74 and fixed["n_beyond"] == 25
    short = common.summarize(range(45), tail_p=90.0)
    assert short["tail_fallback"] and short["tail_p"] == 75.0
    tiny = common.summarize(range(5), tail_p=90.0)
    assert tiny["tail_p"] == 100.0 and tiny["tail"] == 4


# ----------------------------------------------------------------------
# Open-loop due-time accounting.
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_charges_a_stall_to_every_op_behind_it():
    clock = FakeClock()
    cost = {0: 0.1, 1: 2.6, 2: 0.1, 3: 0.1, 4: 0.1}  # op 1 stalls

    def op(k, sample):
        clock.now += cost[k]

    samples = loadgen.run_open_loop(op, start=1.0, period=1.0, n_ops=5,
                                    clock=clock, sleep=clock.sleep)
    assert [s.due for s in samples] == [1.0, 2.0, 3.0, 4.0, 5.0]
    # Op 1 runs 2.0 -> 4.6; ops 2 and 3 were due at 3.0 and 4.0 but can
    # only be sent at 4.6 and 4.7: each is charged its wait.
    assert samples[2].sent == pytest.approx(4.6)
    assert samples[2].late == pytest.approx(1.6)
    assert samples[2].latency == pytest.approx(1.7)
    assert samples[3].late == pytest.approx(0.7)
    assert samples[3].latency == pytest.approx(0.8)
    # Op 4 is back on schedule: due 5.0, sent 5.0.
    assert samples[4].late == pytest.approx(0.0)
    assert samples[4].latency == pytest.approx(0.1)


def test_open_loop_counts_a_failed_op_and_goes_on():
    clock = FakeClock()

    def op(k, sample):
        if k == 1:
            raise RuntimeError("refused")

    samples = loadgen.run_open_loop(op, start=0.0, period=1.0, n_ops=3,
                                    clock=clock, sleep=clock.sleep)
    assert [s.ok for s in samples] == [True, False, True]
    assert "refused" in samples[1].error


# ----------------------------------------------------------------------
# Span self time.
# ----------------------------------------------------------------------


def _span(sid, name, start, end, parent=0):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "rid": f"{name}#1", "thread": 1}


def test_self_time_hand_computed():
    tree = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "a.x", 2.0, 3.0, parent=2),
        _span(4, "b", 5.0, 9.0, parent=1),
        # Overlapping children (another thread) count once.
        _span(5, "c", 8.0, 11.0, parent=1),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - (3.0 + 5.0))  # covered 1-4, 5-10
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(3.0)


def test_breakdown_layers_plus_remainder_close_on_the_root():
    tree = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "a.x", 2.0, 3.0, parent=2),
        _span(4, "b", 5.0, 9.0, parent=1),
        _span(6, "root", 20.0, 21.0),
    ]
    out = spans.breakdown(tree, "root", {"root": "r", "a": "A",
                                         "a.x": "A"}.get)
    assert out["n_roots"] == 2 and out["total_s"] == pytest.approx(11.0)
    assert out["layers_s"] == pytest.approx(
        {"r": 3.0 + 1.0, "A": 3.0, "remainder": 4.0})
    assert out["closure_error_s"] == pytest.approx(0.0)


def test_recorder_nests_ids_and_uninstalls():
    module = types.ModuleType("perfbench_selftest_target")

    class Target:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        @property
        def value(self):
            return 7

    module.Target = Target
    sys.modules[module.__name__] = module
    targets = ((module.__name__, "Target", "outer", "t.outer"),
               (module.__name__, "Target", "inner", "t.inner"),
               (module.__name__, "Target", "value", "t.value"))
    recorder = spans.SpanRecorder()
    recorder.install(targets)
    try:
        t = Target()
        assert t.outer() == 2 and t.outer() == 2 and t.value == 7
    finally:
        recorder.uninstall()
        del sys.modules[module.__name__]
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s["name"], []).append(s)
    outer, inner = by_name["t.outer"], by_name["t.inner"]
    assert [s["rid"] for s in outer] == ["t.outer#1", "t.outer#2"]
    assert [s["parent"] for s in inner] == [s["id"] for s in outer]
    assert [s["rid"] for s in inner] == ["t.outer#1", "t.outer#2"]
    assert by_name["t.value"][0]["parent"] == 0
    assert not hasattr(Target.outer, "__wrapped__")
    assert isinstance(Target.__dict__["value"], property)


def test_wire_overhead_pairs_requests_by_ordinal():
    client = [_span(1, "client.ingest", 0.0, 0.100),
              _span(2, "client.ingest", 1.0, 1.050)]
    client[1]["rid"] = "client.ingest#2"
    server = [_span(7, "service.ingest", 0.040, 0.050),
              _span(8, "service.ingest", 1.010, 1.030)]
    server[1]["rid"] = "service.ingest#2"
    out = layers.wire_overheads(client, server,
                                {"client.ingest": "service.ingest"})
    assert out == pytest.approx([90.0, 30.0])


# ----------------------------------------------------------------------
# The metric tables and BENCHMARK.json agree.
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_run_tables():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    names = [w["name"] for w in doc["workloads"]]
    assert set(names) <= set(bench_run.WORKLOADS) and len(names) >= 2
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bd}
        for n, u, b, bd, _ in bench_run.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b}
        for n, u, b in bench_run.PER_LAYER
    ]
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")


# ----------------------------------------------------------------------
# Small-scale smoke runs.
# ----------------------------------------------------------------------


def _small(module, **overrides):
    return {**module.CONFIG, "setup_reps": 1, **overrides}


def test_smoke_serve_webapp_and_a_wrong_reference(tmp_path):
    import serve_webapp

    cfg = _small(serve_webapp, period_s=0.2, monitor_period_s=0.2,
                 monitor_offset_s=0.1)
    good = serve_webapp.run(5, 2.0, str(tmp_path / "good"), traced=False,
                            cfg=cfg)
    assert all(good["checks"].values()), good["checks"]
    assert good["failed"] == 0
    wrong = serve_webapp.run(5, 2.0, str(tmp_path / "wrong"), traced=False,
                             cfg=cfg, wrong_reference=True)
    assert not wrong["checks"]["rates_bitwise_equal_offline_replay"]
    others = {k: v for k, v in wrong["checks"].items()
              if k != "rates_bitwise_equal_offline_replay"}
    assert all(others.values()), others


def test_smoke_ingest_routed_traced(tmp_path):
    import ingest_routed

    cfg = _small(ingest_routed, window=64.0, step=32.0, retain=128.0)
    result = ingest_routed.run(5, 3.0, str(tmp_path), traced=True, cfg=cfg)
    assert all(result["checks"].values()), result["checks"]
    files = spans.load_spans(result["spans_dir"])
    roles = sorted(f["role"] for f in files)
    assert roles == ["main", "partition", "partition"]
    computed = layers.layer_metrics(result, files, result)
    m = computed["metrics"]
    assert m["router.records_routed"] == result["generator"]["records_sent"]
    assert m["router.forwards_per_batch"] >= 1.0
    ingest = computed["details"]["ingest_breakdown"]
    assert ingest["closure_error_s"] == pytest.approx(0.0, abs=1e-9)


def test_smoke_command_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-routed",
         "--seed", "5", "--seconds", "2", "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == [n for n, *_ in bench_run.END_TO_END]
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-webapp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
