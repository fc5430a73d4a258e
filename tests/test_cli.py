"""Tests for the command-line interface."""

import argparse
import dataclasses
import pickle
import re
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.cli import (
    CONFIG_COMMANDS,
    FLAGS,
    _build_parser,
    main,
    render_config_table,
)
from repro.live import LiveClient, ServiceConfig
from repro.live.service import SERVICE_OPTIONS
from repro.online import estimator_config_keys

REPO = Path(__file__).resolve().parents[1]


def free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def simulate_tandem(path, tasks=120):
    main([
        "simulate", "--topology", "tandem", "--tasks", str(tasks),
        "--arrival-rate", "4", "--service-rate", "8",
        "--servers", "1", "2", "--seed", "3", "--out", str(path),
    ])


def subparser(command):
    sub = next(
        a for a in _build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices[command]


def valid_value(name):
    """A value field *name*'s flag parses (its last choice, else 2)."""
    field = next(f for f in dataclasses.fields(ServiceConfig) if f.name == name)
    choices = field.metadata.get("choices")
    return choices[-1] if choices else "2"


class TestSimulate:
    def test_three_tier_round_trip(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main([
            "simulate", "--topology", "three-tier", "--tasks", "50",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "wrote 200 events" in captured

    def test_tandem(self, tmp_path, capsys):
        out = tmp_path / "tandem.jsonl"
        code = main([
            "simulate", "--topology", "tandem", "--tasks", "30",
            "--servers", "1", "2", "--out", str(out),
        ])
        assert code == 0
        assert "q1" in capsys.readouterr().out

    def test_webapp(self, tmp_path, capsys):
        out = tmp_path / "webapp.jsonl"
        code = main([
            "simulate", "--topology", "webapp", "--tasks", "60", "--out", str(out),
        ])
        assert code == 0
        assert "network" in capsys.readouterr().out


class TestInfer:
    def test_infer_pipeline(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "80",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "infer", str(out), "--observe", "0.3", "--iterations", "25",
            "--seed", "0",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "estimated arrival rate" in text
        assert "bottleneck ranking" in text
        assert "verdict" in text

    def test_infer_threads_and_native_round_trip(self, tmp_path, capsys):
        """--kernel native reaches the sampler through the CLI; without
        numba its estimates are bitwise the array kernel's."""
        from repro.inference.native import NUMBA_AVAILABLE

        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "60",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        baseline = main([
            "infer", str(out), "--observe", "0.3", "--iterations", "10",
            "--seed", "0",
        ])
        plain = capsys.readouterr().out
        # The native lowering is accepted end to end (compiled when numba
        # is present, the array fallback otherwise).
        code = main([
            "infer", str(out), "--observe", "0.3", "--iterations", "10",
            "--seed", "0", "--kernel", "native",
        ])
        native = capsys.readouterr().out
        assert baseline == 0 and code == 0
        assert "arrival rate" in native
        if not NUMBA_AVAILABLE:
            line = next(l for l in plain.splitlines() if "arrival rate" in l)
            assert line in native

    def test_infer_multichain(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "60",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "infer", str(out), "--observe", "0.3", "--iterations", "15",
            "--seed", "0", "--chains", "3",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "split-Rhat" in text
        assert "3 chains" in text
        assert "bottleneck ranking" in text


class TestStream:
    def test_stream_pipeline(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "150",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "stream", str(out), "--observe", "0.3", "--windows", "3",
            "--iterations", "8", "--seed", "0",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "streaming window estimates" in text
        assert "anomal" in text  # either the table or "no anomalies flagged"


class TestServeIngest:
    def _free_port(self):
        return free_port()

    def test_serve_and_ingest_round_trip(self, tmp_path, capsys):
        import threading
        import time

        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "120",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        port = self._free_port()
        codes = {}

        def serve():
            codes["serve"] = main([
                "serve", "--queues", "3", "--window", "12",
                "--port", str(port), "--authkey", "test-key",
                "--iterations", "6", "--seed", "0",
            ])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        time.sleep(0.3)
        codes["ingest"] = main([
            "ingest", str(out), "--connect", f"127.0.0.1:{port}",
            "--authkey", "test-key", "--observe", "0.3",
            "--wait", "--shutdown",
        ])
        thread.join(30.0)
        assert not thread.is_alive()
        assert codes == {"serve": 0, "ingest": 0}
        text = capsys.readouterr().out
        assert "listening on" in text
        assert "published window estimates" in text
        assert "shutdown requested" in text

    def test_serve_validation(self):
        with pytest.raises(SystemExit, match="--queues and --window"):
            main(["serve"])
        with pytest.raises(SystemExit, match="window must be positive"):
            main(["serve", "--queues", "3", "--window", "0"])
        with pytest.raises(SystemExit, match="--restore resumes"):
            main(["serve", "--restore", "x.ckpt", "--window", "1"])
        # Every estimator/stream flag is frozen by the checkpoint; passing
        # one must be an error, not a silent ignore.
        with pytest.raises(SystemExit, match="--iterations"):
            main(["serve", "--restore", "x.ckpt", "--iterations", "4"])
        with pytest.raises(SystemExit, match="--lateness"):
            main(["serve", "--restore", "x.ckpt", "--lateness", "5"])
        with pytest.raises(SystemExit, match="--kernel"):
            main(["serve", "--restore", "x.ckpt", "--kernel", "native"])
        with pytest.raises(SystemExit, match="cannot restore"):
            main(["serve", "--restore", "/nonexistent/x.ckpt"])

    #: Every field a checkpoint fixes: the stream's and the estimator's.
    FROZEN = (
        "n_queues", "window", "step", "stem_iterations", "min_observed_tasks",
        "seed", "kernel", "lateness", "max_pending", "retain", "estimator",
        "n_particles", "ess_threshold", "rejuvenation_sweeps",
    )

    def test_frozen_fields_are_every_flag_but_the_service_options(self):
        assert set(self.FROZEN) == set(FLAGS) - set(SERVICE_OPTIONS)

    @pytest.mark.parametrize("name", FROZEN)
    def test_restore_rejects_every_frozen_flag(self, name):
        flag = FLAGS[name]
        with pytest.raises(SystemExit, match=f"--restore resumes .*{flag}"):
            main(["serve", "--restore", "x.ckpt", flag, valid_value(name)])

    @pytest.mark.parametrize("flag", ["--checkpoint-every", "--anomaly-threshold"])
    def test_restore_accepts_the_service_options(self, flag):
        # Past the frozen-flag check, into the restore itself.
        with pytest.raises(SystemExit, match="cannot restore"):
            main(["serve", "--restore", "/nonexistent/x.ckpt", flag, "2"])

    def test_serve_restore_rejects_a_record_log_checkpoint(self, tmp_path):
        """A checkpoint whose stream snapshot is version 2 (finalized tasks
        as a record-dict log) exits through the restore error path."""
        from repro.live import (
            EstimatorService,
            LiveTraceStream,
            trace_to_records,
        )
        from repro.network import build_tandem_network
        from repro.observation import TaskSampling
        from repro.online import StreamingEstimator
        from repro.simulate import simulate_network

        sim = simulate_network(
            build_tandem_network(4.0, [6.0, 8.0]), 40, random_state=1
        )
        trace = TaskSampling(fraction=0.3).observe(sim.events, random_state=1)
        path = str(tmp_path / "service.ckpt")
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        service = EstimatorService(
            StreamingEstimator(stream, window=10.0), checkpoint_path=path
        )
        records = trace_to_records(trace)
        service.ingest(records)
        service.checkpoint()
        with open(path, "rb") as fh:
            snapshot = pickle.load(fh)
        by_task: dict = {}
        for r in records:
            by_task.setdefault(r["task"], []).append(r)
        del snapshot["stream"]["columns"]
        snapshot["stream"].update(version=2, final_records=by_task)
        with open(path, "wb") as fh:
            pickle.dump(snapshot, fh)
        with pytest.raises(
            SystemExit, match="cannot restore .*snapshot version: 2"
        ):
            main(["serve", "--restore", path])

    @pytest.mark.parametrize("content,defect", [
        (b"", r"does not unpickle \(EOFError"),
        (b"garbage", r"does not unpickle \(UnpicklingError"),
        (pickle.dumps([1, 2]), "holds a list, not a snapshot record"),
        (pickle.dumps({"version": 1}), r"lacks the snapshot sections \['stream'"),
    ], ids=["empty", "garbage", "list", "version-only"])
    def test_restore_of_a_damaged_checkpoint_exits_cleanly(
        self, tmp_path, content, defect
    ):
        """A file that is not a snapshot exits through "cannot restore",
        naming the file and its defect, instead of a traceback."""
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(content)
        with pytest.raises(SystemExit) as info:
            main(["serve", "--restore", str(path)])
        message = str(info.value)
        assert message.startswith(f"cannot restore from {path}: checkpoint ")
        assert repr(str(path)) in message
        assert re.search(defect, message)

    def test_ingest_validation(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "20",
            "--servers", "1", "2", "--out", str(out),
        ])
        with pytest.raises(SystemExit, match="host:port"):
            main(["ingest", str(out), "--connect", "nonsense"])
        with pytest.raises(SystemExit, match="--speedup"):
            main(["ingest", str(out), "--speedup", "-1"])
        with pytest.raises(SystemExit, match="--batch"):
            main(["ingest", str(out), "--batch", "0"])
        with pytest.raises(SystemExit, match="cannot connect"):
            main(["ingest", str(out),
                  "--connect", f"127.0.0.1:{self._free_port()}"])

    def test_top_one_shot(self, tmp_path, capsys):
        import threading
        import time

        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "120",
            "--arrival-rate", "4", "--service-rate", "8",
            "--servers", "1", "2", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        port = self._free_port()
        codes = {}

        def serve():
            codes["serve"] = main([
                "serve", "--queues", "3", "--window", "12",
                "--port", str(port), "--authkey", "test-key",
                "--iterations", "6", "--seed", "0",
            ])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        time.sleep(0.3)
        codes["ingest"] = main([
            "ingest", str(out), "--connect", f"127.0.0.1:{port}",
            "--authkey", "test-key", "--observe", "0.3", "--wait",
        ])
        capsys.readouterr()
        codes["top"] = main([
            "top", "--connect", f"127.0.0.1:{port}",
            "--authkey", "test-key", "--once",
        ])
        frame = capsys.readouterr().out
        assert codes["top"] == 0
        assert "repro top" in frame
        assert "arrival λ" in frame
        assert "phase latency" in frame
        assert "ingest  admitted" in frame
        # Shut the server down so the serve thread exits cleanly.
        from repro.live import LiveClient

        with LiveClient(("127.0.0.1", port), authkey=b"test-key") as client:
            client.shutdown()
        thread.join(30.0)
        assert not thread.is_alive()

    def test_top_validation(self):
        with pytest.raises(SystemExit, match="host:port"):
            main(["top", "--connect", "nonsense", "--once"])
        with pytest.raises(SystemExit, match="--interval"):
            main(["top", "--interval", "0", "--once"])
        with pytest.raises(SystemExit, match="cannot connect"):
            main(["top", "--connect", f"127.0.0.1:{self._free_port()}",
                  "--once"])


class TestRoute:
    def test_route_and_ingest_round_trip(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        simulate_tandem(out)
        capsys.readouterr()
        port = free_port()
        codes = {}

        def ingest():
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", port), 1.0).close()
                    break
                except OSError:
                    time.sleep(0.1)
            try:
                codes["ingest"] = main([
                    "ingest", str(out), "--connect", f"127.0.0.1:{port}",
                    "--authkey", "test-key", "--observe", "0.3",
                    "--wait", "--shutdown",
                ])
            except BaseException as exc:  # unblock the tier, then report
                codes["ingest"] = exc
                with LiveClient(("127.0.0.1", port), authkey=b"test-key") as c:
                    c.shutdown()

        thread = threading.Thread(target=ingest, daemon=True)
        thread.start()
        # The tier runs in the main thread, so its partitions fork from it.
        codes["route"] = main([
            "route", "--services", "2", "--queues", "3", "--window", "12",
            "--iterations", "6", "--port", str(port), "--authkey", "test-key",
        ])
        thread.join(30.0)
        assert not thread.is_alive()
        assert codes == {"route": 0, "ingest": 0}
        text = capsys.readouterr().out
        assert "repro routing tier (2 services) listening on" in text
        assert "published window estimates" in text
        served = re.search(r"served (\d+) windows .* across 2 services", text)
        assert served and int(served.group(1)) > 0

    def test_route_validation(self):
        with pytest.raises(SystemExit, match="--services"):
            main(["route", "--services", "0", "--queues", "3", "--window", "12"])
        with pytest.raises(SystemExit, match="--block"):
            main(["route", "--block", "0", "--queues", "3", "--window", "12"])
        with pytest.raises(SystemExit, match="--queues and --window"):
            main(["route", "--window", "12"])


#: Bad config values, each with the flag its error must name.
BAD_CONFIG = [
    (["--lateness", "-1"], "--lateness"),
    (["--max-pending", "0"], "--max-pending"),
    (["--checkpoint-every", "0"], "--checkpoint-every"),
    (["--queues", "1"], "--queues"),
    (["--iterations", "0"], "--iterations"),
    (["--estimator", "smc", "--particles", "1"], "--particles"),
]


class TestConfigFlags:
    @pytest.mark.parametrize("flags,flag", BAD_CONFIG)
    def test_serve_rejects_bad_config_naming_the_flag(self, flags, flag):
        with pytest.raises(SystemExit, match=f"^{flag} "):
            main(["serve", "--queues", "3", "--window", "1", *flags])

    @pytest.mark.parametrize("flags,flag", BAD_CONFIG)
    def test_route_rejects_bad_config_before_any_process(
        self, flags, flag, monkeypatch
    ):
        from repro.live import router

        spawned = []
        monkeypatch.setattr(
            router._PartitionHandle, "spawn",
            lambda handle, restore: spawned.append(handle.index),
        )
        with pytest.raises(SystemExit, match=f"^{flag} "):
            main(["route", "--queues", "3", "--window", "1", *flags])
        assert spawned == []

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_every_config_flag_comes_from_its_field(self, command):
        by_name = {f.name: f for f in dataclasses.fields(ServiceConfig)}
        taken = {
            name for name, f in by_name.items()
            if command in f.metadata.get("commands", CONFIG_COMMANDS)
        }
        actions = subparser(command)._actions
        # One action per field the command takes, and no other action
        # spells a config flag.
        assert sorted(a.dest for a in actions if a.dest in by_name) == sorted(taken)
        for action in actions:
            if set(action.option_strings) & set(FLAGS.values()):
                assert action.dest in by_name
        for action in (a for a in actions if a.dest in by_name):
            field = by_name[action.dest]
            assert action.option_strings == [FLAGS[action.dest]]
            assert action.default is argparse.SUPPRESS
            assert action.help.startswith(field.metadata["help"])
            if field.default not in (None, dataclasses.MISSING):
                assert action.help.endswith(f"(default: {field.default})")
        assert set(estimator_config_keys()) <= taken
        assert {"estimator", "seed", "anomaly_threshold"} <= taken
        assert "poll_interval" not in taken

    def test_parallel_sweep_flags_are_gone(self):
        gone = {"--shards", "--shard-workers", "--worker-retries", "--transport"}
        for command in ("infer", *CONFIG_COMMANDS):
            options = {
                option for action in subparser(command)._actions
                for option in action.option_strings
            }
            assert not options & gone, command

    def test_readme_config_table_matches_the_fields(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert readme.count(render_config_table()) == 1, (
            "README Configuration table out of sync with ServiceConfig; "
            "paste repro.cli.render_config_table()"
        )


class TestArgumentErrors:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig9"])

    def test_stream_rejects_bad_windows(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        main([
            "simulate", "--topology", "tandem", "--tasks", "30",
            "--servers", "1", "2", "--out", str(out),
        ])
        with pytest.raises(SystemExit):
            main(["stream", str(out), "--window", "0"])
        with pytest.raises(SystemExit):
            main(["stream", str(out), "--step", "-1"])
        with pytest.raises(SystemExit):
            main(["stream", str(out), "--windows", "0"])
