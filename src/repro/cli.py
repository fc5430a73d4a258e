"""Command-line interface: ``python -m repro`` or ``repro-queueing``.

Subcommands
-----------
simulate
    Simulate a built-in topology and write the ground-truth trace as JSONL.
infer
    Load a trace, censor it to a task-sampled observation rate, run StEM +
    Gibbs, and print parameter estimates plus a bottleneck report.
stream
    Replay a trace as an online stream: sliding-window StEM (or the SMC
    particle filter), printing the per-window rate series and any
    anomalies it reveals.
serve
    Run the live estimation service: a TCP ingestion + query server
    feeding a LiveTraceStream into the streaming estimator, publishing
    window estimates and anomaly flags, with optional checkpointing.
ingest
    Replay a recorded trace into a running `repro serve` instance at a
    configurable speedup — the two-terminal live demo, and the reference
    for what a real reporting agent would ship.
top
    Live ops console for a running `repro serve` or `repro route`
    instance: rate/utilization sparklines, phase-latency bars, partition
    liveness, and stream counters, refreshed in place.
experiment
    Run a reduced-scale version of one of the paper's experiments
    (fig4 / fig5 / variance) and print the result tables.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import MISSING, fields

import numpy as np

from repro.errors import InferenceError, IngestError, ReproError
from repro.events import load_jsonl, save_jsonl
from repro.experiments import (
    quick_fig4_config,
    quick_fig5_config,
    run_fig4,
    run_fig5,
    run_variance_comparison,
    render_table,
)
from repro.inference import (
    MultiChainSampler,
    PosteriorSummary,
    estimate_posterior,
    run_stem,
)
from repro.live import (
    DEFAULT_AUTHKEY,
    DEFAULT_BLOCK,
    EstimatorService,
    IngestRouter,
    LiveClient,
    LiveServer,
    ServiceConfig,
    replay_batches,
)
from repro.live.service import SERVICE_OPTIONS
from repro.localization import rank_bottlenecks, render_report
from repro.network import build_tandem_network, build_three_tier_network
from repro.observation import TaskSampling
from repro.online import ReplayTraceStream, detect_anomalies
from repro.simulate import simulate_network
from repro.telemetry.console import render_top
from repro.webapp import WebAppConfig, generate_webapp_trace

#: The subcommands whose flags are generated from ServiceConfig's fields.
CONFIG_COMMANDS = ("stream", "serve", "route")


def _flag(field) -> str:
    return field.metadata.get("flag", "--" + field.name.replace("_", "-"))


def _commands(field) -> tuple[str, ...]:
    return field.metadata.get("commands", CONFIG_COMMANDS)


#: Config field -> its flag, for every field that has one.
FLAGS = {
    field.name: _flag(field) for field in fields(ServiceConfig)
    if _commands(field)
}


def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """A flag for every ServiceConfig field *command* takes, each read
    off its field (see :func:`repro.online.config.knob`).  A ``SUPPRESS``
    default keeps an unpassed flag out of the namespace, so the
    dataclass default is the only default."""
    for field in fields(ServiceConfig):
        if command not in _commands(field):
            continue
        meta = field.metadata
        default = None if field.default is MISSING else field.default
        parser.add_argument(
            _flag(field), dest=field.name, default=argparse.SUPPRESS,
            type=meta.get("type", type(default)), choices=meta.get("choices"),
            help=meta["help"] + (
                "" if default is None else f" (default: {default})"
            ),
        )


def _passed(args: argparse.Namespace) -> dict:
    """The config fields passed on the command line, by field name."""
    return {name: value for name, value in vars(args).items() if name in FLAGS}


def _config(values: dict) -> ServiceConfig:
    """Validate *values* as a ServiceConfig.  Every config error message
    starts with the field it rejects, so a bad value exits naming its
    flag instead."""
    try:
        return ServiceConfig(**values)
    except ReproError as exc:
        name, _, rest = str(exc).partition(" ")
        raise SystemExit(
            f"{FLAGS[name]} {rest}" if name in FLAGS else str(exc)
        ) from None


def render_config_table() -> str:
    """The README's "Configuration" table, rendered from ServiceConfig's
    fields: flag, field, default, commands, meaning."""
    lines = ["| flag | field | default | commands | meaning |",
             "|---|---|---|---|---|"]
    for field in fields(ServiceConfig):
        default = (
            "required" if field.default is MISSING
            else "—" if field.default is None else f"`{field.default}`"
        )
        flag = f"`{FLAGS[field.name]}`" if field.name in FLAGS else "—"
        commands = ", ".join(_commands(field))
        lines.append(f"| {flag} | `{field.name}` | {default} | "
                     f"{commands or '—'} | {field.metadata['help']} |")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-queueing",
        description="Probabilistic inference in queueing networks (Sutton & Jordan 2008).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a topology to a JSONL trace")
    sim.add_argument(
        "--topology",
        choices=["three-tier", "tandem", "webapp"],
        default="three-tier",
    )
    sim.add_argument("--tasks", type=int, default=1000)
    sim.add_argument("--arrival-rate", type=float, default=10.0)
    sim.add_argument("--service-rate", type=float, default=5.0)
    sim.add_argument(
        "--servers", type=int, nargs="+", default=[1, 2, 4],
        help="servers per tier (three-tier) or station count (tandem)",
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output JSONL path")

    inf = sub.add_parser("infer", help="run StEM + Gibbs on a censored trace")
    inf.add_argument("trace", help="JSONL trace written by `simulate`")
    inf.add_argument("--observe", type=float, default=0.1, help="observed task fraction")
    inf.add_argument("--iterations", type=int, default=100)
    inf.add_argument("--seed", type=int, default=0)
    inf.add_argument(
        "--chains", type=int, default=1,
        help="independent Gibbs chains for the E-steps and the posterior; "
        "more than one adds split-R^hat / ESS convergence diagnostics",
    )
    inf.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for the posterior chains (default: serial; "
        "results are identical at any worker count)",
    )
    inf.add_argument(
        "--kernel", choices=["array", "native", "object"], default="array",
        help="Gibbs sweep engine: 'array' (vectorized conflict-free "
        "batches, the fast default), 'native' (the array sweep with "
        "JIT-compiled piecewise loops; falls back to 'array' when numba "
        "is unavailable), or 'object' (the per-move scalar reference "
        "path)",
    )
    inf.add_argument(
        "--persistent-workers", type=int, default=None,
        help="fan StEM E-step chains out over this many persistent worker "
        "processes that keep chain state resident across EM iterations "
        "(default: serial in-process; results are bitwise identical at "
        "any worker count)",
    )

    stream = sub.add_parser(
        "stream",
        help="sliding-window estimation over a replayed trace "
        "(StEM, or the SMC particle filter)",
    )
    stream.add_argument("trace", help="JSONL trace written by `simulate`")
    stream.add_argument(
        "--observe", type=float, default=0.2, help="observed task fraction"
    )
    stream.add_argument(
        "--windows", type=int, default=8,
        help="number of tumbling windows the trace horizon is split into "
        "(ignored when --window is given)",
    )
    _add_config_flags(stream, "stream")

    serve = sub.add_parser(
        "serve",
        help="run the live estimation service (ingestion server + estimator)",
        description=(
            "Start an always-on estimation service: a TCP server accepts "
            "measurement records, a LiveTraceStream assembles them, and the "
            "streaming estimator publishes per-window rate estimates with "
            "anomaly flags, queryable over the same connection. "
            "Example: `repro serve --queues 3 --window 15 --port 7577 "
            "--authkey secret` then, in another terminal, `repro ingest "
            "trace.jsonl --connect 127.0.0.1:7577 --authkey secret --wait`."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 picks a free one, printed on start)")
    serve.add_argument(
        "--authkey", default=None,
        help="shared handshake secret clients must present "
        "(default: a development-only key; set your own for anything "
        "reachable from an untrusted network)",
    )
    serve.add_argument("--checkpoint", default=None,
                       help="snapshot service state to this path")
    serve.add_argument(
        "--restore", default=None,
        help="resume from a checkpoint written by a previous serve run, "
        "with its configuration (only --checkpoint-every and "
        "--anomaly-threshold may change); ingestion clients replay the "
        "tail, duplicates are ignored",
    )
    _add_config_flags(serve, "serve")

    ing = sub.add_parser(
        "ingest",
        help="replay a recorded trace into a running `repro serve` instance",
        description=(
            "Censor a recorded ground-truth trace to an observed fraction "
            "and ship it to a live server as measurement records, in entry "
            "order with the watermark advanced alongside — at a wall-clock "
            "speedup, or as fast as the server admits. Example: `repro "
            "ingest trace.jsonl --connect 127.0.0.1:7577 --authkey secret "
            "--speedup 20 --wait`."
        ),
    )
    ing.add_argument("trace", help="JSONL trace written by `simulate`")
    ing.add_argument("--connect", default="127.0.0.1:7577",
                     help="host:port of the running server")
    ing.add_argument("--authkey", default=None,
                     help="shared handshake secret (must match the server's)")
    ing.add_argument("--observe", type=float, default=0.2,
                     help="observed task fraction")
    ing.add_argument("--seed", type=int, default=0,
                     help="observation-sampling seed")
    ing.add_argument(
        "--speedup", type=float, default=0.0,
        help="replay trace clock this many times faster than real time "
        "(0 = no pacing, ship as fast as the server admits)",
    )
    ing.add_argument("--batch", type=int, default=32,
                     help="tasks per ingestion batch")
    ing.add_argument("--no-seal", action="store_true",
                     help="leave the stream open after the replay ends")
    ing.add_argument(
        "--wait", action="store_true",
        help="after sealing, block until the service finishes and print "
        "the published window estimates",
    )
    ing.add_argument(
        "--shutdown", action="store_true",
        help="ask the serving process to exit once this client is done",
    )

    top = sub.add_parser(
        "top",
        help="live ops console for a running serve/route instance",
        description=(
            "Poll a running `repro serve` (or a router tier's front "
            "server) and redraw a terminal dashboard each interval: "
            "per-queue rate and utilization sparklines with anomaly "
            "flags, pipeline phase-latency bars, worker liveness, and "
            "stream admission counters. Example: `repro top --connect "
            "127.0.0.1:7577 --authkey secret`."
        ),
    )
    top.add_argument("--connect", default="127.0.0.1:7577",
                     help="host:port of the running server")
    top.add_argument("--authkey", default=None,
                     help="shared handshake secret (must match the server's)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (no screen clear)")
    top.add_argument("--windows", type=int, default=64,
                     help="recent windows to chart in the sparklines")

    route = sub.add_parser(
        "route",
        help="run a multi-service estimation tier behind one ingest router",
        description=(
            "Start a shared-nothing estimation tier: N independent "
            "estimator services in their own processes, fronted by an "
            "ingest router that stripes the entry keyspace across them, "
            "merges estimates/anomalies/health, and supervises the "
            "services (a killed service restarts from its checkpoint and "
            "the router replays its spooled tail). Clients speak the "
            "ordinary live protocol — `repro ingest` works unchanged. "
            "Example: `repro route --services 4 --queues 3 --window 15 "
            "--checkpoint-dir ckpts --port 7577 --authkey secret`."
        ),
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=0,
                       help="listen port (0 picks a free one, printed on start)")
    route.add_argument(
        "--authkey", default=None,
        help="shared handshake secret, used both by clients of the router "
        "and on the router's internal links to its partition services",
    )
    route.add_argument("--services", type=int, default=2,
                       help="independent estimator services to run")
    route.add_argument(
        "--block", type=int, default=DEFAULT_BLOCK,
        help="entry slots per stripe block; tasks entering within one "
        "block land on the same service (default: %(default)s)",
    )
    route.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for per-service snapshots (partition-N.ckpt); "
        "required for crash recovery of a killed service",
    )
    route.add_argument(
        "--max-spool", type=int, default=100_000,
        help="acked-but-uncheckpointed records the router retains per "
        "service for crash replay before evicting the oldest",
    )
    route.add_argument(
        "--probe-interval", type=float, default=1.0,
        help="seconds between supervisor liveness probes of each service",
    )
    _add_config_flags(route, "route")

    exp = sub.add_parser("experiment", help="run a reduced-scale paper experiment")
    exp.add_argument("which", choices=["fig4", "fig5", "variance"])
    exp.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.topology == "three-tier":
        network = build_three_tier_network(
            arrival_rate=args.arrival_rate,
            servers_per_tier=tuple(args.servers),
            service_rate=args.service_rate,
        )
        sim = simulate_network(network, args.tasks, random_state=args.seed)
    elif args.topology == "tandem":
        network = build_tandem_network(
            arrival_rate=args.arrival_rate,
            service_rates=[args.service_rate] * len(args.servers),
        )
        sim = simulate_network(network, args.tasks, random_state=args.seed)
    else:
        sim = generate_webapp_trace(
            WebAppConfig(n_requests=args.tasks), random_state=args.seed
        )
    save_jsonl(sim.events, args.out)
    print(f"wrote {sim.events.n_events} events ({sim.events.n_tasks} tasks) to {args.out}")
    print(sim.network.describe())
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    events = load_jsonl(args.trace)
    trace = TaskSampling(fraction=args.observe).observe(events, random_state=args.seed)
    print(trace.summary())
    if args.chains < 1:
        raise SystemExit("--chains must be at least 1")
    if args.workers and args.chains == 1:
        print(
            "note: --workers has no effect with a single chain; "
            "pass --chains K to fan out",
            file=sys.stderr,
        )
    if args.persistent_workers is not None and args.persistent_workers < 1:
        raise SystemExit("--persistent-workers must be at least 1")
    if args.persistent_workers and args.chains == 1:
        print(
            "note: --persistent-workers with a single chain moves the one "
            "E-step chain into a worker process (no speedup expected)",
            file=sys.stderr,
        )
    stem = run_stem(
        trace, n_iterations=args.iterations, random_state=args.seed,
        init_method="heuristic", n_chains=args.chains, kernel=args.kernel,
        persistent_workers=args.persistent_workers,
    )
    print(f"\nestimated arrival rate lambda = {stem.arrival_rate:.4g}")
    if args.chains > 1:
        multi = MultiChainSampler(
            trace, rates=stem.rates, n_chains=args.chains,
            random_state=args.seed + 1, kernel=args.kernel,
        ).collect(n_samples=25, thin=1, burn_in=10, workers=args.workers)
        posterior = PosteriorSummary.from_samples(stem.rates, multi.pooled())
        r_hat = multi.split_r_hat("waiting")
        ess = multi.ess("waiting")
        rows = [
            (q, f"{stem.rates[q]:.4g}", f"{1.0 / stem.rates[q]:.4g}",
             f"{posterior.waiting_mean[q]:.4g}", f"{r_hat[q]:.3f}", f"{ess[q]:.0f}")
            for q in range(1, events.n_queues)
        ]
        print(render_table(
            ["queue", "mu-hat", "service", "waiting", "split-Rhat", "ESS"],
            rows, title=f"\nper-queue estimates ({args.chains} chains)",
        ))
        print(f"\n{multi.summary()}")
    else:
        posterior = estimate_posterior(
            trace, rates=stem.rates, n_samples=25, burn_in=10,
            state=stem.sampler.state, random_state=args.seed + 1,
            kernel=args.kernel,
        )
        rows = [
            (q, f"{stem.rates[q]:.4g}", f"{1.0 / stem.rates[q]:.4g}",
             f"{posterior.waiting_mean[q]:.4g}")
            for q in range(1, events.n_queues)
        ]
        print(render_table(
            ["queue", "mu-hat", "service", "waiting"], rows,
            title="\nper-queue estimates",
        ))
    print("\nbottleneck ranking:")
    print(render_report(rank_bottlenecks(posterior)))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    if args.windows < 1:
        raise SystemExit("--windows must be at least 1")
    values = _passed(args)
    events = load_jsonl(args.trace)
    trace = TaskSampling(fraction=args.observe).observe(
        events, random_state=values.get("seed", ServiceConfig.seed)
    )
    source = ReplayTraceStream(trace)
    values.setdefault("window", source.horizon / args.windows)
    config = _config({**values, "n_queues": events.n_queues})
    print(trace.summary())
    windows = config.make_estimator(source).run()
    rows = []
    for i, est in enumerate(windows):
        services = (
            " ".join(f"{est.mean_service(q):.4g}" for q in range(1, events.n_queues))
            if est.ok
            else (est.failure or "skipped")
        )
        rows.append((
            i, f"{est.t_start:.1f}", f"{est.t_end:.1f}", est.n_tasks,
            est.n_observed_tasks, services,
        ))
    print(render_table(
        ["win", "t0", "t1", "tasks", "obs", "mean service (q1..)"],
        rows, title="\nstreaming window estimates",
    ))
    reports = detect_anomalies(windows, threshold=config.anomaly_threshold)
    if reports:
        print("\nanomalies:")
        for r in reports:
            print(
                f"  window {r.window_index} [{r.t_start:.1f}, {r.t_end:.1f}) "
                f"queue {r.queue}: mean service {r.value:.4g} vs baseline "
                f"{r.baseline:.4g} (z={r.z_score:.1f})"
            )
    else:
        print("\nno anomalies flagged")
    return 0


def _authkey(value: str | None) -> bytes:
    return DEFAULT_AUTHKEY if value is None else value.encode("utf-8")


def _live_config(args: argparse.Namespace, hint: str = "") -> ServiceConfig:
    values = _passed(args)
    if "n_queues" not in values or "window" not in values:
        raise SystemExit(f"--queues and --window are required{hint}")
    return _config(values)


def _serve_until_shutdown(target, args: argparse.Namespace, label: str) -> None:
    """Front a started service or router with one LiveServer until a
    client asks for shutdown (or ^C)."""
    with LiveServer(
        target, host=args.host, port=args.port, authkey=_authkey(args.authkey)
    ) as server:
        host, port = server.address
        print(f"{label} listening on {host}:{port}")
        print("ingest with: repro ingest TRACE.jsonl "
              f"--connect {host}:{port}" +
              (" --authkey <key>" if args.authkey else ""))
        try:
            server.wait_for_shutdown()
            print("shutdown requested; draining")
        except KeyboardInterrupt:
            print("\ninterrupted; draining")


def _report(health: dict) -> int:
    tier, router = health["service"], health.get("router")
    print(f"served {tier['windows_published']} windows "
          f"({tier['anomalies']} anomaly flags)"
          + (f" across {router['n_partitions']} services" if router else "")
          + f"; status: {tier['status']}"
          + (f"; service restarts: {router['n_restarts']}" if router else ""))
    if tier["status"] == "failed":
        print(f"estimator error: {tier['error']}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.restore is None:
        service = _live_config(args, " (or --restore)").build(args.checkpoint)
    else:
        # The checkpoint fixes the stream and the estimator; accepting
        # their flags and then ignoring them would mislead the operator.
        # Only flags actually passed are in the namespace.
        overrides = _passed(args)
        frozen = [FLAGS[name] for name in overrides if name not in SERVICE_OPTIONS]
        if frozen:
            raise SystemExit(
                "--restore resumes the checkpoint's configuration; drop "
                + "/".join(frozen)
            )
        try:
            service = EstimatorService.from_checkpoint(
                args.restore, checkpoint_path=args.checkpoint, **overrides
            )
        except (OSError, ReproError) as exc:
            raise SystemExit(f"cannot restore from {args.restore}: {exc}")
        print(f"restored from {args.restore}: "
              f"{len(service.windows())} windows already published")
    with service:
        _serve_until_shutdown(service, args, "repro live service")
    return _report(service.health())


def _cmd_route(args: argparse.Namespace) -> int:
    if args.services < 1:
        raise SystemExit("--services must be at least 1")
    if args.block < 1:
        raise SystemExit("--block must be at least 1")
    router = IngestRouter(
        args.services,
        _live_config(args),
        block=args.block,
        checkpoint_dir=args.checkpoint_dir,
        authkey=_authkey(args.authkey),
        max_spool_records=args.max_spool,
        probe_interval=args.probe_interval,
    )
    print(f"starting {args.services} partition services ...")
    with router:
        _serve_until_shutdown(
            router, args, f"repro routing tier ({args.services} services)"
        )
        health = router.health()
    return _report(health)


def _cmd_ingest(args: argparse.Namespace) -> int:
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--connect must be host:port, got {args.connect!r}")
    if args.speedup < 0.0:
        raise SystemExit("--speedup must be >= 0")
    if args.batch < 1:
        raise SystemExit("--batch must be at least 1")
    events = load_jsonl(args.trace)
    trace = TaskSampling(fraction=args.observe).observe(events, random_state=args.seed)
    print(trace.summary())
    try:
        batches = replay_batches(trace, batch_tasks=args.batch)
    except InferenceError as exc:
        raise SystemExit(f"cannot schedule the replay: {exc}")
    try:
        client = LiveClient((host, int(port)), authkey=_authkey(args.authkey))
    except (IngestError, OSError) as exc:
        raise SystemExit(f"cannot connect to {args.connect}: {exc}")
    n_shipped = 0
    t_wall0 = time.perf_counter()
    t_clock0 = batches[0][0]
    with client:
        for watermark, batch in batches:
            if args.speedup > 0.0:
                due = t_wall0 + (watermark - t_clock0) / args.speedup
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            client.advance_watermark(watermark)
            while True:
                try:
                    summary = client.ingest(batch)
                    break
                except IngestError as exc:
                    if "backpressure" not in str(exc):
                        raise SystemExit(f"ingestion refused: {exc}")
                    time.sleep(0.05)  # bounded buffer is draining; retry
            n_shipped += summary["admitted"]
        elapsed = time.perf_counter() - t_wall0
        print(f"shipped {n_shipped} records in {elapsed:.2f}s "
              f"({n_shipped / max(elapsed, 1e-9):.0f} records/s)")
        if not args.no_seal:
            client.seal()
        if args.wait:
            if args.no_seal:
                raise SystemExit("--wait needs the stream sealed; drop --no-seal")
            while True:
                health = client.health()["service"]
                if health["status"] in ("finished", "failed", "stopped"):
                    break
                time.sleep(0.2)
            if health["status"] != "finished":
                print(f"service did not finish: {health['status']} "
                      f"({health.get('error')})")
                return 1
            rows = []
            for est in client.estimates():
                services = (
                    " ".join(
                        f"{1.0 / r:.4g}" for r in est["rates"][1:]
                    )
                    if est["rates"] is not None
                    else (est["failure"] or "skipped")
                )
                flags = (
                    ",".join(str(q) for q in est["anomalous_queues"]) or "-"
                )
                rows.append((
                    est["index"], f"{est['t_start']:.1f}", f"{est['t_end']:.1f}",
                    est["n_tasks"], est["n_observed_tasks"], flags, services,
                ))
            print(render_table(
                ["win", "t0", "t1", "tasks", "obs", "anom", "mean service (q1..)"],
                rows, title="\npublished window estimates",
            ))
        if args.shutdown:
            client.shutdown()
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--connect must be host:port, got {args.connect!r}")
    if args.interval <= 0.0:
        raise SystemExit("--interval must be > 0")
    try:
        client = LiveClient((host, int(port)), authkey=_authkey(args.authkey))
    except (IngestError, OSError) as exc:
        raise SystemExit(f"cannot connect to {args.connect}: {exc}")
    with client:
        while True:
            try:
                health = client.health()
                estimates = client.estimates()
                report = client.metrics("snapshot")
                anomalies = client.anomalies()
            except (IngestError, OSError) as exc:
                raise SystemExit(f"lost the server at {args.connect}: {exc}")
            frame = render_top(
                health, estimates[-args.windows:], report, anomalies
            )
            if args.once:
                print(frame)
                return 0
            # Clear + home, then one frame: a flicker-free in-place redraw.
            print(f"\x1b[2J\x1b[H{frame}", flush=True)
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.which == "fig4":
        result = run_fig4(quick_fig4_config(), random_state=args.seed)
        for kind in ("service", "waiting"):
            rows = [
                (f"{frac:.0%}", *(f"{v:.4g}" for v in row.values()))
                for frac, row in result.panel_quartiles(kind).items()
            ]
            print(render_table(
                ["observed", "min", "q1", "median", "q3", "max"],
                rows, title=f"\nFigure 4 ({kind} abs error)",
            ))
    elif args.which == "fig5":
        result = run_fig5(quick_fig5_config(), random_state=args.seed)
        print(render_table(
            *result.table("service"), title="\nFigure 5 (service estimates)"
        ))
    else:
        comparison = run_variance_comparison(quick_fig4_config(), random_state=args.seed)
        print(render_table(
            ["estimator", "variance", "mean abs error"],
            [
                ("StEM", f"{comparison.stem_variance:.3e}", f"{comparison.stem_mean_error:.4g}"),
                ("observed-mean", f"{comparison.baseline_variance:.3e}",
                 f"{comparison.baseline_mean_error:.4g}"),
            ],
            title="\nSection 5.1 estimator comparison",
        ))
        print(f"variance ratio (StEM / baseline): {comparison.variance_ratio:.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    np.set_printoptions(precision=4, suppress=True)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "infer":
        return _cmd_infer(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "route":
        return _cmd_route(args)
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "top":
        return _cmd_top(args)
    return _cmd_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
