"""Command-line interface: ``python -m repro`` or ``repro-queueing``.

Subcommands
-----------
simulate
    Simulate a built-in topology and write the ground-truth trace as JSONL.
infer
    Load a trace, censor it to a task-sampled observation rate, run StEM +
    Gibbs, and print parameter estimates plus a bottleneck report.
stream
    Replay a trace as an online stream: sliding-window StEM (optionally
    sharded over one stream-long worker pool), printing the per-window
    rate series and any anomalies it reveals.
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
    instance: rate/utilization sparklines, phase-latency bars, worker
    liveness, and stream counters, refreshed in place.
experiment
    Run a reduced-scale version of one of the paper's experiments
    (fig4 / fig5 / variance) and print the result tables.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

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
from repro.inference.transport import PipeTransport, SocketTransport
from repro.localization import rank_bottlenecks, render_report
from repro.network import build_tandem_network, build_three_tier_network
from repro.observation import TaskSampling
from repro.online import ReplayTraceStream, detect_anomalies
from repro.simulate import simulate_network
from repro.webapp import WebAppConfig, generate_webapp_trace


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
        "--shards", type=int, default=1,
        help="partition each chain's sweep across this many task shards "
        "(interior moves sweep per shard, only boundary events are "
        "exchanged between super-steps; same posterior, shards=1 is the "
        "plain kernel); combine with --persistent-workers to distribute "
        "one chain's shards across worker processes",
    )
    inf.add_argument(
        "--persistent-workers", type=int, default=None,
        help="fan StEM E-step chains out over this many persistent worker "
        "processes that keep chain state resident across EM iterations "
        "(default: serial in-process; results are bitwise identical at "
        "any worker count)",
    )

    def _add_estimator_flags(p, sentinel: bool = False) -> None:
        # One flag block shared by stream/serve/route.  With
        # sentinel=True every default is None so the serve --restore
        # branch can tell "explicitly passed" from "defaulted"; real
        # defaults are the EstimatorConfig dataclass defaults, applied
        # at construction time.
        d = (lambda v: None) if sentinel else (lambda v: v)
        p.add_argument(
            "--estimator", choices=["stem", "smc"], default=d("stem"),
            help="estimator flavor: 'stem' reruns windowed StEM per window "
            "(default); 'smc' advances a particle population per poll "
            "batch with ESS-triggered Gibbs rejuvenation — O(arrivals) "
            "between triggers, the win under heavy window overlap",
        )
        p.add_argument(
            "--particles", type=int, default=d(16),
            help="SMC particle count (default: 16; --estimator smc only)",
        )
        p.add_argument(
            "--ess-threshold", type=float, default=d(0.5),
            help="resample + rejuvenate when the effective sample size "
            "falls below this fraction of the particle count "
            "(default: 0.5; --estimator smc only)",
        )
        p.add_argument(
            "--rejuvenation-sweeps", type=int, default=d(1),
            help="Gibbs sweeps per particle per rejuvenation trigger "
            "(default: 1; --estimator smc only)",
        )
        p.add_argument(
            "--worker-retries", type=int, default=d(1),
            help="times a window whose shard worker pool died is re-run "
            "on a relaunched pool before its failure is recorded as data "
            "(default: 1)",
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
    stream.add_argument(
        "--window", type=float, default=None,
        help="window length in trace clock units (overrides --windows)",
    )
    stream.add_argument(
        "--step", type=float, default=None,
        help="window start spacing (default: the window length; smaller "
        "values overlap windows)",
    )
    stream.add_argument("--iterations", type=int, default=30,
                        help="StEM iterations per window")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--shards", type=int, default=1,
        help="sharded sweeps per window (clamped to each window's task count)",
    )
    stream.add_argument(
        "--shard-workers", type=int, default=None,
        help="host the shard sweeps on this many worker processes, one "
        "pool for the whole stream (results identical at any worker count)",
    )
    stream.add_argument(
        "--transport", choices=["pipe", "socket"], default="pipe",
        help="worker transport: OS pipes (default) or loopback TCP "
        "sockets — the same wire protocol remote workers would speak",
    )
    stream.add_argument(
        "--kernel", choices=["array", "native", "object"], default="array",
        help="sweep kernel for every window's E-step chains ('native' "
        "falls back to 'array' when numba is unavailable)",
    )
    stream.add_argument(
        "--anomaly-threshold", type=float, default=4.0,
        help="robust z-score above which a window's rate shift is flagged",
    )
    _add_estimator_flags(stream)

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
    serve.add_argument(
        "--queues", type=int, default=None,
        help="queue count of the monitored network, including entry queue 0 "
        "(required unless --restore)",
    )
    serve.add_argument(
        "--window", type=float, default=None,
        help="estimation window length in trace clock units "
        "(required unless --restore)",
    )
    # Estimator/stream flags use None sentinels so the --restore branch
    # can tell "explicitly passed" from "defaulted" — a checkpoint freezes
    # these, and silently ignoring an explicit value would mislead the
    # operator.  Real defaults are applied in _cmd_serve.
    serve.add_argument("--step", type=float, default=None,
                       help="window start spacing (default: the window length)")
    serve.add_argument("--iterations", type=int, default=None,
                       help="StEM iterations per window (default: 30)")
    serve.add_argument(
        "--min-observed", type=int, default=None,
        help="windows with fewer fully observed tasks are skipped (default: 3)",
    )
    serve.add_argument("--seed", type=int, default=None,
                       help="estimation seed (default: 0)")
    serve.add_argument("--shards", type=int, default=None,
                       help="sharded sweeps per window (default: 1)")
    serve.add_argument("--shard-workers", type=int, default=None,
                       help="worker processes hosting the shard sweeps")
    serve.add_argument(
        "--kernel", choices=["array", "native", "object"], default=None,
        help="sweep kernel for the window E-steps (default: array; "
        "'native' falls back to 'array' when numba is unavailable)",
    )
    serve.add_argument(
        "--lateness", type=float, default=None,
        help="grace interval behind the watermark within which measurements "
        "are still admitted; older ones are dropped as stragglers "
        "(default: 0)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=None,
        help="buffered-record bound before ingestion backpressure "
        "(default: 100000)",
    )
    serve.add_argument(
        "--retain", type=float, default=None,
        help="retention horizon in trace clock units: finished tasks older "
        "than watermark minus this (and out of reach of every future "
        "window) are folded into summary statistics and evicted, bounding "
        "memory and checkpoint size; needs task ids that ascend in entry "
        "order, otherwise every task is kept (default: keep full history)",
    )
    serve.add_argument("--checkpoint", default=None,
                       help="snapshot service state to this path")
    serve.add_argument("--checkpoint-every", type=int, default=None,
                       help="published windows between snapshots (default: 1)")
    serve.add_argument(
        "--restore", default=None,
        help="resume from a checkpoint written by a previous serve run "
        "(ingestion clients replay the tail; duplicates are ignored)",
    )
    serve.add_argument("--anomaly-threshold", type=float, default=None,
                       help="robust z-score flagging threshold (default: 4)")
    _add_estimator_flags(serve, sentinel=True)

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
    route.add_argument("--queues", type=int, required=True,
                       help="queue count of the monitored network, "
                       "including entry queue 0")
    route.add_argument("--window", type=float, required=True,
                       help="estimation window length in trace clock units")
    route.add_argument("--step", type=float, default=None,
                       help="window start spacing (default: the window length)")
    route.add_argument("--iterations", type=int, default=30,
                       help="StEM iterations per window")
    route.add_argument("--min-observed", type=int, default=3,
                       help="windows with fewer fully observed tasks are "
                       "skipped")
    route.add_argument("--seed", type=int, default=0,
                       help="estimation seed (each service derives its own "
                       "child seed from it)")
    route.add_argument("--shards", type=int, default=1,
                       help="sharded sweeps per window, per service")
    route.add_argument("--shard-workers", type=int, default=None,
                       help="worker processes hosting each service's shards")
    route.add_argument(
        "--kernel", choices=["array", "native", "object"], default="array",
        help="sweep kernel for every service's window E-steps ('native' "
        "falls back to 'array' when numba is unavailable)",
    )
    route.add_argument(
        "--lateness", type=float, default=0.0,
        help="grace interval behind the watermark within which measurements "
        "are still admitted; older ones are dropped as stragglers",
    )
    route.add_argument("--max-pending", type=int, default=100_000,
                       help="per-service buffered-record bound before "
                       "ingestion backpressure")
    route.add_argument(
        "--retain", type=float, default=None,
        help="per-service retention horizon in trace clock units; needs "
        "task ids that ascend in entry order, otherwise every task is kept "
        "(default: keep full history)",
    )
    route.add_argument(
        "--block", type=int, default=None,
        help="entry slots per stripe block; tasks entering within one "
        "block land on the same service (default: 32)",
    )
    route.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for per-service snapshots (partition-N.ckpt); "
        "required for crash recovery of a killed service",
    )
    route.add_argument("--checkpoint-every", type=int, default=1,
                       help="published windows between snapshots")
    route.add_argument(
        "--max-spool", type=int, default=100_000,
        help="acked-but-uncheckpointed records the router retains per "
        "service for crash replay before evicting the oldest",
    )
    route.add_argument(
        "--probe-interval", type=float, default=1.0,
        help="seconds between supervisor liveness probes of each service",
    )
    route.add_argument("--anomaly-threshold", type=float, default=4.0,
                       help="robust z-score flagging threshold")
    _add_estimator_flags(route)

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
    if args.shards < 1:
        raise SystemExit("--shards must be at least 1")
    if args.shards > 1 and args.kernel not in ("array", "native"):
        raise SystemExit(
            "--shards requires the array kernel or its native lowering "
            "(drop --kernel object)"
        )
    if args.persistent_workers and args.chains == 1:
        print(
            "note: --persistent-workers with a single chain moves the one "
            "E-step chain into a worker process (no speedup expected)",
            file=sys.stderr,
        )
    stem = run_stem(
        trace, n_iterations=args.iterations, random_state=args.seed,
        init_method="heuristic", n_chains=args.chains, kernel=args.kernel,
        persistent_workers=args.persistent_workers, shards=args.shards,
    )
    print(f"\nestimated arrival rate lambda = {stem.arrival_rate:.4g}")
    if args.chains > 1:
        multi = MultiChainSampler(
            trace, rates=stem.rates, n_chains=args.chains,
            random_state=args.seed + 1, kernel=args.kernel,
            shards=args.shards,
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


#: CLI flag attribute -> EstimatorConfig field, for the flag block shared
#: by stream/serve/route.  Flags a subcommand lacks, or left at a None
#: sentinel, fall back to the dataclass defaults.
_ESTIMATOR_FLAG_FIELDS = (
    ("step", "step"),
    ("iterations", "stem_iterations"),
    ("min_observed", "min_observed_tasks"),
    ("shards", "shards"),
    ("shard_workers", "shard_workers"),
    ("kernel", "kernel"),
    ("worker_retries", "worker_retries"),
    ("particles", "n_particles"),
    ("ess_threshold", "ess_threshold"),
    ("rejuvenation_sweeps", "rejuvenation_sweeps"),
)


def _estimator_config_from_args(args, window, **overrides):
    from repro.errors import InferenceError
    from repro.online import EstimatorConfig

    kwargs = {"window": window}
    for attr, field in _ESTIMATOR_FLAG_FIELDS:
        value = getattr(args, attr, None)
        if value is not None:
            kwargs[field] = value
    kwargs.update(overrides)
    try:
        return EstimatorConfig(**kwargs)
    except InferenceError as exc:
        raise SystemExit(str(exc))


def _build_estimator(name, stream, *, random_state, config, transport=None):
    from repro.errors import InferenceError
    from repro.online import get_estimator

    try:
        return get_estimator(name)(
            stream,
            random_state=random_state,
            transport=transport,
            config=config,
        )
    except InferenceError as exc:
        raise SystemExit(str(exc))


def _reject_smc_sharding(estimator, shards, shard_workers):
    if estimator == "smc" and (shards > 1 or shard_workers is not None):
        raise SystemExit(
            "--estimator smc rejuvenates every particle in-process; "
            "drop --shards/--shard-workers"
        )


def _cmd_stream(args: argparse.Namespace) -> int:
    if args.shards < 1:
        raise SystemExit("--shards must be at least 1")
    if args.shards > 1 and args.kernel not in ("array", "native"):
        raise SystemExit(
            "--shards requires the array kernel or its native lowering "
            "(drop --kernel object)"
        )
    if args.shard_workers is not None and args.shard_workers < 1:
        raise SystemExit("--shard-workers must be at least 1")
    if args.shard_workers is not None and args.shards == 1:
        raise SystemExit("--shard-workers requires --shards > 1")
    if args.transport != "pipe" and args.shard_workers is None:
        raise SystemExit(
            "--transport selects the worker transport; pass --shard-workers "
            "(with --shards > 1) or drop it"
        )
    if args.window is not None and args.window <= 0.0:
        raise SystemExit("--window must be positive")
    if args.step is not None and args.step <= 0.0:
        raise SystemExit("--step must be positive")
    if args.windows < 1:
        raise SystemExit("--windows must be at least 1")
    if args.iterations < 1:
        raise SystemExit("--iterations must be at least 1")
    _reject_smc_sharding(args.estimator, args.shards, args.shard_workers)
    events = load_jsonl(args.trace)
    trace = TaskSampling(fraction=args.observe).observe(events, random_state=args.seed)
    print(trace.summary())
    source = ReplayTraceStream(trace)
    window = (
        args.window if args.window is not None else source.horizon / args.windows
    )
    transport = SocketTransport() if args.transport == "socket" else PipeTransport()
    config = _estimator_config_from_args(args, window)
    estimator = _build_estimator(
        args.estimator, source,
        random_state=args.seed, config=config, transport=transport,
    )
    windows = estimator.run()  # closes the pool and the owned transport
    rows = []
    for i, est in enumerate(windows):
        services = (
            " ".join(f"{est.mean_service(q):.4g}" for q in range(1, events.n_queues))
            if est.ok
            else (est.failure or "skipped")
        )
        rows.append((
            i, f"{est.t_start:.1f}", f"{est.t_end:.1f}", est.n_tasks,
            est.n_observed_tasks, est.n_shards, services,
        ))
    print(render_table(
        ["win", "t0", "t1", "tasks", "obs", "shards", "mean service (q1..)"],
        rows, title="\nstreaming window estimates",
    ))
    reports = detect_anomalies(windows, threshold=args.anomaly_threshold)
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
    from repro.live import DEFAULT_AUTHKEY

    return DEFAULT_AUTHKEY if value is None else value.encode("utf-8")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import InferenceError, IngestError
    from repro.live import EstimatorService, LiveServer, LiveTraceStream

    if args.restore is not None:
        # Resuming replays the checkpoint's exact configuration; accepting
        # these flags and then ignoring them would let an operator believe
        # the resumed service runs with e.g. different sharding.  The
        # parser uses None sentinels, so "explicitly passed" is detected
        # even when the passed value equals the documented default.
        frozen = (
            "queues", "window", "step", "iterations", "min_observed",
            "seed", "shards", "shard_workers", "kernel", "lateness",
            "max_pending", "retain", "estimator", "particles",
            "ess_threshold", "rejuvenation_sweeps", "worker_retries",
        )
        rejected = [
            "--" + name.replace("_", "-")
            for name in frozen
            if getattr(args, name) is not None
        ]
        if rejected:
            raise SystemExit(
                "--restore resumes the checkpoint's configuration; drop "
                + "/".join(rejected)
            )
        # Service-level options stay overridable on resume — but only when
        # the operator actually passed them; defaults must not clobber the
        # checkpointed values.
        overrides = {}
        if args.anomaly_threshold is not None:
            overrides["anomaly_threshold"] = args.anomaly_threshold
        if args.checkpoint_every is not None:
            overrides["checkpoint_every"] = args.checkpoint_every
        try:
            service = EstimatorService.from_checkpoint(
                args.restore,
                checkpoint_path=args.checkpoint,
                **overrides,
            )
        except (OSError, IngestError, InferenceError) as exc:
            raise SystemExit(f"cannot restore from {args.restore}: {exc}")
        print(f"restored from {args.restore}: "
              f"{len(service.windows())} windows already published")
    else:
        if args.queues is None or args.window is None:
            raise SystemExit("--queues and --window are required (or --restore)")
        if args.window <= 0.0:
            raise SystemExit("--window must be positive")
        # Fill the documented defaults behind the None sentinels the
        # parser uses for --restore detection.
        shards = 1 if args.shards is None else args.shards
        if shards < 1:
            raise SystemExit("--shards must be at least 1")
        if args.shard_workers is not None and shards == 1:
            raise SystemExit("--shard-workers requires --shards > 1")
        kernel = "array" if args.kernel is None else args.kernel
        if shards > 1 and kernel not in ("array", "native"):
            raise SystemExit(
                "--shards requires the array kernel or its native lowering "
                "(drop --kernel object)"
            )
        estimator_name = "stem" if args.estimator is None else args.estimator
        _reject_smc_sharding(estimator_name, shards, args.shard_workers)
        stream = LiveTraceStream(
            n_queues=args.queues,
            lateness=0.0 if args.lateness is None else args.lateness,
            max_pending=(
                100_000 if args.max_pending is None else args.max_pending
            ),
            retain=args.retain,
        )
        # The serve parser keeps its historical default of 30 StEM
        # iterations; every other None sentinel falls back to the
        # EstimatorConfig dataclass defaults.
        config = _estimator_config_from_args(
            args, args.window,
            stem_iterations=30 if args.iterations is None else args.iterations,
        )
        estimator = _build_estimator(
            estimator_name, stream,
            random_state=0 if args.seed is None else args.seed,
            config=config,
        )
        service = EstimatorService(
            estimator,
            checkpoint_path=args.checkpoint,
            checkpoint_every=(
                1 if args.checkpoint_every is None else args.checkpoint_every
            ),
            anomaly_threshold=(
                4.0 if args.anomaly_threshold is None else args.anomaly_threshold
            ),
        )
    server = LiveServer(
        service, host=args.host, port=args.port, authkey=_authkey(args.authkey)
    )
    service.start()
    server.start()
    host, port = server.address
    print(f"repro live service listening on {host}:{port}")
    print("ingest with: repro ingest TRACE.jsonl "
          f"--connect {host}:{port}" +
          (" --authkey <key>" if args.authkey else ""))
    try:
        server.wait_for_shutdown()
        print("shutdown requested; draining")
    except KeyboardInterrupt:
        print("\ninterrupted; draining")
    finally:
        server.close()
        service.stop()
    health = service.health()["service"]
    print(f"served {health['windows_published']} windows "
          f"({health['anomalies']} anomaly flags); status: {health['status']}")
    if health["status"] == "failed":
        print(f"estimator error: {health['error']}", file=sys.stderr)
        return 1
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.live import DEFAULT_BLOCK, IngestRouter, LiveServer

    if args.services < 1:
        raise SystemExit("--services must be at least 1")
    if args.window <= 0.0:
        raise SystemExit("--window must be positive")
    if args.shards < 1:
        raise SystemExit("--shards must be at least 1")
    if args.shard_workers is not None and args.shards == 1:
        raise SystemExit("--shard-workers requires --shards > 1")
    if args.shards > 1 and args.kernel not in ("array", "native"):
        raise SystemExit(
            "--shards requires the array kernel or its native lowering "
            "(drop --kernel object)"
        )
    _reject_smc_sharding(args.estimator, args.shards, args.shard_workers)
    service_config = {
        "n_queues": args.queues,
        "window": args.window,
        "estimator": args.estimator,
        "stem_iterations": args.iterations,
        "min_observed_tasks": args.min_observed,
        "random_state": args.seed,
        "shards": args.shards,
        "kernel": args.kernel,
        "worker_retries": args.worker_retries,
        "n_particles": args.particles,
        "ess_threshold": args.ess_threshold,
        "rejuvenation_sweeps": args.rejuvenation_sweeps,
        "lateness": args.lateness,
        "max_pending": args.max_pending,
        "checkpoint_every": args.checkpoint_every,
        "anomaly_threshold": args.anomaly_threshold,
    }
    if args.step is not None:
        service_config["step"] = args.step
    if args.shard_workers is not None:
        service_config["shard_workers"] = args.shard_workers
    if args.retain is not None:
        service_config["retain"] = args.retain
    router = IngestRouter(
        args.services,
        service_config,
        block=DEFAULT_BLOCK if args.block is None else args.block,
        checkpoint_dir=args.checkpoint_dir,
        authkey=_authkey(args.authkey),
        max_spool_records=args.max_spool,
        probe_interval=args.probe_interval,
    )
    print(f"starting {args.services} partition services ...")
    router.start()
    # The router implements the full service command surface, so the
    # stock LiveServer fronts the whole tier unchanged.
    server = LiveServer(
        router, host=args.host, port=args.port, authkey=_authkey(args.authkey)
    )
    server.start()
    host, port = server.address
    print(f"repro routing tier ({args.services} services) "
          f"listening on {host}:{port}")
    print("ingest with: repro ingest TRACE.jsonl "
          f"--connect {host}:{port}" +
          (" --authkey <key>" if args.authkey else ""))
    try:
        server.wait_for_shutdown()
        print("shutdown requested; draining")
    except KeyboardInterrupt:
        print("\ninterrupted; draining")
    finally:
        server.close()
        health = router.health()
        router.close()
    tier, router = health["service"], health["router"]
    print(f"served {tier['windows_published']} windows "
          f"({tier['anomalies']} anomaly flags) across "
          f"{router['n_partitions']} services; "
          f"status: {tier['status']}; "
          f"service restarts: {router['n_restarts']}")
    if tier["status"] == "failed":
        print(f"estimator error: {tier['error']}", file=sys.stderr)
        return 1
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import time

    from repro.errors import IngestError
    from repro.live import LiveClient, replay_batches

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--connect must be host:port, got {args.connect!r}")
    if args.speedup < 0.0:
        raise SystemExit("--speedup must be >= 0")
    if args.batch < 1:
        raise SystemExit("--batch must be at least 1")
    from repro.errors import InferenceError

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
    import time

    from repro.errors import IngestError
    from repro.live import LiveClient
    from repro.telemetry.console import render_top

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
        headers = ["queue", *(f"{f:.0%}" for f in result.fractions), "truth"]
        rows = [
            (result.queue_names[q],
             *(f"{result.service[f][q]:.4g}" for f in result.fractions),
             f"{result.true_service[q]:.4g}")
            for q in range(1, len(result.queue_names))
        ]
        print(render_table(headers, rows, title="\nFigure 5 (service estimates)"))
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
