"""Command-line interface: run monitored programs, compare detectors.

Usage examples::

    repro-race demo                       # the paper's Figure 2 program
    repro-race run prog.py --entry main --detector lattice2d
    repro-race run prog.py --compare      # all applicable detectors
    repro-race run prog.py --dot out.dot  # export the task graph
    repro-race record prog.py --compact -o t.rtrc   # engine trace format
    repro-race replay t.rtrc              # batched fast path
    repro-race diff t.rtrc                # differential detector check
    repro-race bench-engine --accesses 100000       # ingestion throughput
    repro-race stats t.rtrc --format prom # metrics + phase timings
    repro-race --metrics m.json replay t.rtrc       # dump counters after
    repro-race serve --port 7521 --metrics-port 9100  # streaming ingest
    repro-race serve --port 7521 --checkpoint-dir ck  # durable sessions
    repro-race submit t.rtrc --port 7521 --sessions 4 # replay over TCP
    repro-race submit t.rtrc --port 7521 --session s1 # resumable stream
    repro-race checkpoint t.rtrc -o state.ckpt        # snapshot detector
    repro-race restore state.ckpt --trace more.rtrc   # resume ingestion

A program file is ordinary Python defining a task body (generator
function) named by ``--entry`` (default ``main``); see
:mod:`repro.forkjoin.program` for the effect vocabulary.

Every invocation runs against a fresh metrics registry
(:mod:`repro.obs`); the global ``--metrics PATH`` flag dumps its
snapshot when the command finishes (``.prom``/``.txt`` for the
Prometheus text format, anything else JSON).
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from typing import Callable, List, Optional

from repro.bench.harness import DETECTOR_FACTORIES, compare_detectors
from repro.bench.tables import format_table
from repro.errors import ReproError
from repro.forkjoin.interpreter import run

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-race",
        description=(
            "Online race detection for structured fork-join programs "
            "(2D-lattice task graphs), after Dimitrov, Vechev & Sarkar, "
            "SPAA 2015."
        ),
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro-race {__version__}"
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="after the command finishes, dump the metrics registry "
        "snapshot to PATH (.prom/.txt: Prometheus text format, "
        "otherwise JSON)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a program file under a detector")
    p_run.add_argument("file", help="Python file defining the task body")
    p_run.add_argument(
        "--entry", default="main", help="body function name (default: main)"
    )
    p_run.add_argument(
        "--detector",
        default="lattice2d",
        choices=sorted(DETECTOR_FACTORIES),
        help="which detector to attach",
    )
    p_run.add_argument(
        "--compare",
        action="store_true",
        help="run under lattice2d, vectorclock and fasttrack; print a table",
    )
    p_run.add_argument(
        "--dot", metavar="PATH", help="write the task graph as Graphviz DOT"
    )
    p_run.add_argument(
        "--max-races", type=int, default=20, help="reports to print"
    )

    p_rec = sub.add_parser(
        "record", help="run a program file and save its event trace"
    )
    p_rec.add_argument("file", help="Python file defining the task body")
    p_rec.add_argument("--entry", default="main")
    p_rec.add_argument(
        "-o", "--output", required=True, metavar="TRACE",
        help="trace file to write (JSON lines)",
    )
    p_rec.add_argument(
        "--compact",
        action="store_true",
        help="write the engine's compact binary trace format instead of "
        "JSON lines (columnar batch + location table; labels dropped)",
    )

    p_rep = sub.add_parser(
        "replay", help="replay a recorded trace under a detector"
    )
    p_rep.add_argument(
        "trace",
        help="trace file from `record` (JSONL or compact; auto-detected)",
    )
    p_rep.add_argument(
        "--detector",
        default="lattice2d",
        choices=sorted(DETECTOR_FACTORIES),
    )
    p_rep.add_argument(
        "--predict",
        action="store_true",
        help="sound race prediction: replay under the shb engine and "
        "report every racing pair feasible in some reordering of the "
        "trace, not just the observed interleaving (see "
        "docs/PREDICTION.md); mutually exclusive with a non-default "
        "--detector",
    )
    p_rep.add_argument("--max-races", type=int, default=20)
    p_rep.add_argument(
        "--batch-size",
        type=int,
        default=8192,
        help="compact traces only: events per ingested batch",
    )

    p_diff = sub.add_parser(
        "diff",
        help="replay one trace through several detectors in lockstep and "
        "report any per-access verdict disagreement",
    )
    p_diff.add_argument("trace", help="trace file (JSONL or compact)")
    p_diff.add_argument(
        "--detectors",
        default="lattice2d,fasttrack,spbags",
        help="comma-separated detector names (default: "
        "lattice2d,fasttrack,spbags; spbags needs spawn-sync traces)",
    )
    p_diff.add_argument(
        "--max-divergences", type=int, default=20, help="divergences to print"
    )

    p_be = sub.add_parser(
        "bench-engine",
        help="measure the ingestion paths (replay / per-event / batched / "
        "predict) on a racegen bulk workload",
    )
    p_be.add_argument("--accesses", type=int, default=100_000)
    p_be.add_argument("--fanout", type=int, default=8)
    p_be.add_argument("--accesses-per-task", type=int, default=250)
    p_be.add_argument(
        "--race-free",
        action="store_true",
        help="do not seed racing rounds into the workload",
    )
    p_be.add_argument("--batch-size", type=int, default=8192)
    p_be.add_argument("--repeats", type=int, default=3)
    p_be.add_argument(
        "--json", metavar="PATH", help="also write the full record as JSON"
    )

    p_st = sub.add_parser(
        "stats",
        help="replay a trace through the batch engine with metrics and "
        "phase tracing enabled; print the registry snapshot",
    )
    p_st.add_argument(
        "trace",
        help="trace file from `record` (JSONL or compact; auto-detected)",
    )
    p_st.add_argument(
        "--detector",
        default="lattice2d",
        choices=sorted(DETECTOR_FACTORIES),
    )
    p_st.add_argument("--batch-size", type=int, default=8192)
    p_st.add_argument(
        "--format",
        choices=("table", "json", "prom"),
        default="table",
        help="how to print the snapshot (default: table)",
    )

    p_sv = sub.add_parser(
        "serve",
        help="run the streaming trace-ingest server (RPRSERVE over TCP); "
        "SIGTERM drains live sessions before exiting",
    )
    p_sv.add_argument(
        "--host", default="127.0.0.1", help="listen address"
    )
    p_sv.add_argument(
        "--port", type=int, default=7521,
        help="listen port (default: 7521; 0 picks a free one)",
    )
    p_sv.add_argument(
        "--credit-window", type=int, default=8,
        help="BATCH frames a session may have outstanding (default: 8)",
    )
    p_sv.add_argument(
        "--queue-high-water", type=int, default=6,
        help="queued batches per session above which credit grants are "
        "withheld (default: 6)",
    )
    p_sv.add_argument(
        "--max-frame", type=int, default=8 * 1024 * 1024,
        help="largest frame payload accepted, in bytes (default: 8 MiB)",
    )
    p_sv.add_argument(
        "--idle-timeout", type=float, default=30.0,
        help="seconds of session silence before disconnect (default: 30)",
    )
    p_sv.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="enable durable sessions: clients that RESUME with a "
        "token get periodic background checkpoints here and can "
        "reconnect after a crash without losing detection state",
    )
    p_sv.add_argument(
        "--checkpoint-interval", type=int, default=32, metavar="N",
        help="applied batches between background checkpoints of a "
        "durable session (default: 32)",
    )
    p_sv.add_argument(
        "--predict",
        action="store_true",
        help="serve sessions in sound race-prediction mode (shb): "
        "stream one report per feasibly-reorderable racing pair "
        "instead of observed-order races (incompatible with "
        "--checkpoint-dir; see docs/PREDICTION.md)",
    )
    p_sv.add_argument(
        "--metrics-port", type=int, metavar="PORT",
        help="also serve the live Prometheus snapshot on "
        "http://HOST:PORT/metrics (stdlib http.server thread)",
    )
    p_sv.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="serve as a location-sharded gateway over N engine worker "
        "processes (multi-node scale-out; accesses route to worker "
        "lid %% N and a killed worker is respawned with its sessions "
        "migrated -- see docs/SCALE_OUT.md); incompatible with "
        "--predict (default: 1, single node)",
    )
    p_sv.add_argument(
        "--log-dir", metavar="DIR",
        help="with --workers: capture each worker's stdout/stderr as "
        "DIR/worker-K.log (CI uploads these on failure)",
    )

    p_sub2 = sub.add_parser(
        "submit",
        help="replay a trace (or a generated racegen workload) against "
        "a running serve instance over TCP",
    )
    p_sub2.add_argument(
        "trace", nargs="?",
        help="trace file from `record` (JSONL or compact; auto-"
        "detected); omit when using --racegen",
    )
    p_sub2.add_argument(
        "--racegen", type=int, metavar="ACCESSES",
        help="generate a racegen bulk workload of roughly this many "
        "accesses instead of reading a trace file",
    )
    p_sub2.add_argument(
        "--racegen-loops", type=int, metavar="ACCESSES",
        help="generate a repetitive racegen loop workload of roughly "
        "this many accesses instead of reading a trace file",
    )
    p_sub2.add_argument("--host", default="127.0.0.1")
    p_sub2.add_argument("--port", type=int, default=7521)
    p_sub2.add_argument(
        "--sessions", type=int, default=1,
        help="concurrent connections for load generation (default: 1)",
    )
    p_sub2.add_argument(
        "--batch-size", type=int, default=8192,
        help="events per BATCH frame (default: 8192)",
    )
    p_sub2.add_argument(
        "--ship-locations", action="store_true",
        help="ship the location table over the wire so the server's "
        "race reports use original locations (slower; default keeps "
        "the table client-side and decodes locally)",
    )
    p_sub2.add_argument("--max-races", type=int, default=20)
    p_sub2.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-socket-operation timeout in seconds (default: 60)",
    )
    p_sub2.add_argument(
        "--session", metavar="TOKEN",
        help="durable session token: sequence batches, survive server "
        "restarts by resuming from its checkpoint, and replay "
        "idempotently (needs a serve instance running with "
        "--checkpoint-dir; incompatible with --sessions > 1)",
    )

    p_ck = sub.add_parser(
        "checkpoint",
        help="replay a trace through the batch engine and save the "
        "detector state as a CRC-checked checkpoint file",
    )
    p_ck.add_argument(
        "trace",
        help="trace file from `record` (JSONL or compact; auto-detected)",
    )
    p_ck.add_argument(
        "-o", "--output", required=True, metavar="CKPT",
        help="checkpoint file to write",
    )
    p_ck.add_argument("--batch-size", type=int, default=8192)

    p_rs = sub.add_parser(
        "restore",
        help="load a checkpoint file back into a batch engine, "
        "optionally continue ingesting another trace, and report races",
    )
    p_rs.add_argument("checkpoint", help="checkpoint file from `checkpoint`")
    p_rs.add_argument(
        "--trace", metavar="TRACE",
        help="also ingest this trace on top of the restored state",
    )
    p_rs.add_argument("--batch-size", type=int, default=8192)
    p_rs.add_argument("--max-races", type=int, default=20)

    p_tl = sub.add_parser(
        "timeline",
        help="run a program and print its task-line evolution "
        "(Figure 10-style)",
    )
    p_tl.add_argument("file", help="Python file defining the task body")
    p_tl.add_argument("--entry", default="main")

    sub.add_parser("demo", help="run the paper's Figure 2 example")
    sub.add_parser("detectors", help="list available detectors")
    return parser


def _load_body(path: str, entry: str) -> Callable:
    spec = importlib.util.spec_from_file_location("monitored_program", path)
    if spec is None or spec.loader is None:
        raise ReproError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except OSError as exc:
        raise ReproError(f"cannot load {path}: {exc}") from exc
    body = getattr(module, entry, None)
    if body is None:
        raise ReproError(f"{path} does not define {entry!r}")
    return body


def _figure2_body():
    from repro.forkjoin.program import fork, join, read, step, write

    def task_a(self):
        yield read("l", label="A")

    def task_c(self, a):
        yield join(a)
        yield step(label="C")

    def main(self):
        a = yield fork(task_a)
        yield read("l", label="B")
        c = yield fork(task_c, a)
        yield write("l", label="D")
        yield join(c)

    return main


def _run_single(body: Callable, detector_name: str, max_races: int,
                dot_path: Optional[str]) -> int:
    detector = DETECTOR_FACTORIES[detector_name]()
    ex = run(body, observers=[detector], record_events=dot_path is not None)
    print(
        f"{detector.name}: {ex.task_count} tasks, {ex.op_count} operations, "
        f"{len(detector.races)} race(s)"
    )
    for report in detector.races[:max_races]:
        print(f"  {report}")
    if len(detector.races) > max_races:
        print(f"  ... and {len(detector.races) - max_races} more")
    if dot_path is not None:
        from repro.forkjoin.taskgraph import build_task_graph
        from repro.viz.dot import task_graph_to_dot

        assert ex.events is not None
        with open(dot_path, "w", encoding="utf-8") as handle:
            handle.write(task_graph_to_dot(build_task_graph(ex.events)))
        print(f"task graph written to {dot_path}")
    return 1 if detector.races else 0


def _load_batch(path: str):
    """Load any trace file as ``(batch, interner)``: compact traces
    directly, JSONL traces via the event decoder."""
    from repro.engine.batch import batch_from_events
    from repro.engine.tracefile import is_tracefile, read_trace

    if is_tracefile(path):
        return read_trace(path)
    from repro.trace import load_events

    return batch_from_events(load_events(path))


def _batch_engine(detector_name: str, interner, registry=None):
    """The engine ``replay`` and ``stats`` run a trace through.

    ``lattice2d`` gets the engine's own
    :class:`~repro.core.detector.RaceDetector2D`, so its batches take
    the inlined kernel; any other detector takes the generic loop.
    """
    from repro.engine.ingest import BatchEngine

    if detector_name == "lattice2d":
        return BatchEngine(interner=interner, registry=registry)
    detector = DETECTOR_FACTORIES[detector_name]()
    detector.on_root(0)
    return BatchEngine(detector, interner=interner, registry=registry)


def _replay_compact(args) -> int:
    from repro.engine.ingest import BatchEngine
    from repro.engine.tracefile import read_trace

    if args.predict and args.detector != "lattice2d":
        raise ReproError(
            "--predict runs the engine's own shb prediction "
            f"detector; drop --detector {args.detector} or drop "
            "--predict"
        )
    batch, interner = read_trace(args.trace)
    if args.predict:
        engine = BatchEngine(predict=True, interner=interner)
        name = "shb predict"
    else:
        engine = _batch_engine(args.detector, interner)
        name = args.detector
    engine.ingest_all(batch.slices(args.batch_size))
    races = engine.races()
    print(
        f"{name}: replayed {engine.events_ingested} events (batched), "
        f"{len(races)} race(s)"
    )
    for report in races[: args.max_races]:
        print(f"  {report}")
    return 1 if races else 0


def _diff_trace(args) -> int:
    from repro.engine.differential import check_conformance

    names = [n.strip() for n in args.detectors.split(",") if n.strip()]
    batch, interner = _load_batch(args.trace)
    report = check_conformance(batch, interner, names)
    print(report.summary())
    for div in report.divergences[: args.max_divergences]:
        print(f"  {div}")
    if len(report.divergences) > args.max_divergences:
        remaining = len(report.divergences) - args.max_divergences
        print(f"  ... and {remaining} more")
    return 0 if report.agreed else 1


def _stats(args) -> int:
    from repro.obs import (
        PhaseTracer,
        bind_detector,
        get_registry,
        set_tracer,
        to_json,
        to_prometheus,
    )

    registry = get_registry()
    batch, interner = _load_batch(args.trace)
    tracer = PhaseTracer(enabled=True, registry=registry)
    previous_tracer = set_tracer(tracer)
    try:
        engine = _batch_engine(args.detector, interner, registry)
        bind_detector(
            registry, engine.detector, {"detector": args.detector}
        )
        engine.ingest_all(batch.slices(args.batch_size))
        races = engine.races()
    finally:
        set_tracer(previous_tracer)
    if args.format == "json":
        print(to_json(registry, tracer=tracer))
    elif args.format == "prom":
        print(to_prometheus(registry), end="")
    else:
        snapshot = registry.snapshot()
        rows = [
            {"metric": series, "value": value}
            for section in ("counters", "gauges")
            for series, value in snapshot[section].items()
        ]
        print(format_table(rows, title=f"metrics for {args.trace}"))
        phase_rows = [
            {"phase": path, "calls": agg["calls"],
             "seconds": round(agg["seconds"], 6)}
            for path, agg in tracer.totals().items()
        ]
        if phase_rows:
            print(format_table(phase_rows, title="phase timings"))
    print(
        f"replayed {engine.events_ingested} events, {len(races)} race(s)"
    )
    return 1 if races else 0


def _bench_engine(args) -> int:
    from repro.engine.benchlib import format_record, run_engine_benchmark

    record = run_engine_benchmark(
        accesses=args.accesses,
        fanout=args.fanout,
        accesses_per_task=args.accesses_per_task,
        racy=not args.race_free,
        batch_size=args.batch_size,
        repeats=args.repeats,
    )
    title = (
        f"engine ingestion ({record['workload']['accesses']} accesses, "
        f"{record['workload']['events']} events)"
    )
    print(format_table(format_record(record), title=title))
    diff = record["differential"]
    print(
        f"batched vs per-event: {record['speedup_batched_vs_per_event']}x; "
        f"differential: {diff['divergences']} divergence(s) across "
        f"{', '.join(diff['detectors'])}; predict sound: "
        f"{diff['predict_sound']}"
    )
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"record written to {args.json}")
    return 0


def _serve(args) -> int:
    from repro.serve import RaceServer, ServeConfig

    if args.workers > 1:
        return _serve_cluster(args)
    if args.log_dir is not None:
        raise ReproError("--log-dir only applies with --workers > 1")

    config = ServeConfig(
        host=args.host,
        port=args.port,
        credit_window=args.credit_window,
        queue_high_water=args.queue_high_water,
        max_frame=args.max_frame,
        idle_timeout=args.idle_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        predict=args.predict,
    )

    def banner(server, port: int) -> str:
        durability = (
            f", checkpoints in {config.checkpoint_dir} every "
            f"{config.checkpoint_interval} batches"
            if config.checkpoint_dir is not None
            else ""
        )
        mode = ", predict mode (shb)" if config.predict else ""
        return (
            f"serving RPRSERVE on {config.host}:{port} "
            f"(credit window {config.credit_window}"
            f"{durability}{mode}); SIGTERM drains"
        )

    return _run_front_end(RaceServer(config), banner, args.metrics_port)


def _serve_cluster(args) -> int:
    from repro.serve import ClusterConfig, RaceCluster

    if args.predict:
        raise ReproError(
            "the gateway serves observed-order detection only: "
            "--predict cannot be combined with --workers > 1"
        )

    config = ClusterConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        credit_window=args.credit_window,
        queue_high_water=args.queue_high_water,
        max_frame=args.max_frame,
        idle_timeout=args.idle_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        log_dir=args.log_dir,
    )

    def banner(cluster, port: int) -> str:
        ports = ", ".join(str(w.port) for w in cluster.workers)
        return (
            f"serving RPRSERVE on {config.host}:{port} as a "
            f"gateway over {config.workers} engine workers "
            f"(ports {ports}; credit window {config.credit_window}); "
            f"SIGTERM drains"
        )

    return _run_front_end(RaceCluster(config), banner, args.metrics_port)


def _run_front_end(front, banner: Callable, metrics_port) -> int:
    """Bind ``front`` (a server or a gateway), expose its registry on
    ``metrics_port`` if given, print ``banner(front, port)`` and serve
    until SIGTERM/SIGINT drains it."""
    import asyncio

    from repro.serve import EXIT_BIND_FAILURE, start_metrics_http

    host = front.config.host

    async def _run() -> int:
        try:
            port = await front.start()
        except OSError as exc:
            print(
                f"error: cannot bind {host}:{front.config.port}: {exc}",
                file=sys.stderr,
            )
            return EXIT_BIND_FAILURE
        front.install_signal_handlers()
        httpd = None
        try:
            if metrics_port is not None:
                try:
                    httpd = start_metrics_http(
                        metrics_port, front.registry, host=host
                    )
                except OSError as exc:
                    print(
                        f"error: cannot bind metrics port "
                        f"{metrics_port}: {exc}",
                        file=sys.stderr,
                    )
                    await front.shutdown()
                    return EXIT_BIND_FAILURE
                print(f"metrics on http://{host}:{httpd.server_port}/metrics")
            print(banner(front, port))
            await front.serve_forever()
        finally:
            if httpd is not None:
                httpd.shutdown()
                httpd.server_close()
        return 0

    return asyncio.run(_run())


def _submit(args) -> int:
    from dataclasses import replace

    from repro.errors import ProtocolError
    from repro.serve import (
        EXIT_CONNECT_FAILURE,
        EXIT_PROTOCOL_FAILURE,
        ConnectError,
        RaceClient,
        RemoteError,
        run_load,
        submit_batch,
    )

    if args.session is not None and args.sessions > 1:
        raise ReproError(
            "--session tags one durable stream; it cannot be combined "
            "with --sessions load generation"
        )
    if args.racegen is not None and args.racegen_loops is not None:
        raise ReproError("pass --racegen or --racegen-loops, not both")
    if args.racegen is not None:
        from repro.engine.benchlib import build_workload, capture

        _events, batch, interner = capture(build_workload(args.racegen))
        source = f"racegen[{args.racegen}]"
    elif args.racegen_loops is not None:
        from repro.engine.benchlib import build_loop_workload, capture

        _events, batch, interner = capture(
            build_loop_workload(args.racegen_loops)
        )
        source = f"racegen-loops[{args.racegen_loops}]"
    elif args.trace:
        batch, interner = _load_batch(args.trace)
        source = args.trace
    else:
        raise ReproError(
            "submit needs a trace file, --racegen N or --racegen-loops N"
        )
    target = f"{args.host}:{args.port}"
    try:
        if args.sessions > 1:
            result = run_load(
                args.host, args.port, batch,
                sessions=args.sessions, batch_size=args.batch_size,
                timeout=args.timeout,
            )
            print(
                f"{args.sessions} sessions x {len(batch)} events from "
                f"{source} to {target}: {result.events} events in "
                f"{result.seconds:.3f}s "
                f"({result.events_per_sec:,.0f} events/sec), "
                f"{result.races} race report(s)"
            )
            return 1 if result.races else 0
        if args.session is not None:
            with RaceClient(
                args.host, args.port, timeout=args.timeout,
                interner=interner, ship_locations=args.ship_locations,
                session=args.session,
            ) as client:
                client.send_batches(batch, args.batch_size)
                summary = client.finish()
        else:
            summary = submit_batch(
                args.host, args.port, batch, interner=interner,
                batch_size=args.batch_size,
                ship_locations=args.ship_locations, timeout=args.timeout,
            )
        reports = summary.reports
        if not args.ship_locations and interner is not None:
            reports = [
                replace(r, loc=interner.location(r.loc)) for r in reports
            ]
        print(
            f"submitted {summary.events} events from {source} to "
            f"{target}: {summary.races} race report(s)"
        )
        for report in reports[: args.max_races]:
            print(f"  {report}")
        if len(reports) > args.max_races:
            print(f"  ... and {len(reports) - args.max_races} more")
        return 1 if summary.races else 0
    except ConnectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONNECT_FAILURE
    except (RemoteError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL_FAILURE


def _checkpoint_cmd(args) -> int:
    from repro.engine.ingest import BatchEngine
    from repro.engine.snapshot import save_checkpoint

    batch, interner = _load_batch(args.trace)
    engine = BatchEngine(interner=interner)
    engine.ingest_all(batch.slices(args.batch_size))
    nbytes = save_checkpoint(
        engine, args.output, meta={"source": args.trace}
    )
    print(
        f"checkpointed {engine.events_ingested} events "
        f"({len(engine.detector.races)} race(s), {nbytes} bytes) "
        f"to {args.output}"
    )
    return 0


def _restore_cmd(args) -> int:
    from repro.engine.snapshot import load_checkpoint

    engine, meta = load_checkpoint(args.checkpoint)
    restored_events = engine.events_ingested
    print(
        f"restored {restored_events} events "
        f"({len(engine.detector.races)} race(s)) from {args.checkpoint}"
    )
    if meta:
        import json

        print(f"meta: {json.dumps(meta, sort_keys=True)}")
    if args.trace:
        batch, _interner = _load_batch(args.trace)
        engine.ingest_all(batch.slices(args.batch_size))
        print(
            f"continued with {engine.events_ingested - restored_events} "
            f"events from {args.trace}"
        )
    races = engine.races()
    print(f"total: {engine.events_ingested} events, {len(races)} race(s)")
    for report in races[: args.max_races]:
        print(f"  {report}")
    if len(races) > args.max_races:
        print(f"  ... and {len(races) - args.max_races} more")
    return 1 if races else 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.obs import MetricsRegistry, set_registry, write_metrics

    args = build_parser().parse_args(argv)
    # One fresh registry per invocation: engine counters land here and
    # `--metrics` dumps exactly this command's activity.
    registry = MetricsRegistry()
    previous_registry = set_registry(registry)
    try:
        code = _dispatch(args)
        if args.metrics:
            fmt = write_metrics(args.metrics, registry)
            print(f"metrics ({fmt}) written to {args.metrics}")
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_registry(previous_registry)


def _dispatch(args) -> int:
    if args.command == "detectors":
        for name in sorted(DETECTOR_FACTORIES):
            print(name)
        return 0
    if args.command == "demo":
        print("Figure 2 of the paper: race between A and D expected.\n")
        return _run_single(_figure2_body(), "lattice2d", 20, None)
    if args.command == "record":
        body = _load_body(args.file, args.entry)
        if args.compact:
            from repro.engine.tracefile import record_trace

            count = record_trace(body, path=args.output)
            print(
                f"recorded {count} events (compact) to {args.output}"
            )
            return 0
        from repro.trace import dump_events

        ex = run(body, record_events=True)
        assert ex.events is not None
        count = dump_events(ex.events, args.output)
        print(
            f"recorded {count} events ({ex.task_count} tasks) "
            f"to {args.output}"
        )
        return 0
    if args.command == "replay":
        from repro.engine.tracefile import is_tracefile

        if is_tracefile(args.trace):
            return _replay_compact(args)
        from repro.forkjoin.replay import replay_events
        from repro.trace import load_events

        if args.predict and args.detector != "lattice2d":
            raise ReproError(
                "--predict runs the shb prediction detector; drop "
                f"--detector {args.detector} or drop --predict"
            )
        detector = DETECTOR_FACTORIES[
            "shb" if args.predict else args.detector
        ]()
        events = load_events(args.trace)
        ex2 = replay_events(events, observers=[detector])
        print(
            f"{detector.name}: replayed {ex2.op_count} events, "
            f"{len(detector.races)} race(s)"
        )
        for report in detector.races[: args.max_races]:
            print(f"  {report}")
        return 1 if detector.races else 0
    if args.command == "diff":
        return _diff_trace(args)
    if args.command == "stats":
        return _stats(args)
    if args.command == "bench-engine":
        return _bench_engine(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "submit":
        return _submit(args)
    if args.command == "checkpoint":
        return _checkpoint_cmd(args)
    if args.command == "restore":
        return _restore_cmd(args)
    if args.command == "timeline":
        from repro.viz.timeline import LineTracker, render_timeline

        body = _load_body(args.file, args.entry)
        tracker = LineTracker()
        run(body, observers=[tracker])
        print(render_timeline(tracker))
        return 0
    body = _load_body(args.file, args.entry)
    if args.compare:
        stats = compare_detectors(body)
        print(format_table([s.row() for s in stats], title=args.file))
        return 1 if any(s.races for s in stats) else 0
    return _run_single(body, args.detector, args.max_races, args.dot)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
