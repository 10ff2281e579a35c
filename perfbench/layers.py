"""Spans, the wire probe, and the per-layer metrics computed from them.

A traced run records spans from the benchmark's own code around each call
into a layer: ``[id, parent, name, start_ns, end_ns, job, lane]``, kept
in memory per lane and written to one span file when the run ends.  A
span's *self time* is its duration minus its children's.  Which layer a
span belongs to is fixed by :data:`LAYER_OF`; everything in the measured
window outside those spans is ``unattributed_share``.

The serve and gateway processes cannot be wrapped from outside, so for
them the traced run adds an in-process *wire probe*: the batch stream of
the traced window pushed, batch by batch, through the same
``repro.serve.protocol`` codec calls, ``validate_batch_columns``,
``split_batch`` and ``BatchEngine.ingest`` the server side makes.

Per-layer metrics that a workload's path does not reach are reported as
0 (see ``perfbench/README.md`` for which layer runs where).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, Iterable, List, Optional

#: span name -> the layer its self time is charged to
LAYER_OF = {
    "tracefile.read_trace": "tracefile",
    "engine.ingest": "engine",
    "engine.races": "engine",
    "client.connect": "client",
    "client.send_batch": "client",
    "client.poll": "client",
    "client.finish": "client",
    # Blocked on credit: the time the session layer takes to ingest.
    "client.credit_wait": "session",
}
COLUMNS = ["id", "parent", "name", "start_ns", "end_ns", "job", "lane"]


class SpanLog:
    """The spans of one lane, in memory until the run ends."""

    def __init__(self, lane: int) -> None:
        self.lane = lane
        self.rows: List[list] = []

    def add(self, name: str, start: int, end: int, job: int,
            parent: int = -1) -> int:
        self.rows.append([len(self.rows), parent, name, start, end, job,
                          self.lane])
        return len(self.rows) - 1

    def start(self, name: str, job: int, parent: int = -1) -> int:
        return self.add(name, perf_counter_ns(), 0, job, parent)

    def end(self, span: int) -> None:
        self.rows[span][4] = perf_counter_ns()

    def adopt(self, rows: List[list], root: str) -> None:
        """Take in ``[name, start, end, job]`` spans recorded by the
        replayer: its ``replayer.job`` spans hang under this lane's
        ``root`` span of the same job, the rest under ``replayer.job``."""
        roots = {r[5]: r[0] for r in self.rows if r[2] == root}
        jobs = {}
        for name, start, end, job in rows:
            if name == "replayer.job":
                jobs[job] = self.add(name, start, end, job,
                                     roots.get(job, -1))
        for name, start, end, job in rows:
            if name != "replayer.job":
                self.add(name, start, end, job, jobs.get(job, -1))


def write_spans(path: Path, logs: List[SpanLog], meta: dict) -> None:
    """Write every lane's spans to one file, ids made run-unique."""
    spans = []
    for log in logs:
        base = len(spans)
        for sid, parent, *rest in log.rows:
            spans.append([base + sid, base + parent if parent >= 0 else -1,
                          *rest])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**meta, "columns": COLUMNS, "spans": spans}))


def self_times(path: Path) -> Dict[str, Dict[str, int]]:
    """Per span name: total ``self`` and ``total`` nanoseconds, and the
    span ``count``, read back from a span file."""
    spans = json.loads(path.read_text())["spans"]
    child_ns: Dict[int, int] = defaultdict(int)
    for _sid, parent, _name, start, end, _job, _lane in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: Dict[str, Dict[str, int]] = defaultdict(
        lambda: {"self": 0, "total": 0, "count": 0}
    )
    for sid, _parent, name, start, end, _job, _lane in spans:
        row = out[name]
        row["total"] += end - start
        row["self"] += end - start - child_ns[sid]
        row["count"] += 1
    return dict(out)


def layer_shares(times: Dict[str, Dict[str, int]],
                 lane_ns: int) -> Dict[str, float]:
    """Self time per layer of :data:`LAYER_OF`, as a share of lane time."""
    shares: Dict[str, float] = defaultdict(float)
    for name, layer in LAYER_OF.items():
        shares[layer] += times.get(name, {}).get("self", 0) / lane_ns
    return dict(shares)


def wire_probe(streams: Iterable[list], gateway: bool,
               budget_events: int) -> Dict[str, float]:
    """Push served batch streams through the server-side calls, timed.

    Each stream is one job's batches.  Per batch: encode
    (``encode_batch_payload`` + ``encode_frame``), decode
    (``parse_frame_header`` + ``check_payload_crc`` +
    ``decode_batch_payload``), ``validate_batch_columns``, then
    ``BatchEngine.ingest`` on lattice2d.  For the gateway the decoded
    batch is ``split_batch`` into two shards and every shard pays the
    codec a second time on its way to its worker, which ingests it.
    Each job's races go through ``encode_races``.  Stops after the job
    that crosses ``budget_events``.
    """
    from repro.engine.ingest import BatchEngine, split_batch
    from repro.obs.registry import NULL_REGISTRY
    from repro.serve import protocol as wire

    tot: Dict[str, float] = defaultdict(float)

    def hop(batch):
        t0 = perf_counter_ns()
        frame = wire.encode_frame(wire.FRAME_BATCH,
                                  wire.encode_batch_payload(batch))
        t1 = perf_counter_ns()
        head = frame[:wire.FRAME_HEADER_SIZE]
        _length, _ftype, crc = wire.parse_frame_header(head)
        payload = frame[wire.FRAME_HEADER_SIZE:]
        wire.check_payload_crc(payload, crc)
        decoded, _locs, _seq = wire.decode_batch_payload(payload)
        t2 = perf_counter_ns()
        wire.validate_batch_columns(decoded, None)
        t3 = perf_counter_ns()
        tot["encode_ns"] += t1 - t0
        tot["decode_ns"] += t2 - t1
        tot["validate_ns"] += t3 - t2
        return decoded

    for stream in streams:
        shards = 2 if gateway else 1
        engines = [BatchEngine(registry=NULL_REGISTRY) for _ in range(shards)]
        for batch in stream:
            before = tot["encode_ns"] + tot["decode_ns"] + tot["validate_ns"]
            decoded = hop(batch)
            if gateway:
                t0 = perf_counter_ns()
                subs = split_batch(decoded, shards)
                tot["split_ns"] += perf_counter_ns() - t0
                subs = [hop(sub) for sub in subs]
            else:
                subs = [decoded]
            for engine, sub in zip(engines, subs):
                t0 = perf_counter_ns()
                engine.ingest(sub)
                tot["ingest_ns"] += perf_counter_ns() - t0
            after = tot["encode_ns"] + tot["decode_ns"] + tot["validate_ns"]
            tot["wire_ns_per_batch_sum"] += after - before
            tot["batches"] += 1
            tot["events"] += len(batch)
        for engine in engines:
            t0 = perf_counter_ns()
            wire.encode_races(engine.detector.races)
            tot["encode_ns"] += perf_counter_ns() - t0
        if tot["events"] >= budget_events:
            break
    return tot


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pct(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0 for no samples."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_per_mevent(cpu: Dict[str, float], events: int) -> Dict[str, float]:
    return {
        f"{proc}.cpu_s_per_mevent": ratio(seconds, events / 1e6)
        for proc, seconds in cpu.items()
    }


def per_layer(workload: str, names: Iterable[str],
              times: Dict[str, Dict[str, int]], *, traced_events: int,
              traced_races: int, wall_ns: int, lanes: int,
              untraced_eps: float, traced_eps: float,
              cpu: Dict[str, float], untraced_events: int,
              served: Optional[dict] = None) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``names`` are all per-layer metric names (those off this
    workload's path stay 0); ``times`` comes from :func:`self_times`.
    ``served`` (serve and gateway only) carries the probe totals, client
    byte counts, the untraced window's batch latencies and metrics-port
    deltas.
    """
    def self_ns(name: str) -> int:
        return times.get(name, {}).get("self", 0)

    def total_ns(name: str) -> int:
        return times.get(name, {}).get("total", 0)

    m = {name: 0.0 for name in names}
    m.update(cpu_per_mevent(cpu, untraced_events))
    m["tracefile.read_ns_per_event"] = ratio(
        self_ns("tracefile.read_trace"), traced_events)
    kernel = {"replay": "lattice2d", "predict": "shb"}.get(workload)
    if kernel is not None:
        m[f"engine.{kernel}.ingest_ns_per_event"] = ratio(
            self_ns("engine.ingest"), traced_events)
    m["engine.races_per_mevent"] = ratio(traced_races, traced_events / 1e6)
    m["unattributed_share"] = 1.0 - sum(
        layer_shares(times, lanes * wall_ns).values())
    m["trace_overhead"] = ratio(untraced_eps, traced_eps) - 1.0
    if served is None:
        return m
    probe = served["probe"]
    m["engine.lattice2d.ingest_ns_per_event"] = ratio(
        probe["ingest_ns"], probe["events"])
    for part in ("encode", "decode", "validate"):
        m[f"wire.{part}_ns_per_event"] = ratio(
            probe[f"{part}_ns"], probe["events"])
    m["wire.bytes_in_per_event"] = ratio(served["bytes_in"], traced_events)
    m["wire.bytes_out_per_race"] = ratio(served["bytes_out"], traced_races)
    m["client.send_ns_per_event"] = ratio(
        self_ns("client.send_batch"), traced_events)
    m["client.credit_wait_share"] = ratio(
        total_ns("client.credit_wait"), total_ns("bench.job"))
    delta = served["delta"]
    batch_ms = statistics.fmean(served["batch_ns"]) / 1e6 \
        if served["batch_ns"] else 0.0
    if workload == "serve":
        service_ms = 1e3 * ratio(delta["serve_batch_service_seconds_sum"],
                                 delta["serve_batch_service_seconds_count"])
        wire_ms = ratio(probe["wire_ns_per_batch_sum"], probe["batches"]) / 1e6
        m["session.service_ms_mean"] = service_ms
        m["session.overhead_ms_mean"] = batch_ms - service_ms - wire_ms
        m["session.credit_stalls"] = delta["serve_credit_stalls_total"]
        m["session.queue_depth_max"] = served["queue_depth_max"]
    else:
        m["engine.split_ns_per_event"] = ratio(
            probe["split_ns"], probe["events"])
        routed = served["routed"]
        shipped = delta["cluster_lifecycle_events_total"] * len(routed)
        m["gateway.added_latency_ms_p50"] = (
            pct(served["batch_ns"], 50) - pct(served["control_ns"], 50)
        ) / 1e6
        m["gateway.shard_skew"] = ratio(
            max(routed), statistics.fmean(routed))
        m["gateway.replicated_share"] = ratio(shipped, shipped + sum(routed))
        m["gateway.credit_stalls"] = delta["cluster_credit_stalls_total"]
    return m

