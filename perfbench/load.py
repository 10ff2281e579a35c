"""Closed-loop load: jobs against the system under test, verdicts checked.

A *job* is one corpus trace submitted for a verdict.  Each lane of load
runs one job at a time and starts the next only when the previous one
has its verdict (a closed loop); lanes draw traces from their own seeded
shuffle of the corpus, cycle after cycle.  Every verdict is compared with
the reference as a multiset of race reports; a job fails if it raises,
times out, gets an ERROR frame, or returns a different multiset.  Failed
jobs are counted, never retried.

* :class:`OfflineLoad` -- one lane feeding trace paths to the replayer;
* :class:`ServedLoad` -- two lanes (threads), one RPRSERVE session per
  job, each job streaming its trace at the batch size the corpus manifest
  gives it.
"""

from __future__ import annotations

import random
import select
import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, Iterator, List, Optional

from repro.engine.tracefile import read_trace
from repro.errors import ReproError
from repro.serve import protocol as wire
from repro.serve.client import ConnectError, RaceClient, TransportError

from layers import SpanLog
from sut import HarnessError, Replayer, Server

#: per-socket-operation timeout of a served job, and the replayer's
#: per-job reply timeout
JOB_TIMEOUT = 30.0
SERVED_LANES = 2


@dataclass
class Job:
    name: str
    events: int
    ok: bool
    job_ns: int
    error: str = ""


@dataclass
class Lane:
    """What one lane recorded during a leg."""

    jobs: List[Job] = field(default_factory=list)
    batch_ns: List[int] = field(default_factory=list)
    bytes_in: int = 0  #: BATCH frame bytes sent, headers included
    bytes_out: int = 0  #: RACES frame bytes received, headers included
    races: int = 0
    end: float = 0.0
    spans: Optional[SpanLog] = None


@dataclass
class Leg:
    """One measured window: every lane's record and the wall time."""

    wall_s: float
    lanes: List[Lane]

    @property
    def jobs(self) -> List[Job]:
        return [job for lane in self.lanes for job in lane.jobs]

    @property
    def events(self) -> int:
        """Events whose verdict was delivered and correct."""
        return sum(job.events for job in self.jobs if job.ok)

    @property
    def batch_ns(self) -> List[int]:
        return [ns for lane in self.lanes for ns in lane.batch_ns]


def job_plan(manifest: List[dict], seed: int, lane: int) -> Iterator[dict]:
    """Endless seeded shuffles of the corpus for one lane."""
    rng = random.Random(f"perfbench-jobs-{seed}-{lane}")
    while True:
        order = list(manifest)
        rng.shuffle(order)
        yield from order


def warmup_entries(manifest: List[dict]) -> List[dict]:
    """The smallest trace of each shape: enough to finish lazy set-up."""
    smallest: Dict[str, dict] = {}
    for entry in manifest:
        best = smallest.get(entry["shape"])
        if best is None or entry["events"] < best["events"]:
            smallest[entry["shape"]] = entry
    return list(smallest.values())


def _key(row, drop_positions: bool) -> tuple:
    # [loc, task, kind, prior_kind, prior_repr, op_index]
    return tuple(row[:4]) if drop_positions else tuple(row)


class OfflineLoad:
    """One lane of replay jobs through a :class:`Replayer`."""

    def __init__(self, root: Path, manifest: List[dict],
                 reference: Dict[str, List[list]], seed: int) -> None:
        self.replayer: Optional[Replayer] = None
        self.root = root
        self.plan = job_plan(manifest, seed, 0)
        # The replayer returns decoded locations; decode the reference's
        # location ids the same way.
        self.expected = {}
        for entry in manifest:
            _, interner = read_trace(str(root / entry["file"]))
            self.expected[entry["name"]] = Counter(
                (repr(interner.location(row[0])), *row[1:])
                for row in reference[entry["name"]]
            )
        self._next_id = 0

    def attach(self, replayer: Replayer) -> None:
        self.replayer = replayer

    def _job(self, entry: dict, lane: Lane) -> bool:
        job_id = self._next_id
        self._next_id += 1
        t0 = perf_counter_ns()
        try:
            reply = self.replayer.request(
                {"op": "job", "id": job_id,
                 "path": str(self.root / entry["file"])},
                timeout=JOB_TIMEOUT,
            )
        except (HarnessError, OSError, ValueError) as exc:
            lane.jobs.append(Job(entry["name"], entry["events"], False, 0,
                                 f"replayer failed: {exc}"))
            return False
        t1 = perf_counter_ns()
        got = Counter(tuple(row) for row in reply["races"])
        ok = got == self.expected[entry["name"]]
        lane.jobs.append(Job(
            entry["name"], reply["events"], ok, reply["job_ns"],
            "" if ok else f"verdict differs from reference: {sorted(got)}",
        ))
        lane.batch_ns.extend(reply["batch_ns"])
        lane.races += len(reply["races"])
        if lane.spans is not None:
            lane.spans.add("bench.job", t0, t1, job_id)
        return True

    def warmup(self, entries: List[dict]) -> Leg:
        lane = Lane()
        for entry in entries:
            self._job(entry, lane)
        return Leg(0.0, [lane])

    def leg(self, seconds: float, tracing: bool) -> Leg:
        lane = Lane(spans=SpanLog(0) if tracing else None)
        if tracing:
            self.replayer.request({"op": "trace", "on": True})
        start = perf_counter()
        deadline = start + seconds
        while perf_counter() < deadline:
            if not self._job(next(self.plan), lane):
                break
        lane.end = perf_counter()
        if tracing:
            self.replayer.request({"op": "trace", "on": False})
            child = self.replayer.request({"op": "spans"})["spans"]
            lane.spans.adopt(child, "bench.job")
        return Leg(lane.end - start, [lane])


class TimedClient(RaceClient):
    """A :class:`RaceClient` that timestamps every BATCH frame and the
    CREDIT that covers it.

    The server returns one credit per batch it has ingested, first in
    first out per session, so a grant of *k* closes the *k* oldest open
    batches.  :meth:`poll` folds in frames that have already arrived
    without blocking; calling it after each send keeps a grant's
    timestamp within one send of its arrival.  With a span log set, the
    time ``send_batch`` spends blocked on credit is recorded as
    ``client.credit_wait`` under the open send span.
    """

    def __init__(self, port: int, lane: Lane) -> None:
        super().__init__("127.0.0.1", port, timeout=JOB_TIMEOUT,
                         backend="lattice2d")
        self.lane = lane
        self.job = -1
        self.send_span: Optional[int] = None
        self._open: deque = deque()

    def _send_frame(self, ftype: int, payload: bytes = b"") -> None:
        if ftype == wire.FRAME_BATCH:
            self._open.append(perf_counter_ns())
            self.lane.bytes_in += wire.FRAME_HEADER_SIZE + len(payload)
        super()._send_frame(ftype, payload)

    def _pump(self):
        start = perf_counter_ns()
        ftype, payload = super()._pump()
        now = perf_counter_ns()
        if ftype == wire.FRAME_CREDIT:
            for _ in range(min(wire.decode_credit(payload), len(self._open))):
                self.lane.batch_ns.append(now - self._open.popleft())
        elif ftype == wire.FRAME_RACES:
            self.lane.bytes_out += wire.FRAME_HEADER_SIZE + len(payload)
        if self.send_span is not None:
            self.lane.spans.add("client.credit_wait", start, now, self.job,
                                self.send_span)
        return ftype, payload

    def poll(self) -> None:
        while self._sock is not None and select.select(
            [self._sock], [], [], 0
        )[0]:
            self._pump()


class ServedLoad:
    """Two lanes of RPRSERVE sessions against one server or gateway."""

    def __init__(self, root: Path, manifest: List[dict],
                 reference: Dict[str, List[list]], seed: int,
                 gateway: bool) -> None:
        self.port = 0
        self.plans = [job_plan(manifest, seed, k)
                      for k in range(SERVED_LANES)]
        self.pieces = {}
        for entry in manifest:
            batch, _ = read_trace(str(root / entry["file"]))
            self.pieces[entry["name"]] = list(
                batch.slices(entry["batch_size"])
            )
        # Gateway workers see shard-local streams, which renumber
        # op_index and name their own representative; compare on
        # (loc, task, kind, prior_kind) there.
        self.expected = {
            name: Counter(_key(row, gateway) for row in rows)
            for name, rows in reference.items()
        }
        self.gateway = gateway
        #: names of the jobs run in each traced leg, for the wire probe
        self.traced_jobs: List[str] = []

    def attach(self, server: Server) -> None:
        self.port = server.port

    def _job(self, entry: dict, lane: Lane, job_id: int) -> Optional[str]:
        """Run one job; returns an error for failures that end the lane."""
        spans = lane.spans
        client = TimedClient(self.port, lane)
        client.job = job_id
        t0 = perf_counter_ns()
        try:
            client.connect()
            if spans is not None:
                root = spans.add("bench.job", t0, 0, job_id)
                spans.add("client.connect", t0, perf_counter_ns(), job_id,
                          root)
            for piece in self.pieces[entry["name"]]:
                if spans is None:
                    client.send_batch(piece)
                    client.poll()
                    continue
                sent = spans.start("client.send_batch", job_id, root)
                client.send_span = sent
                client.send_batch(piece)
                client.send_span = None
                spans.end(sent)
                polled = spans.start("client.poll", job_id, root)
                client.poll()
                spans.end(polled)
            if spans is not None:
                done = spans.start("client.finish", job_id, root)
            summary = client.finish()
            if spans is not None:
                spans.end(done)
                spans.end(root)
        except (ReproError, OSError) as exc:
            lane.jobs.append(Job(entry["name"], entry["events"], False, 0,
                                 f"{type(exc).__name__}: {exc}"))
            if isinstance(exc, (ConnectError, TransportError, OSError)):
                return str(exc)
            return None
        finally:
            client.close()
        job_ns = perf_counter_ns() - t0
        got = Counter(
            _key([r.loc, r.task, r.kind.value, r.prior_kind.value,
                  r.prior_repr, r.op_index], self.gateway)
            for r in summary.reports
        )
        ok = got == self.expected[entry["name"]]
        lane.jobs.append(Job(
            entry["name"], summary.events, ok, job_ns,
            "" if ok else f"verdict differs from reference: {sorted(got)}",
        ))
        lane.races += len(summary.reports)
        return None

    def warmup(self, entries: List[dict]) -> Leg:
        lane = Lane()
        for i, entry in enumerate(entries):
            self._job(entry, lane, -1 - i)
        return Leg(0.0, [lane])

    def leg(self, seconds: float, tracing: bool) -> Leg:
        lanes = [Lane(spans=SpanLog(k) if tracing else None)
                 for k in range(SERVED_LANES)]
        start = perf_counter()
        deadline = start + seconds

        crashed: List[BaseException] = []

        def drive(k: int) -> None:
            lane = lanes[k]
            job_id = k * 1_000_000
            try:
                while perf_counter() < deadline:
                    entry = next(self.plans[k])
                    if tracing:
                        self.traced_jobs.append(entry["name"])
                    if self._job(entry, lane, job_id) is not None:
                        break
                    job_id += 1
            except BaseException as exc:  # re-raised by the caller
                crashed.append(exc)
            lane.end = perf_counter()

        threads = [threading.Thread(target=drive, args=(k,), daemon=True)
                   for k in range(SERVED_LANES)]
        for thread in threads:
            thread.start()
        for thread in threads:
            # A lane ends within one job of the deadline, and every
            # socket operation of a job is bounded by JOB_TIMEOUT.
            thread.join(seconds + 10 * JOB_TIMEOUT)
            if thread.is_alive():
                raise HarnessError("a load lane did not finish")
        if crashed:
            raise crashed[0]
        return Leg(max(lane.end for lane in lanes) - start, lanes)
