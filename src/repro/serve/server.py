"""The streaming trace-ingest server: many sessions, one detector each.

:class:`RaceServer` is an asyncio TCP server speaking the RPRSERVE
protocol (:mod:`repro.serve.protocol`).  Each accepted connection is a
*session*:

* the client leads with HELLO; the server negotiates the protocol
  version, the frame-size cap, and (v3) the session's **engine
  backend** -- a v3 HELLO may request ``lattice2d`` or ``depa`` and
  gets the negotiated name echoed in the reply, while a v2 HELLO gets
  a byte-identical v2 exchange and the server-default backend; the
  reply carries the session's initial **credit** -- the number of
  BATCH frames the client may have outstanding;
* BATCH frames are decoded (header-vs-payload bound check *before*
  allocation, CRC already verified at the framing layer), column-
  validated, and queued for the session's ingest worker; a v4 session
  that negotiated the CBATCH feature bit may send grammar-compressed
  CBATCH frames instead, which are validated per *unique block* and
  ingested by the memoized kernel
  (:meth:`~repro.engine.ingest.BatchEngine.ingest_compressed`) without
  ever being expanded;
* the worker feeds each batch to the session's engine -- an isolated
  :class:`~repro.engine.ingest.BatchEngine` per session -- and streams
  any newly detected races back as RACES frames;
* after each processed batch the server returns credit, **unless** the
  session's queue sits at or above its high-water mark: the grant is
  withheld (a *credit stall*) until the queue drains, so a client can
  never grow the server's memory past
  ``credit_window x max_frame`` per session no matter how fast it
  pushes;
* a session that breaks the protocol, overruns its credit, trips the
  engine's stream validation, or goes idle past the timeout gets one
  ERROR frame and is torn down; teardown always *closes the session's
  engine* so a client that vanishes mid-stream leaks no shadow state;
* BYE drains the queue, answers with a ``(events, races)`` summary,
  and ends the session cleanly.

``SIGTERM``/``SIGINT`` (see :meth:`RaceServer.install_signal_handlers`)
triggers a graceful drain: the listener closes, live sessions get a
bounded window to finish their queues, then everything is torn down.

:class:`ServerThread` runs a :class:`RaceServer` on a private event
loop in a daemon thread -- the harness the tests, the benchmark, and
the docs examples use for loopback serving from synchronous code.

Everything is observable through :mod:`repro.obs`: session/frame/byte
counters, queue-depth and credit gauges, per-batch service-time and
batch-size histograms, all labelled ``component="serve"``.  The CLI's
``serve --metrics-port`` exposes the same registry over HTTP via
:func:`start_metrics_http` (stdlib ``http.server``, no new
dependencies).
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import count
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.batch import EventBatch
from repro.engine.ingest import BACKENDS, BatchEngine
from repro.engine.snapshot import load_checkpoint, save_checkpoint
from repro.errors import (
    CheckpointError,
    DetectorError,
    ProtocolError,
    ServeError,
)
from repro.obs.export import to_prometheus
from repro.obs.registry import MetricsRegistry, get_registry
from repro.serve import protocol as wire

__all__ = [
    "ServeConfig",
    "RaceServer",
    "ServerThread",
    "start_metrics_http",
]


@dataclass
class ServeConfig:
    """Tunables for one :class:`RaceServer`.

    ``credit_window`` bounds the BATCH frames a session may have
    outstanding (and therefore the server's queue growth);
    ``queue_high_water`` is the depth at which credit grants are
    withheld until the ingest worker catches up.  Multi-process
    detection is the gateway's job (:mod:`repro.serve.cluster`, the
    CLI's ``serve --workers``), not this server's.

    ``checkpoint_dir`` turns on session durability: a session that
    opens with a RESUME token gets a periodic background checkpoint
    (every ``checkpoint_interval`` applied batches, plus one at
    teardown), each acknowledged to the client with an ACK frame so it
    can trim its replay buffer.

    ``predict`` switches every session engine into sound
    race-*prediction* mode (``BatchEngine(predict=True)``): clients
    receive one RACES report per feasibly-reorderable racing pair
    instead of one per observed-order flagged access (see
    ``docs/PREDICTION.md``).  Prediction is per-session only, and the
    checkpoint format captures the union-find engine's state, so
    ``predict`` is rejected in combination with ``checkpoint_dir``.

    ``backend`` names the engine backend sessions get by default (one
    of :data:`~repro.engine.ingest.BACKENDS`); a v3 client may request
    a different one per session in its HELLO.  The ``depa`` backend is
    not checkpointable and has no prediction mode, so a non-default
    ``backend`` is rejected in combination with ``checkpoint_dir`` or
    ``predict`` (and a per-session *request* for it on such a server
    is refused with a typed ``ERR_BACKEND`` frame).
    """

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = pick a free port (read it from ``server.port``)
    credit_window: int = 8
    queue_high_water: int = 6
    max_frame: int = wire.DEFAULT_MAX_FRAME
    idle_timeout: float = 30.0
    hello_timeout: float = 10.0
    drain_timeout: float = 10.0
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 32  #: applied batches between checkpoints
    predict: bool = False  #: serve shb prediction instead of observed races
    backend: str = "lattice2d"  #: default engine backend for sessions


class _Metrics:
    """The serve-layer instrument bundle (one lookup at server start)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        labels = {"component": "serve"}
        self.sessions_total = registry.counter(
            "serve_sessions_total", "client sessions accepted", labels=labels
        )
        self.sessions_active = registry.gauge(
            "serve_sessions_active", "sessions currently open", labels=labels
        )
        self.frames_in = {
            name: registry.counter(
                "serve_frames_total",
                "frames by direction and type",
                labels={**labels, "dir": "in", "type": name},
            )
            for name in wire.FRAME_NAMES.values()
        }
        self.frames_out = {
            name: registry.counter(
                "serve_frames_total",
                "frames by direction and type",
                labels={**labels, "dir": "out", "type": name},
            )
            for name in wire.FRAME_NAMES.values()
        }
        self.bytes_in = registry.counter(
            "serve_bytes_total", "payload bytes by direction",
            labels={**labels, "dir": "in"},
        )
        self.bytes_out = registry.counter(
            "serve_bytes_total", "payload bytes by direction",
            labels={**labels, "dir": "out"},
        )
        self.batches = registry.counter(
            "serve_batches_total", "BATCH frames ingested", labels=labels
        )
        self.cbatches = registry.counter(
            "serve_cbatches_total",
            "compressed CBATCH frames ingested", labels=labels,
        )
        self.compressed_bytes = registry.counter(
            "serve_compressed_bytes_total",
            "CBATCH payload bytes received (compressed wire bytes)",
            labels=labels,
        )
        self.events = registry.counter(
            "serve_events_total", "events ingested over the wire",
            labels=labels,
        )
        self.races_streamed = registry.counter(
            "serve_races_streamed_total",
            "race reports streamed back to clients", labels=labels,
        )
        self.credit_stalls = registry.counter(
            "serve_credit_stalls_total",
            "credit grants withheld because a session queue sat at its "
            "high-water mark",
            labels=labels,
        )
        self.errors = {
            name: registry.counter(
                "serve_errors_total",
                "ERROR frames sent, by code",
                labels={**labels, "code": name},
            )
            for name in wire.ERROR_NAMES.values()
        }
        self.queue_depth = registry.gauge(
            "serve_queue_depth",
            "batches queued across all sessions", labels=labels,
        )
        self.queue_depth_max = registry.gauge(
            "serve_queue_depth_max",
            "high-water mark of the aggregate ingest queue", labels=labels,
        )
        self.credit_outstanding = registry.gauge(
            "serve_credit_outstanding",
            "unspent credit across all sessions", labels=labels,
        )
        self.service_time = registry.histogram(
            "serve_batch_service_seconds",
            "wall seconds to ingest one BATCH frame", labels=labels,
        )
        self.batch_events = registry.histogram(
            "serve_batch_events",
            "events per BATCH frame", labels=labels,
            buckets=(64, 512, 4096, 16384, 65536, 262144),
        )
        self.checkpoints = registry.counter(
            "serve_checkpoints_total",
            "session checkpoints written", labels=labels,
        )
        self.restores = registry.counter(
            "serve_restores_total",
            "sessions restored from a checkpoint", labels=labels,
        )
        self.checkpoint_seconds = registry.histogram(
            "serve_checkpoint_seconds",
            "wall seconds to write one session checkpoint", labels=labels,
            buckets=(0.001, 0.005, 0.02, 0.1, 0.5, 2.0),
        )
        self.duplicates_skipped = registry.counter(
            "serve_duplicate_batches_total",
            "already-applied BATCH frames skipped idempotently on resume",
            labels=labels,
        )
        self.sessions_backend = {
            name: registry.counter(
                "serve_sessions_backend_total",
                "sessions by negotiated engine backend",
                labels={**labels, "backend": name},
            )
            for name in BACKENDS
        }

    def observe_depth(self, depth: int) -> None:
        self.queue_depth.set(depth)
        if depth > self.queue_depth_max.value:
            self.queue_depth_max.set(depth)


class _SessionEngine:
    """One session's detection state: an isolated :class:`BatchEngine`.

    ``close()`` drops the engine (detector, shadow map, union-find)
    so a torn-down session cannot leak shadow state; every method
    raises after that.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        predict: bool = False,
        backend: str = "lattice2d",
    ) -> None:
        # BatchEngine treats backend and predict as mutually exclusive;
        # the handshake already refused predict+non-default-backend
        # sessions, so exactly one of the two reaches the engine here.
        if backend != "lattice2d":
            engine = BatchEngine(registry=registry, backend=backend)
        else:
            engine = BatchEngine(registry=registry, predict=predict)
        self._engine: Optional[BatchEngine] = engine
        self._races_seen = 0

    @property
    def closed(self) -> bool:
        return self._engine is None

    def _require_open(self) -> BatchEngine:
        if self._engine is None:
            raise ServeError("session engine is closed")
        return self._engine

    def ingest(self, batch: EventBatch) -> List:
        """Feed one batch; returns the races it newly detected."""
        engine = self._require_open()
        engine.ingest(batch)
        races = engine.detector.races
        new = list(races[self._races_seen:])
        self._races_seen = len(races)
        return new

    def ingest_compressed(self, ctrace) -> List:
        """Feed one compressed trace via the memoized kernel (never
        expanding it); returns the races it newly detected."""
        engine = self._require_open()
        engine.ingest_compressed(ctrace)
        races = engine.detector.races
        new = list(races[self._races_seen:])
        self._races_seen = len(races)
        return new

    @property
    def events_ingested(self) -> int:
        return self._require_open().events_ingested

    @property
    def races_reported(self) -> int:
        return self._races_seen

    def save(self, path: str, meta: Dict[str, Any]) -> int:
        """Checkpoint the engine durably to ``path`` (see
        :mod:`repro.engine.snapshot`)."""
        return save_checkpoint(self._require_open(), path, meta=meta)

    def checkpointed_races(self) -> List:
        """Every race the restored engine already holds -- streamed as
        one snapshot RACES frame so a *fresh* client resuming this
        token still sees the reports its replayed (and skipped)
        batches would have produced."""
        return list(self._require_open().detector.races)

    @classmethod
    def restore(
        cls, path: str, registry: MetricsRegistry
    ) -> Tuple["_SessionEngine", Dict[str, Any]]:
        """Rebuild a session engine from a checkpoint file.

        Races already detected at save time count as *seen*: the
        client received them (keyed by seq) before the crash, and the
        replayed batches re-derive nothing older than the checkpoint.
        """
        engine, meta = load_checkpoint(path, registry=registry)
        self = cls.__new__(cls)
        self._engine = engine
        self._races_seen = len(engine.detector.races)
        return self, meta

    def close(self) -> None:
        self._engine = None


class _Session:
    """Book-keeping for one live connection."""

    __slots__ = (
        "sid", "writer", "engine", "queue", "queued", "credits",
        "withheld", "write_lock", "failed", "draining", "max_frame",
        "token", "enqueued_seq", "applied_seq", "durable_seq",
        "last_table", "busy", "backend", "cbatch",
    )

    def __init__(
        self, sid: int, writer: asyncio.StreamWriter, max_frame: int
    ) -> None:
        self.sid = sid
        self.writer = writer
        self.engine: Any = None
        self.queue: asyncio.Queue = asyncio.Queue()
        self.queued = 0  # batches only; the BYE sentinel is not depth
        self.credits = 0
        self.withheld = 0
        self.write_lock = asyncio.Lock()
        self.failed: Optional[BaseException] = None
        self.draining = False
        self.max_frame = max_frame
        self.token: Optional[str] = None  # durable session id (RESUME)
        self.enqueued_seq = 0  # highest seq accepted off the wire
        self.applied_seq = 0  # highest seq the worker has ingested
        self.durable_seq = 0  # highest seq covered by a checkpoint
        self.last_table: Optional[int] = None  # table size at applied_seq
        self.busy = False  # an ingest is running in the executor
        self.backend = "lattice2d"  # negotiated engine backend (v3)
        self.cbatch = False  # CBATCH feature granted (v4)


_BYE = object()  # queue sentinel: client finished its stream


async def _read_frame(
    reader: asyncio.StreamReader, max_frame: int
) -> Tuple[int, bytes]:
    """Read one frame; returns ``(type, payload)``.

    Length is checked against ``max_frame`` before the payload read,
    the CRC after it.  EOF raises ``IncompleteReadError``.
    """
    head = await reader.readexactly(wire.FRAME_HEADER_SIZE)
    length, ftype, crc = wire.parse_frame_header(head)
    wire.check_frame_length(length, max_frame)
    payload = await reader.readexactly(length) if length else b""
    wire.check_payload_crc(payload, crc)
    return ftype, payload


class RaceServer:
    """Accepts RPRSERVE sessions and detects races online (see the
    module docstring for the session lifecycle)."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        if self.config.credit_window < 1:
            raise ServeError(
                f"credit window must be positive, got "
                f"{self.config.credit_window}"
            )
        if self.config.checkpoint_interval < 1:
            raise ServeError(
                f"checkpoint interval must be positive, got "
                f"{self.config.checkpoint_interval}"
            )
        if self.config.predict and self.config.checkpoint_dir is not None:
            raise ServeError(
                "predict sessions are not checkpointable (the snapshot "
                "format captures the union-find engine): drop "
                "checkpoint_dir or drop predict"
            )
        if self.config.backend not in BACKENDS:
            raise ServeError(
                f"unknown serve backend {self.config.backend!r}; "
                f"expected one of {BACKENDS}"
            )
        if self.config.backend != "lattice2d":
            if self.config.checkpoint_dir is not None:
                raise ServeError(
                    f"the {self.config.backend!r} backend is not "
                    "checkpointable: drop checkpoint_dir or use the "
                    "lattice2d backend"
                )
            if self.config.predict:
                raise ServeError(
                    f"the {self.config.backend!r} backend has no "
                    "prediction mode: drop predict or use the "
                    "lattice2d backend"
                )
        self.registry = registry if registry is not None else get_registry()
        self._m = _Metrics(self.registry)
        self._server: Optional[asyncio.base_events.Server] = None
        self._sessions: Dict[int, _Session] = {}
        self._handlers: set = set()
        self._ids = count(1)
        self._closing = False
        self._closed_event: Optional[asyncio.Event] = None
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        if self._server is not None:
            raise ServeError("server already started")
        if self.config.checkpoint_dir is not None:
            os.makedirs(self.config.checkpoint_dir, exist_ok=True)
        self._closed_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (CLI mode)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.shutdown())
            )

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        if self._closed_event is None:
            raise ServeError("server not started")
        await self._closed_event.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, let live sessions finish
        their queues within ``drain_timeout``, then tear down."""
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self._sessions.values()):
            session.draining = True
        if self._handlers:
            done, pending = await asyncio.wait(
                self._handlers, timeout=self.config.drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending)
        if self._closed_event is not None:
            self._closed_event.set()

    # -- wire helpers --------------------------------------------------------

    async def _send(
        self, session: _Session, ftype: int, payload: bytes = b""
    ) -> None:
        # Count before the write syscall: a client thread unblocked by
        # these very bytes may inspect the registry immediately.
        self._m.frames_out[wire.FRAME_NAMES[ftype]].inc()
        self._m.bytes_out.inc(wire.FRAME_HEADER_SIZE + len(payload))
        async with session.write_lock:
            session.writer.write(wire.encode_frame(ftype, payload))
            await session.writer.drain()

    async def _send_error(
        self, session: _Session, code: int, message: str
    ) -> None:
        self._m.errors[wire.ERROR_NAMES[code]].inc()
        try:
            await self._send(
                session, wire.FRAME_ERROR, wire.encode_error(code, message)
            )
        except (ConnectionError, RuntimeError):
            pass  # the peer is already gone; teardown continues

    # -- session lifecycle ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        sid = next(self._ids)
        session = _Session(sid, writer, self.config.max_frame)
        self._sessions[sid] = session
        self._m.sessions_total.inc()
        self._m.sessions_active.inc()
        consumer: Optional[asyncio.Task] = None
        try:
            if self._closing:
                await self._send_error(
                    session, wire.ERR_SHUTTING_DOWN, "server is draining"
                )
                return
            if not await self._handshake(session, reader):
                return
            session.engine = _SessionEngine(
                self.registry,
                predict=self.config.predict,
                backend=session.backend,
            )
            session.credits = self.config.credit_window
            self._m.credit_outstanding.inc(session.credits)
            consumer = asyncio.ensure_future(self._consume(session))
            await self._read_loop(session, reader, consumer)
        except asyncio.CancelledError:
            raise
        except (
            asyncio.IncompleteReadError, ConnectionError, OSError
        ):
            pass  # client vanished mid-frame; teardown below
        except ProtocolError as exc:
            await self._send_error(session, wire.ERR_PROTOCOL, str(exc))
        finally:
            if consumer is not None:
                consumer.cancel()
                try:
                    await consumer
                except (asyncio.CancelledError, Exception):
                    pass
            # Durable sessions get one last checkpoint so a clean BYE
            # (or a drop with an idle worker) loses nothing.
            await self._final_checkpoint(session)
            # Teardown closes the engine: a vanished client leaves no
            # shadow state behind (the queue and its decoded batches
            # die with the session object).
            if session.engine is not None:
                session.engine.close()
            self._m.credit_outstanding.dec(session.credits)
            session.credits = 0
            del self._sessions[sid]
            self._m.sessions_active.dec()
            self._m.observe_depth(self._total_depth())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if task is not None:
                self._handlers.discard(task)

    # -- durability ----------------------------------------------------------

    def _ckpt_path(self, token: str) -> str:
        # valid_session_token() already rejects separators and leading
        # dots, so the join cannot escape the checkpoint directory.
        assert self.config.checkpoint_dir is not None
        return os.path.join(self.config.checkpoint_dir, f"{token}.ckpt")

    def _ckpt_meta(self, session: _Session, seq: int) -> Dict[str, Any]:
        return {
            "seq": seq,
            "token": session.token,
            "ships_table": session.last_table is not None,
            "table_size": session.last_table or 0,
        }

    async def _checkpoint(self, session: _Session) -> bool:
        """Write the session's engine to disk at ``applied_seq`` and ACK
        it so the client can trim its replay buffer.  A failed write
        fails the session -- durability was promised, not best-effort."""
        seq = session.applied_seq
        start = time.perf_counter()
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, session.engine.save,
                self._ckpt_path(session.token), self._ckpt_meta(session, seq),
            )
        except (CheckpointError, ServeError, OSError) as exc:
            session.failed = exc
            await self._send_error(session, wire.ERR_CHECKPOINT, str(exc))
            return False
        session.durable_seq = seq
        self._m.checkpoints.inc()
        self._m.checkpoint_seconds.observe(time.perf_counter() - start)
        await self._send(session, wire.FRAME_ACK, wire.encode_ack(seq))
        return True

    async def _final_checkpoint(self, session: _Session) -> None:
        """Best-effort checkpoint at teardown.  Skipped if an ingest is
        still running in the executor (its thread survives consumer
        cancellation; serializing under it could tear the state) -- the
        stale checkpoint stays valid and the client simply replays
        more."""
        if (
            session.token is None
            or session.failed is not None
            or session.busy
            or session.engine is None
            or session.engine.closed
            or session.applied_seq <= session.durable_seq
        ):
            return
        seq = session.applied_seq
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, session.engine.save,
                self._ckpt_path(session.token), self._ckpt_meta(session, seq),
            )
        except (CheckpointError, ServeError, OSError):
            return  # the connection is ending either way
        session.durable_seq = seq
        self._m.checkpoints.inc()

    async def _handshake(
        self, session: _Session, reader: asyncio.StreamReader
    ) -> bool:
        try:
            ftype, payload = await asyncio.wait_for(
                _read_frame(reader, wire.DEFAULT_MAX_FRAME),
                self.config.hello_timeout,
            )
        except asyncio.TimeoutError:
            await self._send_error(
                session, wire.ERR_IDLE_TIMEOUT, "no HELLO within timeout"
            )
            return False
        self._count_in(ftype, payload)
        if ftype != wire.FRAME_HELLO:
            await self._send_error(
                session, wire.ERR_PROTOCOL,
                f"expected HELLO, got {wire.FRAME_NAMES[ftype]}",
            )
            return False
        version, client_max, requested, features = wire.decode_hello(
            payload
        )
        if not (
            wire.MIN_PROTOCOL_VERSION <= version <= wire.PROTOCOL_VERSION
        ):
            await self._send_error(
                session, wire.ERR_VERSION,
                f"server speaks protocol versions "
                f"{wire.MIN_PROTOCOL_VERSION}..{wire.PROTOCOL_VERSION}, "
                f"client sent {version}",
            )
            return False
        backend = requested if requested is not None else self.config.backend
        if backend not in BACKENDS:
            await self._send_error(
                session, wire.ERR_BACKEND,
                f"unknown engine backend {backend!r}; "
                f"expected one of {BACKENDS}",
            )
            return False
        if self.config.predict and backend != "lattice2d":
            await self._send_error(
                session, wire.ERR_BACKEND,
                f"this server runs prediction sessions, which the "
                f"{backend!r} backend does not support",
            )
            return False
        if features & wire.FLAG_CBATCH and version >= 4:
            # Compression is negotiated exactly like a backend: a
            # request the server cannot honour is a typed refusal,
            # never a silent downgrade the client discovers mid-stream.
            if self.config.predict:
                await self._send_error(
                    session, wire.ERR_COMPRESS,
                    "prediction sessions ingest raw batches; drop the "
                    "compress request or use an observed-order server",
                )
                return False
            session.cbatch = True
        session.backend = backend
        self._m.sessions_backend[backend].inc()
        max_frame = min(self.config.max_frame, client_max)
        session.max_frame = max_frame
        # The reply mirrors the client's version and wire shape: a v2
        # client sees a byte-identical v2 exchange.
        await self._send(
            session, wire.FRAME_HELLO,
            wire.encode_hello_reply(
                self.config.credit_window, max_frame, version=version,
                backend=backend if version >= 3 else None,
                features=(
                    wire.FLAG_CBATCH
                    if version >= 4 and session.cbatch else 0
                ),
            ),
        )
        return True

    def _count_in(self, ftype: int, payload: bytes) -> None:
        self._m.frames_in[wire.FRAME_NAMES[ftype]].inc()
        self._m.bytes_in.inc(wire.FRAME_HEADER_SIZE + len(payload))

    async def _read_loop(
        self,
        session: _Session,
        reader: asyncio.StreamReader,
        consumer: asyncio.Task,
    ) -> None:
        max_frame = session.max_frame
        table_size = 0
        ships_table = False
        saw_batch = False
        while True:
            try:
                ftype, payload = await asyncio.wait_for(
                    _read_frame(reader, max_frame),
                    self.config.idle_timeout,
                )
            except asyncio.TimeoutError:
                await self._send_error(
                    session, wire.ERR_IDLE_TIMEOUT,
                    f"no frame within {self.config.idle_timeout}s",
                )
                return
            except ProtocolError as exc:
                code = (
                    wire.ERR_FRAME_TOO_LARGE
                    if "exceeds" in str(exc)
                    else wire.ERR_BAD_CRC
                    if "CRC" in str(exc)
                    else wire.ERR_PROTOCOL
                )
                await self._send_error(session, code, str(exc))
                return
            self._count_in(ftype, payload)
            if session.failed is not None:
                # The worker already sent ERROR.  Keep draining what
                # the client's credit let it send -- closing with
                # unread frames in the buffer raises an RST that can
                # destroy the in-flight ERROR before the client reads
                # it.  BYE (or EOF) ends the session.
                if ftype == wire.FRAME_BYE:
                    return
                continue
            if ftype in (wire.FRAME_BATCH, wire.FRAME_CBATCH):
                if ftype == wire.FRAME_CBATCH and not session.cbatch:
                    await self._send_error(
                        session, wire.ERR_COMPRESS,
                        "CBATCH on a session that did not negotiate "
                        "the compression feature",
                    )
                    return
                if session.credits <= 0:
                    await self._send_error(
                        session, wire.ERR_CREDIT_OVERRUN,
                        "BATCH with no credit outstanding",
                    )
                    return
                session.credits -= 1
                self._m.credit_outstanding.dec()
                try:
                    if ftype == wire.FRAME_CBATCH:
                        batch, new_locs, seq = wire.decode_cbatch_payload(
                            payload
                        )
                        self._m.compressed_bytes.inc(len(payload))
                    else:
                        batch, new_locs, seq = wire.decode_batch_payload(
                            payload
                        )
                except ProtocolError as exc:
                    await self._send_error(
                        session, wire.ERR_MALFORMED_BATCH, str(exc)
                    )
                    return
                saw_batch = True
                if seq == 0:
                    if session.token is not None:
                        await self._send_error(
                            session, wire.ERR_PROTOCOL,
                            "durable sessions must sequence their batches",
                        )
                        return
                elif session.token is not None and seq <= session.enqueued_seq:
                    # A replayed batch the crash-surviving engine already
                    # holds: skip it idempotently (its location-table
                    # delta included) and hand the credit straight back.
                    self._m.duplicates_skipped.inc()
                    session.credits += 1
                    self._m.credit_outstanding.inc()
                    await self._send(
                        session, wire.FRAME_CREDIT, wire.encode_credit(1)
                    )
                    continue
                elif seq != session.enqueued_seq + 1:
                    await self._send_error(
                        session, wire.ERR_PROTOCOL,
                        f"batch seq {seq} breaks contiguity (expected "
                        f"{session.enqueued_seq + 1})",
                    )
                    return
                try:
                    if new_locs is not None:
                        ships_table = True
                        table_size += len(new_locs)
                    bound = table_size if ships_table else None
                    if isinstance(batch, EventBatch):
                        wire.validate_batch_columns(batch, bound)
                    else:
                        # Compressed: validating each unique block once
                        # covers every repeat -- the dedup that makes
                        # ingestion cheap makes validation cheap too.
                        for block in batch.blocks:
                            wire.validate_batch_columns(block, bound)
                except ProtocolError as exc:
                    await self._send_error(
                        session, wire.ERR_MALFORMED_BATCH, str(exc)
                    )
                    return
                session.enqueued_seq = max(session.enqueued_seq, seq)
                session.queued += 1
                session.queue.put_nowait(
                    (seq, batch, table_size if ships_table else None)
                )
                self._m.observe_depth(self._total_depth())
            elif ftype == wire.FRAME_RESUME:
                if self.config.checkpoint_dir is None:
                    await self._send_error(
                        session, wire.ERR_CHECKPOINT,
                        "server runs without a checkpoint directory",
                    )
                    return
                if session.backend != "lattice2d":
                    # Restoring would silently swap the negotiated
                    # engine for a lattice2d one; refuse instead.
                    await self._send_error(
                        session, wire.ERR_CHECKPOINT,
                        f"the {session.backend!r} backend is not "
                        "checkpointable; durable sessions require the "
                        "lattice2d backend",
                    )
                    return
                if session.token is not None or saw_batch:
                    # Accepting a late RESUME would swap in the restored
                    # engine and silently drop whatever this connection
                    # already streamed.
                    await self._send_error(
                        session, wire.ERR_PROTOCOL,
                        "RESUME must precede the first BATCH",
                    )
                    return
                try:
                    token = wire.decode_resume(payload)
                except ProtocolError as exc:
                    await self._send_error(
                        session, wire.ERR_PROTOCOL, str(exc)
                    )
                    return
                path = self._ckpt_path(token)
                if os.path.exists(path):
                    try:
                        engine, meta = await asyncio.get_running_loop(
                        ).run_in_executor(
                            None, _SessionEngine.restore, path, self.registry
                        )
                    except CheckpointError as exc:
                        # Never silently load a bad checkpoint: the
                        # client gets a typed refusal and may start a
                        # fresh session under a new token instead.
                        await self._send_error(
                            session, wire.ERR_CHECKPOINT, str(exc)
                        )
                        return
                    old = session.engine
                    session.engine = engine
                    if old is not None:
                        old.close()
                    durable = int(meta.get("seq", 0))
                    session.enqueued_seq = durable
                    session.applied_seq = durable
                    session.durable_seq = durable
                    ships_table = bool(meta.get("ships_table", False))
                    table_size = int(meta.get("table_size", 0) or 0)
                    session.last_table = table_size if ships_table else None
                    self._m.restores.inc()
                session.token = token
                await self._send(
                    session, wire.FRAME_RESUME,
                    wire.encode_resume_reply(session.durable_seq),
                )
                if session.durable_seq:
                    snapshot = session.engine.checkpointed_races()
                    if snapshot:
                        self._m.races_streamed.inc(len(snapshot))
                        await self._send(
                            session, wire.FRAME_RACES,
                            wire.encode_races(
                                snapshot, seq=session.durable_seq
                            ),
                        )
            elif ftype == wire.FRAME_BYE:
                session.queue.put_nowait(_BYE)
                await consumer
                if session.failed is None:
                    await self._send(
                        session, wire.FRAME_BYE,
                        wire.encode_bye_summary(
                            session.engine.events_ingested,
                            session.engine.races_reported,
                        ),
                    )
                return
            else:
                await self._send_error(
                    session, wire.ERR_PROTOCOL,
                    f"unexpected {wire.FRAME_NAMES[ftype]} frame",
                )
                return

    def _total_depth(self) -> int:
        return sum(s.queued for s in self._sessions.values())

    async def _consume(self, session: _Session) -> None:
        """The session's ingest worker: dequeue, detect, stream races,
        return credit (or stall at the high-water mark)."""
        loop = asyncio.get_running_loop()
        m = self._m
        while True:
            item = await session.queue.get()
            if item is _BYE:
                return
            seq, batch, table = item
            session.queued -= 1
            start = time.perf_counter()
            session.busy = True
            compressed = not isinstance(batch, EventBatch)
            try:
                new_races = await loop.run_in_executor(
                    None,
                    session.engine.ingest_compressed
                    if compressed else session.engine.ingest,
                    batch,
                )
            except (DetectorError, ServeError) as exc:
                session.failed = exc
                await self._send_error(
                    session, wire.ERR_DETECTOR, str(exc)
                )
                # No writer.close() here: closing with the client's
                # remaining frames unread raises an RST that can
                # destroy the in-flight ERROR.  The read loop drains
                # what credit allowed and teardown closes cleanly.
                return
            session.busy = False
            if seq:
                session.applied_seq = seq
                session.last_table = table
            m.service_time.observe(time.perf_counter() - start)
            m.batch_events.observe(len(batch))
            (m.cbatches if compressed else m.batches).inc()
            m.events.inc(len(batch))
            m.observe_depth(self._total_depth())
            if new_races:
                m.races_streamed.inc(len(new_races))
                await self._send(
                    session, wire.FRAME_RACES,
                    wire.encode_races(new_races, seq=seq),
                )
            if (
                session.token is not None
                and seq
                and seq - session.durable_seq >= self.config.checkpoint_interval
            ):
                if not await self._checkpoint(session):
                    return
            if session.queued >= self.config.queue_high_water:
                # Above the high-water mark: withhold the grant until
                # the backlog drains (credit-based backpressure).
                session.withheld += 1
                m.credit_stalls.inc()
            elif not session.draining:
                grant = 1 + session.withheld
                session.withheld = 0
                session.credits += grant
                m.credit_outstanding.inc(grant)
                await self._send(
                    session, wire.FRAME_CREDIT, wire.encode_credit(grant)
                )


class ServerThread:
    """A :class:`RaceServer` on a private event loop in a daemon
    thread -- loopback serving for synchronous callers::

        srv = ServerThread()
        port = srv.start()
        ... RaceClient("127.0.0.1", port) ...
        srv.stop()
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.registry = registry
        self.server: Optional[RaceServer] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced to start()/stop()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.server = RaceServer(self.config, registry=self.registry)
        try:
            self.port = await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.server.serve_forever()

    def start(self, timeout: float = 10.0) -> int:
        """Start the thread; returns the bound port."""
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServeError("server thread did not come up")
        if self._error is not None:
            raise self._error
        assert self.port is not None
        return self.port

    def stop(self, timeout: float = 10.0) -> None:
        """Gracefully drain and join the server thread."""
        if self._loop is not None and self._thread.is_alive():
            assert self.server is not None
            asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), self._loop
            )
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


def start_metrics_http(
    port: int,
    registry: Optional[MetricsRegistry] = None,
    host: str = "127.0.0.1",
) -> ThreadingHTTPServer:
    """Expose ``registry`` as Prometheus text on ``/metrics``.

    Stdlib ``http.server`` on a daemon thread (no new dependencies);
    returns the HTTP server (its ``server_port`` is the bound port;
    call ``shutdown()`` to stop it).
    """
    reg = registry if registry is not None else get_registry()

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            if self.path.rstrip("/") not in ("", "/metrics"):
                self.send_error(404)
                return
            body = to_prometheus(reg).encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # noqa: D102 - silence per-request logs
            pass

    httpd = ThreadingHTTPServer((host, port), _Handler)
    thread = threading.Thread(
        target=httpd.serve_forever, name="repro-serve-metrics", daemon=True
    )
    thread.start()
    return httpd
