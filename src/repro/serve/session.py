"""The RPRSERVE session core shared by the server and the gateway.

A race is witnessed at one memory location, so sharding accesses by
``lid % N`` changes *where* a batch is ingested, never what the
session does on the wire.  :class:`SessionCore` is that session, once:

* the listener and the per-connection handler with its teardown;
* HELLO: the version check (one wire shape, anything else is
  ``ERR_VERSION``), the engine-backend check (only the front end's
  :attr:`SessionCore.backend` is grantable), the frame-size cap, and
  the reply with the worker count (its feature word always 0);
* the read loop: credit accounting, batch-sequence contiguity (and the
  idempotent skip of replayed batches on a durable session), the
  location-id bound (``wire.validate_batch_columns``), draining
  after a failure, and BYE (a
  RELEASE BYE marks the session :attr:`Session.released` once
  answered, for the sink's teardown);
* the consume loop: one queued batch at a time through the front
  end's ingest, then a credit grant -- withheld while the session's
  queue sits at its high-water mark (a *credit stall*), so a client
  can never grow memory past ``credit_window x max_frame``;
* graceful shutdown, signal handling, and :class:`CoreThread`, the
  loop-in-a-daemon-thread harness for synchronous callers.

A front end subclasses the core and supplies only what differs (the
*sink* hooks): how a session opens (:meth:`SessionCore._open`), how one
queued batch is ingested (:meth:`~SessionCore._ingest`), what RESUME
does (:meth:`~SessionCore._resume`), the BYE summary
(:meth:`~SessionCore._finish`) and session teardown
(:meth:`~SessionCore._close`), plus process-wide resources around the
listener (:meth:`~SessionCore._acquire`/:meth:`~SessionCore._release`).
:class:`~repro.serve.server.RaceServer` runs a local engine per
session; :class:`~repro.serve.cluster.RaceCluster` fans each batch out
to N engine workers.

Framing faults carry their own error code
(:attr:`~repro.errors.ProtocolError.code`), so a bad CRC or an
oversized frame gets the same typed ERROR during HELLO as after it.
Every front end's instruments are named ``{component}_*`` (see
:class:`CoreMetrics`): ``serve_*`` for the server, ``cluster_*`` for
the gateway.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from dataclasses import dataclass
from itertools import count
from typing import Any, Dict, Optional, Tuple

from repro.errors import ProtocolError, ServeError
from repro.obs.registry import MetricsRegistry, get_registry
from repro.serve import protocol as wire

__all__ = [
    "BACKEND",
    "SessionConfig",
    "CoreMetrics",
    "Session",
    "SessionCore",
    "CoreThread",
]

#: the observed-race engine backend (the paper's detector); a HELLO
#: may name only its front end's :attr:`SessionCore.backend`, or none
BACKEND = "lattice2d"


@dataclass
class SessionConfig:
    """The session settings every front end shares.

    ``credit_window`` bounds the BATCH frames a session may have
    outstanding (and therefore the queue growth); ``queue_high_water``
    is the depth at which credit grants are withheld until the consume
    loop catches up.  ``checkpoint_dir``/``checkpoint_interval`` are
    the durability settings: the server checkpoints durable sessions
    there, the gateway roots its workers' checkpoints there.
    """

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = pick a free port (read it from ``.port``)
    credit_window: int = 8
    queue_high_water: int = 6
    max_frame: int = wire.DEFAULT_MAX_FRAME
    idle_timeout: float = 30.0
    hello_timeout: float = 10.0
    drain_timeout: float = 10.0
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 32  #: applied batches between checkpoints


class CoreMetrics:
    """The instruments the session core keeps, named
    ``{component}_*`` and labelled ``component=...``; front ends
    subclass it to add their own through the same helpers."""

    def __init__(
        self, registry: MetricsRegistry, component: str, backend: str = BACKEND
    ) -> None:
        self._registry = registry
        self._component = component
        self.sessions_total = self.counter(
            "sessions_total", "client sessions accepted"
        )
        self.sessions_active = self.gauge(
            "sessions_active", "sessions currently open"
        )
        self.frames_in = {
            name: self.counter(
                "frames_total", "frames by direction and type",
                dir="in", type=name,
            )
            for name in wire.FRAME_NAMES.values()
        }
        self.frames_out = {
            name: self.counter(
                "frames_total", "frames by direction and type",
                dir="out", type=name,
            )
            for name in wire.FRAME_NAMES.values()
        }
        self.bytes_in = self.counter(
            "bytes_total", "payload bytes by direction", dir="in"
        )
        self.bytes_out = self.counter(
            "bytes_total", "payload bytes by direction", dir="out"
        )
        self.events = self.counter(
            "events_total", "events ingested over the wire"
        )
        self.credit_stalls = self.counter(
            "credit_stalls_total",
            "credit grants withheld because a session queue sat at its "
            "high-water mark",
        )
        self.errors = {
            name: self.counter(
                "errors_total", "ERROR frames sent, by code", code=name
            )
            for name in wire.ERROR_NAMES.values()
        }
        self.queue_depth = self.gauge(
            "queue_depth", "batches queued across all sessions"
        )
        self.queue_depth_max = self.gauge(
            "queue_depth_max",
            "high-water mark of the aggregate ingest queue",
        )
        self.credit_outstanding = self.gauge(
            "credit_outstanding", "unspent credit across all sessions"
        )
        self.duplicates_skipped = self.counter(
            "duplicate_batches_total",
            "already-applied BATCH frames skipped idempotently on resume",
        )
        self.sessions_backend = self.counter(
            "sessions_backend_total",
            "sessions by negotiated engine backend", backend=backend,
        )

    def _labels(self, extra: Dict[str, str]) -> Dict[str, str]:
        return {"component": self._component, **extra}

    def counter(self, name: str, help: str, **labels: str) -> Any:
        return self._registry.counter(
            f"{self._component}_{name}", help, labels=self._labels(labels)
        )

    def gauge(self, name: str, help: str, **labels: str) -> Any:
        return self._registry.gauge(
            f"{self._component}_{name}", help, labels=self._labels(labels)
        )

    def histogram(self, name: str, help: str, **kw: Any) -> Any:
        return self._registry.histogram(
            f"{self._component}_{name}", help, labels=self._labels({}), **kw
        )

    def observe_depth(self, depth: int) -> None:
        self.queue_depth.set(depth)
        if depth > self.queue_depth_max.value:
            self.queue_depth_max.set(depth)


class Session:
    """Book-keeping for one live connection; a front end subclasses it
    to add its own per-session state."""

    __slots__ = (
        "sid", "writer", "queue", "queued", "credits", "withheld",
        "write_lock", "failed", "draining", "max_frame", "token",
        "enqueued_seq", "table", "width", "saw_batch", "released",
    )

    def __init__(
        self, sid: int, writer: asyncio.StreamWriter, max_frame: int
    ) -> None:
        self.sid = sid
        self.writer = writer
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
        self.table: Optional[int] = None  # shipped table size, if any
        #: one past the largest location id admitted off the wire
        #: (it runs ahead of the engine, which bounds ids by it)
        self.width = 0
        self.saw_batch = False
        self.released = False  # a RELEASE BYE was answered


_BYE = object()  # queue sentinel: client finished its stream


async def _read_frame(
    reader: asyncio.StreamReader, max_frame: int
) -> Tuple[int, bytes]:
    """Read one frame; returns ``(type, payload)``.

    Length is checked against ``max_frame`` before the payload read,
    the CRC after it; both raise a :class:`ProtocolError` carrying its
    error code.  EOF raises ``IncompleteReadError``.
    """
    head = await reader.readexactly(wire.FRAME_HEADER_SIZE)
    length, ftype, crc = wire.parse_frame_header(head)
    wire.check_frame_length(length, max_frame)
    payload = await reader.readexactly(length) if length else b""
    wire.check_payload_crc(payload, crc)
    return ftype, payload


class SessionCore:
    """An asyncio RPRSERVE listener; subclasses supply the sink hooks
    (see the module docstring)."""

    role = "server"  #: how ERROR messages name this front end
    backend = BACKEND  #: the one engine backend HELLO grants
    config_class: Any = SessionConfig
    session_class: Any = Session

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config: Any = (
            config if config is not None else self.config_class()
        )
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
        self.registry = registry if registry is not None else get_registry()
        self._m: Any = self._make_metrics()
        self._server: Optional[asyncio.base_events.Server] = None
        self._sessions: Dict[int, Session] = {}
        self._handlers: set = set()
        self._ids = count(1)
        self._closing = False
        self._closed_event: Optional[asyncio.Event] = None
        self.port: Optional[int] = None

    # -- sink hooks ----------------------------------------------------------

    def _make_metrics(self) -> CoreMetrics:
        raise NotImplementedError

    async def _acquire(self) -> None:
        """Set up process-wide resources before the listener binds."""

    async def _release(self) -> None:
        """Release them after the last session drained (or a failed
        start)."""

    async def _open(self, session: Any) -> None:
        """Open the session's detection state once HELLO checked out;
        a refusal raises :class:`ProtocolError` with its code."""
        raise NotImplementedError

    async def _ingest(
        self, session: Any, seq: int, batch: Any, table: Optional[int]
    ) -> bool:
        """Ingest one queued batch and stream its races; ``False``
        after failing the session (see :meth:`_fail`)."""
        raise NotImplementedError

    async def _resume(self, session: Any, payload: bytes) -> None:
        """Handle a RESUME frame; a refusal raises
        :class:`ProtocolError` with its code."""
        raise NotImplementedError

    async def _finish(self, session: Any) -> Optional[Tuple[int, int]]:
        """The BYE summary ``(events, races)`` once the queue drained;
        ``None`` after failing the session."""
        raise NotImplementedError

    async def _close(self, session: Any) -> None:
        """Release the session's detection state (always runs)."""
        raise NotImplementedError

    def _fan_out(self) -> int:
        """Engine workers behind this listener (the HELLO reply field)."""
        return 1

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        if self._server is not None:
            raise ServeError(f"{self.role} already started")
        self._closed_event = asyncio.Event()
        try:
            await self._acquire()
            self._server = await asyncio.start_server(
                self._handle, self.config.host, self.config.port
            )
        except BaseException:
            await self._release()
            raise
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
            raise ServeError(f"{self.role} not started")
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
        await self._release()
        if self._closed_event is not None:
            self._closed_event.set()

    # -- wire helpers --------------------------------------------------------

    async def _send(
        self, session: Session, ftype: int, payload: bytes = b""
    ) -> None:
        # Count before the write syscall: a client thread unblocked by
        # these very bytes may inspect the registry immediately.
        self._m.frames_out[wire.FRAME_NAMES[ftype]].inc()
        self._m.bytes_out.inc(wire.FRAME_HEADER_SIZE + len(payload))
        async with session.write_lock:
            session.writer.write(wire.encode_frame(ftype, payload))
            await session.writer.drain()

    async def _send_error(
        self, session: Session, code: int, message: str
    ) -> None:
        self._m.errors[wire.ERROR_NAMES[code]].inc()
        try:
            await self._send(
                session, wire.FRAME_ERROR, wire.encode_error(code, message)
            )
        except (ConnectionError, RuntimeError):
            pass  # the peer is already gone; teardown continues

    async def _fail(
        self, session: Session, exc: BaseException, code: int, message: str
    ) -> None:
        """Fail the session mid-stream.  No writer.close() here:
        closing with the client's remaining frames unread raises an RST
        that can destroy the in-flight ERROR.  The read loop drains
        what credit allowed and teardown closes cleanly."""
        session.failed = exc
        await self._send_error(session, code, message)

    def _total_depth(self) -> int:
        return sum(s.queued for s in self._sessions.values())

    # -- session lifecycle ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        sid = next(self._ids)
        session = self.session_class(sid, writer, self.config.max_frame)
        self._sessions[sid] = session
        self._m.sessions_total.inc()
        self._m.sessions_active.inc()
        consumer: Optional[asyncio.Task] = None
        try:
            if self._closing:
                raise ProtocolError(
                    f"{self.role} is draining", code=wire.ERR_SHUTTING_DOWN
                )
            await self._handshake(session, reader)
            session.credits = self.config.credit_window
            self._m.credit_outstanding.inc(session.credits)
            consumer = asyncio.ensure_future(self._consume(session))
            await self._read_loop(session, reader, consumer)
        except asyncio.CancelledError:
            # Only shutdown cancels a handler, once its drain timeout
            # ran out.  The task ends normally after teardown: a
            # cancelled connection task is logged by asyncio (before
            # Python 3.12) as an exception in its done callback.
            pass
        except (
            asyncio.IncompleteReadError, ConnectionError, OSError
        ):
            pass  # client vanished mid-frame; teardown below
        except ProtocolError as exc:
            # Every refusal ends here, typed by the code it carries --
            # framing faults (bad CRC, oversized) alike in HELLO and
            # after it.
            code = exc.code if exc.code is not None else wire.ERR_PROTOCOL
            await self._send_error(session, code, str(exc))
        finally:
            if consumer is not None:
                consumer.cancel()
                try:
                    await consumer
                except (asyncio.CancelledError, Exception):
                    pass
            await self._close(session)
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

    async def _next_frame(
        self,
        reader: asyncio.StreamReader,
        max_frame: int,
        timeout: float,
        idle: str,
    ) -> Tuple[int, bytes]:
        """Read and count one frame; ``idle`` is the ERR_IDLE_TIMEOUT
        message if none arrives within ``timeout`` seconds."""
        try:
            ftype, payload = await asyncio.wait_for(
                _read_frame(reader, max_frame), timeout
            )
        except asyncio.TimeoutError:
            raise ProtocolError(idle, code=wire.ERR_IDLE_TIMEOUT) from None
        self._m.frames_in[wire.FRAME_NAMES[ftype]].inc()
        self._m.bytes_in.inc(wire.FRAME_HEADER_SIZE + len(payload))
        return ftype, payload

    async def _handshake(
        self, session: Session, reader: asyncio.StreamReader
    ) -> None:
        ftype, payload = await self._next_frame(
            reader, wire.DEFAULT_MAX_FRAME, self.config.hello_timeout,
            "no HELLO within timeout",
        )
        if ftype != wire.FRAME_HELLO:
            raise ProtocolError(
                f"expected HELLO, got {wire.FRAME_NAMES[ftype]}"
            )
        client_max, requested, _features = wire.decode_hello(payload)
        if requested is not None and requested != self.backend:
            raise ProtocolError(
                f"unknown engine backend {requested!r}; "
                f"this {self.role} runs only {self.backend!r}",
                code=wire.ERR_BACKEND,
            )
        await self._open(session)
        self._m.sessions_backend.inc()
        session.max_frame = min(self.config.max_frame, client_max)
        await self._send(
            session, wire.FRAME_HELLO,
            wire.encode_hello_reply(
                self.config.credit_window, session.max_frame,
                backend=self.backend, workers=self._fan_out(),
            ),
        )

    async def _read_loop(
        self,
        session: Session,
        reader: asyncio.StreamReader,
        consumer: asyncio.Task,
    ) -> None:
        idle = f"no frame within {self.config.idle_timeout}s"
        while True:
            ftype, payload = await self._next_frame(
                reader, session.max_frame, self.config.idle_timeout, idle
            )
            if session.failed is not None:
                # The consumer already sent ERROR.  Keep draining what
                # the client's credit let it send -- closing with
                # unread frames in the buffer raises an RST that can
                # destroy the in-flight ERROR before the client reads
                # it.  BYE (or EOF) ends the session.
                if ftype == wire.FRAME_BYE:
                    return
                continue
            if ftype == wire.FRAME_BATCH:
                await self._accept_batch(session, payload)
            elif ftype == wire.FRAME_RESUME:
                await self._resume(session, payload)
            elif ftype == wire.FRAME_BYE:
                release = wire.decode_bye(payload)
                session.queue.put_nowait(_BYE)
                await consumer
                if session.failed is None:
                    summary = await self._finish(session)
                    if summary is not None:
                        await self._send(
                            session, wire.FRAME_BYE,
                            wire.encode_bye_summary(*summary),
                        )
                        session.released = release
                return
            else:
                raise ProtocolError(
                    f"unexpected {wire.FRAME_NAMES[ftype]} frame"
                )

    async def _accept_batch(self, session: Session, payload: bytes) -> None:
        """Spend credit on, decode, sequence-check and validate one
        BATCH frame, then queue it for the consumer."""
        m = self._m
        if session.credits <= 0:
            raise ProtocolError(
                "BATCH with no credit outstanding",
                code=wire.ERR_CREDIT_OVERRUN,
            )
        session.credits -= 1
        m.credit_outstanding.dec()
        try:
            batch, new_locs, seq = wire.decode_batch_payload(payload)
        except ProtocolError as exc:
            raise ProtocolError(
                str(exc), code=wire.ERR_MALFORMED_BATCH
            ) from None
        session.saw_batch = True
        if seq == 0:
            if session.token is not None:
                raise ProtocolError(
                    "durable sessions must sequence their batches"
                )
        elif session.token is not None and seq <= session.enqueued_seq:
            # A replayed batch the crash-surviving engine already
            # holds: skip it idempotently (its location-table delta
            # included) and hand the credit straight back.
            m.duplicates_skipped.inc()
            session.credits += 1
            m.credit_outstanding.inc()
            await self._send(
                session, wire.FRAME_CREDIT, wire.encode_credit(1)
            )
            return
        elif seq != session.enqueued_seq + 1:
            raise ProtocolError(
                f"batch seq {seq} breaks contiguity (expected "
                f"{session.enqueued_seq + 1})"
            )
        try:
            if new_locs is not None:
                session.table = (session.table or 0) + len(new_locs)
            session.width = max(session.width, wire.validate_batch_columns(
                batch, session.table, session.width
            ))
        except ProtocolError as exc:
            raise ProtocolError(
                str(exc), code=wire.ERR_MALFORMED_BATCH
            ) from None
        session.enqueued_seq = max(session.enqueued_seq, seq)
        session.queued += 1
        session.queue.put_nowait((seq, batch, session.table))
        m.observe_depth(self._total_depth())

    async def _consume(self, session: Session) -> None:
        """The session's ingest worker: dequeue, hand each batch to the
        front end, return credit (or stall at the high-water mark)."""
        m = self._m
        while True:
            item = await session.queue.get()
            if item is _BYE:
                return
            seq, batch, table = item
            session.queued -= 1
            if not await self._ingest(session, seq, batch, table):
                return
            m.events.inc(len(batch))
            m.observe_depth(self._total_depth())
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


class CoreThread:
    """A front end on a private event loop in a daemon thread --
    loopback serving for synchronous callers.  Subclasses name the
    front end class and the start/stop timeouts."""

    front_end: Any = SessionCore
    start_timeout = 10.0
    stop_timeout = 10.0

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = (
            config if config is not None else self.front_end.config_class()
        )
        self.registry = registry
        self.port: Optional[int] = None
        self._front: Any = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{self.front_end.role}",
            daemon=True,
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced to start()/stop()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._front = self.front_end(self.config, registry=self.registry)
        try:
            self.port = await self._front.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self._front.serve_forever()

    def start(self, timeout: Optional[float] = None) -> int:
        """Start the thread; returns the bound port."""
        self._thread.start()
        if not self._ready.wait(
            self.start_timeout if timeout is None else timeout
        ):
            raise ServeError(f"{self.front_end.role} thread did not come up")
        if self._error is not None:
            raise self._error
        assert self.port is not None
        return self.port

    def stop(self, timeout: Optional[float] = None) -> None:
        """Gracefully drain and join the thread."""
        if self._loop is not None and self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self._front.shutdown(), self._loop
            )
        self._thread.join(self.stop_timeout if timeout is None else timeout)

    def __enter__(self) -> "CoreThread":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False
