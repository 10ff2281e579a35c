"""Blocking client for the RPRSERVE protocol, plus a load generator.

:class:`RaceClient` is the synchronous counterpart of
:class:`~repro.serve.server.RaceServer`: it speaks the HELLO exchange,
pushes :class:`~repro.engine.batch.EventBatch` columns as BATCH
frames while honouring the server's credit grants, collects the RACES
frames streamed back, and closes with a BYE handshake whose summary
it cross-checks against its own counters.  Server-side failures
arrive as ERROR frames and raise :class:`RemoteError` with the
machine-readable code (``remote.code``) preserved.

On top of it sit the replay helpers -- :func:`submit_batch`,
:func:`submit_trace` for ``.rpr2trc`` files, :func:`submit_program`
for racegen program bodies -- and :func:`run_load`, the
multi-connection load generator behind ``repro-race submit --sessions``
and ``benchmarks/bench_serve.py``: N threads, one session each,
replaying the same workload concurrently and reporting aggregate
events/sec.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.reports import RaceReport
from repro.engine.batch import EventBatch, LocationInterner
from repro.errors import ProtocolError, ServeError
from repro.serve import protocol as wire

__all__ = [
    "ConnectError",
    "TransportError",
    "RemoteError",
    "ClientSummary",
    "RaceClient",
    "submit_batch",
    "submit_trace",
    "submit_program",
    "LoadResult",
    "run_load",
]


class ConnectError(ServeError):
    """The server could not be reached at all (TCP dial failed)."""


class TransportError(ServeError):
    """The connection died mid-session (send/receive failed, EOF, or
    a read timeout).  Durable sessions (``session=...``) recover from
    this transparently by reconnecting and replaying; plain sessions
    surface it."""


class RemoteError(ServeError):
    """The server answered with an ERROR frame.

    ``code`` is the wire error code (``wire.ERR_*``); ``str()`` is the
    server's message prefixed with the code's name.
    """

    def __init__(self, code: int, message: str) -> None:
        name = wire.ERROR_NAMES.get(code, str(code))
        super().__init__(f"server error [{name}]: {message}")
        self.code = code
        self.remote_message = message


@dataclass
class ClientSummary:
    """What one session accomplished, per the server's BYE summary."""

    events: int  #: events the server ingested for this session
    races: int  #: race reports the server streamed back
    reports: List[RaceReport] = field(default_factory=list)


class RaceClient:
    """One blocking RPRSERVE session.

    Use as a context manager (connects on entry, closes on exit)::

        with RaceClient("127.0.0.1", port) as client:
            for piece in batch.slices(8192):
                client.send_batch(piece)
            summary = client.finish()

    ``send_batch`` blocks while the session is out of credit, reading
    frames until the server grants more -- that *is* the backpressure:
    a slow server throttles its clients instead of buffering without
    bound.  RACES frames are decoded as they arrive into
    :attr:`races`; location ids in them are the client's own interned
    ids unless the session ships its table (``ship_locations=True``).

    Passing ``backend="lattice2d"`` (the name an observed-race server
    grants; a ``--predict`` server grants ``"shb"``) requests that
    engine backend in the HELLO; the grant is readable as
    :attr:`negotiated_backend` after :meth:`connect`, and any other
    name is refused with a typed ``ERR_BACKEND`` -- a requested backend
    is a requirement, never silently downgraded.

    Passing ``compress=True`` requests the CBATCH feature in the
    HELLO: :meth:`send_compressed` then ships
    :class:`~repro.compress.CompressedTrace` frames the server ingests
    via its memoized kernel without expanding.  Like a requested
    backend, the feature is a requirement -- a server that cannot
    grant it (a prediction server) fails the connect with a typed
    error rather than silently receiving raw batches.

    Passing ``session="some-token"`` makes the session *durable*
    against a server speaking with ``checkpoint_dir``: every batch is
    sequenced and retained until the server's ACK says a checkpoint
    covers it, and a dropped connection is retried with exponential
    backoff -- reconnect, RESUME, replay everything past the server's
    durable sequence.  Replayed duplicates are skipped server-side and
    RACES frames are keyed by sequence, so a resumed stream yields
    exactly the race reports of an uninterrupted one.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 30.0,
        max_frame: int = wire.DEFAULT_MAX_FRAME,
        interner: Optional[LocationInterner] = None,
        ship_locations: bool = False,
        session: Optional[str] = None,
        max_retries: int = 4,
        retry_backoff: float = 0.05,
        backend: Optional[str] = None,
        compress: bool = False,
    ) -> None:
        if session is not None and not wire.valid_session_token(session):
            raise ServeError(f"invalid session token: {session!r}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_frame = max_frame
        self.interner = interner
        self.ship_locations = ship_locations
        self.session = session
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.backend = backend
        self.compress = compress
        self.negotiated_backend: Optional[str] = None
        #: engine workers behind the server (from the HELLO reply)
        self.negotiated_workers = 1
        self.credit = 0
        self.events_sent = 0
        self.batches_sent = 0
        self.durable_seq = 0  #: highest seq the server has checkpointed
        self.reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._shipped_locations = 0
        self._finished: Optional[Tuple[int, int]] = None
        self._next_seq = 1
        #: seq -> (frame type, encoded payload), retained for replay
        self._unacked: Dict[int, Tuple[int, bytes]] = {}
        self._races_by_seq: Dict[int, List[RaceReport]] = {}
        self._races_unseq: List[RaceReport] = []

    @property
    def races(self) -> List[RaceReport]:
        """Race reports streamed back so far, in stream order.

        Sequenced RACES frames are keyed by batch seq and *replace* on
        replay, so a resumed session never double-counts a report."""
        out = list(self._races_unseq)
        for seq in sorted(self._races_by_seq):
            out.extend(self._races_by_seq[seq])
        return out

    # -- connection ----------------------------------------------------------

    def connect(self) -> "RaceClient":
        """Dial the server and complete the HELLO exchange (plus the
        RESUME handshake when the session is durable)."""
        if self._sock is not None:
            raise ServeError("client already connected")
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            raise ConnectError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        self._sock = sock
        try:
            self._hello()
            if self.session is not None:
                self._resume_handshake()
        except BaseException:
            self.close()  # a refused handshake leaves no socket open
            raise
        return self

    def _hello(self) -> None:
        """Send HELLO and fold the server's reply in."""
        self._send_frame(
            wire.FRAME_HELLO,
            wire.encode_hello(
                self.max_frame, backend=self.backend,
                features=wire.FLAG_CBATCH if self.compress else 0,
            ),
        )
        ftype, payload = self._recv_frame()
        if ftype == wire.FRAME_ERROR:
            code, message = wire.decode_error(payload)
            raise RemoteError(code, message)
        if ftype != wire.FRAME_HELLO:
            raise ProtocolError(
                f"expected HELLO reply, got {wire.FRAME_NAMES[ftype]}"
            )
        credit, max_frame, granted, features, workers = (
            wire.decode_hello_reply(payload)
        )
        if self.backend is not None and granted != self.backend:
            raise ServeError(
                f"requested the {self.backend!r} backend but the "
                f"server granted {granted!r}"
            )
        if self.compress and not features & wire.FLAG_CBATCH:
            raise ServeError(
                "requested compressed (CBATCH) ingestion but the "
                "server did not grant it"
            )
        self.negotiated_backend = granted
        self.negotiated_workers = workers
        self.credit = credit
        self.max_frame = max_frame

    def _resume_handshake(self) -> None:
        """Send RESUME and fold the server's durable sequence in."""
        assert self.session is not None
        self._send_frame(wire.FRAME_RESUME, wire.encode_resume(self.session))
        while True:
            ftype, payload = self._pump()
            if ftype == wire.FRAME_RESUME:
                durable = wire.decode_resume_reply(payload)
                break
            if ftype not in (wire.FRAME_CREDIT, wire.FRAME_ACK):
                raise ProtocolError(
                    f"expected RESUME reply, got {wire.FRAME_NAMES[ftype]}"
                )
        if durable < self.durable_seq:
            # The server lost a checkpoint it had ACKed (deleted, say,
            # by a RELEASE BYE whose reply never arrived): replaying
            # the unacked tail onto a fresh engine would answer wrongly.
            raise ServeError(
                f"session {self.session!r} resumed at seq {durable}, "
                f"below the acknowledged seq {self.durable_seq}"
            )
        # The server follows the reply with one snapshot RACES frame
        # (keyed at the durable seq) covering everything the restored
        # engine already found; drop our per-seq entries at or below it
        # so the snapshot replaces rather than double-counts them.
        for seq in [s for s in self._races_by_seq if s <= durable]:
            del self._races_by_seq[seq]
        self._trim_acked(durable)
        # A brand-new client resuming an existing token continues the
        # sequence where the checkpoint left it; everything at or below
        # ``durable_seq`` is already applied server-side.
        if self._next_seq <= durable:
            self._next_seq = durable + 1

    def _trim_acked(self, durable: int) -> None:
        if durable > self.durable_seq:
            self.durable_seq = durable
        for seq in [s for s in self._unacked if s <= self.durable_seq]:
            del self._unacked[seq]

    def _redial(self) -> None:
        """Reconnect a durable session and replay past the server's
        durable point (everything not yet covered by a checkpoint)."""
        self.connect()
        self.reconnects += 1
        for seq in sorted(self._unacked):
            ftype, payload = self._unacked[seq]
            while self.credit <= 0:
                self._pump()
            self.credit -= 1
            self._send_frame(ftype, payload)

    def _with_retry(self, fn: Callable[[], None]) -> None:
        """Run ``fn``, transparently reconnect-and-replaying a durable
        session when the transport drops (bounded exponential backoff).
        Typed server refusals (:class:`RemoteError`) never retry."""
        attempts = 0
        while True:
            try:
                if self._sock is None and self.session is not None:
                    self._redial()
                fn()
                return
            except (TransportError, ConnectError):
                self.close()
                if self.session is None:
                    raise
                attempts += 1
                if attempts > self.max_retries:
                    raise
                time.sleep(self.retry_backoff * (2 ** (attempts - 1)))

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "RaceClient":
        return self.connect()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- wire ----------------------------------------------------------------

    def _require_sock(self) -> socket.socket:
        if self._sock is None:
            raise ServeError("client is not connected")
        return self._sock

    def _send_frame(self, ftype: int, payload: bytes = b"") -> None:
        try:
            self._require_sock().sendall(wire.encode_frame(ftype, payload))
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def _recv_exactly(self, n: int) -> bytes:
        sock = self._require_sock()
        chunks = []
        got = 0
        while got < n:
            try:
                chunk = sock.recv(n - got)
            except socket.timeout as exc:
                raise TransportError(
                    f"no frame from server within {self.timeout}s"
                ) from exc
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            if not chunk:
                raise TransportError(
                    "server closed the connection mid-frame"
                )
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def _recv_frame(self) -> Tuple[int, bytes]:
        head = self._recv_exactly(wire.FRAME_HEADER_SIZE)
        length, ftype, crc = wire.parse_frame_header(head)
        wire.check_frame_length(length, self.max_frame)
        payload = self._recv_exactly(length) if length else b""
        wire.check_payload_crc(payload, crc)
        return ftype, payload

    def _pump(self) -> Tuple[int, bytes]:
        """Read one frame, folding CREDIT/RACES into client state;
        returns the frame for the caller to inspect too."""
        ftype, payload = self._recv_frame()
        if ftype == wire.FRAME_CREDIT:
            self.credit += wire.decode_credit(payload)
        elif ftype == wire.FRAME_RACES:
            seq, reports = wire.decode_races(payload)
            if seq:
                self._races_by_seq[seq] = reports
            else:
                self._races_unseq.extend(reports)
        elif ftype == wire.FRAME_ACK:
            self._trim_acked(wire.decode_ack(payload))
        elif ftype == wire.FRAME_ERROR:
            code, message = wire.decode_error(payload)
            self.close()
            raise RemoteError(code, message)
        return ftype, payload

    # -- streaming -----------------------------------------------------------

    def _table_delta(self) -> Sequence:
        if not self.ship_locations:
            return ()
        if self.interner is None:
            raise ServeError(
                "ship_locations needs the session's interner"
            )
        table = self.interner.locations()
        new_locations = table[self._shipped_locations:]
        self._shipped_locations = len(table)
        return new_locations

    def send_batch(self, batch: EventBatch) -> None:
        """Push one BATCH frame, waiting for credit first if the
        session has none outstanding."""
        if self._finished is not None:
            raise ServeError("session already finished (BYE sent)")
        new_locations = self._table_delta()
        seq = self._next_seq if self.session is not None else 0
        payload = wire.encode_batch_payload(batch, new_locations, seq=seq)
        if len(payload) > self.max_frame:
            raise ProtocolError(
                f"batch of {len(batch)} events encodes to {len(payload)} "
                f"bytes, over the negotiated frame cap of "
                f"{self.max_frame}; slice it smaller"
            )
        self._send_sequenced(wire.FRAME_BATCH, payload, seq)
        self.events_sent += len(batch)
        self.batches_sent += 1

    def send_compressed(self, ctrace) -> None:
        """Push one :class:`~repro.compress.CompressedTrace` as a
        CBATCH frame (requires ``compress=True`` at connect).

        Credit, sequencing, and replay-on-reconnect follow
        :meth:`send_batch` exactly -- CBATCH frames live in the same
        sequence space, so a durable session may mix the two.  A
        trace that expands past ``max_frame // 9`` events (what a raw
        BATCH could carry) is refused before anything is sent, as the
        server would refuse it.
        """
        if self._finished is not None:
            raise ServeError("session already finished (BYE sent)")
        if not self.compress:
            raise ServeError(
                "send_compressed needs a session connected with "
                "compress=True"
            )
        wire.check_cbatch_events(len(ctrace), self.max_frame)
        new_locations = self._table_delta()
        seq = self._next_seq if self.session is not None else 0
        payload = wire.encode_cbatch_payload(ctrace, new_locations, seq=seq)
        if len(payload) > self.max_frame:
            raise ProtocolError(
                f"compressed trace of {len(ctrace)} events encodes to "
                f"{len(payload)} bytes, over the negotiated frame cap "
                f"of {self.max_frame}; compress smaller slices"
            )
        self._send_sequenced(wire.FRAME_CBATCH, payload, seq)
        self.events_sent += len(ctrace)
        self.batches_sent += 1

    def _send_sequenced(self, ftype: int, payload: bytes, seq: int) -> None:
        if seq:
            # Retained verbatim until an ACK covers it: a replay after
            # reconnect must resend the *same bytes* (same seq, same
            # location-table delta) for server-side dedup to hold.
            self._next_seq += 1
            self._unacked[seq] = (ftype, payload)
        self._with_retry(lambda: self._send_payload(ftype, payload))

    def _send_payload(self, ftype: int, payload: bytes) -> None:
        while self.credit <= 0:
            self._pump()
        self.credit -= 1
        self._send_frame(ftype, payload)

    def send_batches(
        self, batch: EventBatch, batch_size: int = 8192
    ) -> None:
        """Slice ``batch`` and push every piece."""
        for piece in batch.slices(batch_size):
            self.send_batch(piece)

    def send_batches_compressed(
        self,
        batch: EventBatch,
        batch_size: int = 65536,
        block_width: Optional[int] = None,
    ) -> None:
        """Slice ``batch``, compress each piece, and push it as a
        CBATCH frame.  The default slice is wider than
        :meth:`send_batches`'s because compression shrinks the wire
        frame well below the slice's raw size; no slice is wider than
        the session's CBATCH expansion cap."""
        from repro.compress import DEFAULT_BLOCK_WIDTH, compress

        width = block_width if block_width else DEFAULT_BLOCK_WIDTH
        cap = wire.max_cbatch_events(self.max_frame)
        for piece in batch.slices(min(batch_size, cap)):
            self.send_compressed(compress(piece, width))

    def finish(self, release: bool = False) -> ClientSummary:
        """Send BYE, drain the stream, and return the session summary.

        ``release=True`` says the session will never be resumed: a
        durable session's server then deletes its checkpoint instead
        of writing a final one.  The server's summary is cross-checked
        against the client's own event counter -- a disagreement means
        frames were lost or double-counted and raises
        :class:`ProtocolError`.
        """
        if self._finished is None:
            self._with_retry(lambda: self._finish_once(release))
        events, races = self._finished
        if self.session is None and events != self.events_sent:
            # A resumed session legitimately diverges: the server's
            # total includes checkpointed events from a prior
            # connection, while replayed duplicates are skipped.
            raise ProtocolError(
                f"server ingested {events} events, client sent "
                f"{self.events_sent}"
            )
        return ClientSummary(events, races, list(self.races))

    def _finish_once(self, release: bool) -> None:
        self._send_frame(wire.FRAME_BYE, wire.encode_bye(release))
        while True:
            ftype, payload = self._pump()
            if ftype == wire.FRAME_BYE:
                self._finished = wire.decode_bye_summary(payload)
                return
            if ftype not in (
                wire.FRAME_CREDIT, wire.FRAME_RACES, wire.FRAME_ACK
            ):
                raise ProtocolError(
                    f"unexpected {wire.FRAME_NAMES[ftype]} frame "
                    f"while draining"
                )


# -- replay helpers -----------------------------------------------------------


def submit_batch(
    host: str,
    port: int,
    batch: EventBatch,
    *,
    interner: Optional[LocationInterner] = None,
    batch_size: int = 8192,
    ship_locations: bool = False,
    timeout: float = 30.0,
    backend: Optional[str] = None,
    compress: bool = False,
) -> ClientSummary:
    """Replay one in-memory batch over a fresh session.

    ``compress=True`` negotiates the CBATCH feature and ships each
    slice grammar-compressed; the server ingests it via its memoized
    kernel without expanding."""
    with RaceClient(
        host, port, timeout=timeout, interner=interner,
        ship_locations=ship_locations, backend=backend,
        compress=compress,
    ) as client:
        if compress:
            client.send_batches_compressed(batch, max(batch_size, 65536))
        else:
            client.send_batches(batch, batch_size)
        return client.finish()


def submit_trace(
    host: str,
    port: int,
    path: str,
    *,
    batch_size: int = 8192,
    ship_locations: bool = False,
    timeout: float = 30.0,
    compress: bool = False,
) -> ClientSummary:
    """Replay a trace file (compact ``.rpr2trc``, compressed
    ``.rpr2trz``, or JSONL) over a fresh session.

    With ``compress=True`` a compressed container is shipped in its
    stored form -- one CBATCH per container, never expanded on either
    side -- unless it expands past the session's CBATCH cap, when it
    is expanded here and compressed slice by slice like a raw input."""
    from repro.engine.batch import batch_from_events
    from repro.engine.tracefile import (
        is_compressed_tracefile,
        is_tracefile,
        read_trace,
    )

    if compress and is_compressed_tracefile(path):
        from repro.compress import read_tracez

        ctrace, interner = read_tracez(path)
        with RaceClient(
            host, port, timeout=timeout, interner=interner,
            ship_locations=ship_locations, compress=True,
        ) as client:
            if len(ctrace) <= wire.max_cbatch_events(client.max_frame):
                client.send_compressed(ctrace)
            else:
                client.send_batches_compressed(ctrace.decompress())
            return client.finish()
    if is_tracefile(path):
        batch, interner = read_trace(path)
    else:
        from repro.trace import load_events

        batch, interner = batch_from_events(load_events(path))
    return submit_batch(
        host, port, batch, interner=interner, batch_size=batch_size,
        ship_locations=ship_locations, timeout=timeout, compress=compress,
    )


def submit_program(
    host: str,
    port: int,
    body: Callable,
    *,
    batch_size: int = 8192,
    ship_locations: bool = False,
    timeout: float = 30.0,
) -> ClientSummary:
    """Run a program body locally into a columnar batch, then replay
    it over a fresh session."""
    from repro.engine.batch import BatchBuilder
    from repro.forkjoin.interpreter import run

    builder = BatchBuilder()
    run(body, observers=[builder])
    return submit_batch(
        host, port, builder.batch, interner=builder.interner,
        batch_size=batch_size, ship_locations=ship_locations,
        timeout=timeout,
    )


# -- load generator -----------------------------------------------------------


@dataclass
class LoadResult:
    """Aggregate outcome of one :func:`run_load` drive."""

    sessions: int
    events: int  #: total events ingested across all sessions
    races: int  #: total race reports streamed back
    seconds: float  #: wall time from the start barrier to the last BYE
    summaries: List[ClientSummary]

    @property
    def events_per_sec(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0


def run_load(
    host: str,
    port: int,
    batch: EventBatch,
    *,
    sessions: int = 4,
    batch_size: int = 8192,
    timeout: float = 60.0,
    backend: Optional[str] = None,
    compress: bool = False,
) -> LoadResult:
    """Drive ``sessions`` concurrent connections, each replaying
    ``batch``, and measure aggregate wall-clock throughput.

    All sessions connect and handshake first, then start streaming
    together off a barrier so the measured window is pure streaming.
    The first session failure is re-raised after every thread joins.
    ``backend`` is requested per session in the HELLO and
    ``compress`` the CBATCH feature (see :class:`RaceClient`).
    """
    if sessions < 1:
        raise ServeError(f"need at least one session, got {sessions}")
    clients = [
        RaceClient(
            host, port, timeout=timeout, backend=backend,
            compress=compress,
        ).connect()
        for _ in range(sessions)
    ]
    barrier = threading.Barrier(sessions + 1)
    summaries: List[Optional[ClientSummary]] = [None] * sessions
    errors: List[BaseException] = []

    def drive(k: int, client: RaceClient) -> None:
        try:
            barrier.wait()
            if compress:
                client.send_batches_compressed(batch)
            else:
                client.send_batches(batch, batch_size)
            summaries[k] = client.finish()
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()
        finally:
            client.close()

    threads = [
        threading.Thread(
            target=drive, args=(k, client),
            name=f"repro-load-{k}", daemon=True,
        )
        for k, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    done = [s for s in summaries if s is not None]
    return LoadResult(
        sessions=sessions,
        events=sum(s.events for s in done),
        races=sum(s.races for s in done),
        seconds=elapsed,
        summaries=done,
    )
