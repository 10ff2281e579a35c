"""Blocking client for the RPRSERVE protocol, plus a load generator.

:class:`ClientCore` is the client side of one session without any
I/O: the HELLO grant checks, the RESUME durable check, batch
sequencing and the frames retained until an ACK covers them, the
CREDIT/RACES/ACK/ERROR fold, the merged race stream and the BYE
summary check.  Two transports drive it: :class:`RaceClient` here,
and the gateway's worker links, which run on the gateway's event
loop (:mod:`repro.serve.cluster`).

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
    "ClientCore",
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


class ClientCore:
    """The client side of one RPRSERVE session, without I/O.

    Everything a client must remember and check lives here, once; a
    transport subclasses it and adds only socket reads and writes,
    waits and retry backoff (:class:`RaceClient` with blocking
    sockets, the gateway's worker links with asyncio streams).  A
    transport writes :meth:`hello_payload` (and on a durable session
    :meth:`resume_payload`) and hands the replies to
    :meth:`on_hello_reply` and :meth:`on_resume_frame`; it writes each
    frame :meth:`stage_batch` returns once it holds a unit of
    :attr:`credit`, feeds every frame it reads to :meth:`receive`, and
    after a dropped connection redoes the handshake and writes
    :meth:`replay_frames`.  After BYE it feeds frames to
    :meth:`on_bye_frame` until the summary arrives.

    :attr:`races` is the merged race stream in seq order.  RACES at a
    seq *replace* that seq's previous reports (a replay re-derives
    them), so a resumed stream never double-counts; a frame past every
    seq seen so far -- the common case -- is an append, so the list
    only grows between replays and reading its new tail is O(new).
    """

    def __init__(
        self,
        *,
        max_frame: int = wire.DEFAULT_MAX_FRAME,
        session: Optional[str] = None,
        backend: Optional[str] = None,
        compress: bool = False,
        interner: Optional[LocationInterner] = None,
        ship_locations: bool = False,
    ) -> None:
        if session is not None and not wire.valid_session_token(session):
            raise ServeError(f"invalid session token: {session!r}")
        self.max_frame = max_frame
        self.session = session
        self.backend = backend
        self.compress = compress
        self.interner = interner
        self.ship_locations = ship_locations
        self.negotiated_backend: Optional[str] = None
        #: engine workers behind the server (from the HELLO reply)
        self.negotiated_workers = 1
        self.credit = 0
        self.events_sent = 0
        self.batches_sent = 0
        self.durable_seq = 0  #: highest seq the server has checkpointed
        self.reconnects = 0
        #: race reports streamed back so far, in seq order
        self.races: List[RaceReport] = []
        #: seq -> that seq's reports (seq 0: every unsequenced report)
        self._races_by_seq: Dict[int, List[RaceReport]] = {}
        self._race_tail = 0  # the highest seq in _races_by_seq
        self._shipped_locations = 0
        self._finished: Optional[Tuple[int, int]] = None
        self._next_seq = 1
        #: seq -> (frame type, encoded payload), retained for replay
        self._unacked: Dict[int, Tuple[int, bytes]] = {}

    # -- handshake -----------------------------------------------------------

    def hello_payload(self) -> bytes:
        return wire.encode_hello(
            self.max_frame, backend=self.backend,
            features=wire.FLAG_CBATCH if self.compress else 0,
        )

    def on_hello_reply(self, ftype: int, payload: bytes) -> None:
        """Fold the server's HELLO reply in; a refusal or a grant short
        of what was requested raises."""
        if ftype == wire.FRAME_ERROR:
            raise RemoteError(*wire.decode_error(payload))
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

    def resume_payload(self) -> bytes:
        assert self.session is not None
        return wire.encode_resume(self.session)

    def on_resume_frame(self, ftype: int, payload: bytes) -> bool:
        """After :meth:`receive`: true once the RESUME reply arrived
        and the server's durable sequence is folded in."""
        if ftype != wire.FRAME_RESUME:
            if ftype not in (wire.FRAME_CREDIT, wire.FRAME_ACK):
                raise ProtocolError(
                    f"expected RESUME reply, got {wire.FRAME_NAMES[ftype]}"
                )
            return False
        durable = wire.decode_resume_reply(payload)
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
        self._drop_races_through(durable)
        self._trim_acked(durable)
        # A brand-new client resuming an existing token continues the
        # sequence where the checkpoint left it; everything at or below
        # ``durable_seq`` is already applied server-side.
        if self._next_seq <= durable:
            self._next_seq = durable + 1
        return True

    def replay_frames(self) -> List[Tuple[int, bytes]]:
        """The retained frames a reconnected durable session resends,
        in seq order (everything no checkpoint covers yet)."""
        return [self._unacked[seq] for seq in sorted(self._unacked)]

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

    def _seq(self) -> int:
        if self._finished is not None:
            raise ServeError("session already finished (BYE sent)")
        return self._next_seq if self.session is not None else 0

    def stage_batch(self, batch: EventBatch) -> Tuple[int, bytes]:
        """Encode one BATCH frame and sequence it; returns the frame
        for the transport to write once it holds a credit."""
        seq = self._seq()
        payload = wire.encode_batch_payload(
            batch, self._table_delta(), seq=seq
        )
        if len(payload) > self.max_frame:
            raise ProtocolError(
                f"batch of {len(batch)} events encodes to {len(payload)} "
                f"bytes, over the negotiated frame cap of "
                f"{self.max_frame}; slice it smaller"
            )
        return self._stage(wire.FRAME_BATCH, payload, seq, len(batch))

    def stage_compressed(self, ctrace) -> Tuple[int, bytes]:
        """Encode one CBATCH frame and sequence it (see
        :meth:`RaceClient.send_compressed`)."""
        seq = self._seq()
        if not self.compress:
            raise ServeError(
                "send_compressed needs a session connected with "
                "compress=True"
            )
        wire.check_cbatch_events(len(ctrace), self.max_frame)
        payload = wire.encode_cbatch_payload(
            ctrace, self._table_delta(), seq=seq
        )
        if len(payload) > self.max_frame:
            raise ProtocolError(
                f"compressed trace of {len(ctrace)} events encodes to "
                f"{len(payload)} bytes, over the negotiated frame cap "
                f"of {self.max_frame}; compress smaller slices"
            )
        return self._stage(wire.FRAME_CBATCH, payload, seq, len(ctrace))

    def _stage(
        self, ftype: int, payload: bytes, seq: int, events: int
    ) -> Tuple[int, bytes]:
        if seq:
            # Retained verbatim until an ACK covers it: a replay after
            # reconnect must resend the *same bytes* (same seq, same
            # location-table delta) for server-side dedup to hold.
            self._next_seq += 1
            self._unacked[seq] = (ftype, payload)
        self.events_sent += events
        self.batches_sent += 1
        return ftype, payload

    def receive(self, ftype: int, payload: bytes) -> None:
        """Fold one frame from the server into session state: CREDIT,
        RACES and ACK update it, ERROR raises :class:`RemoteError`;
        other frames are left to the caller."""
        if ftype == wire.FRAME_CREDIT:
            self.credit += wire.decode_credit(payload)
        elif ftype == wire.FRAME_RACES:
            self._fold_races(*wire.decode_races(payload))
        elif ftype == wire.FRAME_ACK:
            self._trim_acked(wire.decode_ack(payload))
        elif ftype == wire.FRAME_ERROR:
            raise RemoteError(*wire.decode_error(payload))

    def _trim_acked(self, durable: int) -> None:
        if durable > self.durable_seq:
            self.durable_seq = durable
        for seq in [s for s in self._unacked if s <= self.durable_seq]:
            del self._unacked[seq]

    def _fold_races(self, seq: int, reports: List[RaceReport]) -> None:
        """Put one RACES frame's reports at ``seq``: sequenced frames
        replace that seq's reports, unsequenced ones (seq 0) accumulate.
        A frame past every seq seen appends to :attr:`races`; any other
        (a replay, a RESUME snapshot) rebuilds it in place."""
        by_seq = self._races_by_seq
        if seq:
            by_seq[seq] = reports
        else:
            by_seq.setdefault(0, []).extend(reports)
        if seq > self._race_tail or seq == self._race_tail == 0:
            self._race_tail = seq
            self.races.extend(reports)
        else:
            self._rebuild_races()

    def _drop_races_through(self, durable: int) -> None:
        by_seq = self._races_by_seq
        dropped = [seq for seq in by_seq if 0 < seq <= durable]
        if dropped:
            for seq in dropped:
                del by_seq[seq]
            self._race_tail = max(by_seq, default=0)
            self._rebuild_races()

    def _rebuild_races(self) -> None:
        by_seq = self._races_by_seq
        self.races[:] = [r for seq in sorted(by_seq) for r in by_seq[seq]]

    # -- finishing -----------------------------------------------------------

    def on_bye_frame(self, ftype: int, payload: bytes) -> bool:
        """After :meth:`receive`: true once the server's BYE summary
        arrived; anything but CREDIT, RACES or ACK before it is a
        protocol error."""
        if ftype == wire.FRAME_BYE:
            self._finished = wire.decode_bye_summary(payload)
            return True
        if ftype not in (
            wire.FRAME_CREDIT, wire.FRAME_RACES, wire.FRAME_ACK
        ):
            raise ProtocolError(
                f"unexpected {wire.FRAME_NAMES[ftype]} frame "
                f"while draining"
            )
        return False

    def bye_summary(self) -> Tuple[int, int]:
        """The server's ``(events, races)`` summary, cross-checked
        against the events this session sent."""
        assert self._finished is not None
        events, races = self._finished
        if self.session is None and events != self.events_sent:
            # A resumed session legitimately diverges: the server's
            # total includes checkpointed events from a prior
            # connection, while replayed duplicates are skipped.
            raise ProtocolError(
                f"server ingested {events} events, client sent "
                f"{self.events_sent}"
            )
        return events, races


class RaceClient(ClientCore):
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
    The protocol state is :class:`ClientCore`'s; this class adds the
    socket, the blocking waits and the retry backoff.

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
        super().__init__(
            max_frame=max_frame, session=session, backend=backend,
            compress=compress, interner=interner,
            ship_locations=ship_locations,
        )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self._sock: Optional[socket.socket] = None

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
            self._send_frame(wire.FRAME_HELLO, self.hello_payload())
            self.on_hello_reply(*self._recv_frame())
            if self.session is not None:
                self._send_frame(wire.FRAME_RESUME, self.resume_payload())
                while not self.on_resume_frame(*self._pump()):
                    pass
        except BaseException:
            self.close()  # a refused handshake leaves no socket open
            raise
        return self

    def _redial(self) -> None:
        """Reconnect a durable session and replay past the server's
        durable point (everything not yet covered by a checkpoint)."""
        self.connect()
        self.reconnects += 1
        for ftype, payload in self.replay_frames():
            self._send_payload(ftype, payload)

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
        """Read one frame and fold it in (:meth:`ClientCore.receive`);
        returns the frame for the caller to inspect too."""
        ftype, payload = self._recv_frame()
        try:
            self.receive(ftype, payload)
        except RemoteError:
            self.close()
            raise
        return ftype, payload

    # -- streaming -----------------------------------------------------------

    def send_batch(self, batch: EventBatch) -> None:
        """Push one BATCH frame, waiting for credit first if the
        session has none outstanding."""
        ftype, payload = self.stage_batch(batch)
        self._with_retry(lambda: self._send_payload(ftype, payload))

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
        ftype, payload = self.stage_compressed(ctrace)
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
        events, races = self.bye_summary()
        return ClientSummary(events, races, list(self.races))

    def _finish_once(self, release: bool) -> None:
        self._send_frame(wire.FRAME_BYE, wire.encode_bye(release))
        while not self.on_bye_frame(*self._pump()):
            pass


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
