"""The streaming trace-ingest server: many sessions, one detector each.

:class:`RaceServer` is an asyncio TCP server speaking the RPRSERVE
protocol (:mod:`repro.serve.protocol`).  The session itself -- HELLO
negotiation of version, frame cap and engine backend, credit
with the high-water stall, sequencing, validation, one ERROR then
teardown on a violation, BYE, graceful drain on ``SIGTERM``/``SIGINT``
-- is the shared :class:`~repro.serve.session.SessionCore`.  This
module is the *sink* behind it:

* each session gets an isolated
  :class:`~repro.engine.ingest.BatchEngine` (lattice2d, or SHB in
  prediction mode -- HELLO grants that engine's name, ``lattice2d`` or
  ``shb``, and refuses the other); every queued batch runs through it
  and newly detected races stream back as RACES frames keyed by the
  batch's seq;
* ingest runs on the event loop itself, one batch at a time with one
  yield after each, so sessions interleave batch by batch.  The
  detector is sequential, so an executor thread would buy no
  parallelism under the GIL, only a hand-off per batch.  One frame
  holds the loop for at most its own ingest, which ``max_frame``
  bounds;
* a durable session (RESUME) is restored from its checkpoint,
  checkpointed every ``checkpoint_interval`` applied batches (each
  ACKed, the file I/O in an executor) and once more at teardown --
  unless it ended with a RELEASE BYE, which deletes its checkpoint
  instead;
* teardown drops the engine, so a client that vanishes mid-stream
  leaks no shadow state.

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
import functools
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.core.predict import PredictDetector2D
from repro.engine.batch import EventBatch
from repro.engine.ingest import BatchEngine
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
from repro.serve.session import (
    BACKEND,
    CoreMetrics,
    CoreThread,
    Session,
    SessionConfig,
    SessionCore,
)

__all__ = [
    "ServeConfig",
    "RaceServer",
    "ServerThread",
    "start_metrics_http",
]


@dataclass
class ServeConfig(SessionConfig):
    """Tunables for one :class:`RaceServer`: the session settings of
    :class:`~repro.serve.session.SessionConfig` plus the engine mode.
    Multi-process detection is the gateway's job
    (:mod:`repro.serve.cluster`, the CLI's ``serve --workers``), not
    this server's.

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
    """

    predict: bool = False  #: serve shb prediction instead of observed races


class _Metrics(CoreMetrics):
    """The serve-layer instrument bundle (one lookup at server start)."""

    def __init__(self, registry: MetricsRegistry, backend: str) -> None:
        super().__init__(registry, "serve", backend)
        self.batches = self.counter("batches_total", "BATCH frames ingested")
        self.races_streamed = self.counter(
            "races_streamed_total", "race reports streamed back to clients"
        )
        self.service_time = self.histogram(
            "batch_service_seconds", "wall seconds to ingest one BATCH frame"
        )
        self.batch_events = self.histogram(
            "batch_events", "events per BATCH frame",
            buckets=(64, 512, 4096, 16384, 65536, 262144),
        )
        self.checkpoints = self.counter(
            "checkpoints_total", "session checkpoints written"
        )
        self.restores = self.counter(
            "restores_total", "sessions restored from a checkpoint"
        )
        self.checkpoint_seconds = self.histogram(
            "checkpoint_seconds",
            "wall seconds to write one session checkpoint",
            buckets=(0.001, 0.005, 0.02, 0.1, 0.5, 2.0),
        )


class _ServerSession(Session):
    """A server session: the core's book-keeping plus an isolated
    :class:`BatchEngine`, dropped at teardown so a torn-down session
    cannot leak shadow state."""

    __slots__ = (
        "engine", "races_seen", "applied_seq", "durable_seq", "last_table",
    )

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.engine: Optional[BatchEngine] = None
        self.races_seen = 0  # races already streamed to the client
        self.applied_seq = 0  # highest seq the engine has ingested
        self.durable_seq = 0  # highest seq covered by a checkpoint
        self.last_table: Optional[int] = None  # table size at applied_seq


class RaceServer(SessionCore):
    """Accepts RPRSERVE sessions and detects races online (see the
    module docstring for the session lifecycle)."""

    role = "server"
    config_class = ServeConfig
    session_class = _ServerSession

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(config, registry=registry)
        if self.config.predict and self.config.checkpoint_dir is not None:
            raise ServeError(
                "predict sessions are not checkpointable (the snapshot "
                "format captures the union-find engine): drop "
                "checkpoint_dir or drop predict"
            )

    @property
    def backend(self) -> str:  # type: ignore[override]
        """The engine the sessions run, the one name HELLO grants."""
        return PredictDetector2D.name if self.config.predict else BACKEND

    def _make_metrics(self) -> _Metrics:
        return _Metrics(self.registry, self.backend)

    async def _acquire(self) -> None:
        if self.config.checkpoint_dir is not None:
            os.makedirs(self.config.checkpoint_dir, exist_ok=True)

    # -- the session engine --------------------------------------------------

    async def _open(self, session: _ServerSession) -> None:
        session.engine = BatchEngine(
            registry=self.registry, predict=self.config.predict
        )

    @staticmethod
    def _engine(session: _ServerSession) -> BatchEngine:
        if session.engine is None:
            raise ServeError("session engine is closed")
        return session.engine

    def _apply(self, session: _ServerSession, batch: EventBatch) -> List:
        """Feed one batch; returns the races it newly detected.  The
        engine bounds its ids by the session's width: the session
        admitted every id below it."""
        engine = self._engine(session)
        engine.limit = session.width
        engine.ingest(batch)
        races = engine.detector.races
        new = list(races[session.races_seen:])
        session.races_seen = len(races)
        return new

    async def _ingest(
        self,
        session: _ServerSession,
        seq: int,
        batch: EventBatch,
        table: Optional[int],
    ) -> bool:
        """Ingest on the loop thread, then yield once so sessions
        interleave batch by batch (see the module docstring)."""
        m = self._m
        start = time.perf_counter()
        try:
            new_races = self._apply(session, batch)
        except (DetectorError, ServeError) as exc:
            await self._fail(session, exc, wire.ERR_DETECTOR, str(exc))
            return False
        # No await between the engine call and this update: a consumer
        # cancelled at any later await leaves ``applied_seq`` covering
        # exactly what the engine holds, so the final checkpoint's seq
        # is right and a RESUME applies no batch twice.
        if seq:
            session.applied_seq = seq
            session.last_table = table
        m.service_time.observe(time.perf_counter() - start)
        m.batch_events.observe(len(batch))
        m.batches.inc()
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
            # the checkpoint's executor hop doubles as the yield
            return await self._checkpoint(session)
        await asyncio.sleep(0)
        return True

    async def _finish(self, session: _ServerSession) -> Tuple[int, int]:
        return self._engine(session).events_ingested, session.races_seen

    async def _close(self, session: _ServerSession) -> None:
        # A released session will never be resumed: its checkpoint is
        # dead weight, so delete it instead of writing a final one.
        # Durable sessions otherwise get one last checkpoint so a clean
        # BYE (or a drop mid-stream) loses nothing: ingest runs on the
        # loop, so a cancelled consumer never leaves one half done.
        if session.token is not None and session.released:
            try:
                os.unlink(self._ckpt_path(session.token))
            except FileNotFoundError:
                pass
        elif (
            session.token is not None
            and session.failed is None
            and session.engine is not None
            and session.applied_seq > session.durable_seq
        ):
            await self._checkpoint(session, final=True)
        # Teardown drops the engine: a vanished client leaves no shadow
        # state behind (the queue and its decoded batches die with the
        # session object).
        session.engine = None

    # -- durability ----------------------------------------------------------

    def _ckpt_path(self, token: str) -> str:
        # valid_session_token() already rejects separators and leading
        # dots, so the join cannot escape the checkpoint directory.
        assert self.config.checkpoint_dir is not None
        return os.path.join(self.config.checkpoint_dir, f"{token}.ckpt")

    async def _checkpoint(
        self, session: _ServerSession, *, final: bool = False
    ) -> bool:
        """Write the session's engine to disk at ``applied_seq`` and ACK
        it so the client can trim its replay buffer.  A failed write
        fails the session -- durability was promised, not best-effort
        -- except at teardown (``final``), when the connection is
        ending either way and nothing is acknowledged."""
        seq = session.applied_seq
        meta: Dict[str, Any] = {
            "seq": seq,
            "token": session.token,
            "ships_table": session.last_table is not None,
            "table_size": session.last_table or 0,
        }
        start = time.perf_counter()
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(
                    save_checkpoint, self._engine(session),
                    self._ckpt_path(session.token), meta=meta,
                ),
            )
        except (CheckpointError, ServeError, OSError) as exc:
            if not final:
                await self._fail(session, exc, wire.ERR_CHECKPOINT, str(exc))
            return False
        session.durable_seq = seq
        self._m.checkpoints.inc()
        self._m.checkpoint_seconds.observe(time.perf_counter() - start)
        if not final:
            await self._send(session, wire.FRAME_ACK, wire.encode_ack(seq))
        return True

    async def _resume(self, session: _ServerSession, payload: bytes) -> None:
        if self.config.checkpoint_dir is None:
            raise ProtocolError(
                "server runs without a checkpoint directory",
                code=wire.ERR_CHECKPOINT,
            )
        if session.token is not None or session.saw_batch:
            # Accepting a late RESUME would swap in the restored engine
            # and silently drop whatever this connection already
            # streamed.
            raise ProtocolError("RESUME must precede the first BATCH")
        token = wire.decode_resume(payload)
        path = self._ckpt_path(token)
        if os.path.exists(path):
            try:
                engine, meta = await asyncio.get_running_loop(
                ).run_in_executor(None, functools.partial(
                    load_checkpoint, path, registry=self.registry
                ))
            except CheckpointError as exc:
                # Never silently load a bad checkpoint: the client gets
                # a typed refusal and may start a fresh session under a
                # new token instead.
                raise ProtocolError(
                    str(exc), code=wire.ERR_CHECKPOINT
                ) from None
            # Races already detected at save time count as streamed:
            # the client received them (keyed by seq) before the crash,
            # and the replayed batches re-derive nothing older.
            session.engine = engine
            session.races_seen = len(engine.detector.races)
            durable = int(meta.get("seq", 0))
            session.enqueued_seq = durable
            session.applied_seq = durable
            session.durable_seq = durable
            session.table = session.last_table = (
                int(meta.get("table_size", 0) or 0)
                if meta.get("ships_table", False) else None
            )
            # Every admitted access touched its id, so the restored
            # columns are as wide as the ids admitted up to ``durable``.
            session.width = len(engine.detector.shadow.E)
            self._m.restores.inc()
        session.token = token
        await self._send(
            session, wire.FRAME_RESUME,
            wire.encode_resume_reply(session.durable_seq),
        )
        if session.durable_seq:
            # Every race the restored engine already holds, as one
            # snapshot RACES frame: a *fresh* client resuming this token
            # still sees the reports its replayed (and skipped) batches
            # would have produced.
            snapshot = list(self._engine(session).detector.races)
            if snapshot:
                self._m.races_streamed.inc(len(snapshot))
                await self._send(
                    session, wire.FRAME_RACES,
                    wire.encode_races(snapshot, seq=session.durable_seq),
                )


class ServerThread(CoreThread):
    """A :class:`RaceServer` on a private event loop in a daemon
    thread -- loopback serving for synchronous callers::

        srv = ServerThread()
        port = srv.start()
        ... RaceClient("127.0.0.1", port) ...
        srv.stop()
    """

    front_end = RaceServer

    @property
    def server(self) -> Optional[RaceServer]:
        return self._front


def start_metrics_http(
    port: int,
    registry: Optional[MetricsRegistry] = None,
    host: str = "127.0.0.1",
) -> ThreadingHTTPServer:
    """Expose ``registry`` as Prometheus text on ``/metrics``.

    Stdlib ``http.server`` on a daemon thread (no new dependencies);
    returns the HTTP server (its ``server_port`` is the bound port;
    call ``shutdown()`` to stop it, then ``server_close()`` to release
    the port).
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
