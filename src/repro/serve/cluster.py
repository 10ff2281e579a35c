"""Multi-node serving: a location-sharded gateway over engine workers.

:class:`RaceCluster` is a stateless *gateway* tier in front of N
engine **worker** processes, each an ordinary ``repro-race serve``
(:class:`~repro.serve.server.RaceServer`) with its own per-session
:class:`~repro.engine.ingest.BatchEngine`.  Clients speak the same
RPRSERVE protocol they would to a single node -- the HELLO reply
simply says how many workers answered (:data:`negotiated_workers` on
the client).

Routing is the per-location argument of the paper lifted to the
network layer: a race is always witnessed at one memory location, so
hash-sharding accesses by ``lid % N`` across independent detectors is
*exact*, not approximate.  The gateway runs the same vectorized
:func:`~repro.engine.ingest.split_batch` that
:class:`~repro.engine.ingest.ShardedBatchEngine` uses in-process and
ships whole column slices to the workers -- structural events (fork,
join, halt) are replicated to every worker so each one holds the full
series-parallel skeleton.

**Migration under kill.**  Each client session opens one *durable*
worker session per shard, keyed ``gw{nonce}-{sid}-s{k}`` -- that is
the ``(session, shard)`` key of the issue -- against workers running
with a checkpoint directory.  The gateway retains every routed slice
until the owning worker's checkpoint ACK covers it (the durable
session log).  When a worker is SIGKILLed, a supervisor task respawns
it on the same port and each affected link reconnects, RESUMEs its
``(session, shard)`` token, and replays the unacked slices; replayed
duplicates are skipped idempotently server-side and RACES frames are
keyed by sequence, so the client's final race multiset is exactly
that of an uninterrupted run.  Every session's worker links are
durable: the one grantable backend, lattice2d, is checkpointable.

Client-side durability (RESUME *from* a client) is refused with a
typed ``ERR_CHECKPOINT``: through the gateway, durability is an
inter-node concern -- the gateway masks worker failures, and a
client that needs its own crash recovery talks to a single node.

The client-facing session -- HELLO, credit, sequencing, validation,
drain -- is the shared :class:`~repro.serve.session.SessionCore`; this
module is the *sink* behind it: worker links per session, split and
fan-out per batch, the merged race stream, and the worker supervisor.
All of it runs on the gateway's event loop.  A worker link is an
asyncio stream driving the same sans-I/O client core
(:class:`~repro.serve.client.ClientCore`) as the blocking
:class:`~repro.serve.client.RaceClient`, with a reader task that folds
the worker's CREDIT, ACK and RACES frames as they arrive; a batch is
split, encoded and written in place, and only a link short of its
worker's credit waits.  The one thread pool left starts worker
processes.

Everything is observable through :mod:`repro.obs` under
``component="cluster"``: the session core's frame, byte, credit and
queue series, per-worker routed-access counters, unacked (replay-log)
gauges, respawn counters, and the route and link credit-wait
histograms.

:class:`ClusterThread` is the synchronous harness (tests, benchmarks,
docs); ``python -m repro.serve.cluster_smoke`` is a self-checking
loopback smoke run used by CI.  See ``docs/SCALE_OUT.md``.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Awaitable, Callable, List, Optional, Set, Tuple

from repro.engine.batch import EventBatch
from repro.engine.faults import ServerProcess, free_port
from repro.engine.ingest import split_batch
from repro.errors import ProtocolError, ServeError, WorkloadError
from repro.obs.registry import MetricsRegistry
from repro.serve import protocol as wire
from repro.serve.client import (
    ClientCore,
    ConnectError,
    RemoteError,
    TransportError,
)
from repro.serve.session import (
    BACKEND,
    CoreMetrics,
    CoreThread,
    Session,
    SessionConfig,
    SessionCore,
    _read_frame,
)

__all__ = [
    "ClusterConfig",
    "RaceCluster",
    "ClusterThread",
]

#: Each worker link's races are forwarded in fixed-size chunks keyed
#: by (link, chunk index): chunk *i* of link *k* is streamed at seq
#: ``k * _LINK_SEQS + i + 1`` and *replaces* the client's previous
#: copy of that chunk (the per-seq replacement the durable protocol
#: already defines).  A link's race list only ever grows, so an update
#: resends just its trailing partial chunk plus anything new --
#: O(delta), and every frame stays far below the negotiated cap no
#: matter how racy the workload.  The client orders reports by seq,
#: so the merged stream is every link's list in worker order.
_RACES_CHUNK = 2048
_LINK_SEQS = 1 << 32


#: ``cluster_route_seconds`` and ``cluster_link_credit_wait_seconds``
#: buckets: a routed batch takes tens of microseconds to milliseconds
_ROUTE_BUCKETS = (0.0001, 0.0005, 0.002, 0.01, 0.05, 0.25, 1.0, 5.0)

#: the longest a worker link waits for one dial, frame, credit or BYE
_LINK_TIMEOUT = 15.0


class _WorkerLink(ClientCore):
    """One durable gateway->worker session, driven on the gateway's
    event loop with asyncio streams.

    The protocol state is :class:`~repro.serve.client.ClientCore`'s,
    the same the blocking :class:`~repro.serve.client.RaceClient`
    drives; this class adds the stream, a reader task that folds
    CREDIT, ACK and RACES frames as they arrive, the waits (each
    bounded by ``_LINK_TIMEOUT``) and the redial: a dropped link
    reconnects with bounded exponential backoff, RESUMEs its token
    and replays every slice no checkpoint ACK covers yet.  Nothing
    here blocks the loop: only a link short of credit waits, and only
    the session that is writing to it.
    """

    def __init__(
        self, port: int, token: str, retries: int, backoff: float
    ) -> None:
        super().__init__(session=token, backend=BACKEND)
        self.port = port
        self.retries = retries
        self.backoff = backoff
        #: seconds the current slice spent waiting for credit
        self.waited = 0.0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task: Optional[asyncio.Task] = None
        self._waiter: Optional[asyncio.Future] = None
        self._error: Optional[BaseException] = None

    async def connect(self) -> None:
        """Dial the worker, then HELLO and RESUME; the reader task
        takes over from there."""
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection("127.0.0.1", self.port),
                _LINK_TIMEOUT,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise ConnectError(
                f"cannot connect to worker port {self.port}: {exc}"
            ) from exc
        self._error = None
        try:
            self._write(wire.FRAME_HELLO, self.hello_payload())
            self.on_hello_reply(*await self._read())
            self._write(wire.FRAME_RESUME, self.resume_payload())
            while True:
                frame = await self._read()
                self.receive(*frame)
                if self.on_resume_frame(*frame):
                    break
        except BaseException:
            self.close()
            raise
        self._task = asyncio.ensure_future(self._read_loop())

    def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None
        if self._writer is not None:
            # Unacked slices are retained for replay, so a dropped link
            # discards what it could not write instead of flushing it.
            self._writer.transport.abort()
            self._writer = None
        self._reader = None

    async def _read(self) -> Tuple[int, bytes]:
        assert self._reader is not None
        try:
            return await asyncio.wait_for(
                _read_frame(self._reader, self.max_frame), _LINK_TIMEOUT
            )
        except (
            asyncio.IncompleteReadError, OSError, asyncio.TimeoutError
        ) as exc:
            raise TransportError(
                f"worker link read failed: {exc!r}"
            ) from exc

    async def _read_loop(self) -> None:
        """Fold every frame the worker sends; the first failure is kept
        for the next wait or write to raise."""
        reader = self._reader
        assert reader is not None
        try:
            while True:
                ftype, payload = await _read_frame(reader, self.max_frame)
                self.receive(ftype, payload)
                self.on_bye_frame(ftype, payload)
                self._wake()
        except (asyncio.IncompleteReadError, OSError) as exc:
            self._error = TransportError(f"worker link lost: {exc!r}")
        except Exception as exc:  # a refusal or a framing fault
            self._error = exc
        self._wake()

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    async def _wait(self, ready: Callable[[], bool]) -> None:
        """Wait until ``ready()`` holds, at most ``_LINK_TIMEOUT``;
        raises the reader's failure if it comes first."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _LINK_TIMEOUT
        while not ready():
            if self._error is not None:
                raise self._error
            self._waiter = loop.create_future()
            try:
                await asyncio.wait_for(
                    self._waiter, deadline - loop.time()
                )
            except asyncio.TimeoutError:
                raise TransportError(
                    f"no frame from worker within {_LINK_TIMEOUT}s"
                ) from None
            finally:
                self._waiter = None

    def _write(self, ftype: int, payload: bytes) -> None:
        assert self._writer is not None
        self._writer.write(wire.encode_frame(ftype, payload))

    async def _send_payload(self, ftype: int, payload: bytes) -> None:
        if self.credit <= 0:
            start = perf_counter()
            await self._wait(lambda: self.credit > 0)
            self.waited += perf_counter() - start
        if self._error is not None:
            raise self._error
        self.credit -= 1
        self._write(ftype, payload)
        assert self._writer is not None
        drain = self._writer.drain()
        if self._writer.transport.get_write_buffer_size():
            # A worker that is alive but stuck stops reading, and the
            # socket buffers fill long before its credit runs out.
            # (wait_for costs a task and a loop turn, so only here.)
            drain = asyncio.wait_for(drain, _LINK_TIMEOUT)
        try:
            await drain
        except asyncio.TimeoutError:
            raise TransportError(
                f"worker link write stalled for {_LINK_TIMEOUT}s"
            ) from None
        except OSError as exc:
            raise TransportError(
                f"worker link write failed: {exc!r}"
            ) from exc

    async def _with_retry(self, fn: Callable[[], Awaitable[None]]) -> None:
        """Run ``fn``, redialling, RESUMEing and replaying when the link
        drops (bounded exponential backoff); a worker's typed refusal
        (:class:`RemoteError`) never retries."""
        attempts = 0
        while True:
            try:
                if self._writer is None:
                    await self.connect()
                    self.reconnects += 1
                    for frame in self.replay_frames():
                        await self._send_payload(*frame)
                await fn()
                return
            except (TransportError, ConnectError):
                self.close()
                attempts += 1
                if attempts > self.retries:
                    raise
                await asyncio.sleep(self.backoff * 2 ** (attempts - 1))

    async def send_batch(self, batch: EventBatch) -> float:
        """Write one slice, waiting for credit if the link has none;
        returns the seconds spent waiting for it."""
        frame = self.stage_batch(batch)
        self.waited = 0.0
        await self._with_retry(lambda: self._send_payload(*frame))
        return self.waited

    async def finish(self) -> None:
        """RELEASE BYE: nothing resumes a link after a clean BYE, so
        the worker deletes the session's checkpoint."""
        if self._finished is None:
            await self._with_retry(self._finish_once)

    async def _finish_once(self) -> None:
        if self._error is not None:
            raise self._error
        self._write(wire.FRAME_BYE, wire.encode_bye(True))
        await self._wait(lambda: self._finished is not None)


@dataclass
class ClusterConfig(SessionConfig):
    """Tunables for one :class:`RaceCluster`.

    ``workers`` is the engine fan-out: accesses go to worker
    ``lid % workers``.  ``checkpoint_dir`` roots the workers'
    durability (worker *k* writes under ``<dir>/worker-k``); ``None``
    uses a private temporary directory that lives as long as the
    cluster.  ``log_dir`` captures each worker's stdout/stderr as
    ``worker-k.log`` (CI uploads these on failure); ``None`` discards
    them.  The ``link_*`` knobs govern the gateway's worker links:
    a killed worker must respawn within the link's bounded
    exponential-backoff budget (default ~8 retries at 0.25s base,
    comfortably past a Python process restart).  The session fields
    are :class:`~repro.serve.session.SessionConfig`'s, except that
    workers checkpoint every 8 applied slices by default here; the
    CLI's ``serve --workers`` passes its ``--checkpoint-interval``,
    whose default is 32.
    """

    workers: int = 2
    checkpoint_interval: int = 8  #: applied slices between worker checkpoints
    log_dir: Optional[str] = None
    link_retries: int = 8
    link_backoff: float = 0.25


class _ClusterMetrics(CoreMetrics):
    """The gateway instrument bundle (one lookup at cluster start)."""

    def __init__(self, registry: MetricsRegistry, workers: int) -> None:
        super().__init__(registry, "cluster")
        self.batches = self.counter(
            "batches_total", "BATCH frames routed"
        )
        # The routing counters partition every incoming event exactly
        # once, mirroring ShardedBatchEngine: an access counts against
        # its owner worker, a replicated lifecycle event counts once.
        self.routed = [
            self.counter(
                "routed_accesses_total",
                "accesses routed to this worker (lid % workers)",
                worker=str(k),
            )
            for k in range(workers)
        ]
        self.lifecycle = self.counter(
            "lifecycle_events_total",
            "lifecycle events replicated to every worker (counted once)",
        )
        self.unacked = [
            self.gauge(
                "worker_unacked_slices",
                "slices retained for replay until this worker's "
                "checkpoint ACK covers them",
                worker=str(k),
            )
            for k in range(workers)
        ]
        self.respawns = [
            self.counter(
                "worker_respawns_total",
                "times the supervisor restarted this worker after a "
                "crash (resharding: respawn-in-place)",
                worker=str(k),
            )
            for k in range(workers)
        ]
        self.races_streamed = self.counter(
            "races_streamed_total", "race reports forwarded to clients"
        )
        self.route_seconds = self.histogram(
            "route_seconds",
            "split, encode and write of one routed batch, credit waits "
            "excluded",
            buckets=_ROUTE_BUCKETS,
        )
        self.credit_wait = self.histogram(
            "link_credit_wait_seconds",
            "time one routed batch's slices waited for their workers' "
            "credit",
            buckets=_ROUTE_BUCKETS,
        )


class _GatewaySession(Session):
    """A gateway session: the core's book-keeping plus one worker link
    per shard and the merged race stream."""

    __slots__ = ("links", "events", "races_forwarded")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.links: List[_WorkerLink] = []
        self.events = 0  #: events this client streamed (its BYE total)
        #: reports chunked out per link (their sum is the BYE total)
        self.races_forwarded: List[int] = []


class RaceCluster(SessionCore):
    """The location-sharded gateway (see the module docstring).

    ``start()`` spawns the worker subprocesses, binds the gateway
    listener, and launches the supervisor; ``shutdown()`` drains
    sessions, terminates the workers, and removes a private
    checkpoint directory if one was created.
    """

    role = "gateway"
    config_class = ClusterConfig
    session_class = _GatewaySession

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if config is not None and config.workers < 1:
            raise ServeError(f"need at least one worker, got {config.workers}")
        super().__init__(config, registry=registry)
        self._supervisor: Optional[asyncio.Task] = None
        self._tempdir = None  # TemporaryDirectory when no checkpoint_dir
        self._nonce = os.urandom(4).hex()  # keeps (session, shard)
        # tokens from colliding with a previous gateway's checkpoints
        # Worker links run on the loop; the pool only starts workers,
        # all of them at once at start-up and one at a time after.
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-cluster",
        )
        self.workers: List[ServerProcess] = []
        # spawns whose caller was cancelled before the worker reached
        # ``self.workers``; ``_release`` reaps what they start
        self._spawns: Set[Future] = set()

    def _make_metrics(self) -> _ClusterMetrics:
        return _ClusterMetrics(self.registry, self.config.workers)

    def _fan_out(self) -> int:
        return self.config.workers

    # -- workers -------------------------------------------------------------

    def _ckpt_root(self) -> str:
        if self.config.checkpoint_dir is not None:
            return self.config.checkpoint_dir
        if self._tempdir is None:
            import tempfile

            self._tempdir = tempfile.TemporaryDirectory(
                prefix="repro-cluster-"
            )
        return self._tempdir.name

    def _spawn_worker(self, k: int, port: int) -> ServerProcess:
        ckdir = os.path.join(self._ckpt_root(), f"worker-{k}")
        os.makedirs(ckdir, exist_ok=True)
        log_path = None
        if self.config.log_dir is not None:
            os.makedirs(self.config.log_dir, exist_ok=True)
            log_path = os.path.join(self.config.log_dir, f"worker-{k}.log")
        return ServerProcess(
            port, ckdir,
            checkpoint_interval=self.config.checkpoint_interval,
            log_path=log_path,
        ).start()

    async def _spawn(self, k: int, port: int) -> ServerProcess:
        """Start worker ``k`` in the executor.  Cancelling the caller
        cannot stop a start already running there, so the spawn stays
        tracked until its worker is handed back."""
        spawn = self._executor.submit(self._spawn_worker, k, port)
        self._spawns.add(spawn)
        try:
            worker = await asyncio.wrap_future(spawn)
        except Exception:
            self._spawns.discard(spawn)  # a failed start reaps its process
            raise
        # (a cancelled caller leaves the spawn tracked for ``_release``)
        self._spawns.discard(spawn)
        return worker

    async def _acquire(self) -> None:
        """Spawn the workers, concurrently, and their supervisor.  A
        failed start reaps its own process; the workers that did start
        are kept for ``_release`` to stop."""
        self._ckpt_root()  # once, before the spawn threads race for it
        ports: List[int] = []
        while len(ports) < self.config.workers:
            port = free_port()
            if port not in ports:
                ports.append(port)
        started = await asyncio.gather(*[
            self._spawn(k, port) for k, port in enumerate(ports)
        ], return_exceptions=True)
        self.workers = [
            w for w in started if not isinstance(w, BaseException)
        ]
        for failure in started:
            if isinstance(failure, BaseException):
                raise failure
        self._supervisor = asyncio.ensure_future(self._supervise())

    async def _release(self) -> None:
        """Stop the supervisor, terminate the workers (including any a
        cancelled spawn started), and remove a private checkpoint
        directory."""
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except (asyncio.CancelledError, Exception):
                pass
        for spawn in self._spawns:
            if spawn.cancelled():
                continue  # cancelled before the executor ran it
            try:
                self.workers.append(await asyncio.wrap_future(spawn))
            except Exception:
                pass  # a failed start reaps its own process
        self._spawns.clear()
        for worker in self.workers:
            worker.terminate()
        self.workers = []
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None
        self._executor.shutdown(wait=False)

    async def _supervise(self) -> None:
        """Respawn crashed workers on their original port (the
        respawn-in-place resharding strategy: shard *k* stays pinned to
        worker *k*, so no slice ever changes owner and the links'
        RESUME tokens stay valid)."""
        while not self._closing:
            for k, worker in enumerate(self.workers):
                if self._closing or worker.alive():
                    continue
                try:
                    self.workers[k] = await self._spawn(k, worker.port)
                except WorkloadError:
                    continue  # retried on the next sweep
                self._m.respawns[k].inc()
            await asyncio.sleep(0.2)

    def kill_worker(self, k: int) -> None:
        """SIGKILL worker ``k`` (fault injection; the supervisor will
        respawn it and the live links will migrate)."""
        self.workers[k].kill()

    # -- the session sink ----------------------------------------------------

    @staticmethod
    def _worker_error(exc: ServeError, when: str) -> Tuple[int, str]:
        """The ERROR for a worker-link failure: a worker's typed refusal
        is forwarded verbatim, anything else is ERR_DETECTOR."""
        if isinstance(exc, RemoteError):
            return exc.code, exc.remote_message
        return wire.ERR_DETECTOR, f"engine worker {when}: {exc}"

    async def _open(self, session: _GatewaySession) -> None:
        """Open one durable worker session per shard, concurrently --
        the (session, shard) key."""
        links = [
            _WorkerLink(
                self.workers[k].port,
                f"gw{self._nonce}-{session.sid}-s{k}",
                self.config.link_retries, self.config.link_backoff,
            )
            for k in range(self.config.workers)
        ]
        results = await asyncio.gather(
            *[link.connect() for link in links], return_exceptions=True
        )
        session.links = [
            link for link, r in zip(links, results) if r is None
        ]
        session.races_forwarded = [0] * len(session.links)
        for failure in results:
            if isinstance(failure, ServeError):
                code, message = self._worker_error(failure, "unavailable")
                raise ProtocolError(message, code=code)
            if isinstance(failure, BaseException):
                raise failure

    async def _ingest(
        self,
        session: _GatewaySession,
        seq: int,
        batch: EventBatch,
        table: Optional[int],
    ) -> bool:
        """Split by location and write each link its slice, all on
        the loop; only a link short of credit waits.  Then forward the
        new races."""
        start = perf_counter()
        subs = split_batch(batch, len(session.links))
        waited = 0.0
        try:
            for link, sub in zip(session.links, subs):
                waited += await link.send_batch(sub)
        except ServeError as exc:
            await self._fail(
                session, exc, *self._worker_error(exc, "lost mid-stream")
            )
            return False
        m = self._m
        m.route_seconds.observe(perf_counter() - start - waited)
        m.credit_wait.observe(waited)
        lifecycle = len(batch) - batch.access_count()
        m.lifecycle.inc(lifecycle)
        for k, link in enumerate(session.links):
            m.routed[k].inc(len(subs[k]) - lifecycle)
            m.unacked[k].set(len(link._unacked))
        session.events += len(batch)
        m.batches.inc()
        await self._forward_races(session)
        return True

    async def _resume(self, session: _GatewaySession, payload: bytes) -> None:
        # Through the gateway, durability is inter-node: the gateway
        # masks worker failures.  Client-side RESUME would need the
        # gateway itself to be durable -- refuse typed, never
        # accept-and-forget.
        raise ProtocolError(
            "client-side durable sessions are not available "
            "through the gateway (worker durability is "
            "inter-node); connect to a single node for RESUME",
            code=wire.ERR_CHECKPOINT,
        )

    async def _finish(
        self, session: _GatewaySession
    ) -> Optional[Tuple[int, int]]:
        """BYE fan-out: release every worker session (nothing resumes
        a link after a clean BYE, so no final checkpoint is written or
        kept), then forward the final merged race list."""
        results = await asyncio.gather(
            *[link.finish() for link in session.links],
            return_exceptions=True,
        )
        for failure in results:
            if isinstance(failure, ServeError):
                await self._fail(
                    session, failure,
                    *self._worker_error(failure, "lost during drain"),
                )
                return None
            if isinstance(failure, BaseException):
                raise failure
        await self._forward_races(session)
        return session.events, sum(session.races_forwarded)

    async def _close(self, session: _GatewaySession) -> None:
        for link in session.links:
            link.close()
        session.links = []

    # -- the merged race stream ----------------------------------------------

    async def _forward_races(self, session: _GatewaySession) -> None:
        """Stream each link's race list to the client in its own chunk
        sequence (see ``_RACES_CHUNK``); resends only chunks that
        changed.  A link's list is append-only, and stable under replay
        because replayed RACES frames *replace* identical content --
        except that a link just resumed holds none of its pre-checkpoint
        reports until the snapshot RACES frame is read; until then it
        is skipped.  The link's reader keeps appending while this
        awaits its writes, so each link forwards the length it saw on
        entry."""
        for k, link in enumerate(session.links):
            races = link.races
            sent, n = session.races_forwarded[k], len(races)
            if n <= sent:
                continue
            for i in range(sent // _RACES_CHUNK, -(-n // _RACES_CHUNK)):
                lo = i * _RACES_CHUNK
                await self._send(
                    session, wire.FRAME_RACES,
                    wire.encode_races(
                        races[lo:min(n, lo + _RACES_CHUNK)],
                        seq=k * _LINK_SEQS + i + 1,
                    ),
                )
            self._m.races_streamed.inc(n - sent)
            session.races_forwarded[k] = n


class ClusterThread(CoreThread):
    """A :class:`RaceCluster` on a private event loop in a daemon
    thread -- loopback multi-node serving for synchronous callers::

        cluster = ClusterThread(ClusterConfig(workers=2))
        port = cluster.start()
        ... RaceClient("127.0.0.1", port) ...
        cluster.stop()

    ``kill_worker(k)`` SIGKILLs worker *k* from the calling thread
    (fault injection); the cluster's supervisor respawns it.
    """

    front_end = RaceCluster
    start_timeout = 60.0
    stop_timeout = 30.0

    @property
    def cluster(self) -> Optional[RaceCluster]:
        return self._front

    def kill_worker(self, k: int) -> None:
        """SIGKILL worker ``k``; the supervisor respawns it."""
        assert self._front is not None
        self._front.kill_worker(k)
