"""Integration tests for the asyncio ingest server.

Every test runs a real :class:`ServerThread` on loopback with its own
:class:`MetricsRegistry`, drives it with either the well-behaved
:class:`RaceClient` or the hostile :class:`RawConn`, and checks both
the wire behaviour and the observability counters.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time
import zlib
from array import array
from collections import Counter

import pytest

from repro.engine.batch import OP_JOIN, OP_WRITE, EventBatch
from repro.engine.ingest import BatchEngine
from repro.engine.snapshot import load_checkpoint, state_digest
from repro.errors import ProtocolError, ServeError
from repro.obs.registry import MetricsRegistry
from repro.serve import (
    ClusterConfig,
    ClusterThread,
    RaceClient,
    RemoteError,
    ServeConfig,
    ServerThread,
    run_load,
    submit_batch,
)
from repro.serve import protocol as wire
from repro.serve.server import RaceServer, _ServerSession, start_metrics_http
from repro.serve.session import _BYE

from .conftest import RawConn, local_race_multiset, race_multiset

pytestmark = pytest.mark.serve


def make_server(registry=None, **kw) -> ServerThread:
    kw.setdefault("drain_timeout", 2.0)
    return ServerThread(
        ServeConfig(**kw),
        registry=registry if registry is not None else MetricsRegistry(),
    )


#: the two front ends the session-protocol tests run against, and the
#: prefix of each one's metric series
FRONT_ENDS = {"server": "serve", "cluster": "cluster"}


@pytest.fixture
def front_end() -> str:
    """The front end under test: the single server here, the gateway
    in :class:`TestGatewayFrontEnd`."""
    return "server"


def make_front_end(kind: str, registry=None, **kw):
    """A single server, or a 2-worker gateway, with the same session
    settings: both must answer every violation identically."""
    if kind == "server":
        return make_server(registry, **kw)
    kw.setdefault("drain_timeout", 2.0)
    return ClusterThread(
        ClusterConfig(workers=2, **kw),
        registry=registry if registry is not None else MetricsRegistry(),
    )


#: final checkpoints a plain BYE leaves per durable session: the
#: single server keeps one, the gateway releases its worker links
KEEPS_FINAL = {"server": 1, "cluster": 0}


def durable_client(kind: str, port: int) -> RaceClient:
    """A connected session whose engine state is checkpointed: one
    with a RESUME token on the single server, and any lattice2d
    session on the gateway (its worker links are durable)."""
    token = "durable" if kind == "server" else None
    return RaceClient("127.0.0.1", port, session=token).connect()


def checkpoints(root) -> list:
    return sorted(root.rglob("*.ckpt"))


def settle(predicate, timeout: float = 5.0):
    """Poll ``predicate`` until it is truthy or ``timeout`` passes;
    returns its last value."""
    deadline = time.time() + timeout
    while not (value := predicate()) and time.time() < deadline:
        time.sleep(0.02)
    return value


def wait_for_teardown(registry, prefix: str) -> None:
    deadline = time.time() + 5
    while time.time() < deadline:
        if counter_value(registry, f"{prefix}_sessions_active") == 0:
            break
        time.sleep(0.02)


def counter_value(registry, name, **labels) -> float:
    for inst in registry.instruments():
        if inst.name == name and all(
            dict(inst.labels).get(k) == v for k, v in labels.items()
        ):
            return inst.value
    return 0.0


class TestRoundTrip:
    def test_100k_event_racegen_matches_local_replay(self, big_workload):
        """The acceptance bar: a 100k-access racegen trace served over
        loopback reports the exact race multiset of a local replay."""
        batch, _interner = big_workload
        assert len(batch) >= 100_000
        local = local_race_multiset(batch)
        with make_server() as srv:
            with RaceClient("127.0.0.1", srv.port) as client:
                client.send_batches(batch, 8192)
                summary = client.finish()
        assert summary.events == len(batch)
        assert race_multiset(summary.reports) == local
        assert summary.races == sum(local.values()) > 0

    def test_sessions_are_isolated(self, small_workload):
        """Two sessions replaying the same program each get the full
        race set -- state never bleeds across engines."""
        batch, _ = small_workload
        local = local_race_multiset(batch)
        with make_server() as srv:
            first = submit_batch("127.0.0.1", srv.port, batch)
            second = submit_batch("127.0.0.1", srv.port, batch)
        assert race_multiset(first.reports) == local
        assert race_multiset(second.reports) == local

    def test_concurrent_sessions(self, small_workload):
        batch, _ = small_workload
        local = local_race_multiset(batch)
        with make_server() as srv:
            result = run_load(
                "127.0.0.1", srv.port, batch, sessions=4, batch_size=1024
            )
        assert result.sessions == 4
        assert result.events == 4 * len(batch)
        for summary in result.summaries:
            assert race_multiset(summary.reports) == local

    def test_shipped_location_table(self, small_workload):
        """With ``ship_locations`` the server knows the table size and
        the round-trip still matches."""
        batch, interner = small_workload
        local = local_race_multiset(batch)
        with make_server() as srv:
            summary = submit_batch(
                "127.0.0.1", srv.port, batch, interner=interner,
                batch_size=512, ship_locations=True,
            )
        assert race_multiset(summary.reports) == local

    def test_empty_session(self):
        with make_server() as srv:
            with RaceClient("127.0.0.1", srv.port) as client:
                summary = client.finish()
        assert (summary.events, summary.races) == (0, 0)

    def test_metrics_account_for_the_session(self, small_workload):
        batch, _ = small_workload
        registry = MetricsRegistry()
        with make_server(registry) as srv:
            submit_batch("127.0.0.1", srv.port, batch, batch_size=1024)
            assert counter_value(registry, "serve_sessions_total") == 1
            assert counter_value(registry, "serve_events_total") == len(batch)
            assert counter_value(
                registry, "serve_frames_total", dir="in", type="BATCH"
            ) == len(list(batch.slices(1024)))
            assert counter_value(
                registry, "serve_frames_total", dir="out", type="BYE"
            ) == 1
            assert counter_value(registry, "serve_bytes_total", dir="in") > 0
            # teardown runs just after the BYE reply: poll briefly
            deadline = time.time() + 5
            while time.time() < deadline:
                if counter_value(registry, "serve_sessions_active") == 0:
                    break
                time.sleep(0.02)
            assert counter_value(registry, "serve_sessions_active") == 0


#: HELLOs of the retired shapes (v2: no backend, v3: no flags, v4:
#: v5's client shape under another version) and a truncated v5 one
OLD_HELLOS = {
    "v2": struct.pack("<8sII", wire.PROTOCOL_MAGIC, 2, 1 << 20),
    "v3": struct.pack(
        "<8sII16s", wire.PROTOCOL_MAGIC, 3, 1 << 20, b"lattice2d"
    ),
    "v4": struct.pack(
        "<8sII16sI", wire.PROTOCOL_MAGIC, 4, 1 << 20, b"lattice2d", 1
    ),
    "truncated": wire.encode_hello()[:-1],
}

#: shipped location tables the strict table codec refuses: unknown and
#: malformed tags, a duplicate, and an unhashable tuple element
BAD_TABLES = {
    "unknown-tag": b'[{"x":1}]',
    "bad-tuple": b'[{"t":5}]',
    "duplicate": b'["a","a"]',
    "unhashable": b'[{"t":[[1]]}]',
}


def with_table(payload: bytes, table: bytes) -> bytes:
    """A BATCH ``payload`` encoded without a table, with ``table``
    spliced in as its shipped location table."""
    header = wire._BATCH_HEADER
    fields = list(header.unpack_from(payload))
    fields[-2] = len(table)  # table_len precedes seq
    return header.pack(*fields) + table + payload[header.size:]


class TestProtocolViolations:
    """Every violation gets the same typed ERROR from the single server
    and from the gateway."""

    def test_version_mismatch_gets_version_error(self, front_end):
        with make_front_end(front_end) as srv, RawConn(
            srv.port, hello=False
        ) as conn:
            bad = struct.pack("<8sII", wire.PROTOCOL_MAGIC, 99, 1 << 20)
            conn.send_frame(wire.FRAME_HELLO, bad)
            message = conn.expect_error(wire.ERR_VERSION)
            assert "99" in message
            conn.expect_eof()

    @pytest.mark.parametrize("hello", sorted(OLD_HELLOS))
    def test_old_hello_gets_version_error(self, front_end, hello):
        with make_front_end(front_end) as srv, RawConn(
            srv.port, hello=False
        ) as conn:
            conn.send_frame(wire.FRAME_HELLO, OLD_HELLOS[hello])
            conn.expect_error(wire.ERR_VERSION)
            conn.expect_eof()

    def test_non_hello_first_frame_rejected(self, front_end):
        with make_front_end(front_end) as srv, RawConn(
            srv.port, hello=False
        ) as conn:
            conn.send_frame(wire.FRAME_CREDIT, wire.encode_credit(1))
            conn.expect_error(wire.ERR_PROTOCOL)

    def test_retired_frame_type_9_is_a_protocol_error(self, front_end):
        """Type 9 (the retired CBATCH frame) is an unknown frame type
        now: a typed ERR_PROTOCOL, and no handler exception (which the
        conftest's asyncio-log check would fail)."""
        with make_front_end(front_end) as srv, RawConn(srv.port) as conn:
            conn.send(struct.pack("<IBI", 0, 9, zlib.crc32(b"")))
            message = conn.expect_error(wire.ERR_PROTOCOL)
            assert "unknown frame type 9" in message
            conn.expect_eof()

    def test_feature_bit_is_never_granted(self, front_end, small_workload):
        """The HELLO feature word is reserved: a client setting bit 0
        (once the CBATCH request) gets a reply carrying 0, and the
        session runs as any other."""
        batch, _ = small_workload
        piece = next(batch.slices(256))
        with make_front_end(front_end) as srv, RawConn(
            srv.port, features=1
        ) as conn:
            assert conn.features == 0
            conn.send_frame(
                wire.FRAME_BATCH, wire.encode_batch_payload(piece)
            )
            conn.send_frame(wire.FRAME_BYE)
            assert conn.expect_bye()[0] == len(piece)

    def test_bad_crc_rejected(self, front_end):
        with make_front_end(front_end) as srv, RawConn(srv.port) as conn:
            frame = bytearray(
                wire.encode_frame(wire.FRAME_BYE, b"")
            )
            frame[5] ^= 0xFF  # stomp the CRC field
            conn.send(bytes(frame))
            conn.expect_error(wire.ERR_BAD_CRC)

    def test_bad_crc_hello_rejected(self, front_end):
        # The framing codes do not depend on the session phase.
        with make_front_end(front_end) as srv, RawConn(
            srv.port, hello=False
        ) as conn:
            frame = bytearray(
                wire.encode_frame(wire.FRAME_HELLO, wire.encode_hello())
            )
            frame[5] ^= 0xFF
            conn.send(bytes(frame))
            conn.expect_error(wire.ERR_BAD_CRC)
            conn.expect_eof()

    def test_oversized_frame_rejected(self, front_end):
        with make_front_end(front_end, max_frame=1024) as srv, RawConn(
            srv.port
        ) as conn:
            assert conn.max_frame == 1024
            conn.send_frame(wire.FRAME_BATCH, b"x" * 2048)
            conn.expect_error(wire.ERR_FRAME_TOO_LARGE)

    def test_oversized_hello_rejected(self, front_end):
        # Only the header goes out: the length is refused before any
        # payload is read.
        with make_front_end(front_end) as srv, RawConn(
            srv.port, hello=False
        ) as conn:
            conn.send(struct.pack(
                "<IBI", wire.DEFAULT_MAX_FRAME + 1, wire.FRAME_HELLO, 0
            ))
            conn.expect_error(wire.ERR_FRAME_TOO_LARGE)
            conn.expect_eof()

    def test_lying_batch_header_rejected_as_malformed(
        self, front_end, small_workload
    ):
        batch, _ = small_workload
        with make_front_end(front_end) as srv, RawConn(srv.port) as conn:
            payload = bytearray(wire.encode_batch_payload(batch))
            struct.pack_into("<Q", payload, 8, len(batch) + 7)
            conn.send_frame(wire.FRAME_BATCH, bytes(payload))
            conn.expect_error(wire.ERR_MALFORMED_BATCH)

    def test_unknown_opcode_rejected_as_malformed(self, front_end):
        bad = EventBatch(
            array("B", [77]), array("i", [0]), array("i", [-1])
        )
        with make_front_end(front_end) as srv, RawConn(srv.port) as conn:
            conn.send_frame(
                wire.FRAME_BATCH, wire.encode_batch_payload(bad)
            )
            conn.expect_error(wire.ERR_MALFORMED_BATCH)

    @pytest.mark.parametrize(
        "table", sorted(BAD_TABLES), ids=lambda name: f"BATCH-{name}"
    )
    def test_bad_shipped_table_rejected_as_malformed(self, front_end, table):
        one_write = EventBatch(
            array("B", [OP_WRITE]), array("i", [0]), array("i", [0])
        )
        payload = wire.encode_batch_payload(one_write, seq=1)
        with make_front_end(front_end) as srv, RawConn(srv.port) as conn:
            conn.send_frame(
                wire.FRAME_BATCH, with_table(payload, BAD_TABLES[table])
            )
            conn.send_frame(wire.FRAME_BYE)
            message = conn.expect_error(wire.ERR_MALFORMED_BATCH)
            assert "location table" in message

    def test_access_beyond_shipped_table_rejected(self, front_end):
        batch = EventBatch(
            array("B", [OP_WRITE]), array("i", [0]), array("i", [5])
        )
        with make_front_end(front_end) as srv, RawConn(srv.port) as conn:
            conn.send_frame(
                wire.FRAME_BATCH,
                wire.encode_batch_payload(batch, new_locations=["x"]),
            )
            conn.expect_error(wire.ERR_MALFORMED_BATCH)

    def test_structural_violation_gets_detector_error(self, front_end):
        # joining a thread id that was never forked; the BYE makes the
        # gateway collect its workers' verdicts
        bad = EventBatch(
            array("B", [OP_JOIN]), array("i", [0]), array("i", [5])
        )
        with make_front_end(front_end) as srv, RawConn(srv.port) as conn:
            conn.send_frame(
                wire.FRAME_BATCH, wire.encode_batch_payload(bad)
            )
            conn.send_frame(wire.FRAME_BYE)
            conn.expect_error(wire.ERR_DETECTOR)

    def test_credit_overrun_rejected(self, front_end, small_workload):
        batch, _ = small_workload
        # Three consecutive slices of one valid stream: the engine
        # accepts each, so the overrun is the only possible error.
        pieces = list(batch.slices(64))[:3]
        # high_water=0 means grants are withheld forever, so pushing
        # past the initial window must trip the overrun error.
        with make_front_end(
            front_end, credit_window=2, queue_high_water=0
        ) as srv, RawConn(srv.port) as conn:
            assert conn.credit == 2
            for piece in pieces:
                conn.send_frame(
                    wire.FRAME_BATCH, wire.encode_batch_payload(piece)
                )
            conn.expect_error(wire.ERR_CREDIT_OVERRUN)


    # -- BYE and RELEASE --------------------------------------------------

    def test_releasing_bye_removes_periodic_checkpoint(
        self, front_end, small_workload, tmp_path
    ):
        batch, _ = small_workload
        with make_front_end(
            front_end, checkpoint_dir=str(tmp_path), checkpoint_interval=1
        ) as srv:
            client = durable_client(front_end, srv.port)
            client.send_batches(batch, 256)
            assert settle(lambda: checkpoints(tmp_path))
            summary = client.finish(release=True)
            client.close()
            assert summary.events == len(batch)
        # stopping the front end ran every session teardown
        assert checkpoints(tmp_path) == []

    def test_plain_bye_keeps_final_checkpoint(
        self, front_end, small_workload, tmp_path
    ):
        # No periodic checkpoint: whatever is on disk is the final one.
        batch, _ = small_workload
        with make_front_end(
            front_end, checkpoint_dir=str(tmp_path),
            checkpoint_interval=10_000,
        ) as srv:
            client = durable_client(front_end, srv.port)
            client.send_batches(batch, 256)
            client.finish()
            client.close()
        # The single server keeps a plain BYE's final checkpoint.  The
        # gateway's worker links always release: through the gateway
        # nothing can RESUME them.
        assert len(checkpoints(tmp_path)) == KEEPS_FINAL[front_end]

    def test_releasing_a_non_durable_session_is_a_no_op(
        self, front_end, small_workload, tmp_path
    ):
        batch, _ = small_workload
        piece = next(batch.slices(256))
        with make_front_end(
            front_end, checkpoint_dir=str(tmp_path)
        ) as srv, RawConn(srv.port) as conn:
            conn.send_frame(
                wire.FRAME_BATCH, wire.encode_batch_payload(piece)
            )
            conn.send_frame(wire.FRAME_BYE, wire.encode_bye(release=True))
            events, _races = conn.expect_bye()
            assert events == len(piece)
        assert checkpoints(tmp_path) == []

    @pytest.mark.parametrize(
        "payload", [b"\x01\x00", b"\x00\x00", b"\x02", b"\x81"]
    )
    def test_bad_bye_payload_rejected(self, front_end, payload):
        with make_front_end(front_end) as srv, RawConn(srv.port) as conn:
            conn.send_frame(wire.FRAME_BYE, payload)
            conn.expect_error(wire.ERR_PROTOCOL)


class TestSessionLifecycle:
    def test_idle_timeout_disconnects(self, front_end):
        registry = MetricsRegistry()
        prefix = FRONT_ENDS[front_end]
        with make_front_end(front_end, registry, idle_timeout=0.3) as srv:
            with RawConn(srv.port) as conn:
                conn.expect_error(wire.ERR_IDLE_TIMEOUT)
                conn.expect_eof()
            wait_for_teardown(registry, prefix)
            assert counter_value(registry, f"{prefix}_sessions_active") == 0
            assert (
                counter_value(registry, f"{prefix}_errors_total",
                              code="idle-timeout") == 1
            )

    def test_hello_timeout_disconnects(self, front_end):
        with make_front_end(front_end, hello_timeout=0.3) as srv:
            with RawConn(srv.port, hello=False) as conn:
                conn.expect_error(wire.ERR_IDLE_TIMEOUT)

    def test_mid_batch_client_kill_leaks_nothing(self, small_workload):
        """A client that dies mid-frame tears its session (and engine)
        down; the server keeps serving."""
        batch, _ = small_workload
        registry = MetricsRegistry()
        with make_server(registry) as srv:
            conn = RawConn(srv.port)
            payload = wire.encode_batch_payload(batch)
            # half a frame, then vanish
            conn.send(wire.encode_frame(wire.FRAME_BATCH, payload)[: 40])
            conn.close()
            deadline = time.time() + 5
            while time.time() < deadline:
                if (
                    counter_value(registry, "serve_sessions_active") == 0
                    and not srv.server._sessions
                ):
                    break
                time.sleep(0.02)
            assert counter_value(registry, "serve_sessions_active") == 0
            assert not srv.server._sessions  # engine went down with it
            # the server is still healthy
            summary = submit_batch("127.0.0.1", srv.port, batch)
            assert summary.events == len(batch)

    def test_session_engine_close_drops_state(self):
        server = RaceServer(registry=MetricsRegistry())
        session = _ServerSession(1, None, wire.DEFAULT_MAX_FRAME)
        asyncio.run(server._open(session))
        assert session.engine is not None
        asyncio.run(server._close(session))
        assert session.engine is None
        with pytest.raises(ServeError, match="closed"):
            server._apply(session, EventBatch())
        with pytest.raises(ServeError, match="closed"):
            asyncio.run(server._finish(session))  # the events count

    def test_graceful_stop_with_live_session(self, small_workload):
        batch, _ = small_workload
        srv = make_server(drain_timeout=0.5)
        srv.start()
        client = RaceClient("127.0.0.1", srv.port).connect()
        client.send_batch(next(batch.slices(256)))
        srv.stop()  # drains; the idle session is cancelled after 0.5s
        client.close()
        assert not srv._thread.is_alive()


class TestBackpressure:
    def test_16_sessions_bounded_queue(
        self, front_end, big_workload, request
    ):
        """The acceptance bar: 16 sessions under a tiny credit window
        cannot grow the queue past ``sessions x window``."""
        batch, _ = big_workload
        sessions, window = 16, 2
        registry = MetricsRegistry()
        prefix = FRONT_ENDS[front_end]
        kw = {}
        if front_end == "cluster":
            # The gateway routes on its loop and yields only while a
            # link waits for its worker's credit.  Workers that grant
            # one credit at a time and checkpoint every slice make each
            # batch wait, so the sessions' queues reach the high-water
            # mark (a single server never waits inside its ingest).
            request.getfixturevalue("worker_window_1")
            kw["checkpoint_interval"] = 1
        with make_front_end(
            front_end, registry, credit_window=window, queue_high_water=1,
            **kw,
        ) as srv:
            result = run_load(
                "127.0.0.1", srv.port, batch,
                sessions=sessions, batch_size=16384,
            )
        assert result.events == sessions * len(batch)
        depth_max = counter_value(registry, f"{prefix}_queue_depth_max")
        assert 0 < depth_max <= sessions * window
        # every withheld grant was eventually returned: the stream ran
        # to completion, which send_batch's credit wait already proves
        if front_end == "cluster":
            # A single server ingests on its loop, where a session's
            # read loop rarely outruns its consumer: its stall path is
            # pinned by test_consume_withholds_credit_above_high_water.
            stalls = counter_value(registry, f"{prefix}_credit_stalls_total")
            assert stalls > 0

    def test_consume_withholds_credit_above_high_water(self, small_workload):
        batch, _ = small_workload
        registry = MetricsRegistry()
        server = RaceServer(ServeConfig(queue_high_water=2), registry=registry)
        session = _ServerSession(1, FrameSink(), wire.DEFAULT_MAX_FRAME)
        seen = []  # (withheld, credits) as each batch starts its ingest
        apply = server._apply

        def recording_apply(s, piece):
            seen.append((s.withheld, s.credits))
            return apply(s, piece)

        server._apply = recording_apply

        async def main():
            await server._open(session)
            # the client spent its whole window: four batches queued,
            # two above the high-water mark
            session.credits = 4
            for piece in list(batch.slices(256))[:4]:
                await server._accept_batch(
                    session, wire.encode_batch_payload(piece)
                )
            assert session.queued == 4 and session.credits == 0
            session.queue.put_nowait(_BYE)
            await server._consume(session)

        asyncio.run(main())
        # batches 1 and 2 leave the queue at or above the mark: both
        # grants are withheld; batch 3 drops it below and returns them
        # with its own, batch 4 returns one
        assert seen == [(0, 0), (1, 0), (2, 0), (0, 3)]
        assert session.writer.credits() == [3, 1]
        assert session.credits == 4 and session.withheld == 0
        assert counter_value(registry, "serve_credit_stalls_total") == 2

    def test_queue_depth_returns_to_zero(self, front_end, small_workload):
        batch, _ = small_workload
        registry = MetricsRegistry()
        prefix = FRONT_ENDS[front_end]
        with make_front_end(
            front_end, registry, credit_window=2, queue_high_water=1
        ) as srv:
            submit_batch("127.0.0.1", srv.port, batch, batch_size=256)
            assert counter_value(registry, f"{prefix}_queue_depth") == 0


class TestGatewayFrontEnd(TestProtocolViolations):
    """The session-protocol tests again, through a 2-worker gateway:
    both front ends must answer every violation with the same code."""

    @pytest.fixture
    def front_end(self) -> str:
        return "cluster"

    test_idle_timeout_disconnects = (
        TestSessionLifecycle.test_idle_timeout_disconnects
    )
    test_hello_timeout_disconnects = (
        TestSessionLifecycle.test_hello_timeout_disconnects
    )
    test_queue_depth_returns_to_zero = (
        TestBackpressure.test_queue_depth_returns_to_zero
    )
    test_16_sessions_bounded_queue = (
        TestBackpressure.test_16_sessions_bounded_queue
    )


class FrameSink:
    """A stand-in ``StreamWriter`` that keeps every frame written and
    never blocks, for driving a session's consumer without a socket."""

    def __init__(self) -> None:
        self.frames = []

    def write(self, data: bytes) -> None:
        length, ftype, _crc = wire.parse_frame_header(data)
        self.frames.append((ftype, data[wire.FRAME_HEADER_SIZE:]))

    async def drain(self) -> None:
        pass

    def credits(self) -> list:
        return [
            wire.decode_credit(payload)
            for ftype, payload in self.frames
            if ftype == wire.FRAME_CREDIT
        ]


class TestLoopDiscipline:
    """Ingest runs on the event loop, one batch per consumer turn."""

    def test_ingest_runs_on_the_loop_thread(self, small_workload, monkeypatch):
        batch, _ = small_workload
        threads = []
        ingest = BatchEngine.ingest

        def recording_ingest(engine, piece):
            threads.append(threading.get_ident())
            return ingest(engine, piece)

        monkeypatch.setattr(BatchEngine, "ingest", recording_ingest)
        with make_server() as srv:
            summary = submit_batch(
                "127.0.0.1", srv.port, batch, batch_size=512
            )
            loop_thread = srv._thread.ident
        assert summary.events == len(batch)
        assert len(threads) == len(list(batch.slices(512)))
        assert set(threads) == {loop_thread}

    def test_sessions_interleave_batch_by_batch(self, small_workload):
        batch, _ = small_workload
        pieces = list(batch.slices(256))[:3]
        server = RaceServer(registry=MetricsRegistry())
        order = []
        apply = server._apply

        def recording_apply(s, piece):
            order.append(s.sid)
            return apply(s, piece)

        server._apply = recording_apply

        async def main():
            sessions = [
                _ServerSession(sid, FrameSink(), wire.DEFAULT_MAX_FRAME)
                for sid in (1, 2)
            ]
            for session in sessions:
                await server._open(session)
                session.credits = len(pieces)
                for piece in pieces:
                    await server._accept_batch(
                        session, wire.encode_batch_payload(piece)
                    )
                session.queue.put_nowait(_BYE)
            await asyncio.gather(*(server._consume(s) for s in sessions))

        asyncio.run(main())
        assert order == [1, 2, 1, 2, 1, 2]

    def test_cancel_at_the_yield_checkpoints_what_the_engine_holds(
        self, small_workload, tmp_path
    ):
        """A shutdown cancel requested while the engine runs lands at
        the consumer's yield, after ``applied_seq`` caught up: the
        final checkpoint's seq covers exactly what its engine holds,
        and a RESUME that replays every batch applies none twice."""
        batch, _ = small_workload
        pieces = list(batch.slices(512))[:4]
        payloads = [
            wire.encode_batch_payload(piece, seq=i)
            for i, piece in enumerate(pieces, 1)
        ]
        registry = MetricsRegistry()
        server = RaceServer(
            ServeConfig(checkpoint_dir=str(tmp_path), checkpoint_interval=99),
            registry=registry,
        )
        token = wire.encode_resume("tok")
        apply = server._apply
        consumer = None

        def cancelling_apply(s, piece):
            new = apply(s, piece)
            if s.engine.events_ingested == len(pieces[0]) + len(pieces[1]):
                consumer.cancel()  # as shutdown would, mid-ingest
            return new

        async def session_with(sid: int) -> _ServerSession:
            session = _ServerSession(sid, FrameSink(), wire.DEFAULT_MAX_FRAME)
            await server._open(session)
            await server._resume(session, token)
            session.credits = len(payloads)
            for payload in payloads:
                await server._accept_batch(session, payload)
            return session

        async def crash():
            nonlocal consumer
            session = await session_with(1)
            server._apply = cancelling_apply
            consumer = asyncio.ensure_future(server._consume(session))
            with pytest.raises(asyncio.CancelledError):
                await consumer
            server._apply = apply
            digest = state_digest(session.engine)
            await server._close(session)  # the final checkpoint
            return session.applied_seq, digest

        async def resume():
            session = await session_with(2)
            session.queue.put_nowait(_BYE)
            await server._consume(session)
            return session

        applied, digest = asyncio.run(crash())
        assert applied == 2
        assert digest == state_digest(local_engine(pieces[:2]))
        engine, meta = load_checkpoint(str(tmp_path / "tok.ckpt"))
        assert meta["seq"] == 2
        assert state_digest(engine) == digest

        resumed = asyncio.run(resume())
        assert counter_value(registry, "serve_duplicate_batches_total") == 2
        assert resumed.applied_seq == 4
        assert state_digest(resumed.engine) == state_digest(
            local_engine(pieces)
        )


def local_engine(pieces) -> BatchEngine:
    engine = BatchEngine()
    for piece in pieces:
        engine.ingest(piece)
    return engine


class TestBackendNegotiation:
    def test_lattice2d_session_matches_local_replay(self, small_workload):
        """A HELLO naming lattice2d is granted and streams the exact
        race multiset of a local replay."""
        batch, _ = small_workload
        local = local_race_multiset(batch)
        registry = MetricsRegistry()
        with make_server(registry) as srv:
            with RaceClient(
                "127.0.0.1", srv.port, backend="lattice2d"
            ) as client:
                client.send_batches(batch, 1024)
                summary = client.finish()
            assert client.negotiated_backend == "lattice2d"
        assert race_multiset(summary.reports) == local
        assert counter_value(
            registry, "serve_sessions_backend_total", backend="lattice2d"
        ) == 1

    def test_unknown_backend_refused_with_typed_error(self):
        # The retired depa backend is as unknown as any other name.
        with make_server() as srv:
            for name in ("quantum", "depa"):
                with pytest.raises(RemoteError) as exc_info:
                    RaceClient(
                        "127.0.0.1", srv.port, backend=name
                    ).connect()
                assert exc_info.value.code == wire.ERR_BACKEND

    def test_predict_server_refuses_depa_request(self):
        with make_server(predict=True) as srv:
            with pytest.raises(RemoteError) as exc_info:
                RaceClient(
                    "127.0.0.1", srv.port, backend="depa"
                ).connect()
            assert exc_info.value.code == wire.ERR_BACKEND

    def test_predict_server_grants_shb_and_refuses_lattice2d(
        self, small_workload
    ):
        """A --predict server names the engine its sessions run: a
        HELLO naming none or ``shb`` is granted ``shb``, one naming
        ``lattice2d`` gets ERR_BACKEND, and the session counter carries
        the granted name."""
        batch, _ = small_workload
        registry = MetricsRegistry()
        with ServerThread(
            ServeConfig(predict=True, drain_timeout=2.0), registry=registry
        ) as srv:
            with pytest.raises(RemoteError) as exc_info:
                RaceClient(
                    "127.0.0.1", srv.port, backend="lattice2d"
                ).connect()
            assert exc_info.value.code == wire.ERR_BACKEND
            for requested in (None, "shb"):
                with RaceClient(
                    "127.0.0.1", srv.port, backend=requested
                ) as client:
                    client.send_batches(batch, 1024)
                    summary = client.finish()
                assert client.negotiated_backend == "shb"
                assert summary.events == len(batch)
        assert counter_value(
            registry, "serve_sessions_backend_total", backend="shb"
        ) == 2
        assert counter_value(
            registry, "serve_sessions_backend_total", backend="lattice2d"
        ) == 0

    def test_requested_backend_is_required_not_preferred(self):
        """Against a server whose reply grants another engine, a
        client that requested a backend refuses the session instead of
        silently running that engine."""
        import socket
        import threading

        srv_sock = socket.socket()
        srv_sock.bind(("127.0.0.1", 0))
        srv_sock.listen(1)
        port = srv_sock.getsockname()[1]

        def serve_one():
            conn, _ = srv_sock.accept()
            got = b""
            while len(got) < wire.FRAME_HEADER_SIZE:
                got += conn.recv(64)
            length, _ftype, _crc = wire.parse_frame_header(got)
            while len(got) < wire.FRAME_HEADER_SIZE + length:
                got += conn.recv(64)
            conn.sendall(
                wire.encode_frame(
                    wire.FRAME_HELLO,
                    wire.encode_hello_reply(
                        8, wire.DEFAULT_MAX_FRAME, backend="shb"
                    ),
                )
            )
            conn.recv(1)
            conn.close()

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        try:
            with pytest.raises(ServeError, match="granted"):
                RaceClient(
                    "127.0.0.1", port, backend="lattice2d", timeout=10.0
                ).connect()
        finally:
            srv_sock.close()
            thread.join(5.0)


class TestMetricsEndpoint:
    def test_prometheus_snapshot_over_http(self, small_workload):
        import urllib.error
        import urllib.request

        batch, _ = small_workload
        registry = MetricsRegistry()
        with make_server(registry) as srv:
            submit_batch("127.0.0.1", srv.port, batch)
            httpd = start_metrics_http(0, registry)
            try:
                base = f"http://127.0.0.1:{httpd.server_port}"
                with urllib.request.urlopen(
                    f"{base}/metrics", timeout=5
                ) as response:
                    body = response.read().decode()
                assert "serve_sessions_total" in body
                assert "serve_events_total" in body
                with pytest.raises(urllib.error.HTTPError) as refused:
                    urllib.request.urlopen(f"{base}/nope", timeout=5)
                assert refused.value.code == 404
                refused.value.close()  # the error holds the response open
            finally:
                httpd.shutdown()
                httpd.server_close()


class TestClientHandshake:
    def test_garbled_hello_reply_closes_the_socket(self):
        """A HELLO reply that is not a frame raises ProtocolError, and
        the failed connect leaves no socket open behind it."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def bad_server():
            conn, _ = listener.accept()
            with conn:
                conn.recv(4096)  # swallow the HELLO
                conn.sendall(b"\xff" * 32)  # not a frame header

        thread = threading.Thread(target=bad_server, daemon=True)
        thread.start()
        client = RaceClient(
            "127.0.0.1", listener.getsockname()[1], timeout=5
        )
        try:
            with pytest.raises(ProtocolError):
                client.connect()
            assert client._sock is None
        finally:
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()


class TestConfigValidation:
    def test_bad_credit_window_rejected(self):
        with pytest.raises(ServeError, match="credit window"):
            ServerThread(ServeConfig(credit_window=0)).start()

    def test_client_refuses_oversized_batch(self, small_workload):
        batch, _ = small_workload
        with make_server(max_frame=4096) as srv:
            with RaceClient("127.0.0.1", srv.port) as client:
                assert client.max_frame == 4096
                with pytest.raises(ProtocolError, match="slice it smaller"):
                    client.send_batch(batch)

@pytest.mark.predict
class TestPredictMode:
    def test_predict_session_streams_pair_reports(self, small_workload):
        """A predict-mode server runs the shb engine per session: the
        served reports match a local predict replay exactly, and they
        cover everything the observed-order engine flags."""
        batch, _interner = small_workload
        predict_engine = BatchEngine(predict=True)
        predict_engine.ingest(batch)
        local_predicted = race_multiset(predict_engine.races())
        assert local_predicted, "workload should carry predictable races"

        with make_server(predict=True) as srv:
            summary = submit_batch("127.0.0.1", srv.port, batch)
        assert summary.events == len(batch)
        assert race_multiset(summary.reports) == local_predicted

        observed = Counter()
        for (task, loc, kind, _prior), n in local_race_multiset(batch).items():
            observed[(task, loc, kind)] += n
        predicted = Counter(
            (r.task, r.loc, r.kind) for r in summary.reports
        )
        assert observed <= predicted

    def test_predict_rejects_checkpointing(self, tmp_path):
        with pytest.raises(ServeError, match="checkpoint"):
            ServerThread(
                ServeConfig(predict=True, checkpoint_dir=str(tmp_path))
            ).start()
