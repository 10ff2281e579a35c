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
from array import array
from collections import Counter

import pytest

from repro.engine.batch import OP_JOIN, OP_WRITE, EventBatch
from repro.engine.ingest import BatchEngine
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

    def test_non_hello_first_frame_rejected(self, front_end):
        with make_front_end(front_end) as srv, RawConn(
            srv.port, hello=False
        ) as conn:
            conn.send_frame(wire.FRAME_CREDIT, wire.encode_credit(1))
            conn.expect_error(wire.ERR_PROTOCOL)

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
            server._apply(session, EventBatch(), False)
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
    def test_16_sessions_bounded_queue(self, big_workload):
        """The acceptance bar: 16 sessions under a tiny credit window
        cannot grow the server queue past ``sessions x window``, and
        the high-water mark forces real credit stalls."""
        batch, _ = big_workload
        sessions, window = 16, 2
        registry = MetricsRegistry()
        with make_server(
            registry, credit_window=window, queue_high_water=1
        ) as srv:
            result = run_load(
                "127.0.0.1", srv.port, batch,
                sessions=sessions, batch_size=16384,
            )
        assert result.events == sessions * len(batch)
        depth_max = counter_value(registry, "serve_queue_depth_max")
        assert 0 < depth_max <= sessions * window
        assert counter_value(registry, "serve_credit_stalls_total") > 0
        # every withheld grant was eventually returned: the stream ran
        # to completion, which send_batch's credit wait already proves

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


class TestBackendNegotiation:
    def test_lattice2d_session_matches_local_replay(self, small_workload):
        """A v3 HELLO naming lattice2d is granted and streams the exact
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

    def test_v2_client_runs_unchanged(self, small_workload):
        """A pre-negotiation client -- v2 HELLO, v2 reply decode -- must
        complete a full session byte-identically to before."""
        batch, _ = small_workload
        local = local_race_multiset(batch)
        with make_server() as srv:
            with RawConn(srv.port, version=2) as conn:
                assert conn.backend is None  # v2-shaped reply
                conn.send_frame(
                    wire.FRAME_BATCH, wire.encode_batch_payload(batch)
                )
                conn.send_frame(wire.FRAME_BYE)
                reports = []
                while True:
                    ftype, payload = conn.recv_frame()
                    if ftype == wire.FRAME_RACES:
                        _seq, rows = wire.decode_races(payload)
                        reports.extend(rows)
                    elif ftype == wire.FRAME_BYE:
                        events, _races = wire.decode_bye_summary(payload)
                        break
                    else:
                        assert ftype == wire.FRAME_CREDIT
        assert events == len(batch)
        assert race_multiset(reports) == local

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
        """Against a pre-negotiation (v2-replying) server, a client
        that requested a backend refuses the session instead of
        silently running lattice2d."""
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
                        8, wire.DEFAULT_MAX_FRAME, version=2
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
