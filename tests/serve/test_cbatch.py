"""Integration tests for compressed (CBATCH) serving.

A session that negotiates the CBATCH feature bit ships grammar-
compressed traces the server ingests through the memoized kernel, and
must report exactly the races a raw-batch session (and a local replay)
reports.  Refusals are typed and happen before the stream starts.
"""

from __future__ import annotations

import struct

import pytest

from repro.compress import compress, write_tracez
from repro.engine.batch import EventBatch
from repro.engine.benchlib import capture
from repro.obs.registry import MetricsRegistry
from repro.serve import RaceClient, RemoteError, submit_batch, submit_trace
from repro.serve import protocol as wire
from repro.workloads.racegen import loop_program

from .conftest import RawConn, local_race_multiset, race_multiset
from .test_server import counter_value, make_server

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def loop_workload():
    """A block-repetitive racy loop workload: ``(batch, interner)``."""
    _events, batch, interner = capture(
        loop_program(4, 40, 64, racy=True)
    )
    return batch, interner


class TestCompressedRoundTrip:
    def test_compressed_session_matches_local_replay(self, loop_workload):
        batch, _ = loop_workload
        local = local_race_multiset(batch)
        registry = MetricsRegistry()
        with make_server(registry) as srv:
            summary = submit_batch(
                "127.0.0.1", srv.port, batch, compress=True
            )
        assert summary.events == len(batch)
        assert race_multiset(summary.reports) == local
        assert counter_value(registry, "serve_cbatches_total") > 0
        assert counter_value(registry, "serve_batches_total") == 0
        # The memoized kernel, not the expanding path, did the work.
        assert counter_value(
            registry, "engine_dispatch_total", path="memo"
        ) > 0

    def test_compressed_wire_bytes_beat_raw(self, loop_workload):
        """The point of CBATCH: the loops workload crosses the wire in
        at most a third of the raw-batch bytes."""
        batch, _ = loop_workload
        raw_bytes = sum(
            len(wire.encode_batch_payload(piece))
            for piece in batch.slices(8192)
        )
        registry = MetricsRegistry()
        with make_server(registry) as srv:
            submit_batch("127.0.0.1", srv.port, batch, compress=True)
        compressed = counter_value(registry, "serve_compressed_bytes_total")
        assert 0 < compressed <= raw_bytes / 3

    def test_compressed_lattice2d_session(self, loop_workload):
        """compress=True composes with backend negotiation."""
        batch, _ = loop_workload
        local = local_race_multiset(batch)
        with make_server() as srv:
            with RaceClient(
                "127.0.0.1", srv.port, backend="lattice2d", compress=True
            ) as client:
                client.send_batches_compressed(batch)
                summary = client.finish()
            assert client.negotiated_backend == "lattice2d"
        assert race_multiset(summary.reports) == local

    def test_mixed_raw_and_compressed_frames(self, loop_workload):
        """A compress session may still send raw BATCH frames; both
        kinds land in the same engine in order."""
        batch, _ = loop_workload
        local = local_race_multiset(batch)
        half = len(batch) // 2
        head = EventBatch(batch.ops[:half], batch.a[:half], batch.b[:half])
        tail = EventBatch(batch.ops[half:], batch.a[half:], batch.b[half:])
        with make_server() as srv:
            with RaceClient(
                "127.0.0.1", srv.port, compress=True
            ) as client:
                client.send_batch(head)
                client.send_compressed(compress(tail))
                summary = client.finish()
        assert summary.events == len(batch)
        assert race_multiset(summary.reports) == local


    @pytest.mark.parametrize("max_frame", [wire.DEFAULT_MAX_FRAME, 9_000])
    def test_stored_container_ships_under_the_expansion_cap(
        self, loop_workload, tmp_path, max_frame
    ):
        """A stored RPR2TRZ goes out as one CBATCH when it expands
        within the cap, and slice by slice when it does not (9,000
        bytes allow 1,000 events per CBATCH)."""
        batch, interner = loop_workload
        assert len(batch) > wire.max_cbatch_events(9_000)
        path = tmp_path / "loops.rpr2trz"
        write_tracez(str(path), compress(batch), interner)
        registry = MetricsRegistry()
        with make_server(registry, max_frame=max_frame) as srv:
            summary = submit_trace(
                "127.0.0.1", srv.port, str(path), compress=True
            )
        assert summary.events == len(batch)
        assert race_multiset(summary.reports) == local_race_multiset(batch)
        cbatches = counter_value(registry, "serve_cbatches_total")
        if max_frame == wire.DEFAULT_MAX_FRAME:
            assert cbatches == 1
        else:
            cap = wire.max_cbatch_events(9_000)
            assert cbatches == -(-len(batch) // cap)


class TestCompressedNegotiation:
    def test_predict_server_refuses_compression(self):
        with make_server(predict=True) as srv:
            with pytest.raises(RemoteError) as exc_info:
                RaceClient(
                    "127.0.0.1", srv.port, compress=True
                ).connect()
            assert exc_info.value.code == wire.ERR_COMPRESS

    def test_plain_session_gets_no_feature_bit(self):
        with make_server() as srv:
            with RawConn(srv.port) as conn:
                assert not conn.features & wire.FLAG_CBATCH
                conn.send_frame(wire.FRAME_BYE)

    def test_requesting_session_gets_the_bit(self):
        with make_server() as srv:
            with RawConn(srv.port, features=wire.FLAG_CBATCH) as conn:
                assert conn.features & wire.FLAG_CBATCH
                conn.send_frame(wire.FRAME_BYE)

    def test_cbatch_without_negotiation_is_refused(self, loop_workload):
        """Sending CBATCH on a session that never asked for it is a
        typed protocol violation, not a silent ingest."""
        batch, _ = loop_workload
        payload = wire.encode_cbatch_payload(compress(batch))
        with make_server() as srv:
            with RawConn(srv.port) as conn:
                conn.send_frame(wire.FRAME_CBATCH, payload)
                conn.expect_error(wire.ERR_COMPRESS)


class TestCompressedHostility:
    def test_lying_cbatch_header_rejected(self, loop_workload):
        batch, _ = loop_workload
        payload = bytearray(
            wire.encode_cbatch_payload(compress(batch))
        )
        struct.pack_into("<Q", payload, 8, 10_000_000)  # n_events
        with make_server() as srv:
            with RawConn(srv.port, features=wire.FLAG_CBATCH) as conn:
                conn.send_frame(wire.FRAME_CBATCH, bytes(payload))
                conn.expect_error(wire.ERR_MALFORMED_BATCH)

    def test_unique_blocks_are_column_validated(self):
        """A compressed trace whose (single, much-repeated) block
        carries an unknown opcode is refused like a raw batch."""
        from array import array

        from repro.compress.blocks import CompressedTrace
        from repro.engine.batch import EventBatch

        bad_block = EventBatch(
            array("B", [17] * 4), array("i", [0] * 4),
            array("i", [-1] * 4),
        )
        bad = CompressedTrace(4, [bad_block], [(0, 100)])
        with make_server() as srv:
            with RawConn(srv.port, features=wire.FLAG_CBATCH) as conn:
                conn.send_frame(
                    wire.FRAME_CBATCH, wire.encode_cbatch_payload(bad)
                )
                conn.expect_error(wire.ERR_MALFORMED_BATCH)
