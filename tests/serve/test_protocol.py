"""Unit tests for the sans-IO RPRSERVE wire protocol.

Every codec round-trips, and every decoder rejects hostile input
*before* it allocates: truncated headers, corrupted CRCs, oversized
frames, lying BATCH headers, foreign opcodes.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array

import pytest

from repro.core.reports import AccessKind, RaceReport
from repro.engine.batch import (
    OP_FORK,
    OP_HALT,
    OP_JOIN,
    OP_READ,
    OP_WRITE,
    BatchBuilder,
    EventBatch,
)
from repro.errors import ProtocolError, ReproError, ServeError
from repro.serve import protocol as wire

pytestmark = pytest.mark.serve


def small_batch() -> EventBatch:
    builder = BatchBuilder()
    builder.on_fork(0, 1)
    builder.on_write(0, "x")
    builder.on_read(1, "x")
    builder.on_halt(1)
    builder.on_join(0, 1)
    return builder.batch


def test_error_hierarchy():
    assert issubclass(ProtocolError, ServeError)
    assert issubclass(ServeError, ReproError)


class TestFraming:
    def test_round_trip(self):
        frame = wire.encode_frame(wire.FRAME_CREDIT, b"abcd")
        length, ftype, crc = wire.parse_frame_header(
            frame[: wire.FRAME_HEADER_SIZE]
        )
        assert (length, ftype) == (4, wire.FRAME_CREDIT)
        payload = frame[wire.FRAME_HEADER_SIZE:]
        wire.check_payload_crc(payload, crc)
        assert payload == b"abcd"

    def test_empty_payload(self):
        frame = wire.encode_frame(wire.FRAME_BYE)
        length, ftype, crc = wire.parse_frame_header(frame)
        assert (length, ftype) == (0, wire.FRAME_BYE)
        wire.check_payload_crc(b"", crc)

    def test_unknown_type_rejected_both_ways(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            wire.encode_frame(42, b"")
        head = struct.pack("<IBI", 0, 99, 0)
        with pytest.raises(ProtocolError, match="unknown frame type"):
            wire.parse_frame_header(head)

    def test_truncated_header_rejected(self):
        frame = wire.encode_frame(wire.FRAME_BYE)
        with pytest.raises(ProtocolError, match="truncated frame header"):
            wire.parse_frame_header(frame[:5])

    def test_bad_crc_rejected(self):
        frame = wire.encode_frame(wire.FRAME_CREDIT, b"abcd")
        _, _, crc = wire.parse_frame_header(frame)
        with pytest.raises(ProtocolError, match="CRC mismatch"):
            wire.check_payload_crc(b"abce", crc)

    def test_oversized_frame_rejected_before_payload(self):
        with pytest.raises(ProtocolError, match="exceeds the negotiated"):
            wire.check_frame_length(1025, 1024)
        wire.check_frame_length(1024, 1024)  # at the cap is fine


class TestHello:
    def test_client_hello_round_trip(self):
        max_frame, backend, features = wire.decode_hello(
            wire.encode_hello(4096)
        )
        assert max_frame == 4096
        assert backend is None  # all-NUL field = server default
        assert features == 0

    def test_client_hello_backend_round_trip(self):
        assert wire.decode_hello(
            wire.encode_hello(4096, backend="depa")
        ) == (4096, "depa", 0)

    def test_client_hello_features_round_trip(self):
        max_frame, backend, features = wire.decode_hello(
            wire.encode_hello(
                4096, backend="depa", features=wire.FLAG_CBATCH
            )
        )
        assert (max_frame, backend) == (4096, "depa")
        assert features & wire.FLAG_CBATCH

    def test_backend_name_bounds(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            wire.encode_hello(4096, backend="x" * 17)
        with pytest.raises(ProtocolError, match="ASCII"):
            wire.encode_hello(4096, backend="dépa")

    def test_server_reply_round_trip(self):
        credit, max_frame, backend, features, workers = (
            wire.decode_hello_reply(
                wire.encode_hello_reply(
                    8, 65536, backend="lattice2d",
                    features=wire.FLAG_CBATCH, workers=4,
                )
            )
        )
        assert (credit, max_frame) == (8, 65536)
        assert backend == "lattice2d"
        assert features & wire.FLAG_CBATCH
        assert workers == 4

    def test_v5_server_reply_carries_worker_count(self):
        payload = wire.encode_hello_reply(
            8, 65536, backend="lattice2d", workers=2
        )
        assert len(payload) == 48  # the frozen v5 wire shape
        assert wire.decode_hello_reply(payload) == (
            8, 65536, "lattice2d", 0, 2
        )

    def test_pinned_hello_bytes(self):
        """The one HELLO exchange is the v5 one, byte for byte."""
        assert wire.PROTOCOL_VERSION == 5
        assert wire.encode_hello().hex() == (
            "52505253455256450500000000008000"
            "00000000000000000000000000000000"
            "00000000"
        )
        assert wire.encode_hello(
            4096, backend="lattice2d", features=wire.FLAG_CBATCH
        ).hex() == (
            "52505253455256450500000000100000"
            "6c61747469636532640000000000000001000000"
        )
        assert wire.encode_hello_reply(8, 65536).hex() == (
            "52505253455256450500000008000000"
            "00000100000000000000000000000000"
            "00000000000000000000000001000000"
        )
        assert wire.encode_hello_reply(
            8, 65536, backend="lattice2d", features=wire.FLAG_CBATCH,
            workers=2,
        ).hex() == (
            "52505253455256450500000008000000"
            "00000100000000006c61747469636532"
            "64000000000000000100000002000000"
        )

    def test_worker_count_bounds(self):
        with pytest.raises(ProtocolError, match="worker"):
            wire.encode_hello_reply(8, 65536, workers=0)
        payload = bytearray(wire.encode_hello_reply(8, 65536, workers=1))
        struct.pack_into("<I", payload, len(payload) - 4, 0)
        with pytest.raises(ProtocolError, match="worker"):
            wire.decode_hello_reply(bytes(payload))

    def test_bad_magic_rejected(self):
        payload = struct.pack("<8sII", b"NOTMAGIC", 1, 4096)
        with pytest.raises(ProtocolError, match="magic"):
            wire.decode_hello(payload)

    def test_version_mismatch_rejected_client_side(self):
        payload = struct.pack(
            "<8sIIII", wire.PROTOCOL_MAGIC, 99, 8, 65536, 0
        )
        with pytest.raises(ProtocolError, match="version") as exc_info:
            wire.decode_hello_reply(payload)
        assert exc_info.value.code == wire.ERR_VERSION

    def test_bad_lengths_rejected(self):
        hello = wire.encode_hello()
        for payload in (b"", hello[:5], hello[:-1], hello + b"\0"):
            with pytest.raises(ProtocolError, match="bytes") as exc_info:
                wire.decode_hello(payload)
            assert exc_info.value.code == wire.ERR_VERSION
        with pytest.raises(ProtocolError):
            wire.decode_hello(b"short")
        with pytest.raises(ProtocolError):
            wire.decode_hello_reply(b"short")


class TestBatchPayload:
    def test_round_trip_without_table(self):
        batch = small_batch()
        decoded, locations, seq = wire.decode_batch_payload(
            wire.encode_batch_payload(batch)
        )
        assert locations is None
        assert seq == 0
        assert decoded.ops == batch.ops
        assert decoded.a == batch.a
        assert decoded.b == batch.b

    def test_round_trip_with_table(self):
        builder = BatchBuilder()
        builder.on_write(0, "x")
        builder.on_read(0, ("tuple", 3))
        payload = wire.encode_batch_payload(
            builder.batch, builder.interner.locations()
        )
        decoded, locations, seq = wire.decode_batch_payload(payload)
        assert locations == ["x", ("tuple", 3)]
        assert seq == 0
        assert decoded.b == builder.batch.b

    def test_sequence_number_round_trips(self):
        payload = wire.encode_batch_payload(small_batch(), seq=17)
        _decoded, _locations, seq = wire.decode_batch_payload(payload)
        assert seq == 17

    def test_empty_batch_round_trips(self):
        empty = EventBatch(array("B"), array("i"), array("i"))
        decoded, locations, _seq = wire.decode_batch_payload(
            wire.encode_batch_payload(empty)
        )
        assert len(decoded) == 0 and locations is None

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError, match="truncated BATCH header"):
            wire.decode_batch_payload(b"\x00" * 8)

    def test_lying_event_count_rejected_before_allocation(self):
        payload = bytearray(wire.encode_batch_payload(small_batch()))
        # inflate the declared n_events without adding column bytes
        struct.pack_into("<Q", payload, 8, 10_000_000)
        with pytest.raises(ProtocolError, match="lying BATCH header"):
            wire.decode_batch_payload(bytes(payload))

    def test_lying_table_length_rejected(self):
        payload = bytearray(wire.encode_batch_payload(small_batch()))
        struct.pack_into("<Q", payload, 16, 4096)
        with pytest.raises(ProtocolError, match="lying BATCH header"):
            wire.decode_batch_payload(bytes(payload))

    def test_short_payload_rejected(self):
        payload = wire.encode_batch_payload(small_batch())
        with pytest.raises(ProtocolError, match="lying BATCH header"):
            wire.decode_batch_payload(payload[:-1])

    def test_bad_endian_flag_rejected(self):
        payload = bytearray(wire.encode_batch_payload(small_batch()))
        payload[0] = 7
        with pytest.raises(ProtocolError, match="endianness"):
            wire.decode_batch_payload(bytes(payload))

    def test_corrupt_table_json_rejected(self):
        builder = BatchBuilder()
        builder.on_write(0, "x")
        payload = bytearray(
            wire.encode_batch_payload(
                builder.batch, builder.interner.locations()
            )
        )
        payload[wire._BATCH_HEADER.size] = 0xFF  # stomp the JSON
        with pytest.raises(ProtocolError, match="location table"):
            wire.decode_batch_payload(bytes(payload))

    def test_foreign_endian_columns_byteswapped(self):
        batch = small_batch()
        a_sw = array("i", batch.a)
        b_sw = array("i", batch.b)
        a_sw.byteswap()
        b_sw.byteswap()
        flag = 1 if sys.byteorder == "little" else 0
        head = struct.pack("<B7xQQQ", flag, len(batch), 0, 0)
        payload = head + batch.ops.tobytes() + a_sw.tobytes() + b_sw.tobytes()
        decoded, _, _ = wire.decode_batch_payload(payload)
        assert decoded.a == batch.a
        assert decoded.b == batch.b


class TestCBatchPayload:
    def compressed(self, reps: int = 6):
        from repro.compress import compress

        builder = BatchBuilder()
        for _ in range(reps):
            for k in range(8):
                builder.on_write(0, ("loc", k))
        return compress(builder.batch, 8), builder.interner

    def test_round_trip_without_table(self):
        ctrace, _ = self.compressed()
        decoded, locations, seq = wire.decode_cbatch_payload(
            wire.encode_cbatch_payload(ctrace)
        )
        assert locations is None and seq == 0
        assert len(decoded.blocks) == len(ctrace.blocks) == 1
        assert decoded.rules == ctrace.rules
        assert decoded.n_events == ctrace.n_events
        raw = ctrace.decompress()
        out = decoded.decompress()
        assert (out.ops, out.a, out.b) == (raw.ops, raw.a, raw.b)

    def test_round_trip_with_table_and_seq(self):
        ctrace, interner = self.compressed()
        payload = wire.encode_cbatch_payload(
            ctrace, interner.locations(), seq=41
        )
        decoded, locations, seq = wire.decode_cbatch_payload(payload)
        assert seq == 41
        assert locations == [("loc", k) for k in range(8)]
        assert decoded.block_width == ctrace.block_width

    def test_wire_bytes_beat_the_expanded_batch(self):
        ctrace, _ = self.compressed(reps=64)
        cframe = wire.encode_cbatch_payload(ctrace)
        frame = wire.encode_batch_payload(ctrace.decompress())
        assert len(cframe) * 3 <= len(frame)

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError, match="truncated CBATCH"):
            wire.decode_cbatch_payload(b"\x00" * 8)

    def test_lying_block_count_rejected_before_allocation(self):
        ctrace, _ = self.compressed()
        payload = bytearray(wire.encode_cbatch_payload(ctrace))
        struct.pack_into("<Q", payload, 16, 1 << 40)  # n_blocks
        with pytest.raises(ProtocolError, match="lying CBATCH header"):
            wire.decode_cbatch_payload(bytes(payload))

    def test_lying_event_count_rejected(self):
        ctrace, _ = self.compressed()
        payload = bytearray(wire.encode_cbatch_payload(ctrace))
        struct.pack_into("<Q", payload, 8, 10_000_000)  # n_events
        with pytest.raises(ProtocolError, match="expand to"):
            wire.decode_cbatch_payload(bytes(payload))

    def test_short_payload_rejected(self):
        ctrace, _ = self.compressed()
        payload = wire.encode_cbatch_payload(ctrace)
        with pytest.raises(ProtocolError, match="CBATCH"):
            wire.decode_cbatch_payload(payload[:-1])

    def test_bad_block_width_rejected(self):
        ctrace, _ = self.compressed()
        payload = bytearray(wire.encode_cbatch_payload(ctrace))
        struct.pack_into("<I", payload, 4, 0)  # block width
        with pytest.raises(ProtocolError, match="block width"):
            wire.decode_cbatch_payload(bytes(payload))

    def test_oversized_block_length_rejected(self):
        ctrace, _ = self.compressed()
        payload = bytearray(wire.encode_cbatch_payload(ctrace))
        struct.pack_into(  # the one length entry: beyond the width
            "<I", payload, wire._CBATCH_HEADER.size, 9
        )
        with pytest.raises(ProtocolError, match="claims 9 events"):
            wire.decode_cbatch_payload(bytes(payload))

    def test_rule_referencing_missing_block_rejected(self):
        ctrace, _ = self.compressed()
        payload = bytearray(wire.encode_cbatch_payload(ctrace))
        struct.pack_into("<II", payload, len(payload) - 8, 7, 6)
        with pytest.raises(ProtocolError, match="references block 7"):
            wire.decode_cbatch_payload(bytes(payload))

    def test_zero_repeat_rule_rejected(self):
        ctrace, _ = self.compressed()
        payload = bytearray(wire.encode_cbatch_payload(ctrace))
        struct.pack_into("<II", payload, len(payload) - 8, 0, 0)
        with pytest.raises(ProtocolError, match="zero repeat"):
            wire.decode_cbatch_payload(bytes(payload))

    def test_bad_endian_flag_rejected(self):
        ctrace, _ = self.compressed()
        payload = bytearray(wire.encode_cbatch_payload(ctrace))
        payload[0] = 7
        with pytest.raises(ProtocolError, match="endianness"):
            wire.decode_cbatch_payload(bytes(payload))

    def test_foreign_endian_columns_byteswapped(self):
        ctrace, _ = self.compressed()
        payload = bytearray(wire.encode_cbatch_payload(ctrace))
        payload[0] = 1 if sys.byteorder == "little" else 0
        block = ctrace.blocks[0]
        off = wire._CBATCH_HEADER.size + 4  # table empty, one length
        a_off = off + len(block)
        a_sw = array("i", block.a)
        b_sw = array("i", block.b)
        a_sw.byteswap()
        b_sw.byteswap()
        swapped = a_sw.tobytes() + b_sw.tobytes()
        payload[a_off: a_off + len(swapped)] = swapped
        decoded, _, _ = wire.decode_cbatch_payload(bytes(payload))
        assert decoded.blocks[0].a == block.a
        assert decoded.blocks[0].b == block.b


class TestColumnValidation:
    def test_clean_batch_passes(self):
        wire.validate_batch_columns(small_batch())
        wire.validate_batch_columns(small_batch(), table_size=1)

    def test_empty_batch_passes(self):
        wire.validate_batch_columns(
            EventBatch(array("B"), array("i"), array("i"))
        )

    def test_unknown_opcode_rejected(self):
        bad = EventBatch(
            array("B", [OP_FORK, 17]), array("i", [0, 0]),
            array("i", [1, -1]),
        )
        with pytest.raises(ProtocolError, match="unknown opcode"):
            wire.validate_batch_columns(bad)

    def test_negative_access_location_rejected(self):
        bad = EventBatch(
            array("B", [OP_WRITE]), array("i", [0]), array("i", [-3])
        )
        with pytest.raises(ProtocolError, match="location id"):
            wire.validate_batch_columns(bad)

    def test_structural_minus_one_is_fine(self):
        ok = EventBatch(
            array("B", [OP_HALT, OP_JOIN]), array("i", [1, 0]),
            array("i", [-1, 1]),
        )
        wire.validate_batch_columns(ok)

    def test_access_beyond_shipped_table_rejected(self):
        bad = EventBatch(
            array("B", [OP_READ]), array("i", [0]), array("i", [5])
        )
        with pytest.raises(ProtocolError, match="table has 2 entries"):
            wire.validate_batch_columns(bad, table_size=2)

    def test_table_bound_ignored_when_table_not_shipped(self):
        ok = EventBatch(
            array("B", [OP_READ]), array("i", [0]), array("i", [5])
        )
        wire.validate_batch_columns(ok, table_size=None)


class TestSmallCodecs:
    def test_credit(self):
        assert wire.decode_credit(wire.encode_credit(3)) == 3
        with pytest.raises(ProtocolError):
            wire.decode_credit(b"xx")

    def test_error(self):
        code, msg = wire.decode_error(
            wire.encode_error(wire.ERR_BAD_CRC, "checksum no")
        )
        assert code == wire.ERR_BAD_CRC
        assert msg == "checksum no"
        with pytest.raises(ProtocolError):
            wire.decode_error(b"x")

    def test_bye_summary(self):
        assert wire.decode_bye_summary(
            wire.encode_bye_summary(100_000, 7)
        ) == (100_000, 7)
        with pytest.raises(ProtocolError):
            wire.decode_bye_summary(b"short")

    def test_races_round_trip(self):
        reports = [
            RaceReport(
                loc=3, task=2, kind=AccessKind.WRITE,
                prior_kind=AccessKind.READ, prior_repr=1, op_index=17,
            ),
            RaceReport(
                loc=0, task=5, kind=AccessKind.READ,
                prior_kind=AccessKind.WRITE, prior_repr=4, op_index=99,
            ),
        ]
        seq, decoded = wire.decode_races(wire.encode_races(reports, seq=9))
        assert seq == 9
        assert decoded == reports

    def test_races_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="corrupt RACES"):
            wire.decode_races(b"not json")
        with pytest.raises(ProtocolError, match="bad object shape"):
            wire.decode_races(b"{}")
        with pytest.raises(ProtocolError, match="not an object"):
            wire.decode_races(b"3")
        row = json.dumps({"seq": 0, "reports": [{"loc": 1}]}).encode()
        with pytest.raises(ProtocolError, match="corrupt RACES"):
            wire.decode_races(row)

    def test_races_refuses_v1_bare_list(self):
        # the v1 bare list, well-formed rows and all, is refused
        rows = json.dumps(
            [
                {
                    "loc": 3, "task": 2, "kind": "write",
                    "prior_kind": "read", "prior_repr": 1, "op_index": 17,
                }
            ]
        ).encode()
        with pytest.raises(ProtocolError, match="not an object"):
            wire.decode_races(rows)

    def test_resume_and_ack_codecs(self):
        assert wire.decode_resume(wire.encode_resume("sess-1.a_b")) == (
            "sess-1.a_b"
        )
        assert wire.decode_resume_reply(wire.encode_resume_reply(41)) == 41
        assert wire.decode_ack(wire.encode_ack(7)) == 7
        with pytest.raises(ProtocolError):
            wire.decode_resume_reply(b"xx")
        with pytest.raises(ProtocolError):
            wire.decode_ack(b"xx")

    def test_session_token_validation(self):
        assert wire.valid_session_token("a")
        assert wire.valid_session_token("A-b_c.9")
        assert not wire.valid_session_token("")
        assert not wire.valid_session_token(".hidden")
        assert not wire.valid_session_token("a/b")  # path separator
        assert not wire.valid_session_token("a" * 129)
        with pytest.raises(ProtocolError, match="bad session token"):
            wire.encode_resume("../escape")
        with pytest.raises(ProtocolError, match="bad session token"):
            wire.decode_resume(b"has space")
        with pytest.raises(ProtocolError, match="not ASCII"):
            wire.decode_resume(b"\xff\xfe")
