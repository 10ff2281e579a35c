"""Property-based equivalence and corruption sweep for the compressed
trace subsystem.

Three guarantees, each over arbitrary inputs:

* ``compress``/``decompress`` are bit-exact inverses on any columnar
  batch at any block width, and the RPR2TRZ container round-trips the
  compressed form (plus interner) identically;
* detection over the compressed form -- the memoized kernel under
  serial lattice2d and the sharded engine -- reports exactly
  the race multiset of ingesting the raw batch;
* every corrupted RPR2TRZ container (any strict prefix, any single
  flipped bit, any lying header field) answers with a typed
  :class:`~repro.errors.TraceError` before allocating.
"""

from __future__ import annotations

import io
import struct
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import CompressedTrace, compress, read_tracez, write_tracez
from repro.compress import container
from repro.compress.container import _ZHEADER, ZVERSION
from repro.engine.batch import BatchBuilder, EventBatch, LocationInterner
from repro.engine.ingest import BatchEngine, ShardedBatchEngine
from repro.errors import TraceError
from repro.forkjoin.interpreter import run
from repro.obs.registry import MetricsRegistry
from tests.engine.test_property_differential import (
    _cilk_program,
    spawn_sync_cases,
)
from tests.engine.test_property_tracefile import (
    DUPLICATE_TABLES,
    MALFORMED_ENTRIES,
)

pytestmark = pytest.mark.engine

BLOCK_WIDTHS = (3, 8, 64, 256)

_I32 = st.integers(-(2**31), 2**31 - 1)


@st.composite
def raw_batches(draw):
    """Arbitrary column triples -- compression is pure data movement,
    so it must round-trip even invalid opcode streams."""
    n = draw(st.integers(0, 60))
    ops = array(
        "B", draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
    )
    av = array("i", draw(st.lists(_I32, min_size=n, max_size=n)))
    bv = array("i", draw(st.lists(_I32, min_size=n, max_size=n)))
    return EventBatch(ops, av, bv)


def _capture(case) -> EventBatch:
    tree, plan = case
    builder = BatchBuilder()
    run(_cilk_program(tree, plan), observers=[builder])
    return builder.batch


def _multiset(reports) -> Counter:
    return Counter((r.task, r.loc, r.kind, r.prior_kind) for r in reports)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(batch=raw_batches(), width=st.sampled_from(BLOCK_WIDTHS))
    def test_compress_decompress_bit_exact(self, batch, width):
        ctrace = compress(batch, width, registry=MetricsRegistry())
        assert len(ctrace) == len(batch)
        back = ctrace.decompress()
        assert back.ops.tobytes() == batch.ops.tobytes()
        assert back.a.tobytes() == batch.a.tobytes()
        assert back.b.tobytes() == batch.b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(batch=raw_batches(), width=st.sampled_from(BLOCK_WIDTHS))
    def test_container_round_trips_compressed_form(self, batch, width):
        """RPR2TRZ preserves the *compressed* structure -- same blocks,
        same rules, same expansion -- not merely the expansion."""
        ctrace = compress(batch, width, registry=MetricsRegistry())
        interner = LocationInterner()
        for loc in ("x", ("y", 3), 7):
            interner.intern(loc)
        buf = io.BytesIO()
        write_tracez(buf, ctrace, interner)
        buf.seek(0)
        back, back_interner = read_tracez(buf)
        assert back.block_width == ctrace.block_width
        assert back.rules == ctrace.rules
        assert len(back.blocks) == len(ctrace.blocks)
        for mine, theirs in zip(ctrace.blocks, back.blocks):
            assert theirs.ops.tobytes() == mine.ops.tobytes()
            assert theirs.a.tobytes() == mine.a.tobytes()
            assert theirs.b.tobytes() == mine.b.tobytes()
        assert back_interner.locations() == interner.locations()
        out = back.decompress()
        assert out.ops.tobytes() == batch.ops.tobytes()


class TestDetectionEquivalence:
    """compress -> detect must equal detect-raw on every program, every
    engine flavour, every block width (including widths that straddle
    fork/join boundaries and force the scalar fallback)."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=spawn_sync_cases(max_leaves=8),
        width=st.sampled_from(BLOCK_WIDTHS),
    )
    def test_serial_lattice2d(self, case, width):
        batch = _capture(case)
        ref = BatchEngine(registry=MetricsRegistry())
        ref.ingest(batch)

        alt = BatchEngine(registry=MetricsRegistry())
        alt.ingest_compressed(compress(batch, width))
        assert _multiset(alt.races()) == _multiset(ref.races())

    @settings(max_examples=15, deadline=None)
    @given(
        case=spawn_sync_cases(max_leaves=8),
        shards=st.sampled_from((2, 3)),
    )
    def test_sharded_engine(self, case, shards):
        batch = _capture(case)
        ref = BatchEngine(registry=MetricsRegistry())
        ref.ingest(batch)

        alt = ShardedBatchEngine(shards, registry=MetricsRegistry())
        alt.ingest_compressed(compress(batch, 8))
        assert _multiset(alt.races()) == _multiset(ref.races())

    @settings(max_examples=20, deadline=None)
    @given(case=spawn_sync_cases(max_leaves=8))
    def test_split_containers_equal_one(self, case):
        """Compressing the stream as several successive containers
        (the serve CBATCH arrival pattern) matches one-shot raw ingest:
        memo state and detector state carry across calls."""
        batch = _capture(case)
        ref = BatchEngine(registry=MetricsRegistry())
        ref.ingest(batch)

        alt = BatchEngine(registry=MetricsRegistry())
        for piece in batch.slices(max(1, len(batch) // 3)):
            alt.ingest_compressed(compress(piece, 8))
        assert _multiset(alt.races()) == _multiset(ref.races())


# -- corruption -------------------------------------------------------------


def _relied(blob: bytes, offset: int, fmt: str, value: int) -> bytes:
    """Patch one header field and *re-CRC the header*, producing a
    container whose header lies but passes the corruption check --
    exactly what a hostile writer would ship."""
    import zlib

    head = bytearray(blob[: _ZHEADER.size])
    struct.pack_into(fmt, head, offset, value)
    crc = struct.pack("<I", zlib.crc32(bytes(head)) & 0xFFFFFFFF)
    return bytes(head) + crc + blob[_ZHEADER.size + 4:]


def _healthy() -> bytes:
    """One small healthy RPR2TRZ container with real dedup (repeated
    blocks), built once per process."""
    builder = BatchBuilder()
    batch = builder.batch
    for _ in range(6):
        for loc_id in range(4):
            batch.append(5, 0, loc_id)  # OP_WRITE rows, period 4
    interner = LocationInterner()
    for loc in ("x", ("y", 3), 7):
        interner.intern(loc)
    ctrace = compress(batch, 4, registry=MetricsRegistry())
    assert len(ctrace.blocks) == 1 and ctrace.rules == [(0, 6)]
    buf = io.BytesIO()
    write_tracez(buf, ctrace, interner)
    return buf.getvalue()


class TestCorruptionRejection:
    def test_every_strict_prefix_is_rejected(self):
        """Exhaustive: truncation at *every* byte boundary -- header,
        table, lengths, payload, rules, any CRC -- raises TraceError."""
        blob = _healthy()
        for cut in range(len(blob)):
            with pytest.raises(TraceError):
                read_tracez(io.BytesIO(blob[:cut]))

    def test_every_single_bit_flip_is_rejected(self):
        """Exhaustive: one flipped bit per byte position anywhere in
        the container is caught (CRC per section, magic/version/bound
        checks on the header) -- never silently decoded."""
        blob = _healthy()
        for pos in range(len(blob)):
            bad = bytearray(blob)
            bad[pos] ^= 0x01
            with pytest.raises(TraceError):
                read_tracez(io.BytesIO(bytes(bad)))

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: b"XXXXXXXX" + d[8:], "not a compressed"),
            (
                lambda d: _relied(d, 12, "<I", ZVERSION + 9),
                "unsupported compressed trace version",
            ),
            (lambda d: _relied(d, 8, "<B", 7), "bad endianness flag"),
            (
                lambda d: _relied(d, 16, "<I", 2**24),
                "implausible compressed trace block width",
            ),
            (lambda d: _relied(d, 28, "<Q", 2**48), "lying"),
            (lambda d: _relied(d, 36, "<Q", 2**48), "lying"),
            (lambda d: _relied(d, 44, "<Q", 2**48), "lying"),
            (
                lambda d: _relied(d, 20, "<Q", 2**48),
                "expand to",
            ),
            (lambda d: d[: _ZHEADER.size - 4], "truncated"),
            (lambda d: d[:-1], "truncated|CRC"),
        ],
    )
    def test_lying_headers_rejected(self, mutate, match):
        """Headers whose length fields lie (re-CRC'd so the corruption
        layer cannot save us) are refused by the bound checks before
        any header-sized allocation."""
        blob = mutate(_healthy())
        with pytest.raises(TraceError, match=match):
            read_tracez(io.BytesIO(blob))

    def test_bad_rule_reference_rejected(self):
        """A structurally valid container whose rules reference a
        missing block is refused at validation, not at expansion."""
        batch = EventBatch(
            array("B", [5] * 4), array("i", [0] * 4), array("i", [1] * 4)
        )
        ctrace = compress(batch, 4, registry=MetricsRegistry())
        ctrace.rules[:] = [(3, 1)]  # block 3 does not exist
        buf = io.BytesIO()
        interner = LocationInterner()
        write_tracez(buf, ctrace, interner)
        buf.seek(0)
        with pytest.raises(TraceError):
            read_tracez(buf)


class TestLocationTable:
    """RPR2TRZ shares the RPR2TRC table decoder: a CRC-clean container
    whose table is malformed gets the same typed errors."""

    @staticmethod
    def _container(monkeypatch, table: bytes) -> bytes:
        monkeypatch.setattr(container, "_encode_table", lambda _: table)
        batch = EventBatch(
            array("B", [5] * 4), array("i", [0] * 4), array("i", [0] * 4)
        )
        buf = io.BytesIO()
        write_tracez(
            buf, compress(batch, 4, registry=MetricsRegistry()),
            LocationInterner(),
        )
        return buf.getvalue()

    @pytest.mark.parametrize("table", MALFORMED_ENTRIES)
    def test_malformed_entry_is_a_trace_error(self, monkeypatch, table):
        blob = self._container(monkeypatch, table)
        with pytest.raises(TraceError, match="location table"):
            read_tracez(io.BytesIO(blob))

    @pytest.mark.parametrize("table", DUPLICATE_TABLES)
    def test_equal_decoded_locations_are_duplicates(self, monkeypatch, table):
        blob = self._container(monkeypatch, table)
        with pytest.raises(TraceError, match="duplicate locations"):
            read_tracez(io.BytesIO(blob))

    @pytest.mark.parametrize("table", [b'{"s":[1,2]}', b'{"t":[1]}'])
    def test_top_level_must_be_a_list(self, monkeypatch, table):
        blob = self._container(monkeypatch, table)
        with pytest.raises(TraceError, match="not a list"):
            read_tracez(io.BytesIO(blob))
