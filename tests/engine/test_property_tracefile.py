"""Property-based round-trips and corruption rejection for RPR2TRC.

`write_trace`/`read_trace` must be bit-exact inverses on *any* batch --
including the empty one and the cross-endian payload path -- and
`read_trace` must answer every corrupted input with
:class:`~repro.errors.ProgramError`, never an allocation blow-up or a
raw codec exception.  The strict-prefix property doubles as the
regression test for the header bound-check: ``n_events``/``table_len``
are validated against the real file size before sizing any read.
"""

from __future__ import annotations

import io
import struct
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import BatchBuilder, EventBatch, LocationInterner
from repro.engine.ingest import BatchEngine
from repro.engine.tracefile import (
    _HEADER,
    MAGIC,
    VERSION,
    read_trace,
    write_trace,
)
from repro.errors import ProgramError, TraceError
from repro.forkjoin import fork, join, write
from repro.forkjoin.interpreter import run

pytestmark = pytest.mark.engine

_I32 = st.integers(-(2**31), 2**31 - 1)

#: location shapes the tagged JSON codec round-trips exactly
_LOCATIONS = st.one_of(
    st.integers(-(2**40), 2**40),
    st.text(max_size=8),
    st.tuples(st.text(max_size=4), st.integers(0, 100)),
    st.booleans(),
    st.none(),
)


@st.composite
def batches(draw):
    n = draw(st.integers(0, 40))
    ops = array("B", draw(st.lists(st.integers(0, 255),
                                   min_size=n, max_size=n)))
    av = array("i", draw(st.lists(_I32, min_size=n, max_size=n)))
    bv = array("i", draw(st.lists(_I32, min_size=n, max_size=n)))
    interner = LocationInterner()
    for loc in draw(st.lists(_LOCATIONS, max_size=6, unique=True)):
        interner.intern(loc)
    return EventBatch(ops, av, bv), interner


def _dump(batch, interner) -> bytes:
    buf = io.BytesIO()
    write_trace(buf, batch, interner)
    return buf.getvalue()


def _assert_identical(batch, interner, back, back_interner) -> None:
    assert back.ops.tobytes() == batch.ops.tobytes()
    assert back.a.tobytes() == batch.a.tobytes()
    assert back.b.tobytes() == batch.b.tobytes()
    assert back_interner.locations() == interner.locations()


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(case=batches())
    def test_bit_exact(self, case):
        batch, interner = case
        data = _dump(batch, interner)
        back, back_interner = read_trace(io.BytesIO(data))
        _assert_identical(batch, interner, back, back_interner)

    @settings(max_examples=40, deadline=None)
    @given(case=batches())
    def test_byteswapped_payload_reads_identically(self, case):
        """The endian flag is honoured: a trace whose array columns were
        written on the other byte order round-trips through byteswap."""
        batch, interner = case
        data = _dump(batch, interner)
        n = len(batch)
        table_len = len(data) - _HEADER.size - n * (1 + 4 + 4)
        swapped_a = array("i", batch.a)
        swapped_b = array("i", batch.b)
        swapped_a.byteswap()
        swapped_b.byteswap()
        foreign = (
            data[:8]
            + bytes([1 - data[8]])  # claim the opposite byte order
            + data[9 : _HEADER.size + table_len + n]  # header tail+table+ops
            + swapped_a.tobytes()
            + swapped_b.tobytes()
        )
        back, back_interner = read_trace(io.BytesIO(foreign))
        _assert_identical(batch, interner, back, back_interner)

    def test_empty_batch(self):
        batch = EventBatch(array("B"), array("i"), array("i"))
        data = _dump(batch, LocationInterner())
        back, back_interner = read_trace(io.BytesIO(data))
        assert len(back) == 0
        assert len(back_interner) == 0


#: one healthy little trace to corrupt, built once
def _healthy() -> bytes:
    interner = LocationInterner()
    for loc in ("x", ("y", 3), 7):
        interner.intern(loc)
    batch = EventBatch(
        array("B", [1, 2, 1]), array("i", [0, 0, 1]), array("i", [0, 1, 2])
    )
    return _dump(batch, interner)


class TestCorruptionRejection:
    @pytest.mark.parametrize(
        "mutate, why",
        [
            (lambda d: b"XXXXXXXX" + d[8:], "bad magic"),
            (
                lambda d: d[:12] + struct.pack("<I", VERSION + 9) + d[16:],
                "bad version",
            ),
            (lambda d: d[:8] + b"\x07" + d[9:], "bad endian flag"),
            (
                lambda d: d[:16] + struct.pack("<Q", 2**48) + d[24:],
                "n_events lies high",
            ),
            (
                lambda d: d[:24] + struct.pack("<Q", 2**48) + d[32:],
                "table_len lies high",
            ),
            (
                lambda d: d[:16] + struct.pack("<Q", 10**6) + d[24:],
                "n_events larger than payload",
            ),
            (lambda d: d[: _HEADER.size - 4], "truncated header"),
            (lambda d: d[: _HEADER.size + 2], "truncated table"),
            (lambda d: d[:-1], "truncated payload"),
            (
                lambda d: d[: _HEADER.size]
                + b"}" * (len(d) - _HEADER.size),
                "table is not JSON",
            ),
            (
                lambda d: d[:24]
                + struct.pack("<Q", 2)
                + d[32 : 32 + 2]
                + d[32:],
                "table truncated to non-JSON prefix",
            ),
        ],
    )
    def test_rejected_with_program_error(self, mutate, why):
        blob = mutate(_healthy())
        with pytest.raises(ProgramError):
            read_trace(io.BytesIO(blob))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_every_strict_prefix_is_rejected(self, data):
        """Truncation anywhere -- header, table or payload -- raises
        ProgramError (and never allocates from a lying header)."""
        blob = _healthy()
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(ProgramError):
            read_trace(io.BytesIO(blob[:cut]))

    def test_table_not_a_list_rejected(self):
        blob = _healthy()
        payload = b'{"a":1}'
        bad = (
            _HEADER.pack(MAGIC, blob[8], VERSION, 0, len(payload)) + payload
        )
        with pytest.raises(ProgramError, match="not a list"):
            read_trace(io.BytesIO(bad))

    def test_lying_n_events_fails_before_allocating(self):
        """Regression: a header claiming 2**48 events must be rejected
        by the size check, not handed to read()/frombytes."""
        blob = _healthy()
        lying = blob[:16] + struct.pack("<Q", 2**48) + blob[24:]
        with pytest.raises(ProgramError, match="claims"):
            read_trace(io.BytesIO(lying))


def _with_table(table: bytes) -> bytes:
    """An event-free RPR2TRC trace carrying ``table`` verbatim."""
    return _HEADER.pack(MAGIC, 0, VERSION, 0, len(table)) + table


#: malformed tables: each is a TraceError naming the location table,
#: including an object nested as the value of "t" or "s", which the
#: codec never writes
MALFORMED_ENTRIES = [
    b"[[1]]",
    b'[{"t":5}]',
    b'[{"t":[[1]]}]',
    b'[{"x":1}]',
    b"[{}]",
    b'[{"s":[1,2]}]',
    b'[{"s":{"s":"a"}}]',
    b'[{"s":{"t":[1]}}]',
    b'[{"t":[{"s":{"s":"a"}}]}]',
    b'[{"t":{"t":[1]}}]',
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deeply-nested"),
]

#: tables whose entries decode to equal locations
DUPLICATE_TABLES = [
    b"[1,true]",
    b"[1,1.0]",
    b'["a","\\u0061"]',
    b'["a",{"s":"a"}]',
    b'[{"t":[1,"x"]},{"t":[true,"x"]}]',
]


class TestTableRules:
    """The exact shape and duplicate rules of the location table."""

    @pytest.mark.parametrize("table", MALFORMED_ENTRIES)
    def test_malformed_entry_is_a_trace_error(self, table):
        with pytest.raises(TraceError, match="location table"):
            read_trace(io.BytesIO(_with_table(table)))

    @pytest.mark.parametrize("table", DUPLICATE_TABLES)
    def test_equal_decoded_locations_are_duplicates(self, table):
        with pytest.raises(TraceError, match="duplicate locations"):
            read_trace(io.BytesIO(_with_table(table)))

    @pytest.mark.parametrize(
        "table", [b'{"s":[1,2]}', b'{"t":[1]}', b'"x"', b"7", b"  {}"]
    )
    def test_top_level_must_be_a_list(self, table):
        with pytest.raises(TraceError, match="not a list"):
            read_trace(io.BytesIO(_with_table(table)))

    @pytest.mark.parametrize(
        "table, locations",
        [
            (b" [1]", [1]),
            (
                b'[{"t":[]},{"t":[{"t":["a",{"s":"b"}]}]}]',
                [(), (("a", "b"),)],
            ),
            (
                b'[{"s":"obj"},{"t":"ab"},{"s":"c","x":1}]',
                ["obj", ("a", "b"), "c"],
            ),
            (
                b'[2,1.5,-0.0,true,null,"\\u00e9"]',
                [2, 1.5, -0.0, True, None, "\u00e9"],
            ),
        ],
    )
    def test_accepted_tables_decode_exactly(self, table, locations):
        _, interner = read_trace(io.BytesIO(_with_table(table)))
        assert _typed(interner.locations()) == _typed(locations)


class _Opaque:
    """A location the JSON codec cannot represent: stored as str()."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __str__(self) -> str:
        return f"<opaque {self.text}>"


def _stored(loc):
    """What the tagged codec brings back for ``loc``."""
    if isinstance(loc, tuple):
        return tuple(_stored(x) for x in loc)
    if isinstance(loc, _Opaque):
        return str(loc)
    return loc


def _typed(value):
    """``value`` with every type spelled out, so ``True != 1``."""
    if isinstance(value, (list, tuple)):
        return (type(value), [_typed(x) for x in value])
    return (type(value), value)


_LEAVES = st.one_of(
    st.text(alphabet=st.characters(codec="utf-8"), max_size=6),
    st.sampled_from(['"', "\\", "\n", "\u2028", "é", "\x00", "{\"t\":[1]}"]),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.builds(_Opaque, st.text(max_size=4)),
)
_NESTED = st.recursive(
    _LEAVES, lambda inner: st.tuples(inner, inner) | st.tuples(inner),
    max_leaves=6,
)


def _racy_capture(locations):
    """Parent and child both write every location, so each one races."""

    def child(self):
        for loc in locations:
            yield write(loc)

    def main(self):
        handle = yield fork(child)
        for loc in locations:
            yield write(loc)
        yield join(handle)

    builder = BatchBuilder()
    run(main, observers=[builder])
    return builder.batch, builder.interner


def _reports(reports):
    """Race reports as typed, order-free rows."""
    return sorted(
        repr(_typed((r.loc, r.task, r.kind.value, r.prior_kind.value,
                     r.prior_repr, r.op_index)))
        for r in reports
    )


class TestLabelFidelity:
    @settings(max_examples=60, deadline=None)
    @given(
        locations=st.lists(_NESTED, min_size=1, max_size=8, unique_by=_stored)
    )
    def test_labels_round_trip_with_their_types(self, locations):
        batch, interner = _racy_capture(locations)
        expected = [_stored(loc) for loc in interner.locations()]
        in_memory = BatchEngine(interner=interner)
        in_memory.ingest(batch)
        want = _reports(
            replace(r, loc=_stored(r.loc)) for r in in_memory.races()
        )

        back, back_interner = read_trace(io.BytesIO(_dump(batch, interner)))
        assert _typed(back_interner.locations()) == _typed(expected)
        replayed = BatchEngine(interner=back_interner)
        replayed.ingest(back)
        assert _reports(replayed.races()) == want
