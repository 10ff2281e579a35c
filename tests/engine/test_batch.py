"""Columnar batches: interning, capture, round-trips, slicing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import (
    OP_FORK,
    OP_READ,
    OP_WRITE,
    BatchBuilder,
    EventBatch,
    LocationInterner,
    batch_from_events,
    check_batch,
    events_from_batch,
)
from repro.errors import DetectorError, ProgramError
from repro.forkjoin.interpreter import run
from repro.workloads.racegen import bulk_access_program, conflicting_pair_program

pytestmark = pytest.mark.engine


class TestLocationInterner:
    def test_first_seen_order_and_inverse(self):
        table = LocationInterner()
        assert table.intern("x") == 0
        assert table.intern(("a", 1)) == 1
        assert table.intern("x") == 0  # stable on re-intern
        assert len(table) == 2
        assert table.location(1) == ("a", 1)
        assert table.locations() == ["x", ("a", 1)]
        assert "x" in table and "y" not in table

    def test_unknown_id_raises(self):
        table = LocationInterner()
        with pytest.raises(KeyError):
            table.location(0)


class TestEventBatch:
    def test_mismatched_columns_rejected(self):
        from array import array

        with pytest.raises(ProgramError):
            EventBatch(array("B", [OP_READ]), array("i"), array("i"))

    def test_slices_cover_everything_in_order(self):
        batch = EventBatch()
        for i in range(10):
            batch.append(OP_READ, i, i)
        parts = list(batch.slices(4))
        assert [len(p) for p in parts] == [4, 4, 2]
        assert [a for p in parts for a in p.a] == list(range(10))

    def test_slices_reject_nonpositive_size(self):
        with pytest.raises(ProgramError):
            list(EventBatch().slices(0))

    def test_counts_and_access_count(self):
        batch = EventBatch()
        batch.append(OP_FORK, 0, 1)
        batch.append(OP_WRITE, 1, 0)
        batch.append(OP_READ, 0, 0)
        assert batch.counts()["fork"] == 1
        assert batch.counts()["write"] == 1
        assert batch.access_count() == 2
        assert "unknown" not in batch.counts()
        # Unknown opcodes count as neither accesses nor known names.
        for op in (6, 99, 255):
            batch.append(op, 0, 0)
        batch.append(OP_WRITE, 0, 1)
        counts = batch.counts()
        assert counts["unknown"] == 3
        assert counts["write"] == 2 and counts["read"] == 1
        assert sum(counts.values()) == len(batch)
        assert batch.access_count() == 3
        assert EventBatch().access_count() == 0

    def test_counts_reports_unknown_opcodes_without_crashing(self):
        """A corrupt batch must still be *describable*: the diagnostic
        tallies out-of-range opcodes under a typed key instead of
        raising IndexError (rejection is the ingest paths' job)."""
        batch = EventBatch()
        batch.append(OP_READ, 0, 0)
        batch.append(99, 0, 0)
        batch.append(250, 0, 0)
        counts = batch.counts()
        assert counts["read"] == 1
        assert counts["unknown"] == 2
        assert sum(counts.values()) == len(batch)
        assert batch.access_count() == 1  # unknown rows are not accesses


class TestCaptureAndRoundTrip:
    def test_builder_captures_a_run(self):
        builder = BatchBuilder()
        run(conflicting_pair_program("x"), observers=[builder])
        batch = builder.batch
        # fork, child's write+halt, root's write, join
        assert batch.access_count() == 2
        assert builder.interner.locations() == ["x"]

    def test_events_round_trip_through_columns(self):
        ex = run(bulk_access_program(2, 2, 6), record_events=True)
        assert ex.events is not None
        batch, interner = batch_from_events(ex.events)
        back = events_from_batch(batch, interner)
        # Labels are dropped by design; everything else survives.
        from dataclasses import replace

        assert back == [replace(ev, label="") for ev in ex.events]

    def test_builder_matches_batch_from_events(self):
        body = bulk_access_program(2, 3, 5, racy_rounds=(1,))
        builder = BatchBuilder()
        ex = run(body, observers=[builder], record_events=True)
        assert ex.events is not None
        batch, interner = batch_from_events(ex.events)
        assert list(builder.batch.ops) == list(batch.ops)
        assert list(builder.batch.a) == list(batch.a)
        assert list(builder.batch.b) == list(batch.b)
        assert builder.interner.locations() == interner.locations()


def _check_by_loop(rows, limit):
    """The per-row reference for ``check_batch``: ``(error, row)`` of the
    first bad row, else ``(None, width)``."""
    width = 0
    for i, (op, _a, b) in enumerate(rows):
        if op > OP_WRITE:
            return ProgramError, i
        if op >= OP_READ:
            if not 0 <= b < limit:
                return DetectorError, i
            width = max(width, b + 1)
    return None, width


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 9), st.integers(-2, 5),
            st.integers(-(1 << 31), (1 << 31) - 1) | st.integers(-3, 12),
        ),
        max_size=300,
    ),
    limit=st.integers(1, 10),
)
def test_check_batch_matches_the_row_loop(rows, limit):
    batch = EventBatch()
    for row in rows:
        batch.append(*row)
    error, value = _check_by_loop(rows, limit)
    if error is None:
        assert check_batch(batch, limit) == value
    else:
        with pytest.raises(error, match=f"at batch row {value}[ ;]"):
            check_batch(batch, limit)
