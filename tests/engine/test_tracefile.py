"""The compact binary trace format: round-trips and rejection."""

from __future__ import annotations

import pytest

from repro.engine.batch import BatchBuilder
from repro.engine.tracefile import (
    MAGIC,
    is_tracefile,
    read_trace,
    record_trace,
    write_trace,
)
from repro.errors import ProgramError, TraceError
from repro.forkjoin.interpreter import run
from repro.workloads.racegen import bulk_access_program

pytestmark = pytest.mark.engine

BODY = bulk_access_program(2, 3, 7, racy_rounds=(1,))


def capture(body):
    builder = BatchBuilder()
    run(body, observers=[builder])
    return builder.batch, builder.interner


class TestRoundTrip:
    def test_batch_survives_write_read(self, tmp_path):
        batch, interner = capture(BODY)
        # a path given as str and as os.PathLike
        for path in (str(tmp_path / "t.rtrc"), tmp_path / "p.rtrc"):
            assert write_trace(path, batch, interner) == len(batch)
            back, back_interner = read_trace(path)
            assert list(back.ops) == list(batch.ops)
            assert list(back.a) == list(batch.a)
            assert list(back.b) == list(batch.b)
            assert back_interner.locations() == interner.locations()

    def test_record_trace_one_call(self, tmp_path):
        path = str(tmp_path / "t.rtrc")
        count = record_trace(BODY, path=path)
        batch, interner = read_trace(path)
        assert len(batch) == count > 0
        # Tuple locations survive the tagged JSON codec.
        assert ("racy", 1) in interner.locations()

    def test_replay_of_trace_detects_the_seeded_race(self, tmp_path):
        from repro.engine.ingest import BatchEngine

        path = str(tmp_path / "t.rtrc")
        record_trace(BODY, path=path)
        batch, interner = read_trace(path)
        engine = BatchEngine(interner=interner)
        engine.ingest(batch)
        assert [r.loc for r in engine.races()] == [("racy", 1)]


class TestSniffAndErrors:
    def test_is_tracefile(self, tmp_path):
        good = tmp_path / "good.rtrc"
        record_trace(BODY, path=str(good))
        assert is_tracefile(str(good))
        assert is_tracefile(good)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a trace")
        assert not is_tracefile(str(bad))
        assert not is_tracefile(str(tmp_path / "absent"))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rtrc"
        path.write_bytes(b"X" * 64)
        with pytest.raises(ProgramError, match="magic"):
            read_trace(str(path))
        # the retired compressed container is refused by name
        path.write_bytes(b"RPR2TRZ\x01" + bytes(56))
        with pytest.raises(TraceError, match="retired format"):
            read_trace(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.rtrc"
        path.write_bytes(MAGIC)
        with pytest.raises(ProgramError, match="truncated"):
            read_trace(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        batch, interner = capture(BODY)
        path = tmp_path / "cut.rtrc"
        write_trace(str(path), batch, interner)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 8])
        with pytest.raises(ProgramError, match="truncated"):
            read_trace(str(path))
