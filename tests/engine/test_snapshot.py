"""Checkpoint round-trips and corruption refusal for repro.engine.snapshot.

Two obligations, mirroring the module's contract:

* a restored engine is *state-identical* to the saved one
  (:func:`state_digest` compares equal) and continued ingestion lands
  exactly where an uninterrupted run does;
* a damaged checkpoint -- truncated anywhere, any single bit flipped,
  lying headers, wrong kind -- raises
  :class:`~repro.errors.CheckpointError` and is never silently loaded.
"""

from __future__ import annotations

import os
import random
import struct
import zlib

import pytest

from repro.engine import snapshot as snap
from repro.engine.benchlib import build_workload, capture
from repro.engine.faults import corrupt_flip, corrupt_truncate
from repro.engine.ingest import BatchEngine
from repro.errors import CheckpointError

pytestmark = pytest.mark.engine


@pytest.fixture(scope="module")
def workload():
    """~20k events of racy racegen traffic: ``(batch, interner)``."""
    _events, batch, interner = capture(build_workload(20_000))
    return batch, interner


@pytest.fixture(scope="module")
def small_blob():
    """A compact checkpoint blob for the exhaustive corruption sweeps."""
    _events, batch, interner = capture(build_workload(300))
    engine = BatchEngine(interner=interner)
    engine.ingest(batch)
    return snap.engine_to_blob(engine, meta={"purpose": "corruption"})


def _race_key(engine):
    return sorted(
        (r.task, r.loc, r.kind.value, r.prior_kind.value, r.op_index)
        for r in engine.detector.races
    )


class TestRoundTrip:
    def test_restored_engine_is_state_identical(self, workload, tmp_path):
        batch, interner = workload
        engine = BatchEngine(interner=interner)
        engine.ingest(batch)
        path = str(tmp_path / "full.ckpt")
        nbytes = snap.save_checkpoint(engine, path, meta={"stage": "done"})
        assert nbytes == os.path.getsize(path)
        restored, meta = snap.load_checkpoint(path)
        assert meta == {"stage": "done"}
        assert snap.state_digest(restored) == snap.state_digest(engine)
        assert len(restored.detector.races) == len(engine.detector.races) > 0

    def test_resumed_ingestion_matches_uninterrupted(self, workload, tmp_path):
        batch, _interner = workload
        pieces = list(batch.slices(4096))
        cut = len(pieces) // 2

        uninterrupted = BatchEngine()
        uninterrupted.ingest_all(pieces)

        engine = BatchEngine()
        engine.ingest_all(pieces[:cut])
        path = str(tmp_path / "mid.ckpt")
        snap.save_checkpoint(engine, path)
        restored, _meta = snap.load_checkpoint(path)
        restored.ingest_all(pieces[cut:])

        assert snap.state_digest(restored) == snap.state_digest(uninterrupted)
        assert _race_key(restored) == _race_key(uninterrupted)

    def test_empty_engine_round_trips(self, tmp_path):
        engine = BatchEngine()
        path = str(tmp_path / "empty.ckpt")
        snap.save_checkpoint(engine, path)
        restored, meta = snap.load_checkpoint(path)
        assert meta == {}
        assert snap.state_digest(restored) == snap.state_digest(engine)

    def test_blob_round_trip_without_files(self, workload):
        batch, interner = workload
        engine = BatchEngine(interner=interner)
        engine.ingest(batch)
        restored, meta = snap.engine_from_blob(
            snap.engine_to_blob(engine, meta={"k": 1})
        )
        assert meta == {"k": 1}
        assert snap.state_digest(restored) == snap.state_digest(engine)


class TestCorruptionRefusal:
    def test_every_truncation_length_rejected(self, small_blob):
        # A torn write can stop at any byte; no prefix may load.
        for keep in range(len(small_blob)):
            with pytest.raises(CheckpointError):
                snap.engine_from_blob(small_blob[:keep])

    def test_single_bit_flips_rejected(self, small_blob):
        # The whole header plus a seeded sample of the payload; the CRC
        # covers the header prefix, so even the reserved pad bytes and
        # the endian flag are protected.
        rng = random.Random(20150613)
        offsets = list(range(64)) + [
            rng.randrange(len(small_blob)) for _ in range(200)
        ]
        for off in offsets:
            for bit in (0, 7) if off >= 64 else range(8):
                damaged = bytearray(small_blob)
                damaged[off] ^= 1 << bit
                with pytest.raises(CheckpointError):
                    snap.engine_from_blob(bytes(damaged))

    def test_trailing_garbage_rejected(self, small_blob):
        with pytest.raises(CheckpointError, match="payload"):
            snap.engine_from_blob(small_blob + b"\x00")

    def _with_fixed_crc(self, blob: bytes, off: int, value: int) -> bytes:
        """Patch one header byte and recompute the CRC, so the precise
        validation (not the CRC catch-all) is what must refuse it."""
        damaged = bytearray(blob)
        damaged[off] = value
        crc = zlib.crc32(
            bytes(damaged[snap._HEADER.size:]),
            zlib.crc32(bytes(damaged[:snap._HEADER_PREFIX.size])),
        )
        struct.pack_into("<I", damaged, snap._HEADER_PREFIX.size, crc)
        return bytes(damaged)

    def test_bad_magic_rejected(self, small_blob):
        with pytest.raises(CheckpointError, match="magic"):
            snap.engine_from_blob(self._with_fixed_crc(small_blob, 0, 0x58))

    def test_unsupported_version_rejected(self, small_blob):
        with pytest.raises(CheckpointError, match="version"):
            snap.engine_from_blob(self._with_fixed_crc(small_blob, 12, 99))

    def test_bad_endian_flag_rejected(self, small_blob):
        with pytest.raises(CheckpointError, match="endianness"):
            snap.engine_from_blob(self._with_fixed_crc(small_blob, 8, 7))

    @pytest.mark.parametrize(
        "table", [["x", {"s": "x"}], [1, True], [{"t": [1]}, {"t": [1.0]}]]
    )
    def test_duplicate_interner_locations_rejected(self, small_blob, table):
        head, arrays = snap.unpack_state(small_blob)
        head["interner"] = table
        blob = snap.pack_state(head, list(arrays.items()))
        with pytest.raises(
            CheckpointError,
            match="duplicate locations in checkpoint interner table",
        ):
            snap.engine_from_blob(blob)

    def test_unhashable_interner_location_rejected(self, small_blob):
        head, arrays = snap.unpack_state(small_blob)
        head["interner"] = [[1]]
        blob = snap.pack_state(head, list(arrays.items()))
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            snap.engine_from_blob(blob)

    def test_wrong_kind_rejected(self):
        blob = snap.pack_state({"kind": "parent"}, [])
        with pytest.raises(CheckpointError, match="not an engine"):
            snap.engine_from_blob(blob)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            snap.load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_fault_helpers_force_refusal(self, workload, tmp_path):
        batch, _interner = workload
        engine = BatchEngine()
        engine.ingest(batch)
        path = str(tmp_path / "victim.ckpt")
        rng = random.Random(7)

        snap.save_checkpoint(engine, path)
        corrupt_truncate(path, rng)
        with pytest.raises(CheckpointError):
            snap.load_checkpoint(path)

        snap.save_checkpoint(engine, path)
        corrupt_flip(path, rng)
        with pytest.raises(CheckpointError):
            snap.load_checkpoint(path)
