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

import hashlib
import os
import random
import struct
import sys
import zlib
from array import array

import pytest

from repro.core.detector import RaceDetector2D
from repro.core.shadow import EPOCH_DIRTY
from repro.engine import snapshot as snap
from repro.engine.batch import OP_READ
from repro.engine.benchlib import build_workload, capture
from repro.engine.faults import corrupt_flip, corrupt_truncate
from repro.engine.ingest import BatchEngine
from repro.errors import CheckpointError
from repro.workloads.access_patterns import uniform_shared
from repro.workloads.racegen import bulk_access_program
from repro.workloads.synthetic import SyntheticConfig, random_program
from tests.detectors.test_shb import drive, make_batch
from tests.engine.test_conformance import capture as capture_trace

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


    def test_cells_in_first_touch_order_load_like_ascending(self, workload):
        """Earlier writers listed the cell sections in first-touch order,
        not ascending id order: such a v1 blob loads into the same
        state as the ascending one."""
        batch, interner = workload
        engine = BatchEngine(interner=interner)
        engine.ingest(batch)
        blob = snap.engine_to_blob(engine)
        head, arrays = snap.unpack_state(blob)
        assert list(arrays["cell_lid"]) == sorted(arrays["cell_lid"])
        order = list(range(len(arrays["cell_lid"])))
        random.Random(3).shuffle(order)
        epochs = list(range(len(arrays["epoch_key"])))[::-1]
        assert epochs
        permuted = dict(arrays)
        for names, perm in (
            (("cell_lid", "cell_r", "cell_w"), order),
            (("epoch_key", "epoch_val"), epochs),
        ):
            for name in names:
                col = arrays[name]
                permuted[name] = array(col.typecode, [col[i] for i in perm])
        old = snap.pack_state(head, [(n, permuted[n]) for n in arrays])
        _head, old_arrays = snap.unpack_state(old)
        assert list(old_arrays["cell_lid"]) != sorted(old_arrays["cell_lid"])
        restored, _meta = snap.engine_from_blob(old)
        assert snap.state_digest(restored) == snap.state_digest(engine)
        assert snap.engine_to_blob(restored) == blob


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

    @pytest.mark.parametrize("call", ["engine_to_blob", "state_digest"])
    def test_predict_engine_refused(self, call):
        """The predict detector subclasses RaceDetector2D but has no
        section in the format: both entry points refuse it by name."""
        engine = BatchEngine(predict=True)
        with pytest.raises(
            CheckpointError,
            match="only RaceDetector2D state can be checkpointed, got "
            "PredictDetector2D",
        ):
            getattr(snap, call)(engine)

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

    @pytest.mark.parametrize("fault", ["duplicate id", "negative id", "stray epoch"])
    def test_bad_cell_ids_rejected(self, small_blob, fault):
        head, arrays = snap.unpack_state(small_blob)
        lids = arrays["cell_lid"]
        if fault == "duplicate id":
            lids[1] = lids[0]
        elif fault == "negative id":
            lids[0] = -1
        else:
            arrays["epoch_key"][0] = max(lids) + 1
        blob = snap.pack_state(head, list(arrays.items()))
        with pytest.raises(CheckpointError, match="checkpoint"):
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


#: sha256 of ``engine_to_blob(engine, meta={"seq": 7})`` for each fixed
#: stream, taken with the dict-of-cells layout that preceded the shadow
#: columns: ``(program, batch size, epoch_cache) -> digest``
PINNED_BLOBS = {
    "bulk-racy": (
        lambda: bulk_access_program(3, 3, 30, racy_rounds=(1,)), 64, True,
        "33ed85b433eae202e66a91368b498a97e4091ba3b0f7d61d6494523dc9dd8f2b",
    ),
    "bulk-no-epoch-cache": (
        lambda: bulk_access_program(
            4, 4, 25, racy_rounds=(0, 2), n_shared=3
        ),
        7, False,
        "c4733cfd71942d81c931d39430878be3918c175672e080e5125156b9f7e2c036",
    ),
    "lattice-155-races": (
        lambda: random_program(SyntheticConfig(
            seed=5, max_tasks=30, ops_per_task=8, leftover_probability=0.3,
            write_ratio=0.5, pattern=uniform_shared(6),
        )),
        64, True,
        "ac902aabc77ce7c468ca8123d7af6be29adf0aaa3e75316cf10d641a6ea1d19a",
    ),
}


def _mixed_feed(engine, rows, chunk, start=0):
    """Alternate ``chunk``-row pieces of ``rows[start:]`` between the
    batch kernel (even pieces) and the detector's per-event methods."""
    for i in range(start, len(rows), chunk):
        piece = rows[i:i + chunk]
        if i // chunk % 2:
            drive(engine.detector, piece)
        else:
            engine.ingest(make_batch(piece))


class TestPinnedFormat:
    @pytest.mark.skipif(
        sys.byteorder != "little", reason="digests of little-endian blobs"
    )
    @pytest.mark.parametrize("name", sorted(PINNED_BLOBS))
    def test_blob_bytes_are_pinned(self, name):
        """The shadow columns serialise to the very bytes the earlier
        layouts wrote.  (Cells and epoch pairs are listed in ascending
        id order; these streams intern and revisit their locations in
        first-touch order, which is the order the earlier layouts
        listed them in.)"""
        body, size, epoch_cache, digest = PINNED_BLOBS[name]
        batch, interner = capture_trace(body())
        det = RaceDetector2D(epoch_cache=epoch_cache)
        det.spawn_root()
        engine = BatchEngine(det, interner=interner)
        engine.ingest_all(batch.slices(size))
        blob = snap.engine_to_blob(engine, meta={"seq": 7})
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_hashable_locations_round_trip(self):
        """A per-event detector shadowing non-int locations takes the
        JSON cell codec; its columns, dirty epochs included, survive."""
        det = RaceDetector2D()
        root = det.spawn_root()
        child = det.on_fork(root)
        det.on_write(child, "x")
        det.on_halt(child)
        engine = BatchEngine(det)
        det.on_read(root, ("row", 1))
        det.on_write(root, "x")  # races with the child's write
        engine.ingest(make_batch([(OP_READ, root, 7), (OP_READ, root, 7)]))
        det.shadow.E[det.shadow.locations.intern("x")] = EPOCH_DIRTY
        restored, _meta = snap.engine_from_blob(snap.engine_to_blob(engine))
        assert snap.state_digest(restored) == snap.state_digest(engine)
        assert dict(restored.detector.shadow.items()) == {
            "x": (None, child), ("row", 1): (root, None), 7: (root, None),
        }

    @pytest.mark.parametrize("pieces", [1, 5, 13])
    def test_mixed_drive_resumes_to_the_uncheckpointed_digest(self, pieces):
        """A detector driven alternately by the batch kernel and the
        per-event methods, checkpointed mid-stream, resumes to the
        digest of the same drive with no checkpoint, and its reports
        are the per-event detector's: the per-event accesses keep the
        kernel's epoch column coherent across the restore."""
        batch, _ = capture_trace(
            bulk_access_program(4, 3, 40, racy_rounds=(1, 3), n_shared=4)
        )
        rows = list(zip(batch.ops, batch.a, batch.b))
        chunk = 37
        split = pieces * chunk  # an odd count: the kernel fed the last

        uninterrupted = BatchEngine()
        _mixed_feed(uninterrupted, rows, chunk)

        engine = BatchEngine()
        _mixed_feed(engine, rows[:split], chunk)
        assert any(e != -1 for e in engine.detector.shadow.E)
        blob = snap.engine_to_blob(engine)
        # int locations keep the binary cell sections, ids ascending
        head, arrays = snap.unpack_state(blob)
        assert head["cells_json"] is None and head["epoch_json"] is None
        assert list(arrays["cell_lid"]) == sorted(arrays["cell_lid"])
        restored, _meta = snap.engine_from_blob(blob)
        assert snap.state_digest(restored) == snap.state_digest(engine)
        _mixed_feed(restored, rows, chunk, start=split)
        assert snap.state_digest(restored) == snap.state_digest(uninterrupted)

        referee = RaceDetector2D()
        referee.spawn_root()
        drive(referee, rows)
        assert restored.detector.races == referee.races
        assert restored.detector.shadow.total == referee.shadow.total
