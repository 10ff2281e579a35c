"""BatchEngine / ShardedBatchEngine: the fast paths change nothing.

The strongest test in this package: the inlined kernel must leave a
:class:`RaceDetector2D` in *bit-identical* state to driving it event by
event -- same reports (down to ``op_index``), same union-find structure
and operation counters, same shadow accounting.
"""

from __future__ import annotations

import pytest

from repro.core.detector import RaceDetector2D
from repro.detectors.fasttrack import FastTrackDetector
from repro.engine.batch import BatchBuilder
from repro.engine.ingest import BatchEngine, ShardedBatchEngine
from repro.errors import DetectorError, ProgramError
from repro.forkjoin.interpreter import run
from repro.workloads.racegen import bulk_access_program, conflicting_pair_program

pytestmark = pytest.mark.engine


def capture(body):
    builder = BatchBuilder()
    ex = run(body, observers=[builder], record_events=True)
    assert ex.events is not None
    return ex.events, builder.batch, builder.interner


def drive(events, det):
    from repro.engine.benchlib import drive_per_event

    drive_per_event(events, det)
    return det


BODY = bulk_access_program(4, 3, 12, racy_rounds=(0, 2))


class TestBatchEngine:
    def test_detects_the_conflicting_pair(self):
        _, batch, interner = capture(conflicting_pair_program("x"))
        engine = BatchEngine(interner=interner)
        assert engine.ingest(batch) == len(batch)
        [race] = engine.races()
        assert race.loc == "x"  # decoded back from the interned id

    def test_ordered_pair_is_clean(self):
        _, batch, interner = capture(
            conflicting_pair_program("x", ordered=True)
        )
        engine = BatchEngine(interner=interner)
        engine.ingest(batch)
        assert engine.races() == []

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_kernel_state_is_bit_identical_to_per_event(self, batch_size):
        events, batch, interner = capture(BODY)
        ref = RaceDetector2D(epoch_cache=False)
        ref.spawn_root()
        drive(events, ref)

        det = RaceDetector2D(epoch_cache=False)
        det.spawn_root()
        engine = BatchEngine(det, interner=interner)
        engine.ingest_all(batch.slices(batch_size))

        # Reports: everything except the dropped labels.
        assert [
            (r.loc, r.task, r.kind, r.prior_kind, r.prior_repr, r.op_index)
            for r in engine.races()
        ] == [
            (r.loc, r.task, r.kind, r.prior_kind, r.prior_repr, r.op_index)
            for r in ref.races
        ]
        assert len(ref.races) > 0
        assert det.op_index == ref.op_index
        # Union-find: structure AND op counters (the ablation benchmarks
        # read these; the kernel must not skew them).
        for attr in ("_parent", "_rank", "_label"):
            assert getattr(det._uf, attr) == getattr(ref._uf, attr)
        for attr in ("find_count", "union_count", "hop_count"):
            assert getattr(det._uf, attr) == getattr(ref._uf, attr)
        assert det._visited == ref._visited
        assert det._halted == ref._halted
        # Shadow accounting, modulo interning of the keys.
        decode = interner.location
        assert {
            decode(lid): cell for lid, cell in det.shadow.items()
        } == dict(ref.shadow.items())
        assert det.shadow.total_entries() == ref.shadow.total_entries()
        assert det.shadow.peak_entries_per_loc == ref.shadow.peak_entries_per_loc

    @pytest.mark.parametrize("batch_size", [13, 10_000])
    def test_epoch_cache_changes_no_verdicts_but_skips_finds(
        self, batch_size
    ):
        """The default (epoch-cached) kernel: same races down to
        ``op_index``, same shadow state, same union-find *sets* -- and
        measurably fewer ``find`` calls on repeat-heavy traffic."""
        # 30 accesses per task means each task revisits every shared
        # pool location several times: the same-epoch path must engage.
        body = bulk_access_program(3, 3, 30, racy_rounds=(1,))
        events, batch, interner = capture(body)
        ref = RaceDetector2D(epoch_cache=False)
        ref.spawn_root()
        drive(events, ref)

        engine = BatchEngine(interner=interner)  # default: epoch cache on
        engine.ingest_all(batch.slices(batch_size))
        det = engine.detector

        assert [
            (r.loc, r.task, r.kind, r.prior_kind, r.prior_repr, r.op_index)
            for r in engine.races()
        ] == [
            (r.loc, r.task, r.kind, r.prior_kind, r.prior_repr, r.op_index)
            for r in ref.races
        ]
        assert len(ref.races) > 0
        assert det.op_index == ref.op_index
        assert det._visited == ref._visited
        assert det._halted == ref._halted
        # Union-find: identical partition and labels (parent pointers may
        # differ -- skipped finds skip path compression too).
        assert det._uf._rank == ref._uf._rank
        assert det._uf._label == ref._uf._label
        n = len(det._uf._parent)
        assert [det._uf.find(i) for i in range(n)] == [
            ref._uf.find(i) for i in range(n)
        ]
        assert dict(det.shadow.items()) == {
            interner.intern(loc): cell for loc, cell in ref.shadow.items()
        }
        assert det.shadow.total_entries() == ref.shadow.total_entries()
        assert det.shadow.peak_entries_per_loc == ref.shadow.peak_entries_per_loc
        # The whole point: repeats were served from the epoch cache.
        assert det._uf.find_count < ref._uf.find_count

    def test_epoch_cache_never_swallows_racing_repeats(self):
        """A task that races on a location twice is reported twice --
        racy accesses must never enter the epoch cache."""
        from repro.engine.batch import batch_from_events
        from repro.events import ForkEvent, HaltEvent, WriteEvent

        events = [
            ForkEvent(0, 1),
            WriteEvent(1, "x"),
            HaltEvent(1),
            WriteEvent(0, "x"),  # races with task 1's write
            WriteEvent(0, "x"),  # still racing: must be reported again
        ]
        ref = RaceDetector2D(epoch_cache=False)
        ref.spawn_root()
        drive(events, ref)
        assert len(ref.races) == 2

        batch, interner = batch_from_events(events)
        engine = BatchEngine(interner=interner)
        engine.ingest(batch)
        assert [
            (r.task, r.op_index) for r in engine.detector.races
        ] == [(r.task, r.op_index) for r in ref.races]

    def test_epoch_cache_invalidated_by_other_tasks(self):
        """A clean epoch for (t, kind) must be evicted when another task
        touches the location in between."""
        from repro.engine.batch import batch_from_events
        from repro.events import ForkEvent, HaltEvent, JoinEvent, WriteEvent

        events = [
            WriteEvent(0, "x"),
            WriteEvent(0, "x"),  # clean repeat: cached
            ForkEvent(0, 1),
            WriteEvent(1, "x"),  # child write, unordered with parent's next
            HaltEvent(1),
            WriteEvent(0, "x"),  # must be re-checked and flagged
            JoinEvent(0, 1),
        ]
        ref = RaceDetector2D(epoch_cache=False)
        ref.spawn_root()
        drive(events, ref)
        batch, interner = batch_from_events(events)
        engine = BatchEngine(interner=interner)
        engine.ingest(batch)
        assert [
            (r.task, r.op_index) for r in engine.detector.races
        ] == [(r.task, r.op_index) for r in ref.races]
        assert len(ref.races) == 1  # the parent write after the child's

    def test_generic_path_drives_other_detectors(self):
        events, batch, interner = capture(BODY)
        ref = FastTrackDetector()
        ref.on_root(0)
        drive(events, ref)
        det = FastTrackDetector()
        det.on_root(0)
        engine = BatchEngine(det, interner=interner)
        engine.ingest_all(batch.slices(32))
        assert len(engine.races()) == len(ref.races) > 0

    def test_kernel_rejects_malformed_streams_like_the_detector(self):
        from repro.engine.batch import OP_READ, OP_FORK, EventBatch

        bad = EventBatch()
        bad.append(OP_READ, 7, 0)  # unknown thread id
        with pytest.raises(DetectorError):
            BatchEngine().ingest(bad)

        mismatch = EventBatch()
        mismatch.append(OP_FORK, 0, 5)  # interpreter/detector id skew
        with pytest.raises(DetectorError):
            BatchEngine().ingest(mismatch)

    def test_unknown_opcode_rejected_on_every_ingest_path(self):
        """Corrupt batches (e.g. off the serve wire) must raise a typed
        ProgramError, never be absorbed as step events -- on the inlined
        kernel and the generic loop alike."""
        from repro.engine.batch import OP_READ, EventBatch

        bad = EventBatch()
        bad.append(99, 0, 0)

        # Inlined RaceDetector2D kernel.
        with pytest.raises(ProgramError, match="unknown opcode 99"):
            BatchEngine().ingest(bad)

        # Generic pre-bound loop (any other observer-protocol detector).
        ft = FastTrackDetector()
        ft.on_root(0)
        with pytest.raises(ProgramError, match="unknown opcode 99"):
            BatchEngine(ft).ingest(bad)

        # A valid prefix must not mask the corrupt row.
        prefixed = EventBatch()
        for _ in range(40):
            prefixed.append(OP_READ, 0, 0)
        prefixed.append(99, 0, 0)
        with pytest.raises(ProgramError, match="unknown opcode 99"):
            BatchEngine().ingest(prefixed)

    def test_literal_mode_falls_back_to_generic_path(self):
        events, batch, interner = capture(BODY)
        ref = RaceDetector2D(paper_figure6_literal=True)
        ref.spawn_root()
        drive(events, ref)
        det = RaceDetector2D(paper_figure6_literal=True)
        det.spawn_root()
        BatchEngine(det, interner=interner).ingest(batch)
        assert [(interner.location(r.loc), r.op_index) for r in det.races] == [
            (r.loc, r.op_index) for r in ref.races
        ]


class TestShardedBatchEngine:
    def test_rejects_zero_shards(self):
        with pytest.raises(ProgramError):
            ShardedBatchEngine(0)

    def test_lifecycle_replicated_accesses_partitioned(self):
        _, batch, interner = capture(BODY)
        engine = ShardedBatchEngine(3, interner=interner)
        subs = engine.split(batch)
        accesses = batch.access_count()
        lifecycle = len(batch) - accesses
        assert sum(s.access_count() for s in subs) == accesses
        for sub in subs:
            assert len(sub) - sub.access_count() == lifecycle
        for k, sub in enumerate(subs):
            from repro.engine.batch import OP_READ, OP_WRITE

            for op, b in zip(sub.ops, sub.b):
                if op == OP_READ or op == OP_WRITE:
                    assert b % 3 == k

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
    @pytest.mark.parametrize("batch_size", [None, 17])
    def test_verdicts_match_unsharded(self, num_shards, batch_size):
        _, batch, interner = capture(BODY)
        ref = BatchEngine(interner=interner)
        ref.ingest(batch)
        engine = ShardedBatchEngine(num_shards, interner=interner)
        if batch_size is None:
            engine.ingest(batch)
        else:
            engine.ingest_all(batch.slices(batch_size))
        assert engine.events_ingested == len(batch)
        key = lambda r: (r.task, r.loc, r.kind)  # noqa: E731
        assert sorted(map(key, engine.races())) == sorted(
            map(key, ref.races())
        )
        assert len(ref.races()) > 0
