"""DePa backend: detector semantics, vectorized kernel, engine wiring.

Three layers under test:

* :class:`DePaDetector`'s scalar observer-protocol methods -- the
  reference semantics (verdicts mirror the union-find detector; the
  fork-first posture rejects out-of-discipline streams);
* :func:`ingest_depa`'s numpy segment kernel -- must leave the detector
  in exactly the state the scalar methods would (reports down to
  ``op_index``), must reject corrupt batches with the same typed
  errors, and must fall back to scalar replay on hostile streams so
  the offending event raises its precise error;
* the engine wiring -- ``backend="depa"`` on both
  :class:`BatchEngine` and :class:`ShardedBatchEngine`, and its cell of
  the conformance matrix (:func:`check_conformance`).
"""

from __future__ import annotations

from array import array
from collections import Counter

import pytest

from repro.core.reports import AccessKind
from repro.detectors.depa import DePaDetector
from repro.engine.batch import (
    OP_FORK,
    OP_HALT,
    OP_JOIN,
    OP_READ,
    OP_STEP,
    OP_WRITE,
    BatchBuilder,
    EventBatch,
)
from repro.engine.differential import check_conformance
from repro.engine.ingest import BatchEngine, ShardedBatchEngine
from repro.engine.vectorized import ingest_depa
from repro.errors import DetectorError, ProgramError
from repro.forkjoin.interpreter import run
from repro.obs.registry import MetricsRegistry
from repro.workloads.racegen import (
    bulk_access_program,
    conflicting_pair_program,
)

pytestmark = pytest.mark.engine

BODY = bulk_access_program(4, 3, 12, racy_rounds=(0, 2))


def capture(body):
    builder = BatchBuilder()
    ex = run(body, observers=[builder], record_events=True)
    assert ex.events is not None
    return ex.events, builder.batch, builder.interner


def flags(races):
    return Counter((r.task, r.loc, r.kind) for r in races)


def report_keys(races):
    return [
        (r.loc, r.task, r.kind, r.prior_kind, r.prior_repr, r.op_index)
        for r in races
    ]


def make_batch(rows):
    return EventBatch(
        array("B", [r[0] for r in rows]),
        array("i", [r[1] for r in rows]),
        array("i", [r[2] for r in rows]),
    )


class TestDePaDetector:
    """Scalar reference semantics, per-event over the interpreter."""

    def test_detects_the_conflicting_pair(self):
        det = DePaDetector()
        run(conflicting_pair_program("x"), observers=[det])
        [race] = det.races
        assert race.loc == "x"
        assert race.kind == AccessKind.WRITE

    def test_ordered_pair_is_clean(self):
        det = DePaDetector()
        run(conflicting_pair_program("x", ordered=True), observers=[det])
        assert det.races == []

    def test_matches_lattice2d_per_event(self):
        from repro.detectors.lattice2d import Lattice2DDetector

        ref = Lattice2DDetector()
        run(BODY, observers=[ref])
        det = DePaDetector()
        run(BODY, observers=[det])
        assert flags(det.races) == flags(ref.races)
        assert len(ref.races) > 0

    def test_fork_first_violation_raises(self):
        det = DePaDetector()
        det.on_root(0)
        det.on_fork(0)  # task 1 is now the stack top
        with pytest.raises(DetectorError, match="fork-first"):
            det.on_read(0, "x")

    def test_join_running_thread_raises(self):
        det = DePaDetector()
        det.on_root(0)
        det.on_fork(0)
        det.on_halt(1)
        with pytest.raises(DetectorError, match="running"):
            det.on_join(0, 0)

    def test_double_join_raises(self):
        det = DePaDetector()
        det.on_root(0)
        det.on_fork(0)
        det.on_halt(1)
        det.on_join(0, 1)
        with pytest.raises(DetectorError, match="twice"):
            det.on_join(0, 1)

    def test_unknown_thread_raises(self):
        det = DePaDetector()
        det.on_root(0)
        with pytest.raises(DetectorError, match="unknown thread"):
            det.on_join(0, 7)
        with pytest.raises(DetectorError, match="unknown thread"):
            det.on_read(7, "x")

    def test_halted_task_rejected(self):
        det = DePaDetector()
        det.on_root(0)
        det.on_fork(0)
        det.on_halt(1)
        with pytest.raises(DetectorError, match="already halted"):
            det.on_step(1)

    def test_halt_with_unjoined_child_leaves_gap(self):
        """A halt with a forked-but-unjoined child parks a
        *non-contiguous* interval list: the gap is the unjoined child,
        whose accesses must stay unordered after the grandparent's
        join."""
        det = DePaDetector()
        det.on_root(0)
        det.on_fork(0)       # task 1
        det.on_fork(1)       # task 2
        det.on_write(2, "b")
        det.on_halt(2)       # halt_seq 0
        det.on_join(1, 2)    # 1 absorbs [0, 0]
        det.on_fork(1)       # task 3 -- never joined
        det.on_write(3, "a")
        det.on_halt(3)       # halt_seq 1 -- the gap
        det.on_halt(1)       # halt_seq 2; parks [0,0, 2,2]
        det.on_join(0, 1)
        assert det.ordered(2) is True   # joined grandchild
        assert det.ordered(3) is False  # unjoined grandchild
        det.on_read(0, "b")  # clean: 2's write was absorbed
        det.on_read(0, "a")  # races: 3 was never joined
        [race] = det.races
        assert (race.loc, race.prior_repr) == ("a", 3)

    def test_joins_coalesce_in_both_orders(self):
        """Children joined in forward or reverse halt order collapse to
        one absorbed interval (plus the permanent guard) -- the
        steady-state shape the vectorized kernel's threshold fast path
        relies on."""
        for order in ((1, 2, 3), (3, 2, 1)):
            det = DePaDetector()
            det.on_root(0)
            for _ in range(3):
                child = det.on_fork(0)
                det.on_halt(child)
            for child in order:
                det.on_join(0, child)
            assert len(det._g_lo) == 2  # guard + one coalesced run
            assert (det._g_lo[1], det._g_hi[1]) == (0, 2)

    def test_live_tasks_are_ordered(self):
        det = DePaDetector()
        det.on_root(0)
        det.on_fork(0)
        assert det.ordered(0) is True  # ancestor on the stack
        assert det.ordered(1) is True  # the acting task itself


class TestVectorizedKernel:
    """The numpy kernel must be indistinguishable from scalar replay."""

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_state_matches_per_event_exactly(self, batch_size):
        events, batch, interner = capture(BODY)
        ref = DePaDetector()
        ref.on_root(0)
        from repro.engine.benchlib import drive_per_event

        drive_per_event(events, ref)

        engine = BatchEngine(backend="depa", interner=interner)
        engine.ingest_all(batch.slices(batch_size))

        assert report_keys(engine.races()) == report_keys(ref.races)
        assert len(ref.races) > 0
        det = engine.detector
        assert det.op_index == ref.op_index
        assert det._halt_seq == ref._halt_seq
        assert det._state == ref._state
        assert list(det._g_lo) == list(ref._g_lo)
        assert list(det._g_hi) == list(ref._g_hi)

    def test_unknown_opcode_rejected_scalar_and_vectorized(self):
        det = DePaDetector()
        det.on_root(0)
        # Short batch: the scalar fallback path rejects it...
        with pytest.raises(ProgramError, match="unknown opcode"):
            ingest_depa(det, make_batch([(9, 0, 0)]))
        # ...and a long batch is rejected by the hoisted batch check.
        rows = [(OP_READ, 0, 0)] * 40 + [(9, 0, 0)]
        with pytest.raises(ProgramError, match="unknown opcode 9"):
            ingest_depa(det, make_batch(rows))

    def test_negative_location_rejected(self):
        det = DePaDetector()
        det.on_root(0)
        rows = [(OP_READ, 0, 0)] * 40 + [(OP_WRITE, 0, -5)]
        with pytest.raises(ProgramError, match="negative location"):
            ingest_depa(det, make_batch(rows))

    def test_hostile_stream_raises_the_exact_scalar_error(self):
        """Access rows naming a non-top task defeat the batch-level
        stack simulation; the kernel must replay scalar and raise the
        precise fork-first error, not a wrong verdict."""
        det = DePaDetector()
        det.on_root(0)
        rows = [(OP_FORK, 0, 1)] + [(OP_READ, 0, 0)] * 40
        with pytest.raises(DetectorError, match="fork-first"):
            ingest_depa(det, make_batch(rows))

    def test_structural_error_positions_survive_vectorization(self):
        """A bad join deep in a long batch raises the same error the
        scalar path would, with all prior events applied."""
        det = DePaDetector()
        det.on_root(0)
        rows = (
            [(OP_READ, 0, 0)] * 40
            + [(OP_FORK, 0, 1), (OP_HALT, 1, -1), (OP_JOIN, 0, 1)]
            + [(OP_JOIN, 0, 1)]  # joined twice
        )
        with pytest.raises(DetectorError, match="twice"):
            ingest_depa(det, make_batch(rows))
        assert det.op_index == 43  # everything before the bad join landed

    @pytest.mark.parametrize("fanout", [64, 256])
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_deep_fanout_structural_runs_match_per_event(
        self, fanout, batch_size
    ):
        """Deep-fanout rounds produce long same-opcode structural runs
        (``fanout`` forks, then ``fanout`` joins back to back) -- the
        rows the vectorized structural dispatch turns into bulk column
        updates.  Every batch size must leave the detector in exactly
        the per-event state, reports down to ``op_index``."""
        body = bulk_access_program(2, fanout, 6, racy_rounds=(0,))
        events, batch, interner = capture(body)
        ref = DePaDetector()
        ref.on_root(0)
        from repro.engine.benchlib import drive_per_event

        drive_per_event(events, ref)

        engine = BatchEngine(backend="depa", interner=interner)
        engine.ingest_all(batch.slices(batch_size))

        assert report_keys(engine.races()) == report_keys(ref.races)
        assert len(ref.races) > 0
        det = engine.detector
        assert det.op_index == ref.op_index
        assert det._halt_seq == ref._halt_seq
        assert det._state == ref._state
        assert list(det._g_lo) == list(ref._g_lo)
        assert list(det._g_hi) == list(ref._g_hi)

    def test_corrupt_row_inside_structural_run_raises_at_op_index(self):
        """A hostile row buried inside a long structural run must
        surface the scalar path's typed error at its exact position,
        with every earlier row of the run already applied."""
        rows = []
        for k in range(1, 65):  # 64 leaf bursts: fork, access, halt
            rows += [(OP_FORK, 0, k), (OP_WRITE, k, 3), (OP_HALT, k, -1)]
        rows += [(OP_JOIN, 0, k) for k in range(1, 33)]
        corrupt_at = len(rows)
        rows.append((OP_JOIN, 0, 999))  # never forked
        rows += [(OP_JOIN, 0, k) for k in range(33, 65)]

        det = DePaDetector()
        det.on_root(0)
        with pytest.raises(DetectorError, match="unknown thread"):
            ingest_depa(det, make_batch(rows))
        assert det.op_index == corrupt_at  # run applied up to the row

    def test_step_rows_are_barriers(self):
        """Steps are rare and scalar; a batch mixing them in still
        matches per-event replay."""
        rows = []
        rows.append((OP_FORK, 0, 1))
        rows += [(OP_WRITE, 1, k % 5) for k in range(30)]
        rows.append((OP_STEP, 1, -1))
        rows += [(OP_READ, 1, k % 5) for k in range(30)]
        rows.append((OP_HALT, 1, -1))
        rows.append((OP_JOIN, 0, 1))
        rows += [(OP_WRITE, 0, k % 5) for k in range(30)]
        batch = make_batch(rows)

        ref = DePaDetector()
        ref.on_root(0)
        for op, a, b in rows:
            if op == OP_READ:
                ref.on_read(a, b)
            elif op == OP_WRITE:
                ref.on_write(a, b)
            elif op == OP_FORK:
                ref.on_fork(a, b)
            elif op == OP_JOIN:
                ref.on_join(a, b)
            elif op == OP_HALT:
                ref.on_halt(a)
            else:
                ref.on_step(a)

        det = DePaDetector()
        det.on_root(0)
        assert ingest_depa(det, batch) == "vectorized"
        assert report_keys(det.races) == report_keys(ref.races)
        assert det.op_index == ref.op_index


class TestEngineWiring:
    def test_batch_engine_backend(self):
        _, batch, interner = capture(conflicting_pair_program("x"))
        engine = BatchEngine(backend="depa", interner=interner)
        engine.ingest(batch)
        [race] = engine.races()
        assert race.loc == "x"

    def test_backend_and_detector_are_mutually_exclusive(self):
        with pytest.raises(ProgramError, match="not both"):
            BatchEngine(DePaDetector(), backend="depa")
        with pytest.raises(ProgramError, match="not both"):
            ShardedBatchEngine(
                2, detector_factory=DePaDetector, backend="depa"
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ProgramError, match="unknown engine backend"):
            BatchEngine(backend="nope")
        with pytest.raises(ProgramError, match="unknown engine backend"):
            ShardedBatchEngine(2, backend="nope")

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_sharded_depa_equals_serial(self, shards):
        _, batch, interner = capture(BODY)
        ref = BatchEngine(interner=interner, registry=MetricsRegistry())
        ref.ingest_all(batch.slices(64))
        engine = ShardedBatchEngine(
            shards,
            backend="depa",
            interner=interner,
            registry=MetricsRegistry(),
        )
        engine.ingest_all(batch.slices(64))
        assert flags(engine.races()) == flags(ref.races())
        assert len(ref.races()) > 0

    def test_engine_depa_cell(self):
        _, batch, interner = capture(BODY)
        report = check_conformance(
            batch, interner, ("engine:depa",), batch_size=64
        )
        assert report.cells["engine:depa"] is True
        assert report.races["lattice2d"] == report.races["engine:depa"] > 0
