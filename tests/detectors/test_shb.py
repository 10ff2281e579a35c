"""Adversarial tests for the SHB prediction detector.

Three fronts, matching the three ways prediction goes wrong:

* **Completeness against the observed-order detectors**: hand-built
  traces with a feasibly-reorderable race that the supremum-folding
  detectors (lattice2d *and* fasttrack) provably miss -- prediction
  must find it.
* **Soundness**: pairs ordered by fork/join edges (directly or
  transitively) must never be reported, no matter how the trace
  interleaves other work between them.
* **Hostile streams**: malformed input raises the family's typed
  errors at the exact ``op_index``, and a batch carrying an unknown
  opcode is rejected *whole* before any row reaches the candidate-pair
  window (the ``counts()``/``access_count()`` reconciliation in the
  predict ingest path).  The engine's predictor,
  :class:`~repro.core.predict.PredictDetector2D`, also refuses a stream
  that is not serial fork-first or joins past a left neighbour, with
  the same message at the same row per event and batched.

The completeness traces are not fork-first, so they run on the
per-event :class:`SHBDetector`, which accepts any structured stream.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.predict import PredictDetector2D
from repro.core.reports import AccessKind
from repro.detectors.fasttrack import FastTrackDetector
from repro.detectors.shb import SHBDetector
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
from repro.engine.ingest import BatchEngine
from repro.errors import DetectorError, ProgramError
from repro.forkjoin.interpreter import run
from repro.workloads.access_patterns import uniform_shared
from repro.workloads.synthetic import SyntheticConfig, random_program

pytestmark = pytest.mark.predict

X = 0  # the shared location, as a dense interned id


def make_batch(events) -> EventBatch:
    batch = EventBatch()
    for op, a, b in events:
        batch.ops.append(op)
        batch.a.append(a)
        batch.b.append(b)
    return batch


def drive(det, events) -> None:
    for op, a, b in events:
        if op == OP_READ:
            det.on_read(a, b)
        elif op == OP_WRITE:
            det.on_write(a, b)
        elif op == OP_FORK:
            det.on_fork(a, b)
        elif op == OP_JOIN:
            det.on_join(a, b)
        elif op == OP_HALT:
            det.on_halt(a)
        elif op == OP_STEP:
            det.on_step(a)


def pairs(races):
    """The reported (accessor, partner) pairs."""
    return Counter((r.task, r.prior_repr) for r in races)


def flags(races):
    return Counter((r.task, r.loc, r.kind) for r in races)


#: A structured (but not fork-first) trace where tasks 1 and 3 both
#: write ``X`` while mutually unordered -- a race feasible in any
#: reordering that runs task 1 late -- yet *no* observed-order
#: detector reports the pair: lattice2d's racing write keeps the old
#: supremum (task 1 is discarded at its own racing write), and
#: fasttrack's write epoch is overwritten by task 0's write before
#: task 3 ever runs.  Both end up comparing task 3 against task 0,
#: which is ordered, and stay silent.
REORDERING_TRACE = [
    (OP_FORK, 0, 1),
    (OP_FORK, 0, 2),
    (OP_WRITE, 2, X),
    (OP_HALT, 2, -1),
    (OP_WRITE, 1, X),   # races task 2's write; every detector sees this
    (OP_HALT, 1, -1),
    (OP_JOIN, 0, 2),
    (OP_WRITE, 0, X),   # races task 1 (unjoined); lattice2d misses it
    (OP_FORK, 0, 3),
    (OP_WRITE, 3, X),   # races task 1; ONLY prediction sees this pair
    (OP_HALT, 3, -1),
    (OP_JOIN, 0, 3),
    (OP_JOIN, 0, 1),
    (OP_HALT, 0, -1),
]


class TestPredictionCompleteness:
    def test_finds_the_pair_every_observed_detector_misses(self):
        shb = SHBDetector()
        shb.on_root(0)
        drive(shb, REORDERING_TRACE)
        assert pairs(shb.races) == Counter(
            {(1, 2): 1, (0, 1): 1, (3, 1): 1}
        )

    def test_lattice2d_and_fasttrack_miss_it(self):
        """Pin the gap: the engines' own detectors stay silent on the
        (3, 1) pair -- if one ever learns to see it, this documents
        that prediction stopped being strictly stronger here."""
        observed = BatchEngine()
        observed.ingest(make_batch(REORDERING_TRACE))
        assert (3, X, AccessKind.WRITE) not in flags(observed.races())

        ft = FastTrackDetector()
        ft.on_root(0)
        drive(ft, REORDERING_TRACE)
        assert (3, X, AccessKind.WRITE) not in flags(ft.races)

    def test_predicted_multiset_covers_both(self):
        shb = SHBDetector()
        shb.on_root(0)
        drive(shb, REORDERING_TRACE)
        predicted = flags(shb.races)

        observed = BatchEngine()
        observed.ingest(make_batch(REORDERING_TRACE))
        assert flags(observed.races()) <= predicted

        ft = FastTrackDetector()
        ft.on_root(0)
        drive(ft, REORDERING_TRACE)
        assert flags(ft.races) <= predicted

    def test_one_report_per_racing_pair(self):
        """Two halted-unjoined readers, then a write: the observed
        detectors keep one read supremum and report the write once;
        prediction enumerates both pairs."""
        trace = [
            (OP_FORK, 0, 1),
            (OP_READ, 1, X),
            (OP_HALT, 1, -1),
            (OP_FORK, 0, 2),
            (OP_READ, 2, X),
            (OP_HALT, 2, -1),
            (OP_WRITE, 0, X),
            (OP_JOIN, 0, 1),
            (OP_JOIN, 0, 2),
            (OP_HALT, 0, -1),
        ]
        shb = SHBDetector()
        shb.on_root(0)
        drive(shb, trace)
        assert pairs(shb.races) == Counter({(0, 1): 1, (0, 2): 1})

        observed = BatchEngine()
        observed.ingest(make_batch(trace))
        assert len(observed.races()) == 1
        assert flags(observed.races()) <= flags(shb.races)


class TestPredictionSoundness:
    def test_join_ordered_pair_is_infeasible(self):
        """The write pair (1, then 0-after-join) is ordered in *every*
        reordering -- prediction must stay silent."""
        trace = [
            (OP_FORK, 0, 1),
            (OP_WRITE, 1, X),
            (OP_HALT, 1, -1),
            (OP_JOIN, 0, 1),
            (OP_WRITE, 0, X),
            (OP_HALT, 0, -1),
        ]
        shb = SHBDetector()
        shb.on_root(0)
        drive(shb, trace)
        assert shb.races == []

    def test_transitive_order_through_fork_after_join(self):
        """Task 2 inherits the join edge at its fork: 1's write
        happens-before 2's in every feasible schedule."""
        trace = [
            (OP_FORK, 0, 1),
            (OP_WRITE, 1, X),
            (OP_HALT, 1, -1),
            (OP_JOIN, 0, 1),
            (OP_FORK, 0, 2),
            (OP_WRITE, 2, X),
            (OP_HALT, 2, -1),
            (OP_JOIN, 0, 2),
            (OP_HALT, 0, -1),
        ]
        shb = SHBDetector()
        shb.on_root(0)
        drive(shb, trace)
        assert shb.races == []

    def test_parent_prefix_precedes_child(self):
        trace = [
            (OP_WRITE, 0, X),
            (OP_FORK, 0, 1),
            (OP_WRITE, 1, X),
            (OP_HALT, 1, -1),
            (OP_JOIN, 0, 1),
            (OP_HALT, 0, -1),
        ]
        shb = SHBDetector()
        shb.on_root(0)
        drive(shb, trace)
        assert shb.races == []

    def test_same_task_never_races_itself(self):
        shb = SHBDetector()
        shb.on_root(0)
        drive(shb, [(OP_WRITE, 0, X), (OP_WRITE, 0, X), (OP_READ, 0, X)])
        assert shb.races == []


class TestHostileStreams:
    def _after_prefix(self):
        """A detector three events in (fork, child write, child halt)."""
        det = SHBDetector()
        det.on_root(0)
        drive(det, [(OP_FORK, 0, 1), (OP_WRITE, 1, X), (OP_HALT, 1, -1)])
        assert det.op_index == 3
        return det

    def test_unknown_thread_id_at_exact_op_index(self):
        det = self._after_prefix()
        with pytest.raises(DetectorError, match="unknown thread id 5"):
            det.on_read(5, X)
        assert det.op_index == 3  # the bad event was never counted

    def test_halted_thread_at_exact_op_index(self):
        det = self._after_prefix()
        with pytest.raises(DetectorError, match="thread 1 already halted"):
            det.on_write(1, X)
        assert det.op_index == 3

    def test_joining_running_thread(self):
        det = SHBDetector()
        det.on_root(0)
        det.on_fork(0, 1)
        with pytest.raises(DetectorError, match="joining running thread 1"):
            det.on_join(0, 1)
        assert det.op_index == 1

    def test_double_join(self):
        det = self._after_prefix()
        det.on_join(0, 1)
        with pytest.raises(DetectorError, match="thread 1 joined twice"):
            det.on_join(0, 1)
        assert det.op_index == 4

    def test_fork_id_mismatch(self):
        det = SHBDetector()
        det.on_root(0)
        with pytest.raises(DetectorError, match="fork id mismatch"):
            det.on_fork(0, 7)

    def test_root_id_mismatch(self):
        with pytest.raises(DetectorError, match="root id mismatch"):
            SHBDetector().on_root(3)

    def test_bad_opcode_rejects_the_whole_batch(self):
        """Valid-prefix-then-bad-row: the predict ingest path must
        reconcile the batch's counts up front and reject it atomically
        -- no prefix row may have reached the window."""
        batch = make_batch(
            [(OP_FORK, 0, 1), (OP_WRITE, 1, X), (9, 1, X)]
        )
        assert batch.counts().get("unknown") == 1
        engine = BatchEngine(predict=True)
        with pytest.raises(
            ProgramError, match="unknown opcode 9 at batch row 2"
        ):
            engine.ingest(batch)
        det = engine.detector
        assert det.op_index == 0
        assert det.races == []
        assert det.shadow_total_entries() == 0
        assert det.thread_count == 1  # only the root; the fork never ran

    def test_predict_excludes_detector_and_backend(self):
        with pytest.raises(ProgramError, match="predict"):
            BatchEngine(SHBDetector(), predict=True)
        # No backend knob is left to combine with predict: the engine
        # runs one exact detector per mode.
        with pytest.raises(TypeError):
            BatchEngine(backend="lattice2d", predict=True)


#: (op_index, thread_count, metadata_entries, shadow_peak_per_location,
#: shadow_total_entries, len(races)) after every 25th event of
#: ``_lattice_batch()`` and at its end, as the sparse-clock detector
#: computed them.
LATTICE_ACCOUNTING = [
    (25, 5, 17, 3, 5, 2),
    (50, 12, 83, 3, 8, 2),
    (75, 14, 109, 6, 18, 24),
    (100, 17, 114, 7, 27, 68),
    (125, 19, 113, 9, 27, 141),
    (150, 21, 132, 9, 33, 219),
    (175, 23, 93, 11, 41, 304),
    (200, 24, 69, 13, 34, 381),
    (225, 24, 48, 14, 14, 436),
]


def _lattice_batch() -> EventBatch:
    """A fixed random non-SP lattice: leftover joins over four shared
    locations."""
    builder = BatchBuilder()
    run(
        random_program(SyntheticConfig(
            seed=7, max_tasks=24, ops_per_task=8,
            leftover_probability=0.35, pattern=uniform_shared(4),
        )),
        observers=[builder],
    )
    return builder.batch


def snapshot(det):
    """The accounting :data:`LATTICE_ACCOUNTING` pins, in its order."""
    return (
        det.op_index, det.thread_count, det.metadata_entries(),
        det.shadow_peak_per_location(), det.shadow_total_entries(),
        len(det.races),
    )


class TestAccounting:
    _snapshot = staticmethod(snapshot)

    def test_lattice_is_not_series_parallel(self):
        """Guard the fixture: some task joins a task it did not fork."""
        batch = _lattice_batch()
        parent = {}
        leftover = False
        for op, a, b in zip(batch.ops, batch.a, batch.b):
            if op == OP_FORK:
                parent[b] = a
            elif op == OP_JOIN and parent[b] != a:
                leftover = True
        assert leftover

    def test_pinned_on_a_non_sp_lattice(self):
        """Dense clocks report what the sparse ones did: live tasks plus
        nonzero clock components, and the same window sizes."""
        batch = _lattice_batch()
        det = SHBDetector()
        det.on_root(0)
        seen = []
        for i, row in enumerate(zip(batch.ops, batch.a, batch.b), 1):
            drive(det, [row])
            if i % 25 == 0 or i == len(batch):
                seen.append(self._snapshot(det))
        assert seen == LATTICE_ACCOUNTING

    def test_pinned_on_the_batch_path(self):
        """The predict kernel keeps the very same window accounting and
        reports, batch by batch; its metadata is the 2D predictor's
        eight words per task, not clock components."""
        engine = BatchEngine(predict=True)
        seen = []
        for piece in _lattice_batch().slices(25):
            engine.ingest(piece)
            seen.append(self._snapshot(engine.detector))
        assert seen == [
            (ops, tasks, 8 * tasks, peak, total, races)
            for ops, tasks, _clocks, peak, total, races in LATTICE_ACCOUNTING
        ]

    def test_hostile_events_mid_lattice(self):
        """After 100 events of the lattice (tasks joined, halted and
        live, clocks of unequal lengths), each hostile event raises the
        family's message at op_index 100 and changes no accounting."""
        batch = _lattice_batch()
        det = SHBDetector()
        det.on_root(0)
        drive(det, zip(batch.ops[:100], batch.a[:100], batch.b[:100]))
        before = self._snapshot(det)
        assert before == LATTICE_ACCOUNTING[3]
        # task 1 is joined, task 10 halted and unjoined, task 16 live
        assert (det._state[1], det._state[10], det._state[16]) == (
            SHBDetector._JOINED, SHBDetector._HALTED, SHBDetector._LIVE,
        )
        hostile = [
            (lambda: det.on_read(17, X), "unknown thread id 17"),
            (lambda: det.on_write(-1, X), "unknown thread id -1"),
            (lambda: det.on_write(10, X), "thread 10 already halted"),
            (lambda: det.on_join(0, 17), "unknown thread id 17"),
            (lambda: det.on_join(16, 1), "thread 1 joined twice"),
            (lambda: det.on_join(0, 16), "joining running thread 16"),
            (lambda: det.on_join(10, 1), "thread 10 already halted"),
            (lambda: det.on_halt(1), "thread 1 already halted"),
        ]
        for event, message in hostile:
            with pytest.raises(DetectorError) as info:
                event()
            assert str(info.value) == message
            assert self._snapshot(det) == before


#: (rows appended after 100 lattice events, the error both paths
#: raise).  At that point task 1 is joined, task 10 halted and
#: unjoined, task 16 running (its left neighbour is 15, halted), task
#: 14 suspended under it and task 17 unknown.
HOSTILE_ROWS = {
    "unknown task opens a run": (
        [(OP_WRITE, 16, X), (OP_READ, 17, X)], "unknown thread id 17"),
    "negative task opens a run": (
        [(OP_READ, 16, X), (OP_WRITE, -1, X)], "unknown thread id -1"),
    "halted task opens a run": (
        [(OP_READ, 16, X), (OP_WRITE, 10, X)], "thread 10 already halted"),
    "run resumes after its task halts": (
        [(OP_READ, 16, X), (OP_HALT, 16, -1), (OP_READ, 16, X)],
        "thread 16 already halted"),
    "bad id right after a fork": (
        [(OP_READ, 16, X), (OP_FORK, 16, 17), (OP_WRITE, 18, X)],
        "unknown thread id 18"),
    "negative id right after a halt": (
        [(OP_READ, 16, X), (OP_HALT, 16, -1), (OP_WRITE, -1, X)],
        "unknown thread id -1"),
    "fork id mismatch": (
        [(OP_WRITE, 16, X), (OP_FORK, 16, 99)],
        "fork id mismatch: interpreter says 99, detector allocated 17"),
    "join of an unknown task": (
        [(OP_READ, 16, X), (OP_JOIN, 16, 17)], "unknown thread id 17"),
    "join of a joined task": (
        [(OP_READ, 16, X), (OP_JOIN, 16, 1)], "thread 1 joined twice"),
    "join of a running task": (
        [(OP_WRITE, 16, X), (OP_JOIN, 16, 14)], "joining running thread 14"),
    "join by a halted task": (
        [(OP_JOIN, 10, 1)], "thread 10 already halted"),
    "halt of a joined task": (
        [(OP_HALT, 1, -1)], "thread 1 already halted"),
    "suspended task opens a run": (
        [(OP_READ, 16, X), (OP_WRITE, 14, X)],
        "thread 14 is not the running thread 16 (the stream is not "
        "serial fork-first)"),
    "suspended task forks": (
        [(OP_FORK, 0, 17)],
        "thread 0 is not the running thread 16 (the stream is not "
        "serial fork-first)"),
    "suspended task halts": (
        [(OP_READ, 16, X), (OP_HALT, 14, -1)],
        "thread 14 is not the running thread 16 (the stream is not "
        "serial fork-first)"),
    "join past the left neighbour": (
        [(OP_READ, 16, X), (OP_JOIN, 16, 10)],
        "thread 16 may only join its left neighbour (15), not 10"),
}


def _task_state(det):
    """The 2D predictor's task state: flags, stack, line and forest."""
    return (det._visited, det._halted, det._joined, det._stack, det._left,
            det._uf._parent, det._uf._label, det._reads, det._writes)


@pytest.mark.parametrize("case", sorted(HOSTILE_ROWS))
def test_hostile_rows_on_both_paths(case):
    """The predict kernel hoists the thread checks once per access run;
    every hostile row must still raise the per-event path's message
    and leave the identical accounting, reports and task state
    behind."""
    rows, message = HOSTILE_ROWS[case]
    batch = _lattice_batch()
    prefix = list(zip(batch.ops[:100], batch.a[:100], batch.b[:100]))

    referee = PredictDetector2D()
    referee.on_root(0)
    with pytest.raises(DetectorError) as per_event:
        drive(referee, prefix + rows)

    engine = BatchEngine(predict=True)
    with pytest.raises(DetectorError) as batched:
        engine.ingest(make_batch(prefix + rows))

    assert str(per_event.value) == str(batched.value) == message
    det = engine.detector
    assert snapshot(det) == snapshot(referee)
    assert det.races == referee.races
    assert _task_state(det) == _task_state(referee)


#: ROADMAP's non-conforming streams: (rows, the error every predict
#: path raises, the op_index it stops at)
INPUT_MODEL_CASES = {
    # a join that skips the left neighbour 2
    "A": (
        [(OP_FORK, 0, 1), (OP_HALT, 1, -1), (OP_FORK, 0, 2),
         (OP_HALT, 2, -1), (OP_JOIN, 0, 1)],
        "thread 0 may only join its left neighbour (2), not 1", 4),
    # the parent acts while its child is live
    "B": (
        [(OP_FORK, 0, 1), (OP_WRITE, 0, X), (OP_WRITE, 1, X),
         (OP_HALT, 1, -1), (OP_JOIN, 0, 1)],
        "thread 0 is not the running thread 1 (the stream is not serial "
        "fork-first)", 1),
    # a grandparent writes while a grandchild is live
    "C": (
        [(OP_FORK, 0, 1), (OP_FORK, 1, 2), (OP_WRITE, 2, X),
         (OP_WRITE, 0, X), (OP_HALT, 2, -1), (OP_HALT, 1, -1),
         (OP_JOIN, 0, 1), (OP_JOIN, 0, 2)],
        "thread 0 is not the running thread 2 (the stream is not serial "
        "fork-first)", 3),
}


@pytest.mark.parametrize("case", sorted(INPUT_MODEL_CASES))
def test_non_conforming_streams_refused_per_event_and_batched(case):
    """Each case raises one message at one ``op_index`` on the
    per-event predictor and on the engine, whatever the slicing.  The
    per-event SHB detector, which needs no fork-first order, accepts
    cases B and C and reports their race."""
    rows, message, op_index = INPUT_MODEL_CASES[case]
    per_event = PredictDetector2D()
    per_event.on_root(0)
    with pytest.raises(DetectorError) as info:
        drive(per_event, rows)
    assert (str(info.value), per_event.op_index) == (message, op_index)
    for size in (1, 2, len(rows)):
        engine = BatchEngine(predict=True)
        with pytest.raises(DetectorError) as info:
            engine.ingest_all(make_batch(rows).slices(size))
        assert (str(info.value), engine.detector.op_index) == (
            message, op_index
        )
    if case != "A":
        shb = SHBDetector()
        shb.on_root(0)
        drive(shb, rows)
        assert len(shb.races) == 1
