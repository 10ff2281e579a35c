"""Property-based soundness sweep for the prediction engine.

Random spawn-sync programs ingested through ``BatchEngine(predict=True)``
must *cover* what the per-event lattice2d referee flags: every
``covers`` row of the conformance matrix passes on every program.
Prediction must also be
schedule-of-ingest independent -- the predicted race set (down to the
partner task of each pair) is identical across batch sizes 1, 7, 64 and
10k.  The invariance sweep also draws
non-SP shapes: wavefronts, blocked wavefronts and pipelines built from
a :class:`~repro.forkjoin.pipeline.PipelineSpec` (with and without
parallel stages), and random synthetic lattices with leftover joins.

The kernel sweep holds the batch path to the per-event
:class:`~repro.detectors.shb.SHBDetector` referee exactly: on the
perfbench shapes (spawn-sync bulk rounds, random lattices, grids) and
at every batch size, the predict kernel emits the identical report list
-- every field, same order -- the same accounting, and the same windows
read as task ids.  It also leaves the identical task state and
union-find counters behind as the per-event
:class:`~repro.core.predict.PredictDetector2D`.  The lockstep sweep
checks the claim the kernel rests on: at every access, each window
entry's vector-clock order test and its ``Sup`` query agree.

The deterministic tests at the bottom pin the *strictness* of the
superset: one program where prediction reports strictly more pairs than
the observed multiset (pair enumeration vs supremum folding), and the
reordering trace, not fork-first, where per-event SHB reports a pair
*no* observed-order detector flags at all and the engine refuses the
stream (see ``tests/detectors/test_shb.py`` and ``docs/PREDICTION.md``).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predict import PredictDetector2D
from repro.detectors.shb import TASK_MASK, SHBDetector, _unordered
from repro.engine.batch import OP_READ, OP_WRITE
from repro.engine.differential import CONFIGS, check_conformance
from repro.engine.ingest import BatchEngine
from repro.forkjoin.pipeline import PipelineSpec, pipeline_body
from repro.forkjoin.program import read, write
from repro.forkjoin.spawn_sync import cilk
from repro.errors import DetectorError
from repro.obs.registry import MetricsRegistry
from repro.workloads.access_patterns import uniform_shared
from repro.workloads.pipelines import (
    clean_pipeline,
    racy_pipeline,
    shared_counter_pipeline,
)
from repro.workloads.racegen import bulk_access_program
from repro.workloads.synthetic import SyntheticConfig, random_program
from repro.workloads.wavefront import (
    blocked_wavefront,
    wavefront,
    wavefront_with_bug,
)
from tests.detectors.test_shb import REORDERING_TRACE, drive, make_batch
from tests.engine.test_conformance import BATCH_SIZES, capture
from tests.engine.test_property_differential import (
    _cilk_program,
    spawn_sync_cases,
)

pytestmark = [pytest.mark.engine, pytest.mark.predict]

#: the matrix rows held to the soundness invariant
COVERS = tuple(n for n, c in CONFIGS.items() if c.relation == "covers")


def _pair_multiset(races):
    """Full pair identity: accessor, partner, location and both kinds."""
    return Counter(
        (r.task, r.prior_repr, r.loc, r.kind, r.prior_kind) for r in races
    )


def _capture(case):
    return capture(_cilk_program(*case))[0]


@st.composite
def pipeline_specs(draw):
    """A grid-lattice program: a wavefront, blocked wavefront or
    pipeline shape run through :func:`pipeline_body`, with an optional
    parallel stage (which unserialises that stage across items)."""
    kind = draw(st.sampled_from(
        ("wavefront", "wavefront_bug", "blocked", "clean", "racy",
         "counter")
    ))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(2, 5))
    if kind == "wavefront":
        items, stages = wavefront(rows, cols)
    elif kind == "wavefront_bug":
        items, stages = wavefront_with_bug(rows, cols)
    elif kind == "blocked":
        items, stages = blocked_wavefront(rows * 2, cols * 2, 2, 2)
    elif kind == "clean":
        items, stages = clean_pipeline(rows + 1, cols, 1)
    elif kind == "racy":
        items, stages = racy_pipeline(rows + 1, cols)
    else:
        items, stages = shared_counter_pipeline(rows + 1, cols)
    parallel = draw(st.sets(st.integers(0, len(stages) - 1), max_size=2))
    return pipeline_body(
        PipelineSpec(tuple(items), tuple(stages), frozenset(parallel))
    )


@st.composite
def synthetic_lattices(draw):
    """A random non-SP lattice: structured forks with leftover joins."""
    cfg = SyntheticConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        max_tasks=draw(st.integers(2, 40)),
        ops_per_task=draw(st.integers(2, 10)),
        leftover_probability=draw(st.floats(0.0, 0.6)),
        write_ratio=draw(st.floats(0.1, 0.9)),
        pattern=uniform_shared(draw(st.integers(1, 8))),
    )
    return random_program(cfg)


non_sp_bodies = st.one_of(pipeline_specs(), synthetic_lattices())


@st.composite
def sp_bulk_programs(draw):
    """Spawn-sync bulk rounds, the perfbench ``sp_bulk`` shape."""
    rounds = draw(st.integers(1, 6))
    return bulk_access_program(
        rounds,
        draw(st.integers(1, 5)),
        draw(st.integers(1, 12)),
        racy_rounds=draw(st.sets(st.integers(0, rounds - 1))),
        n_shared=draw(st.integers(1, 4)),
    )


#: the perfbench strata, by name
SHAPES = {
    "sp_bulk": sp_bulk_programs(),
    "lattice": synthetic_lattices(),
    "grid": pipeline_specs(),
}


def _tasks(windows):
    """Windows as task ids, shape kept (a one-entry window is a bare
    int on every path): SHB's packed epochs lose their tick, task ids
    stay as they are."""
    return [
        win & TASK_MASK if type(win) is int
        else None if win is None
        else [e & TASK_MASK for e in win]
        for win in windows
    ]


def _accounting(det):
    """What the kernel must reproduce of the per-event SHB detector:
    the reports, the accounting and the windows as task ids."""
    return (
        det.races, det.op_index, det.thread_count,
        det.shadow_peak_per_location(), det.shadow_total_entries(),
        _tasks(det._reads), _tasks(det._writes),
    )


def _task_state(det):
    """The per-event 2D predictor's state beyond :func:`_accounting`:
    task flags, stack, line, the union-find forest and its counters."""
    uf = det._uf
    return (
        det._visited, det._halted, det._joined, det._stack, det._left,
        uf._parent, uf._rank, uf._label,
        (uf.find_count, uf.union_count, uf.hop_count),
        det.metadata_entries(), det._reads, det._writes,
    )


@settings(max_examples=40, deadline=None)
@given(
    case=spawn_sync_cases(max_leaves=8),
    size=st.sampled_from(BATCH_SIZES),
)
def test_predicted_covers_observed(case, size):
    report = check_conformance(_capture(case), None, COVERS, batch_size=size)
    assert report.agreed, "prediction missed observed races:\n" + "\n".join(
        str(d) for d in report.divergences
    )


@settings(max_examples=25, deadline=None)
@given(case=spawn_sync_cases(max_leaves=8))
def test_predicted_set_is_batch_size_invariant(case):
    """The candidate windows carry all cross-batch state: slicing the
    stream anywhere yields the identical pair set."""
    batch = _capture(case)
    sets = []
    for size in BATCH_SIZES:
        engine = BatchEngine(predict=True, registry=MetricsRegistry())
        engine.ingest_all(batch.slices(size))
        sets.append(_pair_multiset(engine.races()))
    assert all(s == sets[0] for s in sets[1:])


@settings(max_examples=40, deadline=None)
@given(body=non_sp_bodies)
def test_non_sp_pairs_are_batch_size_invariant(body):
    """Grid and random lattices exercise joins of non-parent tasks and
    leftover absorption: slicing the stream anywhere yields the
    identical pair multiset."""
    batch = capture(body)[0]
    serial = BatchEngine(predict=True, registry=MetricsRegistry())
    serial.ingest(batch)
    expected = _pair_multiset(serial.races())
    for size in BATCH_SIZES:
        engine = BatchEngine(predict=True, registry=MetricsRegistry())
        engine.ingest_all(batch.slices(size))
        assert _pair_multiset(engine.races()) == expected, size


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_equals_per_event_shb(shape, data):
    """The predict kernel is the per-event detector, batched: the same
    :class:`RaceReport` list in the same order and the same accounting,
    wherever the stream is sliced."""
    batch = capture(data.draw(SHAPES[shape]))[0]
    referee = SHBDetector()
    referee.on_root(0)
    drive(referee, zip(batch.ops, batch.a, batch.b))
    expected = _accounting(referee)
    per_event = PredictDetector2D()
    per_event.on_root(0)
    drive(per_event, zip(batch.ops, batch.a, batch.b))
    assert _accounting(per_event) == expected
    for size in BATCH_SIZES:
        engine = BatchEngine(predict=True, registry=MetricsRegistry())
        engine.ingest_all(batch.slices(size))
        assert _accounting(engine.detector) == expected, size
        assert _task_state(engine.detector) == _task_state(per_event), size


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sup_query_answers_as_the_clocks_do(shape, data):
    """The soundness argument of :mod:`repro.core.predict`, tested: the
    two detectors run in lockstep, and before every access each entry
    of the location's windows is asked both ways -- SHB's clock compare
    against its packed epoch, ``ordered(u, t)`` against the task id.
    The windows agree as task ids, so every entry is asked both ways,
    and no answer differs."""
    batch = capture(data.draw(SHAPES[shape]))[0]
    shb = SHBDetector()
    shb.on_root(0)
    sup = PredictDetector2D()
    sup.on_root(0)
    queries = disagreements = 0
    for row in zip(batch.ops, batch.a, batch.b):
        op, t, loc = row
        if op in (OP_READ, OP_WRITE):
            lid = shb._lid(loc)  # the access would intern it first too
            assert sup._lid(loc) == lid
            clock = shb._clock[t]
            for epochs, tasks in ((shb._reads[lid], sup._reads[lid]),
                                  (shb._writes[lid], sup._writes[lid])):
                assert _tasks([epochs]) == [tasks]
                for e in () if epochs is None else (
                    (epochs,) if type(epochs) is int else epochs
                ):
                    queries += 1
                    u = e & TASK_MASK
                    disagreements += (
                        _unordered(e, clock) != (not sup.ordered(u, t))
                    )
        drive(shb, [row])
        drive(sup, [row])
    assert disagreements == 0, f"{disagreements} of {queries} queries"
    assert shb.races == sup.races


def test_strictly_more_pairs_than_observed_multiset():
    """Two forked readers then a parent write: the observed engine
    folds both reads into one supremum and reports the write once;
    prediction reports one pair per reader."""

    @cilk
    def reader(ctx):
        yield read("x")

    @cilk
    def program(ctx):
        yield from ctx.spawn(reader)
        yield from ctx.spawn(reader)
        yield write("x")
        yield from ctx.sync()

    report = check_conformance(capture(program)[0], None, ("predict",))
    assert report.agreed
    assert report.races["predict"] > report.races["lattice2d"]  # 2 vs 1


def test_reordering_trace_beats_every_observed_detector():
    """Set-level strictness: the REORDERING_TRACE carries a racing
    pair invisible to the observed-order detectors.  It is not
    fork-first (task 0 forks task 2 while task 1 is live), so only the
    per-event SHB detector predicts over it; the engine refuses it at
    row 1."""
    batch = make_batch(REORDERING_TRACE)
    report = check_conformance(batch, None, ("shb",))
    assert report.agreed

    def flags(name):
        return {(r.task, r.loc, r.kind) for r in report.reports[name]}

    # a flag no observed detector produced
    assert flags("shb") - flags("lattice2d")

    engine = BatchEngine(predict=True, registry=MetricsRegistry())
    with pytest.raises(DetectorError) as info:
        engine.ingest(batch)
    assert str(info.value) == (
        "thread 0 is not the running thread 1 (the stream is not serial "
        "fork-first)"
    )
    assert engine.detector.op_index == 1
