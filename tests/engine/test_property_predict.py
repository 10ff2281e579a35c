"""Property-based soundness sweep for the prediction engine.

Random spawn-sync programs ingested through ``BatchEngine(predict=True)``
must *cover* what the observed-order engine flags: the predicted
``(task, loc, kind)`` multiset is a superset of the lattice2d one, on
every program, serially and sharded.  Prediction must also be
schedule-of-ingest independent -- the predicted race set (down to the
partner task of each pair) is identical across batch sizes 1, 7, 64 and
10k, and across 1/2/4 shards.  The invariance sweep also draws
non-SP shapes: wavefronts, blocked wavefronts and pipelines built from
a :class:`~repro.forkjoin.pipeline.PipelineSpec` (with and without
parallel stages), and random synthetic lattices with leftover joins.

The deterministic tests at the bottom pin the *strictness* of the
superset: one program where prediction reports strictly more pairs than
the observed multiset (pair enumeration vs supremum folding), and the
reordering trace where it reports a pair *no* observed-order detector
flags at all (see ``tests/detectors/test_shb.py`` and
``docs/PREDICTION.md``).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import BatchBuilder
from repro.engine.differential import cross_check_predict
from repro.engine.ingest import BatchEngine, ShardedBatchEngine
from repro.forkjoin.interpreter import run
from repro.forkjoin.pipeline import PipelineSpec, pipeline_body
from repro.forkjoin.program import read, write
from repro.forkjoin.spawn_sync import cilk
from repro.obs.registry import MetricsRegistry
from repro.workloads.access_patterns import uniform_shared
from repro.workloads.pipelines import (
    clean_pipeline,
    racy_pipeline,
    shared_counter_pipeline,
)
from repro.workloads.synthetic import SyntheticConfig, random_program
from repro.workloads.wavefront import (
    blocked_wavefront,
    wavefront,
    wavefront_with_bug,
)
from tests.detectors.test_shb import REORDERING_TRACE, make_batch
from tests.engine.test_property_differential import (
    _cilk_program,
    spawn_sync_cases,
)

pytestmark = [pytest.mark.engine, pytest.mark.predict]

SLICE_SIZES = (1, 7, 64, 10_000)


def _flag_multiset(races):
    return Counter((r.task, r.loc, r.kind) for r in races)


def _pair_multiset(races):
    """Full pair identity: accessor, partner, location and both kinds."""
    return Counter(
        (r.task, r.prior_repr, r.loc, r.kind, r.prior_kind) for r in races
    )


def _capture(case):
    tree, plan = case
    return _capture_body(_cilk_program(tree, plan))


def _capture_body(body):
    builder = BatchBuilder()
    run(body, observers=[builder])
    return builder.batch


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


@settings(max_examples=40, deadline=None)
@given(
    case=spawn_sync_cases(max_leaves=8),
    size=st.sampled_from(SLICE_SIZES),
)
def test_predicted_covers_observed(case, size):
    batch = _capture(case)
    sound, predicted, observed = cross_check_predict(
        batch, observed=("lattice2d",), batch_size=size
    )
    assert sound, (
        f"prediction missed observed races: predicted "
        f"{_flag_multiset(predicted)}, observed "
        f"{_flag_multiset(observed['lattice2d'])}"
    )


@settings(max_examples=15, deadline=None)
@given(
    case=spawn_sync_cases(max_leaves=8),
    shards=st.sampled_from((1, 2, 4)),
)
def test_sharded_predict_equals_serial_and_covers_observed(case, shards):
    """Lifecycle replication keeps every shard's vector clocks exact:
    sharded prediction reports the very same pairs as serial, and the
    union still covers the observed engine."""
    batch = _capture(case)
    serial = BatchEngine(predict=True, registry=MetricsRegistry())
    serial.ingest(batch)

    sharded = ShardedBatchEngine(
        shards, predict=True, registry=MetricsRegistry()
    )
    sharded.ingest_all(batch.slices(64))
    assert _pair_multiset(sharded.races()) == _pair_multiset(serial.races())

    ref = BatchEngine(registry=MetricsRegistry())
    ref.ingest(batch)
    assert _flag_multiset(ref.races()) <= _flag_multiset(sharded.races())


@settings(max_examples=25, deadline=None)
@given(case=spawn_sync_cases(max_leaves=8))
def test_predicted_set_is_batch_size_invariant(case):
    """The candidate windows carry all cross-batch state: slicing the
    stream anywhere yields the identical pair set."""
    batch = _capture(case)
    sets = []
    for size in SLICE_SIZES:
        engine = BatchEngine(predict=True, registry=MetricsRegistry())
        engine.ingest_all(batch.slices(size))
        sets.append(_pair_multiset(engine.races()))
    assert all(s == sets[0] for s in sets[1:])


@settings(max_examples=40, deadline=None)
@given(body=non_sp_bodies)
def test_non_sp_pairs_are_batch_size_and_shard_invariant(body):
    """Grid and random lattices exercise joins of non-parent tasks and
    leftover absorption: slicing the stream anywhere and splitting it
    over any shard count yields the identical pair multiset."""
    batch = _capture_body(body)
    serial = BatchEngine(predict=True, registry=MetricsRegistry())
    serial.ingest(batch)
    expected = _pair_multiset(serial.races())
    for size in SLICE_SIZES:
        engine = BatchEngine(predict=True, registry=MetricsRegistry())
        engine.ingest_all(batch.slices(size))
        assert _pair_multiset(engine.races()) == expected, size
    for shards in (1, 2, 4):
        sharded = ShardedBatchEngine(
            shards, predict=True, registry=MetricsRegistry()
        )
        sharded.ingest_all(batch.slices(64))
        assert _pair_multiset(sharded.races()) == expected, shards


def test_strictly_more_pairs_than_observed_multiset():
    """Two forked readers then a parent write: the observed engine
    folds both reads into one supremum and reports the write once;
    prediction reports one pair per reader."""
    builder = BatchBuilder()

    @cilk
    def reader(ctx):
        yield read("x")

    @cilk
    def program(ctx):
        yield from ctx.spawn(reader)
        yield from ctx.spawn(reader)
        yield write("x")
        yield from ctx.sync()

    run(program, observers=[builder])
    batch = builder.batch

    sound, predicted, observed = cross_check_predict(batch)
    assert sound
    pred = _flag_multiset(predicted)
    obs = _flag_multiset(observed["lattice2d"])
    assert obs <= pred
    assert sum(pred.values()) > sum(obs.values())  # strictly more: 2 vs 1


def test_reordering_trace_beats_every_observed_detector():
    """Set-level strictness: the REORDERING_TRACE carries a racing
    pair invisible to the observed-order detectors.  depa rejects this
    trace (it is not fork-first), so the cross-check runs against
    lattice2d alone."""
    batch = make_batch(REORDERING_TRACE)
    sound, predicted, observed = cross_check_predict(
        batch, observed=("lattice2d",)
    )
    assert sound
    pred = _flag_multiset(predicted)
    obs = _flag_multiset(observed["lattice2d"])
    assert obs <= pred
    assert set(pred) - set(obs)  # a flag no observed detector produced
