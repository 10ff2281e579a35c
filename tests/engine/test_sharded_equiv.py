"""Location sharding is an equivalence, not an approximation.

:func:`~repro.engine.ingest.split_batch` is the gateway's routing step:
slice ``k`` of ``n`` holds every structural row plus the accesses with
``lid % n == k``, in stream order.  Feeding each slice to its own
:class:`BatchEngine` must find exactly the race reports and shadow
occupancy of one unsplit engine on the same trace, for 1, 2, 3 and 8
slices, batched whole or sliced.  Random spawn-sync programs ride the
same check as a property sweep.  This is the exactness ``serve
--workers`` rests on, tested without sockets.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.engine.ingest import BatchEngine, split_batch
from repro.forkjoin.interpreter import run
from repro.obs.registry import MetricsRegistry
from repro.workloads.racegen import bulk_access_program
from tests.engine.test_property_differential import (
    _cilk_program,
    spawn_sync_cases,
)

pytestmark = pytest.mark.engine

SHARD_COUNTS = (1, 2, 3, 8)

WORKLOAD = bulk_access_program(6, 4, 11, racy_rounds=(1, 4))


def _capture():
    builder = BatchBuilder()
    run(WORKLOAD, observers=[builder])
    return builder.batch, builder.interner


def _flag_multiset(races):
    return Counter((r.task, r.loc, r.kind) for r in races)


def _split_engines(batches, n: int, interner=None) -> List[BatchEngine]:
    """One engine per slice, each fed its own slice of every batch."""
    engines = [
        BatchEngine(interner=interner, registry=MetricsRegistry())
        for _ in range(n)
    ]
    for batch in batches:
        for engine, sub in zip(engines, split_batch(batch, n)):
            engine.ingest(sub)
    return engines


def _merged_races(engines):
    return [r for engine in engines for r in engine.races()]


@pytest.fixture(scope="module")
def reference():
    batch, interner = _capture()
    engine = BatchEngine(interner=interner, registry=MetricsRegistry())
    engine.ingest_all(batch.slices(512))
    return batch, interner, engine


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_equals_unsharded(shards, reference):
    batch, interner, ref = reference
    engines = _split_engines(batch.slices(512), shards, interner)

    # Identical race verdicts (each slice renumbers op_index, so
    # reports are compared as a multiset of flagged accesses).
    races = _merged_races(engines)
    assert _flag_multiset(races) == _flag_multiset(ref.races())
    assert len(races) == len(ref.races()) > 0

    # Identical shadow occupancy: every location lives in exactly one
    # slice, so entries must sum to the unsharded detector's total.
    assert sum(
        e.detector.shadow.total_entries() for e in engines
    ) == ref.detector.shadow.total_entries()

    # The slices partition the accesses and each replicates every
    # structural event.
    structural = len(batch) - batch.access_count()
    assert sum(
        e.events_ingested - structural for e in engines
    ) == batch.access_count()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_batch_size_does_not_matter(shards, reference):
    batch, interner, ref = reference
    one_shot = _split_engines([batch], shards, interner)
    sliced = _split_engines(batch.slices(64), shards, interner)
    assert _flag_multiset(_merged_races(one_shot)) == _flag_multiset(
        _merged_races(sliced)
    ) == _flag_multiset(ref.races())


@settings(max_examples=30, deadline=None)
@given(
    case=spawn_sync_cases(max_leaves=8),
    shards=st.sampled_from(SHARD_COUNTS),
    slice_size=st.sampled_from((None, 5)),
)
def test_random_spawn_sync_programs(case, shards, slice_size):
    """Random spawn-sync programs as one more input: whole or sliced
    into odd payloads, one engine per :func:`split_batch` slice flags
    exactly the accesses one unsplit lattice2d engine flags."""
    tree, plan = case
    builder = BatchBuilder()
    run(_cilk_program(tree, plan), observers=[builder])
    batch = builder.batch
    ref = BatchEngine(registry=MetricsRegistry())
    ref.ingest(batch)
    batches = [batch] if slice_size is None else batch.slices(slice_size)
    races = _merged_races(_split_engines(batches, shards))
    assert _flag_multiset(races) == _flag_multiset(ref.races())
    assert len(races) == len(ref.races())


def _random_batch(rows: int, seed: int) -> EventBatch:
    rng = random.Random(seed)
    ops = (OP_FORK, OP_JOIN, OP_HALT, OP_STEP, OP_READ, OP_WRITE)
    batch = EventBatch()
    for _ in range(rows):
        batch.append(rng.choice(ops), rng.randrange(64), rng.randrange(1000))
    return batch


@pytest.mark.parametrize("rows", [0, 1, 127, 128, 8192])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_split_batch_is_the_location_filter(n, rows):
    """Slice ``k`` is the order-preserving filter "structural rows plus
    accesses with ``lid % n == k``", in ``B``/``i``/``i`` columns."""
    batch = _random_batch(rows, seed=rows * 10 + n)
    subs = split_batch(batch, n)
    assert len(subs) == n
    rows_of = list(zip(batch.ops, batch.a, batch.b))
    for k, sub in enumerate(subs):
        assert (sub.ops.typecode, sub.a.typecode, sub.b.typecode) == (
            "B", "i", "i"
        )
        assert list(zip(sub.ops, sub.a, sub.b)) == [
            (op, a, b) for op, a, b in rows_of
            if op < OP_READ or b % n == k
        ]


def test_split_batch_rejects_no_shards():
    with pytest.raises(ValueError, match="positive"):
        split_batch(EventBatch(), 0)
