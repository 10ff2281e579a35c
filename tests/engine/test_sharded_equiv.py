"""Sharded ingestion is an equivalence, not an approximation.

For shard counts 1, 2, 3 and 8 the sharded engine must produce exactly
the race reports and shadow occupancy of the unsharded engine on the
same trace, and its routing counters must account for every ingested
event exactly once (accesses against their owner shard, replicated
lifecycle events once).  Random spawn-sync programs ride the same
check as a property sweep.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import BatchBuilder
from repro.engine.ingest import BatchEngine, ShardedBatchEngine
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


def _shadow_total(engine) -> int:
    return sum(det.shadow.total_entries() for det in engine.shards)


@pytest.fixture(scope="module")
def reference():
    batch, interner = _capture()
    engine = BatchEngine(interner=interner, registry=MetricsRegistry())
    engine.ingest_all(batch.slices(512))
    return batch, interner, engine


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_equals_unsharded(shards, reference):
    batch, interner, ref = reference
    registry = MetricsRegistry()
    engine = ShardedBatchEngine(shards, interner=interner,
                                registry=registry)
    engine.ingest_all(batch.slices(512))

    # Identical race verdicts (per-shard streams renumber op_index, so
    # reports are compared as a multiset of flagged accesses).
    assert _flag_multiset(engine.races()) == _flag_multiset(ref.races())
    assert len(engine.races()) == len(ref.races()) > 0

    # Identical shadow occupancy: every location lives in exactly one
    # shard, so entries must sum to the unsharded detector's total.
    assert _shadow_total(engine) == ref.detector.shadow.total_entries()

    # Routing counters partition the trace: per-shard access counts
    # plus once-counted lifecycle events add up to the batch length.
    snapshot = registry.snapshot()["counters"]
    routed = sum(
        snapshot[
            f'engine_shard_accesses_total{{engine="sharded",shard="{k}"}}'
        ]
        for k in range(shards)
    )
    lifecycle = snapshot[
        'engine_shard_lifecycle_total{engine="sharded"}'
    ]
    assert routed == batch.access_count()
    assert routed + lifecycle == len(batch)
    assert snapshot['engine_events_total{engine="sharded"}'] == len(batch)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_batch_size_does_not_matter(shards, reference):
    batch, interner, ref = reference
    one_shot = ShardedBatchEngine(shards, interner=interner,
                                  registry=MetricsRegistry())
    one_shot.ingest(batch)
    sliced = ShardedBatchEngine(shards, interner=interner,
                                registry=MetricsRegistry())
    sliced.ingest_all(batch.slices(64))
    assert _flag_multiset(one_shot.races()) == _flag_multiset(
        sliced.races()
    ) == _flag_multiset(ref.races())


@settings(max_examples=30, deadline=None)
@given(
    case=spawn_sync_cases(max_leaves=8),
    shards=st.sampled_from(SHARD_COUNTS),
    slice_size=st.sampled_from((None, 5)),
)
def test_random_spawn_sync_programs(case, shards, slice_size):
    """Random spawn-sync programs as one more input: whole or sliced
    into odd payloads, the sharded engine flags
    exactly the accesses the serial lattice2d engine flags."""
    tree, plan = case
    builder = BatchBuilder()
    run(_cilk_program(tree, plan), observers=[builder])
    batch = builder.batch
    ref = BatchEngine(registry=MetricsRegistry())
    ref.ingest(batch)
    engine = ShardedBatchEngine(shards, registry=MetricsRegistry())
    if slice_size is None:
        engine.ingest(batch)
    else:
        engine.ingest_all(batch.slices(slice_size))
    races = engine.races()
    assert _flag_multiset(races) == _flag_multiset(ref.races())
    assert len(races) == len(ref.races())
