"""Property-based equivalence sweep for the DePa backend.

Random spawn-sync programs (the generator from the differential sweep,
executed depth-first by the interpreter -- exactly the fork-first
discipline the backend requires) ingested through
``BatchEngine(backend="depa")`` must flag exactly the accesses the
lattice2d referee flags: same ``(task, loc, kind)`` multiset, same
count.  Slicing at awkward sizes exercises the scalar fallback (tiny
sub-batches), the segment kernel (large ones), and the structural
state carried across batch boundaries.  Both sweeps judge through the
conformance matrix; the sharded one adds a 3-shard row the table lacks.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import BatchBuilder
from repro.engine.differential import Config, check_conformance
from repro.engine.ingest import ShardedBatchEngine
from repro.forkjoin.interpreter import run
from tests.engine.test_property_differential import (
    _cilk_program,
    spawn_sync_cases,
)

pytestmark = pytest.mark.engine

SLICE_SIZES = (5, 64, 10_000)


@settings(max_examples=40, deadline=None)
@given(
    case=spawn_sync_cases(max_leaves=8),
    size=st.sampled_from(SLICE_SIZES),
)
def test_depa_equals_lattice2d(case, size):
    builder = BatchBuilder()
    run(_cilk_program(*case), observers=[builder])
    report = check_conformance(
        builder.batch, builder.interner, ("engine:depa",), batch_size=size
    )
    assert report.cells["engine:depa"], report.summary()
    assert report.races["engine:depa"] == report.races["lattice2d"]


@settings(max_examples=15, deadline=None)
@given(
    case=spawn_sync_cases(max_leaves=8),
    shards=st.sampled_from((2, 3)),
)
def test_sharded_depa_equals_lattice2d(case, shards):
    """Sharding composes with the backend: lifecycle replication keeps
    every shard's stream fork-first."""
    builder = BatchBuilder()
    run(_cilk_program(*case), observers=[builder])
    row = Config(
        f"sharded:{shards}:depa",
        "multiset",
        partial(ShardedBatchEngine, shards, backend="depa"),
        feed="batches",
    )
    report = check_conformance(
        builder.batch, builder.interner, (row,), batch_size=64
    )
    assert report.cells[row.name], report.summary()
    assert report.races[row.name] == report.races["lattice2d"]
