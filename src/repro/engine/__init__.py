"""Batched event-ingestion engine: the detector's serving fast path.

Five pieces, layered so each is useful alone:

* :mod:`repro.engine.batch` -- dense columnar event batches (parallel
  opcode / task-id / interned-location arrays) and the
  :class:`BatchBuilder` observer that captures them from a run;
* :mod:`repro.engine.ingest` -- :class:`BatchEngine`, the tight
  pre-bound per-batch loop over a detector (with named ``backend``
  selection, :data:`BACKENDS`), and :class:`ShardedBatchEngine`, which
  partitions the shadow map by location id across independent detector
  instances;
* :mod:`repro.engine.vectorized` -- the numpy segment kernel behind
  the ``depa`` backend: whole batch columns per precedence query;
* :mod:`repro.engine.tracefile` -- the compact binary record/replay
  format (capture a workload once, replay it into any detector),
  with ``mmap``-backed zero-copy reads;
* :mod:`repro.engine.differential` -- lockstep cross-checking of
  per-access verdicts across detectors and across fast paths; the
  correctness gate every future perf change must pass.

Quickstart::

    from repro.engine import BatchBuilder, BatchEngine, replay_differential
    from repro.forkjoin import run

    builder = BatchBuilder()
    run(body, observers=[builder])            # capture columnar trace
    engine = BatchEngine(interner=builder.interner)
    engine.ingest(builder.batch)              # batched detection
    print(engine.races())
    assert replay_differential(builder.batch, builder.interner,
                               ("lattice2d", "fasttrack")).agreed
"""

from repro.engine.batch import (
    OP_FORK,
    OP_HALT,
    OP_JOIN,
    OP_READ,
    OP_STEP,
    OP_WRITE,
    OPCODE_NAMES,
    BatchBuilder,
    EventBatch,
    LocationInterner,
    batch_from_events,
    events_from_batch,
)
from repro.engine.differential import (
    DEFAULT_DETECTORS,
    DifferentialReport,
    Divergence,
    cross_check_backend,
    cross_check_sharded,
    replay_differential,
)
from repro.engine.ingest import BACKENDS, BatchEngine, ShardedBatchEngine
from repro.engine.tracefile import (
    is_tracefile,
    read_trace,
    record_trace,
    write_trace,
)

__all__ = [
    "OP_FORK",
    "OP_JOIN",
    "OP_HALT",
    "OP_STEP",
    "OP_READ",
    "OP_WRITE",
    "OPCODE_NAMES",
    "BatchBuilder",
    "EventBatch",
    "LocationInterner",
    "batch_from_events",
    "events_from_batch",
    "BACKENDS",
    "BatchEngine",
    "ShardedBatchEngine",
    "DEFAULT_DETECTORS",
    "DifferentialReport",
    "Divergence",
    "replay_differential",
    "cross_check_backend",
    "cross_check_sharded",
    "is_tracefile",
    "read_trace",
    "record_trace",
    "write_trace",
]
