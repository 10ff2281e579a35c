"""Batched event-ingestion engine: the detector's serving fast path.

Four pieces, layered so each is useful alone:

* :mod:`repro.engine.batch` -- dense columnar event batches (parallel
  opcode / task-id / interned-location arrays) and the
  :class:`BatchBuilder` observer that captures them from a run;
* :mod:`repro.engine.ingest` -- :class:`BatchEngine`, the tight
  pre-bound per-batch loop over a detector (the paper's lattice2d
  detector unless told otherwise; in prediction mode SHB's windows
  answered by the same detector's ``Sup`` query);
* :mod:`repro.engine.tracefile` -- the compact binary record/replay
  format (capture a workload once, replay it into any detector),
  with ``mmap``-backed zero-copy reads;
* :mod:`repro.engine.differential` -- the conformance matrix: every
  detector and fast path judged against the per-event lattice2d
  referee; the correctness gate every future perf change must pass.

Quickstart::

    from repro.engine import BatchBuilder, BatchEngine, check_conformance
    from repro.forkjoin import run

    builder = BatchBuilder()
    run(body, observers=[builder])            # capture columnar trace
    engine = BatchEngine(interner=builder.interner)
    engine.ingest(builder.batch)              # batched detection
    print(engine.races())
    assert check_conformance(builder.batch, builder.interner,
                             ("fasttrack", "engine:lattice2d")).agreed
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
    CONFIGS,
    DifferentialReport,
    Divergence,
    check_conformance,
)
from repro.engine.ingest import BatchEngine
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
    "BatchEngine",
    "CONFIGS",
    "DifferentialReport",
    "Divergence",
    "check_conformance",
    "is_tracefile",
    "read_trace",
    "record_trace",
    "write_trace",
]
