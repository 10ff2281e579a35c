"""Shared machinery for the engine throughput benchmark.

Both entry points -- ``repro-race bench-engine`` and
``benchmarks/bench_engine_batch.py`` -- run this module, so the CLI
table and the checked-in benchmark can never drift apart.

The measured contenders, slowest to fastest:

* ``replay``    -- the pre-engine production path:
  :func:`repro.forkjoin.replay.replay_events` (per-event objects plus
  full structural validation);
* ``per-event`` -- per-event objects, no validation: an isinstance
  dispatch loop calling the detector's ``on_*`` methods directly;
* ``batched``   -- :class:`~repro.engine.ingest.BatchEngine` over
  columnar batches with interned locations (metrics registry live, as
  in production);
* ``batched-noobs`` -- the same engine bound to the disabled
  :data:`~repro.obs.registry.NULL_REGISTRY`, isolating what the
  per-batch counters cost (the gate keeps the ratio within 5%);
* ``predict``   -- :class:`~repro.engine.ingest.BatchEngine` in sound
  race-prediction mode (:class:`~repro.detectors.shb.SHBDetector`):
  vector-clock epochs plus per-location candidate windows, reporting
  every feasibly-reorderable racing pair.  Strictly more work per
  access than the observed-order paths; its soundness invariant
  (predicted races include everything the lattice2d referee observes)
  is checked every run and recorded as ``differential.predict_sound``;
* ``sharded``   -- :class:`~repro.engine.ingest.ShardedBatchEngine`
  (measures the lifecycle-replication overhead sharding pays for its
  partitioning; it is not expected to win on one core).

Every run also judges the paths and the lattice2d/fasttrack/spbags
trio against the per-event lattice2d referee before reporting, so
a throughput number from a detector that stopped detecting is
impossible by construction.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from functools import partial
from typing import Any, Callable, Dict, List, Sequence

from repro.core.detector import RaceDetector2D
from repro.engine.batch import BatchBuilder
from repro.engine.differential import (
    DEFAULT_DETECTORS,
    Config,
    check_conformance,
)
from repro.engine.ingest import BatchEngine, ShardedBatchEngine
from repro.obs.registry import NULL_REGISTRY
from repro.events import (
    Event,
    ForkEvent,
    HaltEvent,
    JoinEvent,
    ReadEvent,
    StepEvent,
    WriteEvent,
)
from repro.workloads.racegen import bulk_access_program, loop_program

__all__ = [
    "build_workload",
    "build_loop_workload",
    "capture",
    "drive_per_event",
    "run_engine_benchmark",
    "format_record",
]


def build_workload(
    accesses: int = 100_000,
    *,
    fanout: int = 8,
    accesses_per_task: int = 250,
    racy: bool = True,
) -> Callable:
    """The benchmark's standard traffic: a ``racegen`` bulk program
    sized to roughly ``accesses`` memory accesses (SP-shaped, so the
    differential trio including ``spbags`` applies)."""
    per_round = fanout * accesses_per_task
    rounds = max(1, accesses // per_round)
    racy_rounds = range(0, rounds, 5) if racy else ()
    return bulk_access_program(
        rounds,
        fanout,
        accesses_per_task,
        racy_rounds=racy_rounds,
    )


def build_loop_workload(
    accesses: int = 100_000,
    *,
    fanout: int = 4,
    pattern: int = 64,
    racy: bool = True,
) -> Callable:
    """A ``racegen`` loop program sized to roughly ``accesses`` memory
    accesses: every worker repeats one fixed ``pattern``-length access
    run (the workload ``submit --racegen-loops`` sends)."""
    loops = max(1, accesses // (fanout * pattern))
    return loop_program(fanout, loops, pattern, racy=racy)


def capture(body: Callable):
    """Run ``body`` once, capturing the event list and the columnar
    batch in the same execution; returns ``(events, batch, interner)``."""
    from repro.forkjoin.interpreter import run

    builder = BatchBuilder()
    ex = run(body, observers=[builder], record_events=True)
    assert ex.events is not None
    return ex.events, builder.batch, builder.interner


def drive_per_event(events: Sequence[Event], detector: Any) -> None:
    """The unbatched reference loop: one dispatch per event object."""
    for ev in events:
        if isinstance(ev, ReadEvent):
            detector.on_read(ev.task, ev.loc, ev.label)
        elif isinstance(ev, WriteEvent):
            detector.on_write(ev.task, ev.loc, ev.label)
        elif isinstance(ev, ForkEvent):
            detector.on_fork(ev.parent, ev.child)
        elif isinstance(ev, JoinEvent):
            detector.on_join(ev.joiner, ev.joined)
        elif isinstance(ev, HaltEvent):
            detector.on_halt(ev.task)
        elif isinstance(ev, StepEvent):
            detector.on_step(ev.task)


def _best_of(repeats: int, fn: Callable[[], Any]) -> float:
    """Min wall time over ``repeats`` timed runs, after one untimed
    warm-up run and with the cyclic GC paused (timeit's discipline --
    a collection triggered mid-run would bill one contender for
    whatever garbage the process accumulated beforehand)."""
    fn()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def _paired_samples(
    repeats: int, fa: Callable[[], Any], fb: Callable[[], Any]
) -> List[tuple]:
    """Interleaved a/b/a/b wall-time samples, so slow drift (frequency
    scaling, cache pressure from the surrounding process) hits both
    sides equally.  Returns the list of ``(a_seconds, b_seconds)``
    pairs: callers take the min for a headline number and the median
    per-pair ratio for the hysteresis gates, which a single noisy
    repeat cannot move."""
    fa()
    fb()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        samples = []
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            fa()
            t1 = time.perf_counter()
            fb()
            t2 = time.perf_counter()
            samples.append((t1 - t0, t2 - t1))
    finally:
        if was_enabled:
            gc.enable()
    return samples


def run_engine_benchmark(
    *,
    accesses: int = 100_000,
    fanout: int = 8,
    accesses_per_task: int = 250,
    racy: bool = True,
    shards: int = 4,
    batch_size: int = 8192,
    repeats: int = 3,
    detectors: Sequence[str] = DEFAULT_DETECTORS,
) -> Dict[str, Any]:
    """Measure every ingestion path on one workload; return the record.

    The returned dict is what ``BENCH_engine.json`` stores: workload
    shape, per-path wall seconds and events/sec, the batched-over-
    per-event speedups, race counts, and the differential verdicts.
    """
    body = build_workload(
        accesses,
        fanout=fanout,
        accesses_per_task=accesses_per_task,
        racy=racy,
    )
    events, batch, interner = capture(body)

    def run_replay():
        from repro.forkjoin.replay import replay_events

        det = RaceDetector2D()
        # replay_events drives observer-protocol objects; RaceDetector2D
        # itself satisfies it (on_root checks the dense id).
        replay_events(events, observers=[det])
        return det

    def run_per_event():
        det = RaceDetector2D()
        det.spawn_root()
        drive_per_event(events, det)
        return det

    def run_batched():
        # Default registry: metrics stay ON for the headline number, so
        # the >=2x gate is met with instrumentation in place.
        engine = BatchEngine(interner=interner)
        engine.ingest_all(batch.slices(batch_size))
        return engine

    def run_batched_noobs():
        engine = BatchEngine(interner=interner, registry=NULL_REGISTRY)
        engine.ingest_all(batch.slices(batch_size))
        return engine

    def run_sharded():
        engine = ShardedBatchEngine(shards, interner=interner)
        engine.ingest_all(batch.slices(batch_size))
        return engine

    def run_predict():
        engine = BatchEngine(interner=interner, predict=True)
        engine.ingest_all(batch.slices(batch_size))
        return engine

    # Metrics on vs off, interleaved: the two timings only mean
    # something relative to each other, and the overhead ratio is the
    # median per-pair ratio, which one noisy repeat cannot move.
    obs_samples = _paired_samples(
        max(repeats, 7), run_batched, run_batched_noobs
    )
    paired_batched_s = min(a for a, _ in obs_samples)
    batched_noobs_s = min(b for _, b in obs_samples)
    metrics_overhead_median = statistics.median(
        a / b for a, b in obs_samples
    )
    # The headline also takes max(repeats, 5) unpaired runs: the
    # committed baseline's batched figure is a best of that many plus
    # ``repeats`` samples, and the regression gate compares like with
    # like.  The overhead ratio below keeps to the paired samples.
    batched_s = min(paired_batched_s, _best_of(max(repeats, 5), run_batched))
    timings = {
        "replay": _best_of(repeats, run_replay),
        "per-event": _best_of(repeats, run_per_event),
        "batched": batched_s,
        "batched-noobs": batched_noobs_s,
        "predict": _best_of(repeats, run_predict),
        "sharded": _best_of(repeats, run_sharded),
    }

    n = len(batch)

    # Correctness gates: the fast paths must report exactly what the
    # reference does, and the detector trio must agree per access.
    # (Labels are dropped on the batched path, so compare everything
    # except the label.)
    def key(r):
        return (r.loc, r.task, r.kind, r.prior_kind, r.prior_repr, r.op_index)

    per_event_races = run_per_event().races
    batched_races = run_batched().races()
    if [key(r) for r in batched_races] != [key(r) for r in per_event_races]:
        raise AssertionError(
            "batched ingestion changed verdicts: "
            f"{len(batched_races)} vs {len(per_event_races)} reports"
        )
    # The sharded row is built here: ``shards`` may be any count, not
    # just the table's.
    sharded = Config(
        "sharded", "multiset", partial(ShardedBatchEngine, shards), "batches"
    )
    paths = check_conformance(
        batch, interner,
        (sharded, "predict"),
        batch_size=batch_size,
    )
    diff = check_conformance(batch, interner, detectors)

    record: Dict[str, Any] = {
        "bench": "engine_batch",
        "workload": {
            "generator": "racegen.bulk_access_program",
            "accesses": batch.access_count(),
            "events": n,
            "tasks": 1 + sum(1 for ev in events if isinstance(ev, ForkEvent)),
            "fanout": fanout,
            "accesses_per_task": accesses_per_task,
            "racy": racy,
            "locations": len(interner),
        },
        "batch_size": batch_size,
        "shards": shards,
        "cpu_count": os.cpu_count(),
        "seconds": {k: round(v, 6) for k, v in timings.items()},
        "events_per_sec": {
            k: round(n / v) for k, v in timings.items() if v > 0
        },
        "speedup_batched_vs_per_event": round(
            timings["per-event"] / timings["batched"], 3
        ),
        "speedup_batched_vs_replay": round(
            timings["replay"] / timings["batched"], 3
        ),
        # How much the per-batch counters cost when metrics are live,
        # relative to a disabled (null) registry: the median per-pair
        # ratio of the interleaved samples; it should hug 1.0.
        "metrics_overhead_vs_disabled": round(metrics_overhead_median, 3),
        "races": {
            "per_event": len(per_event_races),
            "batched": len(batched_races),
            "predict": paths.races["predict"],
            "sharded": paths.races["sharded"],
        },
        "differential": {
            "detectors": list(diff.configs),
            "races": diff.races,
            "divergences": len(diff.divergences),
            "sharded_agrees": paths.cells["sharded"],
            "predict_sound": paths.cells["predict"],
        },
        "versions": _versions(),
    }
    return record


def _versions() -> Dict[str, Any]:
    """Interpreter and numpy versions, for cross-host comparability of
    the committed record (absolute ev/s gates mean little without
    them)."""
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def format_record(record: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Rows for :func:`repro.bench.tables.format_table`."""
    base = record["seconds"]["per-event"]
    return [
        {
            "path": name,
            "seconds": round(secs, 4),
            "events/s": record["events_per_sec"][name],
            "vs per-event": f"{base / secs:.2f}x",
        }
        for name, secs in record["seconds"].items()
    ]
