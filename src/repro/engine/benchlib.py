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
import io
import os
import statistics
import time
from functools import partial
from typing import Any, Callable, Dict, List, Sequence

from repro.compress import compress as compress_trace, write_tracez
from repro.core.detector import RaceDetector2D
from repro.engine.batch import BatchBuilder, EventBatch, LocationInterner
from repro.engine.differential import (
    DEFAULT_DETECTORS,
    Config,
    check_conformance,
)
from repro.engine.ingest import BatchEngine, ShardedBatchEngine
from repro.engine.tracefile import write_trace
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
    """The compressed path's standard traffic: a ``racegen`` loop
    program sized to roughly ``accesses`` memory accesses.  The
    ``pattern`` default divides the compressor's block width, so the
    interior of every worker's run dedups to a handful of unique
    blocks (the workload the ``--loops`` CLI knobs expose)."""
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


def _best_of_paired(
    repeats: int, fa: Callable[[], Any], fb: Callable[[], Any]
) -> tuple:
    """Min wall time per side over interleaved samples (see
    :func:`_paired_samples`).  Used for the metrics-overhead ratio,
    where the two timings are only meaningful relative to each
    other."""
    samples = _paired_samples(repeats, fa, fb)
    return min(a for a, _ in samples), min(b for _, b in samples)


def run_engine_benchmark(
    *,
    accesses: int = 100_000,
    fanout: int = 8,
    accesses_per_task: int = 250,
    racy: bool = True,
    shards: int = 4,
    batch_size: int = 8192,
    repeats: int = 3,
    loop_fanout: int = 4,
    loop_pattern: int = 64,
    detectors: Sequence[str] = DEFAULT_DETECTORS,
) -> Dict[str, Any]:
    """Measure every ingestion path on one workload; return the record.

    The returned dict is what ``BENCH_engine.json`` stores: workload
    shape, per-path wall seconds and events/sec, the batched-over-
    per-event and compressed-over-batched speedups, race counts, and the
    differential verdicts.
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

    paired_batched_s, batched_noobs_s = _best_of_paired(
        repeats, run_batched, run_batched_noobs
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

    # -- the compressed path ------------------------------------------------
    # Measured on its natural traffic: the deliberately repetitive
    # ``racegen`` loop workload (same access budget), where block dedup
    # actually bites.  Raw batched ingestion over the expanded stream
    # vs memoized ingestion over the compressed form, interleaved so
    # drift hits both sides equally.
    loop_body = build_loop_workload(
        accesses, fanout=loop_fanout, pattern=loop_pattern, racy=racy
    )
    _, loop_batch, loop_interner = capture(loop_body)
    ctrace = compress_trace(loop_batch, registry=NULL_REGISTRY)

    def run_batched_loops():
        engine = BatchEngine(interner=loop_interner)
        engine.ingest_all(loop_batch.slices(batch_size))
        return engine

    def run_compressed():
        # A fresh engine per run: the memo starts cold every repeat, so
        # the timing includes the scan-and-record misses.
        engine = BatchEngine(interner=loop_interner)
        engine.ingest_compressed(ctrace)
        return engine

    comp_samples = _paired_samples(
        max(repeats, 5), run_batched_loops, run_compressed
    )
    loop_timings = {
        "batched_loops": min(a for a, _ in comp_samples),
        "compressed": min(b for _, b in comp_samples),
    }
    compressed_ratio_median = statistics.median(
        a / b for a, b in comp_samples
    )
    n_loop = len(loop_batch)
    raw_buf = io.BytesIO()
    write_trace(raw_buf, loop_batch, loop_interner)
    z_buf = io.BytesIO()
    write_tracez(z_buf, ctrace, loop_interner)
    raw_bytes = len(raw_buf.getvalue())
    z_bytes = len(z_buf.getvalue())
    memo_engine = run_compressed()
    memo = memo_engine._memo
    compressed_races = memo_engine.races()
    memo_paths = ("memo:lattice2d", "memo:sharded")
    memo_loops = check_conformance(
        loop_batch, loop_interner, memo_paths
    ).agreed

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
    # The bulk workload barely repeats, so its memo cells check the
    # fallback discipline rather than the cache.  The sharded row is
    # built here: ``shards`` may be any count, not just the table's.
    sharded = Config(
        "sharded", "multiset", partial(ShardedBatchEngine, shards), "batches"
    )
    paths = check_conformance(
        batch, interner,
        (sharded, "predict", *memo_paths),
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
        "workload_loops": {
            "generator": "racegen.loop_program",
            "accesses": loop_batch.access_count(),
            "events": n_loop,
            "fanout": loop_fanout,
            "pattern": loop_pattern,
            "unique_blocks": len(ctrace.blocks),
            "expanded_blocks": ctrace.block_count(),
            "block_width": ctrace.block_width,
            "raw_bytes": raw_bytes,
            "compressed_bytes": z_bytes,
        },
        "seconds": {
            **{k: round(v, 6) for k, v in timings.items()},
            **{k: round(v, 6) for k, v in loop_timings.items()},
        },
        "events_per_sec": {
            **{k: round(n / v) for k, v in timings.items() if v > 0},
            **{
                k: round(n_loop / v)
                for k, v in loop_timings.items()
                if v > 0
            },
        },
        "compression_ratio": round(raw_bytes / z_bytes, 3),
        "speedup_compressed_vs_batched": round(
            loop_timings["batched_loops"] / loop_timings["compressed"], 3
        ),
        "speedup_compressed_vs_batched_median": round(
            compressed_ratio_median, 3
        ),
        "memo": {
            "hits": memo.hits,
            "misses": memo.misses,
            "fallbacks": memo.fallbacks,
        },
        "speedup_batched_vs_per_event": round(
            timings["per-event"] / timings["batched"], 3
        ),
        "speedup_batched_vs_replay": round(
            timings["replay"] / timings["batched"], 3
        ),
        # How much the per-batch counters cost when metrics are live,
        # and what a disabled (null) registry costs relative to that,
        # over the paired samples only; the ratio should hug 1.0.
        "metrics_overhead_vs_disabled": round(
            paired_batched_s / batched_noobs_s, 3
        )
        if batched_noobs_s > 0
        else None,
        "races": {
            "per_event": len(per_event_races),
            "batched": len(batched_races),
            "predict": paths.races["predict"],
            "sharded": paths.races["sharded"],
            "compressed": len(compressed_races),
        },
        "differential": {
            "detectors": list(diff.configs),
            "races": diff.races,
            "divergences": len(diff.divergences),
            "sharded_agrees": paths.cells["sharded"],
            "predict_sound": paths.cells["predict"],
            "compressed_agrees": memo_loops
            and all(paths.cells[p] for p in memo_paths),
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
    # The loops contenders run a different (loop-shaped) workload, so
    # their reference is the raw batched ingestion of that same stream,
    # not the main workload's per-event loop.
    loop_base = record["seconds"].get("batched_loops")
    rows = []
    for name, secs in record["seconds"].items():
        if name in ("batched_loops", "compressed") and loop_base:
            ratio = f"{loop_base / secs:.2f}x vs batched_loops"
        else:
            ratio = f"{base / secs:.2f}x"
        rows.append(
            {
                "path": name,
                "seconds": round(secs, 4),
                "events/s": record["events_per_sec"][name],
                "vs per-event": ratio,
            }
        )
    return rows
