"""Experiment E4 -- the serving layer's cost over direct ingestion.

``repro serve`` is an engineering extension, not a paper claim, so its
benchmark gates *overhead*, not a speedup: shipping the standard
100k-access ``racegen`` workload through framing, CRC, loopback TCP,
the asyncio session machinery, and the credit loop must cost at most
2x the events/sec of handing the same batch straight to a local
:class:`BatchEngine`.  The load generator then scales the same
workload to 4 and 16 concurrent sessions to record how aggregate
throughput holds up under the credit window.

The numbers merge into ``BENCH_engine.json`` (read-modify-write: the
engine benchmark owns the record and runs first in CI) as
``events_per_sec.serve_1s/_4s/_16s`` plus the headline
``serve_vs_batched_overhead`` ratio, which the CI regression gate
tracks alongside the batched series.

The multi-node tier rides the same harness: ``serve_multinode_2w`` and
``serve_multinode_4w`` replay the single-session load through a
:class:`ClusterThread` gateway sharding by location across 2 and 4
engine worker processes (``docs/SCALE_OUT.md``).  On a single-core
bench host these legs measure routing overhead, not speedup, so no
ratio is gated -- but ``differential.serve_multinode_agrees`` (gateway
races == local races at every worker count) is asserted on every run.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.bench.tables import print_table
from repro.engine.benchlib import build_workload, capture
from repro.engine.ingest import BatchEngine
from repro.obs.registry import MetricsRegistry
from repro.serve import (
    ClusterConfig,
    ClusterThread,
    ServeConfig,
    ServerThread,
    run_load,
)

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

ACCESSES = 100_000
BATCH_SIZE = 16384
SESSION_COUNTS = (1, 4, 16)
MULTINODE_WORKERS = (2, 4)
REPEATS = 3

pytestmark = [pytest.mark.engine, pytest.mark.serve]


def _time_batched(batch) -> float:
    """Best-of direct BatchEngine ingestion: the reference the serving
    overhead is measured against (fresh engine per run, GC paused --
    the discipline of :func:`repro.engine.benchlib._best_of`)."""
    engine = BatchEngine()
    engine.ingest(batch)  # warm-up
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            engine = BatchEngine()
            start = time.perf_counter()
            engine.ingest(batch)
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def _time_served(port: int, batch, sessions: int) -> tuple:
    """Best-of load-generator seconds plus the races of the last run
    (identical across runs: every session replays the same batch)."""
    best = float("inf")
    races = 0
    for _ in range(REPEATS):
        result = run_load(
            "127.0.0.1", port, batch,
            sessions=sessions, batch_size=BATCH_SIZE, timeout=120.0,
        )
        assert result.events == sessions * len(batch)
        best = min(best, result.seconds)
        races = result.races
    return best, races


@pytest.fixture(scope="module")
def record():
    _events, batch, _interner = capture(build_workload(ACCESSES))
    batched_s = _time_batched(batch)
    eps = {"batched_reference": len(batch) / batched_s}
    seconds = {"batched_reference": batched_s}
    reference = BatchEngine()
    reference.ingest(batch)
    local_races = len(reference.detector.races)
    with ServerThread(registry=MetricsRegistry()) as srv:
        for sessions in SESSION_COUNTS:
            served_s, _ = _time_served(srv.port, batch, sessions)
            key = f"serve_{sessions}s"
            seconds[key] = served_s
            eps[key] = sessions * len(batch) / served_s
    # The multi-node legs each get a fresh gateway: worker processes
    # are part of what is being measured, not amortisable fixtures.
    multinode_races = {}
    for workers in MULTINODE_WORKERS:
        with ClusterThread(
            ClusterConfig(workers=workers), registry=MetricsRegistry()
        ) as cluster:
            served_s, races = _time_served(cluster.port, batch, 1)
            key = f"serve_multinode_{workers}w"
            seconds[key] = served_s
            eps[key] = len(batch) / served_s
            multinode_races[workers] = races
    multinode_agrees = all(
        races == local_races for races in multinode_races.values()
    )
    rec = {
        "bench": "serve",
        "workload": {
            "accesses": ACCESSES,
            "events": len(batch),
            "batch_size": BATCH_SIZE,
            "repeats": REPEATS,
        },
        "seconds": seconds,
        "events_per_sec": eps,
        "serve_vs_batched_overhead": eps["batched_reference"]
        / eps["serve_1s"],
        "differential": {
            "serve_multinode_agrees": multinode_agrees,
            "races": {
                "local": local_races,
                "serve_multinode": {
                    str(w): r for w, r in multinode_races.items()
                },
            },
        },
    }

    # Merge into the engine record: bench_engine_batch.py rewrites the
    # file wholesale, so this benchmark must run after it and only
    # add its own keys.
    stored = {}
    if RECORD_PATH.exists():
        stored = json.loads(RECORD_PATH.read_text(encoding="utf-8"))
    stored.setdefault("events_per_sec", {}).update(
        {k: v for k, v in eps.items() if k.startswith("serve_")}
    )
    stored.setdefault("seconds", {}).update(
        {k: v for k, v in seconds.items() if k.startswith("serve_")}
    )
    stored["serve_vs_batched_overhead"] = rec["serve_vs_batched_overhead"]
    stored.setdefault("differential", {})[
        "serve_multinode_agrees"
    ] = multinode_agrees
    RECORD_PATH.write_text(
        json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print_table(
        [
            {
                "path": name,
                "seconds": f"{seconds[name]:.3f}",
                "events/sec": f"{eps[name]:,.0f}",
            }
            for name in (
                "batched_reference", "serve_1s", "serve_4s",
                "serve_16s", "serve_multinode_2w", "serve_multinode_4w",
            )
        ],
        title=f"serving layer vs direct ingest ({ACCESSES // 1000}k accesses)",
    )
    return rec


@pytest.mark.shape
def test_serving_overhead_within_2x(record):
    """The acceptance bar: framing + TCP + asyncio costs < 2x."""
    assert record["serve_vs_batched_overhead"] <= 2.0, record["seconds"]


@pytest.mark.shape
def test_concurrent_sessions_sustain_throughput(record):
    """16 sessions under the default credit window must not collapse:
    aggregate throughput stays above half the single-session rate."""
    eps = record["events_per_sec"]
    assert eps["serve_16s"] >= 0.5 * eps["serve_1s"], record["seconds"]


@pytest.mark.shape
def test_multinode_gateway_changes_no_verdicts(record):
    """Sharding by location across worker processes is exact: every
    worker count streams back the local lattice2d race count."""
    assert record["differential"]["serve_multinode_agrees"] is True, record[
        "differential"
    ]


def test_record_merged_into_engine_record(record):
    stored = json.loads(RECORD_PATH.read_text(encoding="utf-8"))
    assert "serve_4s" in stored["events_per_sec"]
    assert "serve_multinode_2w" in stored["events_per_sec"]
    assert "serve_multinode_4w" in stored["events_per_sec"]
    assert stored["differential"]["serve_multinode_agrees"] is True
    assert stored["serve_vs_batched_overhead"] == pytest.approx(
        record["serve_vs_batched_overhead"]
    )
