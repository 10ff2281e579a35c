"""Experiment T5 (space) -- Theorem 5: Θ(1) per thread and per location.

The paper's headline: as thread count n grows, the 2D detector's shadow
state per monitored location stays at <= 2 entries, while the
vector-clock baseline grows linearly and FastTrack inflates on
read-shared locations.  Workload: the race-free read-shared pipeline
(one config cell read by every task -- the adversarial case for
vector-based shadow memory).

The printed table is the reproduction of the paper's central
space-complexity comparison (Section 1's Θ(n)-vs-Θ(1) motivation).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import DETECTOR_FACTORIES
from repro.bench.tables import print_table
from repro.forkjoin.pipeline import run_pipeline
from repro.workloads.pipelines import read_shared_pipeline

SWEEP = [(4, 2), (16, 4), (64, 4), (128, 8)]  # (items, stages)


def run_with(name, items, stages):
    det = DETECTOR_FACTORIES[name]()
    ex = run_pipeline(items, stages, observers=[det])
    return det, ex


def test_space_table_and_shape():
    rows = []
    peaks = {"lattice2d": [], "vectorclock": [], "fasttrack": []}
    tasks_seen = []
    for n_items, n_stages in SWEEP:
        items, stages = read_shared_pipeline(n_items, n_stages)
        row = {"tasks": None, "races": 0}
        for name in peaks:
            det, ex = run_with(name, items, stages)
            assert det.races == [], f"{name} false positive"
            row["tasks"] = ex.task_count
            row[f"{name} shadow/loc"] = det.shadow_peak_per_location()
            peaks[name].append(det.shadow_peak_per_location())
        tasks_seen.append(row["tasks"])
        rows.append(row)
    print_table(
        rows,
        title="Theorem 5: peak shadow entries per location "
        "(race-free read-shared pipeline)",
    )
    # Shape: the 2D detector is flat at <= 2 ...
    assert all(p <= 2 for p in peaks["lattice2d"])
    # ... while the vector clock grows with the task count ...
    assert peaks["vectorclock"][-1] > 10 * peaks["vectorclock"][0] / 2
    assert peaks["vectorclock"][-1] >= tasks_seen[-1] // 2
    # ... and FastTrack's read-shared vector grows too.
    assert peaks["fasttrack"][-1] > 8 * max(1, peaks["lattice2d"][-1])


def shadow_bytes_per_location(task: int, locations: int = 100_000) -> float:
    """``tracemalloc`` bytes the batch engine's shadow state holds per
    location after ``task`` (forked after ``task`` forks) writes and
    then reads ``locations`` distinct locations in one batch."""
    import gc
    import tracemalloc

    from repro.engine.batch import OP_FORK, OP_READ, OP_WRITE, EventBatch
    from repro.engine.ingest import BatchEngine
    from repro.obs.registry import NULL_REGISTRY

    batch = EventBatch()
    for t in range(1, task + 1):
        batch.ops.append(OP_FORK)
        batch.a.append(t - 1)
        batch.b.append(t)
    for op in (OP_WRITE, OP_READ):
        for loc in range(locations):
            batch.ops.append(op)
            batch.a.append(task)
            batch.b.append(loc)
    engine = BatchEngine(registry=NULL_REGISTRY)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine.ingest(batch)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / locations


def test_shadow_bytes_per_location():
    """The two conceptual words per location in real bytes: the slot map
    plus three int columns, flat in the acting task's id (the kernel
    stores one int object per access run, not one per location)."""
    rows = [
        {"acting task": task, "bytes/loc": round(shadow_bytes_per_location(task), 1)}
        for task in (0, 1000)
    ]
    print_table(rows, title="Theorem 5: tracemalloc bytes per location")
    for row in rows:
        assert row["bytes/loc"] < 200


def test_metadata_per_thread_constant():
    """Θ(1) per thread: detector metadata grows linearly in task count
    with a constant per-task word budget."""
    from repro.detectors import Lattice2DDetector

    per_task = []
    for n_items, n_stages in [(8, 4), (64, 4)]:
        items, stages = read_shared_pipeline(n_items, n_stages)
        det = Lattice2DDetector()
        ex = run_pipeline(items, stages, observers=[det])
        per_task.append(det.metadata_entries() / ex.task_count)
    assert per_task[0] == per_task[1] == 6.0


@pytest.mark.parametrize("name", ["lattice2d", "vectorclock", "fasttrack"])
def test_bench_monitored_pipeline(benchmark, name):
    items, stages = read_shared_pipeline(32, 4)

    def once():
        det, _ = run_with(name, items, stages)
        return det

    det = benchmark(once)
    assert det.races == []
