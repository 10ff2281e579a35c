"""Experiment E1 -- the batched ingestion engine's throughput claim.

The engine's reason to exist: feeding the 2D detector dense columnar
batches (interned locations, inlined access kernel) must beat the
per-event observer calls by at least 2x on the standard 100k-access
``racegen`` bulk workload -- and it must do so while changing *zero*
verdicts, which the differential harness checks on the same run.

The measured record is written to ``BENCH_engine.json`` at the repo
root so the perf trajectory accumulates across revisions.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.tables import print_table
from repro.engine.benchlib import format_record, run_engine_benchmark

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

pytestmark = pytest.mark.engine


@pytest.fixture(scope="module")
def record():
    rec = run_engine_benchmark(accesses=100_000, repeats=3)
    RECORD_PATH.write_text(
        json.dumps(rec, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print_table(format_record(rec), title="engine ingestion paths (100k accesses)")
    return rec


@pytest.mark.shape
def test_batched_beats_per_event_by_2x(record):
    """The headline acceptance bar: >= 2x over per-event calls."""
    assert record["speedup_batched_vs_per_event"] >= 2.0, record["seconds"]


@pytest.mark.shape
def test_batched_beats_replay(record):
    """A fortiori: the full replay path (validation included) loses too."""
    assert record["speedup_batched_vs_replay"] >= 2.0, record["seconds"]


@pytest.mark.shape
def test_metrics_overhead_within_5_percent(record):
    """Live per-batch counters vs the disabled NULL_REGISTRY engine.

    The headline `batched` number above already runs with metrics on;
    this pins the other side: turning the registry *off* must not be
    worth more than 5% -- i.e. the observability layer is effectively
    free at batch granularity.
    """
    ratio = record["metrics_overhead_vs_disabled"]
    assert ratio is not None
    assert ratio <= 1.05, record["seconds"]


@pytest.mark.shape
def test_fast_paths_change_no_verdicts(record):
    """Throughput without soundness is worthless: all paths agree."""
    races = record["races"]
    assert races["batched"] == races["per_event"]
    assert races["per_event"] > 0  # the workload seeds real races
    diff = record["differential"]
    assert diff["divergences"] == 0
    assert len(set(diff["races"].values())) == 1  # trio agrees on the count


def test_record_is_written_and_loadable(record):
    stored = json.loads(RECORD_PATH.read_text(encoding="utf-8"))
    assert stored["bench"] == "engine_batch"
    assert stored["workload"]["accesses"] >= 100_000
    # The regression gate's cpu_count softening relies on every fresh
    # record carrying the field.
    assert "cpu_count" in stored
    # Absolute ev/s numbers mean little across hosts without these.
    assert stored["versions"]["python"]
