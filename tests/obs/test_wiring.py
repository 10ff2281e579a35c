"""End-to-end wiring: known workload, exact counter values, both exports.

The workload is ``conflicting_pair_program("x")`` -- two tasks forked
off the root, an unordered write/write pair on one location -- whose
trace is exactly 6 events (root step, 2 forks, 2 writes, halt-free
tail) with 2 accesses and precisely one race.  Every number asserted
here is the arithmetic of that trace, so a wiring regression (counter
not bumped, gauge bound to the wrong attribute, export renaming a
series) fails loudly.
"""

from __future__ import annotations

import json

import pytest

from repro.core.unionfind import IntUnionFind, UnionFind
from repro.engine.batch import BatchBuilder
from repro.engine.differential import check_conformance
from repro.engine.ingest import BatchEngine
from repro.forkjoin.interpreter import run
from repro.obs.bind import bind_detector
from repro.obs.export import to_json, to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.workloads.racegen import conflicting_pair_program

pytestmark = [pytest.mark.obs, pytest.mark.engine]


def _capture():
    builder = BatchBuilder()
    run(conflicting_pair_program("x"), observers=[builder])
    return builder.batch, builder.interner


@pytest.fixture()
def measured():
    """One known ingestion with engine + detector fully bound."""
    batch, interner = _capture()
    registry = MetricsRegistry()
    engine = BatchEngine(interner=interner, registry=registry)
    bind_detector(registry, engine.detector, {"detector": "2d"})
    engine.ingest(batch)
    return batch, registry


EXPECTED_COUNTERS = {
    'engine_batches_total{engine="batch"}': 1,
    'engine_dispatch_total{engine="batch",path="generic"}': 0,
    'engine_dispatch_total{engine="batch",path="kernel"}': 1,
    'engine_dispatch_total{engine="batch",path="predict"}': 0,
    'engine_events_total{engine="batch"}': 6,
    'engine_races_total{engine="batch"}': 1,
}

EXPECTED_GAUGES = {
    'detector_ops{detector="2d"}': 6,
    'detector_races{detector="2d"}': 1,
    'detector_shadow_entries{detector="2d"}': 1,
    'detector_shadow_locations{detector="2d"}': 1,
    'detector_shadow_peak_per_location{detector="2d"}': 1,
    # two tasks forked -> two union-find elements; the write/write
    # check is one find against each task's line position
    'detector_unionfind_elements{detector="2d"}': 2,
    'detector_unionfind_finds{detector="2d"}': 2,
    'detector_unionfind_hops{detector="2d"}': 0,
    'detector_unionfind_unions{detector="2d"}': 1,
}


class TestKnownWorkloadExactValues:
    def test_trace_shape(self, measured):
        batch, _ = measured
        assert len(batch) == 6
        assert batch.access_count() == 2

    def test_snapshot(self, measured):
        _, registry = measured
        snap = registry.snapshot()
        assert snap["counters"] == EXPECTED_COUNTERS
        assert snap["gauges"] == EXPECTED_GAUGES

    def test_json_export(self, measured):
        _, registry = measured
        doc = json.loads(to_json(registry))
        assert doc["counters"] == EXPECTED_COUNTERS
        assert doc["gauges"] == EXPECTED_GAUGES

    def test_prometheus_export(self, measured):
        _, registry = measured
        text = to_prometheus(registry)
        for series, value in {
            **EXPECTED_COUNTERS, **EXPECTED_GAUGES
        }.items():
            assert f"{series} {value}\n" in text
        assert "# TYPE engine_events_total counter\n" in text
        assert "# TYPE detector_unionfind_finds gauge\n" in text


class TestUnionFindBinding:
    def test_int_union_find_counters_through_the_registry(self):
        registry = MetricsRegistry()
        uf = IntUnionFind()
        uf.bind_metrics(registry, {"who": "t"})
        for _ in range(4):
            uf.make()
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(0, 2)
        finds_before = uf.find_count
        uf.find(3)
        gauges = registry.snapshot()["gauges"]
        assert gauges['unionfind_elements{who="t"}'] == 4
        assert gauges['unionfind_unions{who="t"}'] == 3
        assert gauges['unionfind_finds{who="t"}'] == finds_before + 1
        # pull gauges read live state: later ops show up with no rebind
        uf.find(3)
        assert (
            registry.snapshot()["gauges"]['unionfind_finds{who="t"}']
            == finds_before + 2
        )

    def test_hashable_wrapper_delegates(self):
        registry = MetricsRegistry()
        uf = UnionFind()
        uf.bind_metrics(registry, prefix="uf")
        uf.add("a")
        uf.add("b")
        uf.find("a")
        uf.find("b")
        uf.union("a", "b")
        gauges = registry.snapshot()["gauges"]
        assert gauges["uf_elements"] == 2
        assert gauges["uf_unions"] == 1


class TestDifferentialCounters:
    def test_lockstep_replay_reports_through_the_registry(self):
        from repro.obs.registry import set_registry

        batch, interner = _capture()
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            report = check_conformance(
                batch, interner, ("lattice2d", "fasttrack")
            )
        finally:
            set_registry(previous)
        assert report.agreed
        snap = registry.snapshot()
        assert snap["counters"]["differential_replays_total"] == 1
        assert snap["counters"]["differential_events_total"] == 6
        assert snap["counters"]["differential_accesses_total"] == 2
        assert snap["counters"]["differential_divergences_total"] == 0
        assert snap["gauges"]['differential_races{detector="lattice2d"}'] == 1
        assert snap["gauges"]['differential_races{detector="fasttrack"}'] == 1


class TestHarnessReadsFromRegistry:
    def test_measure_stats_equal_registry_gauges(self):
        from repro.bench.harness import DETECTOR_FACTORIES, measure

        registry = MetricsRegistry()
        stats = measure(
            conflicting_pair_program("x"),
            detector=DETECTOR_FACTORIES["lattice2d"](),
            registry=registry,
        )
        gauges = registry.snapshot()["gauges"]
        labels = '{detector="lattice2d"}'
        assert stats.races == gauges[f"detector_races{labels}"] == 1
        assert stats.tasks == gauges[f"run_tasks{labels}"]
        assert stats.ops == gauges[f"run_ops{labels}"]
        assert stats.shadow_total == gauges[f"detector_shadow_entries{labels}"]
        assert stats.wall_seconds == gauges[f"run_wall_seconds{labels}"]
