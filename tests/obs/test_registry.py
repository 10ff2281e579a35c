"""The metrics registry: instruments, identity model, thread safety."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ProgramError
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    get_registry,
    set_registry,
)

pytestmark = pytest.mark.obs


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = MetricsRegistry().counter("events_total")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_rejects_negative_increments(self):
        c = MetricsRegistry().counter("events_total")
        with pytest.raises(ProgramError, match="cannot decrease"):
            c.inc(-1)
        assert c.value == 0

    def test_concurrent_increments_are_exact(self):
        c = MetricsRegistry().counter("hits")
        n_threads, per_thread = 8, 5_000

        def worker():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * per_thread


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12

    def test_pull_function_reads_live_state(self):
        state = {"n": 0}
        g = MetricsRegistry().gauge("live")
        g.set_function(lambda: state["n"])
        assert g.value == 0
        state["n"] = 99
        assert g.value == 99

    def test_set_clears_the_pull_function(self):
        g = MetricsRegistry().gauge("live")
        g.set_function(lambda: 7)
        g.set(3)
        assert g.value == 3


class TestHistogram:
    def test_observations_land_in_the_right_buckets(self):
        h = MetricsRegistry().histogram("latency", buckets=(1.0, 10.0))
        for v in (0.5, 0.9, 5.0, 100.0):
            h.observe(v)
        # cumulative: <=1.0 sees two, <=10.0 sees three, +Inf all four
        assert h.cumulative_counts() == [2, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(106.4)

    def test_boundary_value_falls_in_its_upper_bucket(self):
        h = MetricsRegistry().histogram("latency", buckets=(1.0, 10.0))
        h.observe(1.0)
        assert h.cumulative_counts() == [1, 1, 1]

    def test_default_buckets(self):
        h = MetricsRegistry().histogram("latency")
        assert h.buckets == DEFAULT_BUCKETS

    def test_empty_or_duplicate_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ProgramError, match="at least one bucket"):
            reg.histogram("a", buckets=())
        with pytest.raises(ProgramError, match="duplicate"):
            reg.histogram("b", buckets=(1.0, 1.0))


class TestIdentity:
    def test_same_name_and_labels_is_the_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("n", labels={"k": "v"})
        b = reg.counter("n", labels={"k": "v"})
        assert a is b

    def test_different_labels_are_different_series(self):
        reg = MetricsRegistry()
        a = reg.counter("n", labels={"shard": "0"})
        b = reg.counter("n", labels={"shard": "1"})
        assert a is not b
        a.inc()
        assert b.value == 0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("n", labels={"a": "1", "b": "2"})
        b = reg.counter("n", labels={"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(ProgramError, match="already registered"):
            reg.gauge("n")
        # ... even for a fresh label set under the same family name
        with pytest.raises(ProgramError, match="already registered"):
            reg.histogram("n", labels={"x": "y"})


class TestSnapshot:
    def test_sections_and_series_names(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels={"engine": "batch"}).inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {'c_total{engine="batch"}': 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"] == {
            "h": {"buckets": {"1.0": 1}, "sum": 0.5, "count": 1}
        }

    def test_clear_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.clear()
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        # a fresh instrument after clear() starts at zero again
        assert reg.counter("c").value == 0


class TestDisabledRegistry:
    def test_hands_out_shared_noops(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.gauge("b")
        assert NULL_REGISTRY.histogram("c") is NULL_REGISTRY.counter("a")

    def test_noop_instrument_absorbs_everything(self):
        c = NULL_REGISTRY.counter("a")
        c.inc()
        c.inc(100)
        c.set(5)
        c.observe(1.0)
        c.set_function(lambda: 9)
        assert c.value == 0
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


class TestDefaultRegistry:
    def test_set_registry_swaps_and_restores(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            assert set_registry(previous) is mine
        assert get_registry() is previous


class TestExportMerge:
    """The picklable wire format for folding one process's registry
    into another's."""

    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("c", "help", labels={"shard": "0"}).inc(3)
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        reg.histogram("h", buckets=(1.0, 10.0)).observe(5.0)
        return reg

    def test_roundtrip_into_empty_registry(self):
        src = self._populated()
        dst = MetricsRegistry()
        dst.merge_state(src.export_state())
        assert dst.snapshot() == src.snapshot()

    def test_merge_adds_to_existing_series(self):
        src = self._populated()
        dst = self._populated()
        dst.merge_state(src.export_state())
        snap = dst.snapshot()
        assert snap["counters"]['c{shard="0"}'] == 6
        # Gauges add too: the wire format carries deltas from workers
        # whose series the parent never touches concurrently.
        assert snap["gauges"]["g"] == 14
        hist = snap["histograms"]["h"]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(11.0)

    def test_state_is_plain_data(self):
        import json

        state = self._populated().export_state()
        assert json.loads(json.dumps(state)) == state

    def test_merge_into_disabled_registry_is_a_noop(self):
        state = self._populated().export_state()
        NULL_REGISTRY.merge_state(state)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_bucket_mismatch_rejected(self):
        src = self._populated()
        dst = MetricsRegistry()
        dst.histogram("h", buckets=(2.0, 20.0)).observe(1.0)
        with pytest.raises(ProgramError):
            dst.merge_state(src.export_state())

    def test_unknown_kind_rejected(self):
        dst = MetricsRegistry()
        with pytest.raises(ProgramError):
            dst.merge_state([{"kind": "exotic", "name": "x", "help": "",
                              "labels": [], "value": 1}])
