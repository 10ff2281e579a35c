"""Tests for the workload generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import Lattice2DDetector, exact_races
from repro.forkjoin import run
from repro.forkjoin.pipeline import run_pipeline
from repro.workloads.access_patterns import (
    hot_spot,
    private,
    striped,
    uniform_shared,
)
from repro.workloads.pipelines import (
    clean_pipeline,
    racy_pipeline,
    read_shared_pipeline,
    shared_counter_pipeline,
)
from repro.workloads.spworkloads import (
    divide_and_conquer,
    map_reduce,
    racy_divide_and_conquer,
)
from repro.workloads.synthetic import (
    SyntheticConfig,
    race_free_program,
    random_program,
)


class TestSynthetic:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_replay_determinism(self, seed):
        """Running the same config twice yields identical event streams."""
        cfg = SyntheticConfig(seed=seed, max_tasks=12, ops_per_task=5)
        ex1 = run(random_program(cfg), record_events=True)
        ex2 = run(random_program(cfg), record_events=True)
        assert ex1.events == ex2.events

    def test_task_budget_respected(self):
        cfg = SyntheticConfig(seed=3, max_tasks=10, ops_per_task=8,
                              fork_probability=0.9)
        ex = run(random_program(cfg))
        assert ex.task_count <= 10

    def test_race_free_really_race_free(self):
        for seed in range(15):
            cfg = SyntheticConfig(seed=seed, max_tasks=12, ops_per_task=6)
            ex = run(race_free_program(cfg), record_events=True)
            assert exact_races(ex.events) == []

    def test_different_seeds_differ(self):
        e1 = run(random_program(SyntheticConfig(seed=1)), record_events=True)
        e2 = run(random_program(SyntheticConfig(seed=2)), record_events=True)
        assert e1.events != e2.events

    def test_shared_pool_produces_races_somewhere(self):
        found = False
        for seed in range(10):
            cfg = SyntheticConfig(seed=seed, max_tasks=16, ops_per_task=6,
                                  n_locations=2)
            det = Lattice2DDetector()
            run(random_program(cfg), observers=[det])
            if det.races:
                found = True
                break
        assert found


class TestAccessPatterns:
    def test_private_disjoint_across_tasks(self):
        import random as _random

        p = private()
        rng = _random.Random(0)
        locs1 = {p(1, i, rng) for i in range(8)}
        locs2 = {p(2, i, rng) for i in range(8)}
        assert locs1.isdisjoint(locs2)

    def test_striped_within_pool(self):
        import random as _random

        p = striped(4)
        rng = _random.Random(0)
        for task in range(5):
            for op in range(5):
                loc = p(task, op, rng)
                assert loc[1] < 4

    def test_uniform_and_hotspot_draw_from_rng(self):
        import random as _random

        for pattern in (uniform_shared(8), hot_spot(8)):
            rng = _random.Random(42)
            locs = {pattern(0, i, rng) for i in range(50)}
            assert len(locs) > 1


class TestPipelineWorkloads:
    def test_clean_is_clean(self):
        items, stages = clean_pipeline(4, 3)
        ex = run_pipeline(items, stages, record_events=True)
        assert exact_races(ex.events) == []

    def test_racy_is_racy(self):
        items, stages = racy_pipeline(4, 3)
        ex = run_pipeline(items, stages, record_events=True)
        assert exact_races(ex.events)

    def test_racy_custom_stages(self):
        items, stages = racy_pipeline(3, 4, writer_stage=1, reader_stage=2)
        ex = run_pipeline(items, stages, record_events=True)
        assert exact_races(ex.events)

    def test_read_shared_is_race_free(self):
        items, stages = read_shared_pipeline(4, 3)
        ex = run_pipeline(items, stages, record_events=True)
        assert exact_races(ex.events) == []

    def test_shared_counter_races_across_stages(self):
        items, stages = shared_counter_pipeline(3, 3)
        ex = run_pipeline(items, stages, record_events=True)
        assert exact_races(ex.events)

    def test_single_stage_counter_is_serialised(self):
        items, stages = shared_counter_pipeline(4, 1)
        ex = run_pipeline(items, stages, record_events=True)
        assert exact_races(ex.events) == []


class TestSPWorkloads:
    def test_divide_and_conquer_task_count(self):
        ex = run(divide_and_conquer(3, 2))
        assert ex.task_count == 2**4 - 1  # full binary tree of depth 3

    def test_map_reduce_race_free(self):
        ex = run(map_reduce(5), record_events=True)
        assert exact_races(ex.events) == []

    def test_racy_variant_races(self):
        ex = run(racy_divide_and_conquer(2), record_events=True)
        assert exact_races(ex.events)


class TestRaceInjection:
    def test_injected_race_always_detected(self):
        from repro.detectors import Lattice2DDetector, exact_races
        from repro.workloads.racegen import INJECTED_LOC, with_injected_race
        from repro.workloads.synthetic import race_free_program

        for seed in range(5):
            cfg = SyntheticConfig(seed=seed, max_tasks=10, ops_per_task=4)
            body = with_injected_race(race_free_program(cfg))
            det = Lattice2DDetector()
            ex = run(body, observers=[det], record_events=True)
            pairs = exact_races(ex.events)
            assert len(pairs) == 1
            assert pairs[0].loc == INJECTED_LOC
            assert len(det.races) == 1
            assert det.races[0].loc == INJECTED_LOC

    def test_injection_does_not_perturb_existing_verdicts(self):
        from repro.detectors import exact_races
        from repro.workloads.racegen import INJECTED_LOC, with_injected_race

        cfg = SyntheticConfig(seed=7, max_tasks=12, ops_per_task=6,
                              n_locations=3)
        base = run(random_program(cfg), record_events=True)
        base_pairs = {
            (p.loc, p.first, p.second) for p in exact_races(base.events)
        }
        wrapped = run(
            with_injected_race(random_program(cfg)), record_events=True
        )
        wrapped_pairs = {
            (p.loc, p.first, p.second)
            for p in exact_races(wrapped.events)
        }
        extra = {p for p in wrapped_pairs if p[0] == INJECTED_LOC}
        assert len(extra) == 1
        assert {p for p in wrapped_pairs if p[0] != INJECTED_LOC} == base_pairs

    def test_conflicting_pair_program_modes(self):
        from repro.detectors import Lattice2DDetector
        from repro.workloads.racegen import conflicting_pair_program

        racy = Lattice2DDetector()
        run(conflicting_pair_program(), observers=[racy])
        assert len(racy.races) == 1

        clean = Lattice2DDetector()
        run(conflicting_pair_program(ordered=True), observers=[clean])
        assert clean.races == []


class TestLoopProgram:
    """The repetitive loop workload (the CLI's ``submit
    --racegen-loops`` knob)."""

    def test_access_count_and_block_periodicity(self):
        from repro.engine.benchlib import capture
        from repro.workloads.racegen import loop_program

        fanout, loops, pattern = 3, 10, 8
        _events, batch, _ = capture(loop_program(fanout, loops, pattern))
        accesses = sum(1 for op in batch.ops if op >= 4)  # READ/WRITE
        assert accesses == fanout * loops * pattern
        # Each worker's run is periodic in ``pattern``, so slicing at
        # the period repeats the interior blocks column for column.
        blocks = [
            (batch.ops[i:i + pattern].tobytes(),
             batch.a[i:i + pattern].tobytes(),
             batch.b[i:i + pattern].tobytes())
            for i in range(0, len(batch), pattern)
        ]
        assert len(set(blocks)) <= len(blocks) // 2

    def test_race_free_by_default(self):
        from repro.workloads.racegen import loop_program

        det = Lattice2DDetector()
        run(loop_program(3, 4, 8), observers=[det])
        assert det.races == []

    def test_racy_seeds_exactly_one_pair(self):
        from repro.workloads.racegen import loop_program

        det = Lattice2DDetector()
        run(loop_program(3, 4, 8, racy=True), observers=[det])
        assert len(det.races) == 1
        assert det.races[0].label == "loop-racer-1"
