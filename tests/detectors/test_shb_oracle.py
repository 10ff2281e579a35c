"""SHB prediction refereed by the exact offline oracle.

The perfbench ``predict`` reference and the batch engine both run
:class:`SHBDetector`'s clock code.  This module checks both paths -- the
per-event detector and the batch engine's predict kernel -- against
:func:`repro.detectors.oracle.exact_races`, which enumerates racing
pairs by brute-force reachability over the task graph and shares no
code with the vector clocks:

* **flagged accesses**: the set of ``(loc, flagged op)`` over SHB
  reports equals the set of ``(loc, second op)`` over oracle pairs --
  every access that races some earlier access is flagged, and nothing
  else is;
* **partners**: every report's ``prior_repr`` and ``prior_kind`` name
  the task and kind of some oracle partner of the flagged access.

SHB reports one pair per HB-frontier window entry, not one per oracle
pair (a task's repeated accesses in one epoch share an entry), so the
report count is not compared.

Shapes cover spawn-sync bulk rounds, random non-SP lattices with
leftover joins over a shared location pool, and grid lattices
(wavefronts, blocked wavefronts and pipelines, all run with stage 1
parallel, which lets a few cross-item accesses race), plus race-dense
variants with dozens to thousands of oracle pairs.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.detectors.oracle import exact_races
from repro.detectors.shb import SHBDetector
from repro.engine.batch import BatchBuilder
from repro.engine.ingest import BatchEngine
from repro.forkjoin.interpreter import run
from repro.forkjoin.pipeline import PipelineSpec, pipeline_body
from repro.forkjoin.taskgraph import build_task_graph
from repro.obs.registry import MetricsRegistry
from repro.workloads.access_patterns import uniform_shared
from repro.workloads.pipelines import (
    clean_pipeline,
    racy_pipeline,
    shared_counter_pipeline,
)
from repro.workloads.racegen import bulk_access_program
from repro.workloads.synthetic import SyntheticConfig, random_program
from repro.workloads.wavefront import (
    blocked_wavefront,
    wavefront,
    wavefront_with_bug,
)

pytestmark = pytest.mark.predict


def _pipeline(workload):
    """Run a grid workload through the pipeline driver, stage 1 parallel."""
    items, stages = workload
    return pipeline_body(
        PipelineSpec(tuple(items), tuple(stages), frozenset({1}))
    )


def _lattice(seed, leftover, **kw):
    return random_program(
        SyntheticConfig(
            seed=seed, max_tasks=48, ops_per_task=8,
            leftover_probability=leftover, **kw,
        )
    )


#: name -> zero-argument builder of a root task body
PROGRAMS = {
    "bulk": lambda: bulk_access_program(6, 4, 12, racy_rounds=(1, 4)),
    "bulk-clean": lambda: bulk_access_program(4, 3, 9),
    "lattice-0.3": lambda: _lattice(3, 0.3),
    "lattice-0.35": lambda: _lattice(17, 0.35),
    "lattice-0.4": lambda: _lattice(29, 0.4),
    "wavefront": lambda: _pipeline(wavefront(5, 6)),
    "blocked-wavefront": lambda: _pipeline(blocked_wavefront(6, 8, 2, 2)),
    "clean-pipeline": lambda: _pipeline(clean_pipeline(6, 4, 1)),
    # race-dense variants
    "wavefront-bug": lambda: _pipeline(wavefront_with_bug(6, 6)),
    "racy-pipeline": lambda: _pipeline(racy_pipeline(12, 4)),
    "shared-counter": lambda: _pipeline(shared_counter_pipeline(5, 4)),
    "lattice-shared": lambda: _lattice(
        41, 0.35, pattern=uniform_shared(5), write_ratio=0.5
    ),
}


def _per_event(body):
    """The per-event detector's reports and the recorded events."""
    shb = SHBDetector()
    execution = run(body, observers=[shb], record_events=True)
    return shb.races, execution.events


def _batched(body):
    """The batch engine's predict-kernel reports (locations decoded)
    and the recorded events."""
    builder = BatchBuilder()
    execution = run(body, observers=[builder], record_events=True)
    engine = BatchEngine(
        predict=True, interner=builder.interner, registry=MetricsRegistry()
    )
    engine.ingest_all(builder.batch.slices(64))
    return engine.races(), execution.events


def _check_against_oracle(races, events):
    oracle = exact_races(events)
    ops = build_task_graph(events).ops

    flagged = {(r.loc, r.op_index - 1) for r in races}
    assert flagged == {(p.loc, p.second) for p in oracle}

    partners = defaultdict(set)
    for p in oracle:
        partners[p.loc, p.second].add((ops[p.first].task, p.first_kind))
    for r in races:
        flagged_op = r.op_index - 1
        assert (r.prior_repr, r.prior_kind) in partners[r.loc, flagged_op], r


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_shb_matches_exact_oracle(name):
    _check_against_oracle(*_per_event(PROGRAMS[name]()))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_batch_kernel_matches_exact_oracle(name):
    _check_against_oracle(*_batched(PROGRAMS[name]()))


def test_race_dense_programs_are_dense():
    """Guard the fixture: the race-dense variants must actually race
    a lot, or the partner check above proves little."""
    for name in ("wavefront-bug", "racy-pipeline", "shared-counter",
                 "lattice-shared"):
        events = run(PROGRAMS[name](), record_events=True).events
        assert len(exact_races(events)) >= 20, name
