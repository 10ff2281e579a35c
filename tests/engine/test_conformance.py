"""The conformance matrix: every configuration on every trace shape.

Each row of :data:`~repro.engine.differential.CONFIGS` runs on every
shape it is sound on, at batch sizes 1, 7, 64 and 10k, and must meet its
relation against the per-event lattice2d referee.  The shapes are the
perfbench strata, built here from :mod:`repro.workloads`:

* ``sp_bulk`` -- spawn-sync rounds (``bulk_access_program``), clean and
  with seeded races;
* ``lattice`` -- random non-SP lattices with leftover joins
  (``random_program``), private accesses plus one injected race;
* ``grid`` -- wavefronts, a blocked wavefront and a clean pipeline
  (serial, and with a parallel stage 1) through ``pipeline_body``, plus
  one wavefront with an injected race.

Each shape also has one ``+reread`` instance, where a task reads a
racing location twice in one epoch: the batch kernels cache clean
repeats per epoch and must not skip racy ones.  FastTrack flags only
the first of such reads by design (``every_race=False``), so it sits
those instances out.

The depa cells on ``grid`` are the matrix's one
:data:`~repro.engine.differential.KNOWN_WRONG` entry: strict xfails, so
the depa fix has to flip them.
"""

from __future__ import annotations

from typing import Callable, Dict

import pytest

from repro.engine.batch import BatchBuilder
from repro.engine.differential import CONFIGS, KNOWN_WRONG, check_conformance
from repro.forkjoin.interpreter import run
from repro.forkjoin.pipeline import PipelineSpec, pipeline_body
from repro.forkjoin.program import fork, join, read, write
from repro.workloads.access_patterns import private
from repro.workloads.pipelines import clean_pipeline
from repro.workloads.racegen import bulk_access_program, with_injected_race
from repro.workloads.synthetic import SyntheticConfig, random_program
from repro.workloads.wavefront import blocked_wavefront, wavefront

pytestmark = [pytest.mark.engine, pytest.mark.predict]

BATCH_SIZES = (1, 7, 64, 10_000)


def capture(body):
    """Run ``body`` and return its columnar trace and interner."""
    builder = BatchBuilder()
    run(body, observers=[builder])
    return builder.batch, builder.interner


def _grid(items_stages, parallel=()):
    items, stages = items_stages
    return pipeline_body(
        PipelineSpec(tuple(items), tuple(stages), frozenset(parallel))
    )


def _lattice(seed: int):
    return with_injected_race(
        random_program(
            SyntheticConfig(
                seed=seed,
                max_tasks=40,
                ops_per_task=9,
                leftover_probability=0.35,
                pattern=private(),
            )
        )
    )


def _with_reread_race(body):
    """``body``, then a child's write that the parent reads twice
    before joining it: two racing reads by one task in one epoch."""

    def child(self):
        yield write("reread")

    def wrapped(self):
        result = yield from body(self)
        handle = yield fork(child)
        yield read("reread")
        yield read("reread")
        yield join(handle)
        return result

    return wrapped


#: shape -> instance -> program body
SHAPES: Dict[str, Dict[str, Callable[[], object]]] = {
    "sp_bulk": {
        "clean": lambda: bulk_access_program(4, 3, 10, n_shared=4),
        "racy": lambda: bulk_access_program(
            5, 4, 12, racy_rounds=(0, 3), n_shared=4
        ),
        "injected": lambda: with_injected_race(bulk_access_program(3, 2, 8)),
        "racy+reread": lambda: _with_reread_race(
            bulk_access_program(3, 3, 6, racy_rounds=(1,))
        ),
    },
    "lattice": {
        **{f"seed{s}": (lambda s=s: _lattice(s)) for s in (1, 2, 3)},
        "seed4+reread": lambda: _with_reread_race(_lattice(4)),
    },
    "grid": {
        "wavefront(2,2)": lambda: _grid(wavefront(2, 2)),
        "wavefront(6,6)": lambda: _grid(wavefront(6, 6)),
        "clean_pipeline(6,3,1)": lambda: _grid(clean_pipeline(6, 3, 1)),
        "clean_pipeline(6,3,1)+parallel1": lambda: _grid(
            clean_pipeline(6, 3, 1), {1}
        ),
        "blocked_wavefront(8,8,2,2)": lambda: _grid(
            blocked_wavefront(8, 8, 2, 2)
        ),
        "wavefront(4,4)+race": lambda: with_injected_race(
            _grid(wavefront(4, 4))
        ),
        "wavefront(3,3)+reread": lambda: _with_reread_race(
            _grid(wavefront(3, 3))
        ),
    },
}


def _cells():
    for shape, instances in SHAPES.items():
        for instance in instances:
            for name, config in CONFIGS.items():
                if shape not in config.shapes or (
                    instance.endswith("+reread") and not config.every_race
                ):
                    continue
                marks = ()
                if shape == KNOWN_WRONG.shape and name in KNOWN_WRONG.configs:
                    marks = pytest.mark.xfail(
                        strict=True, reason=f"ROADMAP: {KNOWN_WRONG.roadmap}"
                    )
                yield pytest.param(
                    shape, instance, name, marks=marks,
                    id=f"{shape}-{instance}-{name}",
                )


@pytest.mark.parametrize("shape,instance,name", _cells())
def test_cell(shape, instance, name):
    batch, interner = capture(SHAPES[shape][instance]())
    per_event = CONFIGS[name].feed == "events"
    for size in BATCH_SIZES[:1] if per_event else BATCH_SIZES:
        report = check_conformance(batch, interner, (name,), batch_size=size)
        assert report.cells[name], (
            f"batch size {size}: {report.summary()}\n"
            + "\n".join(str(d) for d in report.divergences[:10])
        )


def test_every_shape_is_exercised():
    """No row is sound nowhere except ESP-bags (async-finish only), and
    every shape has at least one racy instance."""
    assert [n for n, c in CONFIGS.items() if not c.shapes] == ["espbags"]
    for shape, instances in SHAPES.items():
        races = [
            check_conformance(*capture(body()), ()).races["lattice2d"]
            for body in instances.values()
        ]
        assert any(races), shape


@pytest.mark.parametrize("instance", sorted(SHAPES[KNOWN_WRONG.shape]))
def test_prediction_is_not_blamed_for_the_depa_defect(instance):
    """The predict cell passes on every grid instance while every depa
    cell there fails: prediction is judged against the referee only."""
    batch, interner = capture(SHAPES[KNOWN_WRONG.shape][instance]())
    report = check_conformance(
        batch, interner, ("predict", *KNOWN_WRONG.configs)
    )
    assert report.cells["predict"]
    assert not any(report.cells[name] for name in KNOWN_WRONG.configs)


@pytest.mark.parametrize(
    "shape,instance",
    [(s, i) for s, ins in SHAPES.items() for i in ins if i.endswith("+reread")],
)
def test_first_race_only_rows_miss_the_reread(shape, instance):
    """The rows that sit the ``+reread`` instances out do disagree there:
    the exclusion records a design limit, not a hidden failure."""
    batch, interner = capture(SHAPES[shape][instance]())
    partial = [n for n, c in CONFIGS.items() if not c.every_race]
    report = check_conformance(batch, interner, partial)
    assert partial and not any(report.cells[n] for n in partial)
