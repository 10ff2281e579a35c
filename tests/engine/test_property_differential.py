"""Property-based fuzzing of the conformance matrix.

The matrix is only as good as the traces fed to it, so this sweep
generates them: random series-parallel programs with random access
plans, judged against the per-event lattice2d referee.  Every generated
trace must produce **zero** divergences; a hypothesis-shrunk
counterexample prints the offending event stream.

Two generators, matching the two disciplines in the repo:

* random SP decomposition trees realised as *spawn-sync* (Cilk)
  programs and executed depth-first by the interpreter -- the
  ``sp_bulk`` shape, so every matrix row sound on it runs, at a drawn
  batch size;
* random SP digraphs realised by :mod:`repro.forkjoin.synthesis` --
  the traversal-ordered streams are valid structured fork-join but
  interleave joins with accesses, so only the rows sound on the
  ``lattice`` shape apply (no SP-bags, no offset-span).

Access plans put at most two accesses on any location: with a single
potential racing pair per location every detector must flag exactly
the same access, whereas secondary races on one location are reported
at detector-specific positions by design (FastTrack adapts its epochs,
SP-bags keeps one reader/writer) and are covered by the aggregate
tests in ``test_differential.py``.
"""

from __future__ import annotations

import random
from itertools import count
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reports import AccessKind
from repro.engine.batch import BatchBuilder, batch_from_events
from repro.engine.differential import (
    CONFIGS,
    DEFAULT_DETECTORS,
    check_conformance,
)
from repro.forkjoin.interpreter import run
from repro.forkjoin.program import read, write
from repro.forkjoin.spawn_sync import cilk
from repro.forkjoin.synthesis import synthesize_events
from repro.lattice.dominance import Diagram
from repro.lattice.poset import Poset
from repro.lattice.series_parallel import (
    SPLeaf,
    SPSeries,
    SPTree,
    random_sp_tree,
    sp_digraph,
)

from tests.engine.test_conformance import BATCH_SIZES

pytestmark = pytest.mark.engine

#: every matrix row sound on spawn-sync traces
SP_CONFIGS = tuple(n for n, c in CONFIGS.items() if "sp_bulk" in c.shapes)

#: every matrix row sound beyond spawn-sync traces
LATTICE_CONFIGS = tuple(n for n, c in CONFIGS.items() if "lattice" in c.shapes)

#: leaf index -> accesses to perform there, in order
AccessPlan = Dict[int, List[Tuple[str, AccessKind]]]

_KINDS = st.sampled_from((AccessKind.READ, AccessKind.WRITE))


def _leaf_count(tree: SPTree) -> int:
    if isinstance(tree, SPLeaf):
        return 1
    return sum(_leaf_count(c) for c in tree.children)


@st.composite
def _plans(draw, slots: int, max_locations: int = 4) -> AccessPlan:
    """Random accesses over ``slots`` program points, at most two per
    location (one potential racing pair -- see module docstring)."""
    plan: AccessPlan = {}
    for li in range(draw(st.integers(1, max_locations))):
        placements = draw(
            st.lists(
                st.tuples(st.integers(0, slots - 1), _KINDS),
                min_size=1,
                max_size=2,
            )
        )
        for slot, kind in placements:
            plan.setdefault(slot, []).append((f"l{li}", kind))
    return plan


@st.composite
def spawn_sync_cases(draw, max_leaves: int = 10):
    seed = draw(st.integers(0, 2**32 - 1))
    leaves = draw(st.integers(1, max_leaves))
    tree = random_sp_tree(leaves, random.Random(seed))
    return tree, draw(_plans(_leaf_count(tree)))


@st.composite
def synthesis_cases(draw, max_leaves: int = 10):
    seed = draw(st.integers(0, 2**32 - 1))
    leaves = draw(st.integers(1, max_leaves))
    graph = sp_digraph(random_sp_tree(leaves, random.Random(seed)))
    verts = sorted(graph.vertices())
    plan = draw(_plans(len(verts)))
    accesses = {
        verts[slot]: entries for slot, entries in plan.items()
    }
    return graph, accesses


def _cilk_program(tree: SPTree, plan: AccessPlan):
    """Realise an SP decomposition tree as a spawn-sync program.

    Series nodes run their children in order on the current task;
    parallel nodes spawn one child task each, then sync.  Leaves are
    numbered in-order and perform the plan's accesses.
    """
    slots = count()

    def walk(ctx, node):
        if isinstance(node, SPLeaf):
            for loc, kind in plan.get(next(slots), ()):
                yield read(loc) if kind is AccessKind.READ else write(loc)
        elif isinstance(node, SPSeries):
            for child in node.children:
                yield from walk(ctx, child)
        else:  # SPParallel
            for child in node.children:

                @cilk
                def subtask(sub, _child=child):
                    yield from walk(sub, _child)

                yield from ctx.spawn(subtask)
            yield from ctx.sync()

    @cilk
    def main(ctx):
        yield from walk(ctx, tree)

    return main


def _offending_trace(events, report) -> str:
    lines = [str(d) for d in report.divergences]
    lines.append("offending trace:")
    lines.extend(f"  [{i}] {ev}" for i, ev in enumerate(events))
    return "\n".join(lines)


class TestTrioOnSpawnSyncPrograms:
    @settings(max_examples=60, deadline=None)
    @given(case=spawn_sync_cases(), size=st.sampled_from(BATCH_SIZES))
    def test_zero_divergences(self, case, size):
        tree, plan = case
        builder = BatchBuilder()
        ex = run(_cilk_program(tree, plan), observers=[builder],
                 record_events=True)
        report = check_conformance(
            builder.batch, builder.interner, SP_CONFIGS, batch_size=size
        )
        assert report.agreed, _offending_trace(ex.events, report)
        assert report.accesses == sum(len(v) for v in plan.values())

    @settings(max_examples=20, deadline=None)
    @given(case=spawn_sync_cases(max_leaves=6))
    def test_race_counts_identical_across_the_trio(self, case):
        tree, plan = case
        builder = BatchBuilder()
        run(_cilk_program(tree, plan), observers=[builder])
        report = check_conformance(
            builder.batch, builder.interner, DEFAULT_DETECTORS
        )
        assert len(set(report.races.values())) == 1, report.races


class TestPairOnSynthesizedLattices:
    @settings(max_examples=60, deadline=None)
    @given(case=synthesis_cases(), size=st.sampled_from(BATCH_SIZES))
    def test_zero_divergences(self, case, size):
        graph, accesses = case
        synth = synthesize_events(
            Diagram.from_poset(Poset(graph)), accesses
        )
        batch, interner = batch_from_events(synth.events)
        report = check_conformance(
            batch, interner, LATTICE_CONFIGS, batch_size=size
        )
        assert report.agreed, _offending_trace(synth.events, report)
