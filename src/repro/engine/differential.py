"""The conformance matrix: every detection path against the paper's detector.

The engine exists to make ingestion faster *without changing answers*.
This module is the gate that enforces it.  :func:`check_conformance`
replays one columnar trace through the per-event ``lattice2d`` detector
-- the referee, Figures 6 and 8 of the paper -- and through each named
row of :data:`CONFIGS`, then judges every row against the referee under
the relation the row names:

* ``verdict`` -- per-event detectors, replayed in lockstep with the
  referee: the same per-access verdict ("did this read/write get
  flagged?") at every access;
* ``multiset`` -- engine paths: the same multiset of flagged
  ``(task, loc, kind)``;
* ``covers`` -- prediction: a superset of that multiset, since it also
  reports the pairs a feasible reordering would race.

Every disagreement becomes a :class:`Divergence` at its stream position,
so a perf PR that bends a detector shows up as a one-line divergence
instead of a statistics drift.  All paths run on interned location ids;
the interner only names locations in divergences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.reports import AccessKind
from repro.detectors import DETECTOR_FACTORIES
from repro.engine.batch import (
    OP_FORK,
    OP_HALT,
    OP_JOIN,
    OP_READ,
    OP_WRITE,
    EventBatch,
    LocationInterner,
)
from repro.engine.ingest import BatchEngine
from repro.errors import ProgramError

__all__ = [
    "CONFIGS",
    "Config",
    "DEFAULT_DETECTORS",
    "Divergence",
    "DifferentialReport",
    "check_conformance",
]

#: the per-event detector every row is judged against
REFEREE = "lattice2d"

#: the trio ``repro-race diff`` runs: the paper's detector against the
#: epoch-optimised and SP-bags baselines
DEFAULT_DETECTORS: Tuple[str, ...] = ("lattice2d", "fasttrack", "spbags")

#: the trace shapes of the matrix (the perfbench strata): spawn-sync
#: rounds, random lattices with leftover joins, pipelines and wavefronts
SHAPES: Tuple[str, ...] = ("sp_bulk", "lattice", "grid")


@dataclass(frozen=True)
class Config:
    """One row of the matrix: a detection path and how it is judged."""

    name: str
    relation: str  #: "verdict", "multiset" or "covers"
    make: Callable[[], Any]  #: builds the per-event detector or engine
    feed: str = "events"  #: "events" (lockstep) or "batches"
    shapes: Tuple[str, ...] = SHAPES  #: where the path is sound by design
    #: flags every racing access; FastTrack's same-epoch read rule
    #: flags only the first of a task's repeated racing reads
    every_race: bool = True


def _table() -> Dict[str, Config]:
    sp_only = {"spbags": ("sp_bulk",), "offsetspan": ("sp_bulk",),
               "espbags": ()}  # ESP-bags needs async-finish programs
    rows = [
        Config(name, "covers" if name == "shb" else "verdict", factory,
               shapes=sp_only.get(name, SHAPES),
               every_race=name != "fasttrack")
        for name, factory in DETECTOR_FACTORIES.items()
    ]
    rows.append(Config("engine:lattice2d", "multiset", BatchEngine, "batches"))
    rows.append(Config("predict", "covers",
                       partial(BatchEngine, predict=True), "batches"))
    return {row.name: row for row in rows}


#: every detection path in use, by name
CONFIGS: Dict[str, Config] = _table()


@dataclass(frozen=True)
class Divergence:
    """One access on which a configuration disagreed with the referee."""

    index: int  #: position in the event stream
    op: str  #: "read" or "write"
    task: int
    loc: Hashable
    flagged: Tuple[str, ...]  #: configurations that reported a race here
    silent: Tuple[str, ...]  #: configurations that did not

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"event {self.index}: {self.op} of {self.loc!r} by task "
            f"{self.task}: flagged by {list(self.flagged)}, "
            f"silent in {list(self.silent)}"
        )


@dataclass
class DifferentialReport:
    """Outcome of one conformance run: one cell per configuration."""

    configs: List[str]
    events: int
    accesses: int
    reports: Dict[str, List[Any]]  #: race reports per config and referee
    cells: Dict[str, bool]  #: whether each config met its relation
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def races(self) -> Dict[str, int]:
        return {name: len(found) for name, found in self.reports.items()}

    @property
    def agreed(self) -> bool:
        """True iff every configuration met its relation."""
        return all(self.cells.values())

    def summary(self) -> str:
        verdict = (
            "all detectors agree"
            if self.agreed
            else f"{len(self.divergences)} DISAGREEMENT(S)"
        )
        counts = ", ".join(
            f"{name}={len(self.reports[name])}" for name in self.configs
        )
        return (
            f"{self.events} events ({self.accesses} accesses) -> "
            f"races: {counts}; {verdict}"
        )


def _row(config: Union[str, Config]) -> Config:
    if isinstance(config, Config):
        return config
    try:
        return CONFIGS[config]
    except KeyError:
        raise ProgramError(f"unknown detector {config!r}") from None


def _lockstep(batch: EventBatch, dets: List[Any], voters: List[int]):
    """Replay ``batch`` through ``dets`` (the referee first) and yield
    ``(index, votes)`` at each access where a voter's verdict differs
    from the referee's."""
    for det in dets:
        det.on_root(0)
    seen = [0] * len(dets)
    for i, (op, a, b) in enumerate(zip(batch.ops, batch.a, batch.b)):
        if op == OP_READ or op == OP_WRITE:
            grew: List[bool] = []
            for k, det in enumerate(dets):
                if op == OP_READ:
                    det.on_read(a, b)
                else:
                    det.on_write(a, b)
                n = len(det.races)
                grew.append(n > seen[k])
                seen[k] = n
            votes = [grew[k] for k in voters]
            if any(v != grew[0] for v in votes):
                yield i, votes
        elif op == OP_FORK:
            for det in dets:
                det.on_fork(a, b)
        elif op == OP_JOIN:
            for det in dets:
                det.on_join(a, b)
        elif op == OP_HALT:
            for det in dets:
                det.on_halt(a)
        else:
            for det in dets:
                det.on_step(a)


def _run(row: Config, batch: EventBatch,
         batch_size: Optional[int]) -> List[Any]:
    engine = row.make()
    if batch_size is None:
        engine.ingest(batch)
    else:
        engine.ingest_all(batch.slices(batch_size))
    return engine.races()


def _positions(batch: EventBatch) -> Dict[Tuple[Any, ...], List[int]]:
    """Stream positions of the accesses, by ``(task, loc, kind)``."""
    out: Dict[Tuple[Any, ...], List[int]] = {}
    for i, (op, a, b) in enumerate(zip(batch.ops, batch.a, batch.b)):
        if op == OP_READ:
            out.setdefault((a, b, AccessKind.READ), []).append(i)
        elif op == OP_WRITE:
            out.setdefault((a, b, AccessKind.WRITE), []).append(i)
    return out


def _mismatches(relation: str, ref: List[Any], got: List[Any]):
    """``(key, flagged_by_config)`` per report one side lacks."""
    key = attrgetter("task", "loc", "kind")
    want = Counter(key(r) for r in ref)
    have = Counter(key(r) for r in got)
    missed = want - have
    extra = Counter() if relation == "covers" else have - want
    return [(k, False) for k in missed.elements()] + [
        (k, True) for k in extra.elements()
    ]


def check_conformance(
    batch: EventBatch,
    interner: Optional[LocationInterner] = None,
    configs: Sequence[Union[str, Config]] = DEFAULT_DETECTORS,
    *,
    batch_size: Optional[int] = None,
) -> DifferentialReport:
    """Judge each configuration against the per-event lattice2d referee.

    ``configs`` are names from :data:`CONFIGS` (or :class:`Config`
    rows); engine rows ingest ``batch`` whole, or re-sliced into
    sub-batches of ``batch_size``.  Per-event rows vote in lockstep
    with the referee, so one access on which several of them split
    from it is one :class:`Divergence`.  The location ``interner`` only
    names locations in divergences (pass ``None`` to report raw ids).
    """
    from repro.obs.registry import get_registry

    rows = [_row(c) for c in configs]
    names = [row.name for row in rows]
    lockstep = [r for r in rows if r.feed == "events" and r.name != REFEREE]
    dets = [CONFIGS[REFEREE].make()] + [r.make() for r in lockstep]
    slot = {REFEREE: 0, **{r.name: k + 1 for k, r in enumerate(lockstep)}}
    voting = [r.name for r in rows if r.relation == "verdict"]
    if REFEREE not in voting:
        voting.insert(0, REFEREE)
    report = DifferentialReport(
        configs=names,
        events=len(batch),
        accesses=batch.access_count(),
        reports={},
        cells=dict.fromkeys(names, True),
    )

    def name_loc(b: int) -> Hashable:
        return b if interner is None else interner.location(b)

    ref_vote = voting.index(REFEREE)
    for i, votes in _lockstep(batch, dets, [slot[n] for n in voting]):
        for name, vote in zip(voting, votes):
            if vote != votes[ref_vote]:
                report.cells[name] = False
        op = batch.ops[i]
        report.divergences.append(
            Divergence(
                index=i,
                op="read" if op == OP_READ else "write",
                task=batch.a[i],
                loc=name_loc(batch.b[i]),
                flagged=tuple(n for n, v in zip(voting, votes) if v),
                silent=tuple(n for n, v in zip(voting, votes) if not v),
            )
        )
    ref = dets[0].races
    report.reports[REFEREE] = ref
    flagged_at = {r.op_index - 1 for r in ref}  # op_index counts the event

    positions: Dict[Tuple[Any, ...], List[int]] = {}
    for row in rows:
        if row.feed == "events":
            got = dets[slot[row.name]].races
        else:
            got = _run(row, batch, batch_size)
        report.reports[row.name] = got
        if row.relation == "verdict":
            continue
        for key, extra in _mismatches(row.relation, ref, got):
            report.cells[row.name] = False
            task, loc, kind = key
            # The first access with this key whose referee verdict is
            # the one the row contradicts.
            positions = positions or _positions(batch)
            at = positions.get((task, loc, kind), [-1])
            index = next(
                (i for i in at if (i in flagged_at) != extra), at[0]
            )
            report.divergences.append(
                Divergence(
                    index=index,
                    op=kind.value,
                    task=task,
                    loc=name_loc(loc),
                    flagged=(row.name,) if extra else (REFEREE,),
                    silent=(REFEREE,) if extra else (row.name,),
                )
            )

    registry = get_registry()
    registry.counter(
        "differential_replays_total", "lockstep replays performed"
    ).inc()
    registry.counter(
        "differential_events_total", "events replayed in lockstep"
    ).inc(report.events)
    registry.counter(
        "differential_accesses_total", "accesses compared in lockstep"
    ).inc(report.accesses)
    registry.counter(
        "differential_divergences_total",
        "per-access verdict disagreements found",
    ).inc(len(report.divergences))
    for name, count in report.races.items():
        registry.gauge(
            "differential_races",
            "race reports per detector in the last lockstep replay",
            labels={"detector": name},
        ).set(count)
    return report
