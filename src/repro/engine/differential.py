"""Differential cross-checking: one trace, many detectors, one verdict.

The engine exists to make ingestion faster *without changing answers*.
This module is the gate that enforces it: replay the same columnar
trace through several detectors in lockstep and compare the per-access
verdict -- "did this read/write get flagged as racing?" -- at every
access.  Any disagreement is reported with the exact stream position,
so a perf PR that bends a detector shows up as a one-line divergence
instead of a statistics drift.

Two comparisons are provided:

* :func:`replay_differential` -- detector vs detector (by default the
  paper's ``lattice2d`` against the ``fasttrack`` and ``spbags``
  baselines).  Only feed ``spbags`` spawn-sync-shaped traces; it is
  unsound outside SP task graphs (see its module docstring).
* :func:`cross_check_sharded` -- the sharded fast path vs one unsharded
  reference detector, compared on the multiset of flagged accesses
  (per-shard streams renumber ``op_index``, so positions are compared
  by ``(task, loc, kind)``).
* :func:`cross_check_predict` -- the sound-prediction engine
  (``BatchEngine(predict=True)``) vs the observed-order backends.
  Prediction enumerates racing *pairs* across feasible reorderings, so
  equality is the wrong gate; the soundness invariant is inclusion:
  every access an observed-order detector flags must also be flagged
  by prediction (multiset ``<=`` on ``(task, loc, kind)``).

Both operate on interned batches, so detectors hash dense ints; the
verdict only depends on ordering structure, never on what a location
*is*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Counter as CounterT, Dict, Hashable, List, Optional, Sequence, Tuple
from collections import Counter

from repro.engine.batch import (
    OP_FORK,
    OP_HALT,
    OP_JOIN,
    OP_READ,
    OP_STEP,
    OP_WRITE,
    OPCODE_NAMES,
    EventBatch,
    LocationInterner,
)
from repro.engine.ingest import BatchEngine, ShardedBatchEngine
from repro.errors import ProgramError

__all__ = [
    "DEFAULT_DETECTORS",
    "Divergence",
    "DifferentialReport",
    "replay_differential",
    "cross_check_sharded",
    "cross_check_backend",
    "cross_check_predict",
    "cross_check_compressed",
]

#: the trio the acceptance gate runs: the paper's detector against the
#: epoch-optimised and SP-bags baselines
DEFAULT_DETECTORS: Tuple[str, ...] = ("lattice2d", "fasttrack", "spbags")


@dataclass(frozen=True)
class Divergence:
    """One access on which the detectors disagreed."""

    index: int  #: position in the event stream
    op: str  #: "read" or "write"
    task: int
    loc: Hashable
    flagged: Tuple[str, ...]  #: detectors that reported a race here
    silent: Tuple[str, ...]  #: detectors that did not

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"event {self.index}: {self.op} of {self.loc!r} by task "
            f"{self.task}: flagged by {list(self.flagged)}, "
            f"silent in {list(self.silent)}"
        )


@dataclass
class DifferentialReport:
    """Outcome of one lockstep replay."""

    detectors: List[str]
    events: int
    accesses: int
    races: Dict[str, int]  #: per-detector total reports
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        """True iff every access got the same verdict everywhere."""
        return not self.divergences

    def summary(self) -> str:
        verdict = (
            "all detectors agree"
            if self.agreed
            else f"{len(self.divergences)} DISAGREEMENT(S)"
        )
        counts = ", ".join(
            f"{name}={self.races[name]}" for name in self.detectors
        )
        return (
            f"{self.events} events ({self.accesses} accesses) -> "
            f"races: {counts}; {verdict}"
        )


def _make_detectors(names: Sequence[str]) -> List[Any]:
    from repro.bench.harness import DETECTOR_FACTORIES

    dets = []
    for name in names:
        try:
            dets.append(DETECTOR_FACTORIES[name]())
        except KeyError:
            raise ProgramError(f"unknown detector {name!r}") from None
    return dets


def replay_differential(
    batch: EventBatch,
    interner: Optional[LocationInterner] = None,
    detectors: Sequence[str] = DEFAULT_DETECTORS,
) -> DifferentialReport:
    """Replay ``batch`` through every named detector in lockstep.

    After each read/write slot the per-detector verdict is the boolean
    "did your race list grow on this access"; any split vote becomes a
    :class:`Divergence`.  The location ``interner`` is only used to
    name locations in divergences (pass ``None`` to report raw ids).
    """
    from repro.obs.registry import get_registry

    names = list(detectors)
    dets = _make_detectors(names)
    for det in dets:
        det.on_root(0)
    seen: List[int] = [0] * len(dets)
    report = DifferentialReport(
        detectors=names,
        events=len(batch),
        accesses=0,
        races=dict.fromkeys(names, 0),
    )
    ops = batch.ops
    av = batch.a
    bv = batch.b
    for i in range(len(ops)):
        op = ops[i]
        a = av[i]
        b = bv[i]
        if op == OP_READ or op == OP_WRITE:
            report.accesses += 1
            verdicts: List[bool] = []
            for k, det in enumerate(dets):
                if op == OP_READ:
                    det.on_read(a, b)
                else:
                    det.on_write(a, b)
                n = len(det.races)
                verdicts.append(n > seen[k])
                seen[k] = n
            if any(verdicts) and not all(verdicts):
                loc: Hashable = b if interner is None else interner.location(b)
                report.divergences.append(
                    Divergence(
                        index=i,
                        op=OPCODE_NAMES[op],
                        task=a,
                        loc=loc,
                        flagged=tuple(
                            n for n, v in zip(names, verdicts) if v
                        ),
                        silent=tuple(
                            n for n, v in zip(names, verdicts) if not v
                        ),
                    )
                )
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
    for name, det in zip(names, dets):
        report.races[name] = len(det.races)
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
    for name in names:
        registry.gauge(
            "differential_races",
            "race reports per detector in the last lockstep replay",
            labels={"detector": name},
        ).set(report.races[name])
    return report


def _flag_multiset(races: Sequence[Any]) -> "CounterT[Tuple[Any, ...]]":
    return Counter((r.task, r.loc, r.kind) for r in races)


def cross_check_sharded(
    batch: EventBatch,
    interner: Optional[LocationInterner] = None,
    *,
    num_shards: int = 4,
    batch_size: Optional[int] = None,
) -> Tuple[bool, List[Any], List[Any]]:
    """Sharded vs unsharded fast path on one trace.

    Replays ``batch`` through a plain :class:`BatchEngine` and a
    :class:`ShardedBatchEngine` (optionally re-sliced into sub-batches
    of ``batch_size``) and compares the multiset of flagged accesses.
    Returns ``(agree, reference_races, sharded_races)``.
    """
    ref = BatchEngine(interner=interner)
    sharded = ShardedBatchEngine(num_shards, interner=interner)
    if batch_size is None:
        ref.ingest(batch)
        sharded.ingest(batch)
    else:
        ref.ingest_all(batch.slices(batch_size))
        sharded.ingest_all(batch.slices(batch_size))
    ref_races = ref.races()
    sharded_races = sharded.races()
    agree = _flag_multiset(ref_races) == _flag_multiset(sharded_races)
    return agree, ref_races, sharded_races


def cross_check_backend(
    batch: EventBatch,
    interner: Optional[LocationInterner] = None,
    *,
    backend: str = "depa",
    batch_size: Optional[int] = None,
) -> Tuple[bool, List[Any], List[Any]]:
    """An alternative engine backend vs the union-find referee.

    Replays ``batch`` through the default (``lattice2d``) fast kernel
    and through ``BatchEngine(backend=...)`` and compares the multiset
    of flagged accesses (the backends may name different prior
    representatives from the same conflicting set, so reports are
    compared by ``(task, loc, kind)``).  Returns
    ``(agree, reference_races, backend_races)``.
    """
    ref = BatchEngine(interner=interner)
    alt = BatchEngine(interner=interner, backend=backend)
    if batch_size is None:
        ref.ingest(batch)
        alt.ingest(batch)
    else:
        ref.ingest_all(batch.slices(batch_size))
        alt.ingest_all(batch.slices(batch_size))
    ref_races = ref.races()
    alt_races = alt.races()
    agree = _flag_multiset(ref_races) == _flag_multiset(alt_races)
    return agree, ref_races, alt_races


def cross_check_predict(
    batch: EventBatch,
    interner: Optional[LocationInterner] = None,
    *,
    observed: Sequence[str] = ("lattice2d", "depa"),
    batch_size: Optional[int] = None,
) -> Tuple[bool, List[Any], Dict[str, List[Any]]]:
    """The prediction engine vs the observed-order backends.

    Replays ``batch`` through ``BatchEngine(predict=True)`` and through
    one ``BatchEngine(backend=name)`` per ``observed`` name, then
    asserts the soundness invariant *predicted races include every
    observed race*: for each observed backend, its multiset of flagged
    ``(task, loc, kind)`` accesses must be ``<=`` the predicted
    multiset.  (Prediction reports one race per feasibly-reorderable
    pair, so it may legitimately exceed the observed set -- that
    surplus is the point.)

    ``observed`` defaults to both engine backends; pass
    ``("lattice2d",)`` for traces that are structured but not serial
    fork-first, which the ``depa`` backend rejects by design.  Returns
    ``(sound, predicted_races, observed_races_by_backend)``.
    """
    pred = BatchEngine(interner=interner, predict=True)
    if batch_size is None:
        pred.ingest(batch)
    else:
        pred.ingest_all(batch.slices(batch_size))
    predicted_races = pred.races()
    predicted = _flag_multiset(predicted_races)
    sound = True
    observed_races: Dict[str, List[Any]] = {}
    for name in observed:
        ref = BatchEngine(interner=interner, backend=name)
        if batch_size is None:
            ref.ingest(batch)
        else:
            ref.ingest_all(batch.slices(batch_size))
        races = ref.races()
        observed_races[name] = races
        if not _flag_multiset(races) <= predicted:
            sound = False
    return sound, predicted_races, observed_races


def cross_check_compressed(
    batch: EventBatch,
    interner: Optional[LocationInterner] = None,
    *,
    block_width: Optional[int] = None,
    batch_size: Optional[int] = None,
    num_shards: int = 4,
) -> Tuple[bool, List[Any], Dict[str, List[Any]]]:
    """Memoized detection over the compressed form vs the raw fast path.

    Compresses ``batch`` (:func:`repro.compress.blocks.compress`) and
    replays the compressed trace -- never decompressed -- through the
    memoized ingest of a ``lattice2d`` engine, a ``depa`` engine, and a
    :class:`ShardedBatchEngine`, comparing each against the raw batched
    referee's multiset of flagged accesses.  The serial paths must also
    agree on exact report order and stream positions (``op_index``),
    which is the memo's replay-exactness claim; sharded positions are
    per-shard, so that engine is held to the multiset only.  Returns
    ``(agree, reference_races, compressed_races_by_path)``.
    """
    from repro.compress.blocks import compress as _compress

    if block_width is None:
        ctrace = _compress(batch)
    else:
        ctrace = _compress(batch, block_width)
    ref = BatchEngine(interner=interner)
    if batch_size is None:
        ref.ingest(batch)
    else:
        ref.ingest_all(batch.slices(batch_size))
    ref_races = ref.races()
    reference = _flag_multiset(ref_races)

    def exact(races: Sequence[Any]) -> List[Tuple[Any, ...]]:
        return [
            (r.task, r.loc, r.kind, r.prior_kind, r.op_index) for r in races
        ]

    agree = True
    by_path: Dict[str, List[Any]] = {}
    for backend in ("lattice2d", "depa"):
        engine = BatchEngine(interner=interner, backend=backend)
        engine.ingest_compressed(ctrace)
        races = engine.races()
        by_path[backend] = races
        if _flag_multiset(races) != reference:
            agree = False
        if backend == "lattice2d" and exact(races) != exact(ref_races):
            agree = False
    sharded = ShardedBatchEngine(num_shards, interner=interner)
    sharded.ingest_compressed(ctrace)
    races = sharded.races()
    by_path["sharded"] = races
    if _flag_multiset(races) != reference:
        agree = False
    return agree, ref_races, by_path

