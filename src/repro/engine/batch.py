"""Dense columnar event batches -- the engine's wire format.

The per-event API (``RaceDetector2D.on_read(task, loc)`` and friends)
pays full Python dispatch per access: one event object, one isinstance
chain, one tuple/string hash for the location.  At serving scale that
dominates the detector itself.  The engine instead moves events in
*batches of parallel arrays*:

* ``ops``  -- one opcode byte per event (:data:`OP_FORK` ...);
* ``a``    -- the primary id: forking parent, joiner, or accessing task;
* ``b``    -- the secondary id: forked child, joined task, or the
  *interned* location id of a read/write (``-1`` for halt/step).

Locations are interned once, at batch-build time, by a
:class:`LocationInterner`; after that every shadow-map operation hashes
a small dense ``int`` instead of an arbitrary hashable.  Labels are
deliberately dropped on this path (reports name tasks and locations;
re-run the slow path when you need source labels).

:class:`BatchBuilder` speaks the interpreter's observer protocol, so
recording a workload is just ``run(body, observers=[builder])``.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as _np

from repro.errors import DetectorError, ProgramError
from repro.events import (
    Event,
    ForkEvent,
    HaltEvent,
    JoinEvent,
    ReadEvent,
    StepEvent,
    WriteEvent,
)

__all__ = [
    "OP_FORK",
    "OP_JOIN",
    "OP_HALT",
    "OP_STEP",
    "OP_READ",
    "OP_WRITE",
    "OPCODE_NAMES",
    "LOCATION_ID_LIMIT",
    "LocationInterner",
    "EventBatch",
    "BatchBuilder",
    "batch_from_events",
    "check_batch",
    "events_from_batch",
]

OP_FORK, OP_JOIN, OP_HALT, OP_STEP, OP_READ, OP_WRITE = range(6)

OPCODE_NAMES: Tuple[str, ...] = (
    "fork", "join", "halt", "step", "read", "write",
)

#: The exclusive bound on an access's location id where no location
#: table bounds it (an engine without an interner, a session that ships
#: no table).  Shadow state is indexed by location id, so this caps a
#: table-less detector's columns at ``LOCATION_ID_LIMIT`` entries.
LOCATION_ID_LIMIT = 1 << 20


class LocationInterner:
    """Bijective ``location <-> dense int`` table.

    Ids are handed out in first-seen order, so the same event stream
    always produces the same table (batches are reproducible).
    """

    __slots__ = ("_ids", "_locs")

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._locs: List[Hashable] = []

    @classmethod
    def from_locations(cls, locs: Iterable[Hashable]) -> "LocationInterner":
        """An interner holding ``locs`` as ids ``0..n-1``, built in one
        C-level ``dict(zip(...))`` pass.

        Raises :class:`ValueError` if two locations are equal (so ``1``,
        ``True`` and ``1.0`` collide, as they do under :meth:`intern`)
        and :class:`TypeError` if one is unhashable.
        """
        self = cls()
        self._locs = list(locs)
        self._ids = dict(zip(self._locs, range(len(self._locs))))
        if len(self._ids) != len(self._locs):
            raise ValueError("duplicate locations")
        return self

    def __len__(self) -> int:
        return len(self._locs)

    def __contains__(self, loc: Hashable) -> bool:
        return loc in self._ids

    def intern(self, loc: Hashable) -> int:
        """Return the id for ``loc``, allocating one on first sight."""
        lid = self._ids.get(loc)
        if lid is None:
            lid = len(self._locs)
            self._ids[loc] = lid
            self._locs.append(loc)
        return lid

    def location(self, lid: int) -> Hashable:
        """Inverse lookup; raises :class:`KeyError` on unknown ids."""
        if 0 <= lid < len(self._locs):
            return self._locs[lid]
        raise KeyError(f"unknown location id {lid}")

    def locations(self) -> List[Hashable]:
        """All interned locations, in id order (a copy)."""
        return list(self._locs)


class EventBatch:
    """Three parallel arrays of events (see the module docstring).

    ``ops`` is an ``array('B')``; ``a`` and ``b`` are ``array('i')``.
    Batches are append-only; slice them with :meth:`slices` to bound
    the unit of work handed to an engine.
    """

    __slots__ = ("ops", "a", "b")

    def __init__(
        self,
        ops: Optional[array] = None,
        a: Optional[array] = None,
        b: Optional[array] = None,
    ) -> None:
        self.ops = ops if ops is not None else array("B")
        self.a = a if a is not None else array("i")
        self.b = b if b is not None else array("i")
        if not (len(self.ops) == len(self.a) == len(self.b)):
            raise ProgramError("batch columns have mismatched lengths")

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: int, a: int, b: int) -> None:
        self.ops.append(op)
        self.a.append(a)
        self.b.append(b)

    def extend(self, other: "EventBatch") -> None:
        self.ops.extend(other.ops)
        self.a.extend(other.a)
        self.b.extend(other.b)

    def slices(self, size: int) -> Iterator["EventBatch"]:
        """Yield consecutive sub-batches of at most ``size`` events."""
        if size <= 0:
            raise ProgramError(f"batch size must be positive, got {size}")
        for lo in range(0, len(self.ops), size):
            hi = lo + size
            yield EventBatch(self.ops[lo:hi], self.a[lo:hi], self.b[lo:hi])

    def counts(self) -> Dict[str, int]:
        """Events per opcode name (diagnostics), one ``bincount`` pass.

        Opcodes outside the known range are tallied under an
        ``"unknown"`` key rather than crashing the diagnostic -- a
        corrupt batch should be *reported* here and *rejected* by the
        ingest paths.
        """
        ops = _np.frombuffer(self.ops, _np.uint8)
        tally = _np.bincount(ops, minlength=len(OPCODE_NAMES)).tolist()
        out = dict(zip(OPCODE_NAMES, tally))
        unknown = sum(tally[len(OPCODE_NAMES):])
        if unknown:
            out["unknown"] = unknown
        return out

    def access_count(self) -> int:
        """Number of read/write slots: one vectorised compare (cheaper
        than a ``bincount``, which first widens every opcode)."""
        ops = _np.frombuffer(self.ops, _np.uint8)
        # uint8 arithmetic wraps the opcodes below OP_READ past 2
        return int(_np.count_nonzero(ops - _np.uint8(OP_READ) < 2))


def check_batch(batch: EventBatch, limit: int) -> int:
    """Admit ``batch`` whole or reject it whole, before any row reaches
    a detector.

    Vectorised.  Raises :class:`~repro.errors.ProgramError` for an
    opcode outside the known range and
    :class:`~repro.errors.DetectorError` for an access whose location
    id is outside ``[0, limit)``, either naming the first offending
    row.  Returns one past the largest access location id (0 when the
    batch holds no access): the width the shadow columns need.
    """
    if not len(batch.ops):
        return 0
    ops = _np.frombuffer(batch.ops, _np.uint8)
    access = ops >= OP_READ
    # Read unsigned, a negative id is at least 2**31: past any bound.
    top = int((_np.frombuffer(batch.b, _np.uint32) * access).max())
    width = top + 1 if top else int(access.any())
    if width <= limit and int(ops.max()) <= OP_WRITE:
        return width
    lids = _np.frombuffer(batch.b, _np.int32)
    unknown = ops > OP_WRITE
    bad = unknown | (access & ((lids < 0) | (lids >= limit)))
    row = int(_np.argmax(bad))
    op = int(ops[row])
    if op > OP_WRITE:
        raise ProgramError(
            f"unknown opcode {op} at batch row {row}; the batch is "
            "rejected before any row reaches a detector"
        )
    raise DetectorError(
        f"location id {int(lids[row])} at batch row {row} is outside "
        f"[0, {limit})"
    )


class BatchBuilder:
    """Accumulates an :class:`EventBatch` via the observer protocol.

    Attach one to the interpreter to capture a workload directly in
    columnar form::

        builder = BatchBuilder()
        run(body, observers=[builder])
        batch, interner = builder.batch, builder.interner
    """

    __slots__ = ("batch", "interner")

    def __init__(self, interner: Optional[LocationInterner] = None) -> None:
        self.batch = EventBatch()
        self.interner = interner if interner is not None else LocationInterner()

    # -- observer protocol --------------------------------------------------

    def on_root(self, root: int) -> None:
        pass  # the root (task 0) is implicit in the format

    def on_fork(self, parent: int, child: int) -> None:
        self.batch.append(OP_FORK, parent, child)

    def on_join(self, joiner: int, joined: int) -> None:
        self.batch.append(OP_JOIN, joiner, joined)

    def on_halt(self, task: int) -> None:
        self.batch.append(OP_HALT, task, -1)

    def on_step(self, task: int) -> None:
        self.batch.append(OP_STEP, task, -1)

    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        self.batch.append(OP_READ, task, self.interner.intern(loc))

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        self.batch.append(OP_WRITE, task, self.interner.intern(loc))


def batch_from_events(
    events: Iterable[Event],
    interner: Optional[LocationInterner] = None,
) -> Tuple[EventBatch, LocationInterner]:
    """Encode an event stream as one columnar batch (labels dropped)."""
    builder = BatchBuilder(interner)
    batch = builder.batch
    intern = builder.interner.intern
    for ev in events:
        if isinstance(ev, ReadEvent):
            batch.append(OP_READ, ev.task, intern(ev.loc))
        elif isinstance(ev, WriteEvent):
            batch.append(OP_WRITE, ev.task, intern(ev.loc))
        elif isinstance(ev, ForkEvent):
            batch.append(OP_FORK, ev.parent, ev.child)
        elif isinstance(ev, JoinEvent):
            batch.append(OP_JOIN, ev.joiner, ev.joined)
        elif isinstance(ev, HaltEvent):
            batch.append(OP_HALT, ev.task, -1)
        elif isinstance(ev, StepEvent):
            batch.append(OP_STEP, ev.task, -1)
        else:
            raise ProgramError(f"not an event: {ev!r}")
    return batch, builder.interner


def events_from_batch(
    batch: EventBatch, interner: LocationInterner
) -> List[Event]:
    """Decode a batch back to event objects (for the slow-path tools)."""
    out: List[Event] = []
    location = interner.location
    for op, a, b in zip(batch.ops, batch.a, batch.b):
        if op == OP_READ:
            out.append(ReadEvent(a, location(b)))
        elif op == OP_WRITE:
            out.append(WriteEvent(a, location(b)))
        elif op == OP_FORK:
            out.append(ForkEvent(a, b))
        elif op == OP_JOIN:
            out.append(JoinEvent(a, b))
        elif op == OP_HALT:
            out.append(HaltEvent(a))
        elif op == OP_STEP:
            out.append(StepEvent(a))
        else:  # pragma: no cover - defensive
            raise ProgramError(f"unknown opcode {op}")
    return out
