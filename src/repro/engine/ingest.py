"""Batched ingestion: the tight per-batch loop over a detector.

:class:`BatchEngine` drives one detector through an
:class:`~repro.engine.batch.EventBatch`.  The main paths:

* a **generic loop** for any observer-protocol detector: methods
  pre-bound to locals, flat integer opcode dispatch, locations already
  interned to dense ints;
* a **specialised kernel** for :class:`RaceDetector2D` (the common
  case) that inlines the detector's Figure-6 access rules and Figure-8
  union-find directly over the detector's own state -- the
  ``R``/``W``/``E`` int columns of
  :class:`~repro.core.shadow.ShadowColumns`, indexed by location id:
  no per-event method calls,
  thread checks hoisted once per run of accesses by one task, shadow
  accounting bumped only when an empty entry fills, and the union-find
  ``find`` unrolled into the loop.  The kernel leaves the detector in
  *exactly* the state the per-event calls would -- same races
  (including ``op_index``), same op counters, same shadow columns and
  accounting -- which :mod:`repro.engine.differential` cross-checks on
  every benchmark run;
* a **predict kernel** for :class:`~repro.core.predict.PredictDetector2D`
  (``predict=True``): the lattice2d kernel's structural loop over the
  same union-find task state, plus the running-task stack and the
  left-neighbour array, with an access step that scans and prunes the
  detector's candidate windows of task ids, one inlined ``find`` per
  window entry; no vector clocks (see :func:`_ingest_predict`).  A
  per-event :class:`~repro.detectors.shb.SHBDetector` passed in by
  hand takes the generic loop.

Every batch is first admitted whole by
:func:`~repro.engine.batch.check_batch`: an unknown opcode or an access
location id outside the bound (the caller's, else the interner's
size, else :data:`~repro.engine.batch.LOCATION_ID_LIMIT`) rejects it
before any row reaches a detector, which is what lets the kernels
index their shadow by location id with no further check.

:func:`split_batch` partitions a batch by location for the
:mod:`repro.serve.cluster` gateway, whose workers each run one
:class:`BatchEngine`.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from typing import Any, Callable, Iterable, List, Optional

import numpy as _np

from repro.core.detector import RaceDetector2D
from repro.core.predict import (
    PredictDetector2D,
    not_left_neighbour,
    not_running,
)
from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import EPOCH_DIRTY, EPOCH_UNTOUCHED
from repro.engine.batch import (
    OP_FORK,
    OP_HALT,
    OP_JOIN,
    OP_READ,
    OP_STEP,
    OP_WRITE,
    LOCATION_ID_LIMIT,
    EventBatch,
    LocationInterner,
    check_batch,
)
from repro.errors import DetectorError, ProgramError
from repro.obs.phases import get_tracer
from repro.obs.registry import MetricsRegistry, get_registry

__all__ = ["BatchEngine", "split_batch"]

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE


def _ingest_generic(det: Any, batch: EventBatch) -> None:
    """Pre-bound dispatch loop for arbitrary observer-protocol detectors."""
    on_fork = det.on_fork
    on_join = det.on_join
    on_halt = det.on_halt
    on_step = det.on_step
    on_read = det.on_read
    on_write = det.on_write
    read_op, write_op = OP_READ, OP_WRITE
    fork_op, join_op, halt_op = OP_FORK, OP_JOIN, OP_HALT
    step_op = OP_STEP
    for op, a, b in zip(batch.ops, batch.a, batch.b):
        if op == read_op:
            on_read(a, b)
        elif op == write_op:
            on_write(a, b)
        elif op == fork_op:
            on_fork(a, b)
        elif op == join_op:
            on_join(a, b)
        elif op == halt_op:
            on_halt(a)
        elif op == step_op:
            on_step(a)
        else:
            # Corrupt or hostile batches (e.g. off the serve wire) must
            # be rejected, not absorbed as step events.
            raise ProgramError(f"unknown opcode {op}")


def _ingest_fast(det: RaceDetector2D, batch: EventBatch) -> None:
    """The inlined :class:`RaceDetector2D` kernel (see module docstring).

    Mirrors ``on_fork/on_join/on_halt/on_step/on_read/on_write`` and the
    ``sup`` query over the detector's union-find and shadow columns; any
    behavioural change to the detector must be replicated here (the
    differential harness will catch a missed one).  The thread checks,
    ``visited[t] = True`` and the task's epoch keys are hoisted once per
    run of accesses by one task: only a structural event can change
    them, and each one ends the run (``cur`` back to ``None``, never an
    int sentinel -- any int can arrive as a hostile thread id).

    ``E[lid]`` is :data:`EPOCH_UNTOUCHED` until the location's first
    access, so the same-epoch probe ``E[lid] == key`` -- one compare
    that no non-key value passes -- is also where a first touch
    branches off.  With the access-epoch cache on (the default), the
    ``E`` column keeps per location the encoded ``(task, kind)`` of the
    last *clean* access
    -- no race reported, supremum folded to the task itself -- and a
    repeat of it skips the ``Sup`` queries.  That is sound because
    happens-before is monotone (a history ordered before a live task
    stays ordered) and state-preserving because ``Sup(t, t) = t`` for a
    live task; only the union-find ``find``/hop counters (and compressed
    parent pointers) can differ from the per-event run.  Racing repeats
    are never cached, so repeated reports match the per-event path.
    """
    uf = det._uf
    parent = uf._parent
    rank = uf._rank
    label = uf._label
    compress = uf.path_compression
    by_rank = uf.link_by_rank
    finds = 0
    hops = 0
    unions = 0

    visited = det._visited
    halted = det._halted
    joined_flags = det._joined
    shadow = det.shadow
    R = shadow.R
    W = shadow.W
    E = shadow.E
    total = shadow.total
    peak = shadow.peak_entries_per_loc
    races = det.races
    op_index = det.op_index
    use_epoch = det._epoch_cache
    dirty = EPOCH_DIRTY
    untouched = EPOCH_UNTOUCHED

    read_op, write_op = OP_READ, OP_WRITE
    fork_op, join_op, halt_op = OP_FORK, OP_JOIN, OP_HALT
    kind_read, kind_write = _READ, _WRITE
    n_threads = len(visited)
    # the task of the current access run; None after a structural event
    cur: Optional[int] = None
    key_r = key_w = 0

    try:
        for op, t, b in zip(batch.ops, batch.a, batch.b):
            if op >= read_op:  # check_batch admits no opcode past OP_WRITE
                if t != cur:
                    if t >= n_threads or t < 0:
                        raise DetectorError(f"unknown thread id {t}")
                    if halted[t]:
                        raise DetectorError(f"thread {t} already halted")
                    visited[t] = True
                    cur = t
                    key_r = t << 1
                    key_w = key_r | 1
                op_index += 1
                e = E[b]
                if op == read_op:
                    if e == key_r:
                        # Same-epoch repeat of a clean access: verdict and
                        # state are provably unchanged (see docstring).
                        continue
                    if e == untouched:
                        # First access to this location: no suprema to
                        # query, the access simply becomes its supremum.
                        R[b] = cur
                        E[b] = -1
                        total += 1
                        if not peak:
                            peak = 1
                        continue
                    # on_read: check against the write supremum, fold the
                    # read into the read supremum.
                    clean = True
                    w = W[b]
                    if w >= 0:
                        finds += 1
                        x = w
                        while parent[x] != x:
                            x = parent[x]
                            hops += 1
                        if compress:
                            i = w
                            while parent[i] != x:
                                parent[i], i = x, parent[i]
                        # cur is visited, so Sup(w, t) != t iff the
                        # set's label is unvisited
                        if not visited[label[x]]:
                            races.append(
                                RaceReport(
                                    loc=b, task=t, kind=kind_read,
                                    prior_kind=kind_write, prior_repr=w,
                                    op_index=op_index,
                                )
                            )
                            clean = False
                    r = R[b]
                    if r < 0:
                        # an existing slot already holds W: now two entries
                        R[b] = cur
                        total += 1
                        peak = 2
                    else:
                        finds += 1
                        x = r
                        while parent[x] != x:
                            x = parent[x]
                            hops += 1
                        if compress:
                            i = r
                            while parent[i] != x:
                                parent[i], i = x, parent[i]
                        x = label[x]
                        if visited[x]:
                            R[b] = cur
                        else:
                            R[b] = x
                            clean = False
                    if use_epoch:
                        E[b] = key_r if clean else dirty
                else:
                    if e == key_w:
                        continue
                    if e == untouched:
                        W[b] = cur
                        E[b] = -1
                        total += 1
                        if not peak:
                            peak = 1
                        continue
                    # on_write: check both suprema, fold the write into
                    # the write supremum.
                    clean = True
                    r = R[b]
                    w = W[b]
                    if r >= 0:
                        finds += 1
                        x = r
                        while parent[x] != x:
                            x = parent[x]
                            hops += 1
                        if compress:
                            i = r
                            while parent[i] != x:
                                parent[i], i = x, parent[i]
                        if not visited[label[x]]:
                            races.append(
                                RaceReport(
                                    loc=b, task=t, kind=kind_write,
                                    prior_kind=kind_read, prior_repr=r,
                                    op_index=op_index,
                                )
                            )
                            clean = False
                    if w < 0:
                        W[b] = cur
                        total += 1
                        peak = 2
                    else:
                        # One walk answers both the check and the fold of
                        # sup(w, t).  The per-event detector walks twice,
                        # so the counters book its repeat: one hop after
                        # compression, else the same hops again.
                        finds += 1
                        x = w
                        h = 0
                        while parent[x] != x:
                            x = parent[x]
                            h += 1
                        if compress:
                            i = w
                            while parent[i] != x:
                                parent[i], i = x, parent[i]
                        hops += h
                        lx = label[x]
                        if clean:
                            finds += 1
                            hops += (x != w) if compress else h
                            if not visited[lx]:
                                races.append(
                                    RaceReport(
                                        loc=b, task=t, kind=kind_write,
                                        prior_kind=kind_write, prior_repr=w,
                                        op_index=op_index,
                                    )
                                )
                                clean = False
                        if visited[lx]:
                            W[b] = cur
                        else:
                            W[b] = lx
                            clean = False
                    if use_epoch:
                        E[b] = key_w if clean else dirty
                continue
            # A structural event ends the access run.  (check_batch has
            # refused any opcode past OP_WRITE.)
            cur = None
            if t >= n_threads or t < 0:
                raise DetectorError(f"unknown thread id {t}")
            if halted[t]:
                raise DetectorError(f"thread {t} already halted")
            if op == fork_op:
                op_index += 1
                visited[t] = True
                tid = n_threads
                parent.append(tid)
                rank.append(0)
                label.append(tid)
                visited.append(False)
                halted.append(False)
                joined_flags.append(False)
                n_threads += 1
                if b != tid:
                    raise DetectorError(
                        f"fork id mismatch: interpreter says {b}, detector "
                        f"allocated {tid}"
                    )
            elif op == join_op:
                if b >= n_threads or b < 0:
                    raise DetectorError(f"unknown thread id {b}")
                if not halted[b]:
                    raise DetectorError(f"joining running thread {b}")
                if joined_flags[b]:
                    raise DetectorError(f"thread {b} joined twice")
                joined_flags[b] = True
                op_index += 1
                # Union(joiner, joined) under the joiner's set label.
                unions += 1
                rt = t
                while parent[rt] != rt:
                    rt = parent[rt]
                    hops += 1
                if compress:
                    i = t
                    while parent[i] != rt:
                        parent[i], i = rt, parent[i]
                rs = b
                while parent[rs] != rs:
                    rs = parent[rs]
                    hops += 1
                if compress:
                    i = b
                    while parent[i] != rs:
                        parent[i], i = rs, parent[i]
                lab = label[rt]
                if rt != rs:
                    if by_rank:
                        if rank[rt] < rank[rs]:
                            rt, rs = rs, rt
                        elif rank[rt] == rank[rs]:
                            rank[rt] += 1
                    parent[rs] = rt
                    label[rt] = lab
                visited[t] = True
            elif op == halt_op:
                op_index += 1
                halted[t] = True
                visited[t] = False
            else:
                op_index += 1
                visited[t] = True
    finally:
        # Reconcile the deferred bookkeeping even on error, so partially
        # ingested state stays consistent with the per-event semantics.
        det.op_index = op_index
        uf.find_count += finds
        uf.hop_count += hops
        uf.union_count += unions
        shadow.total = total
        shadow.peak_entries_per_loc = peak


def _ingest_predict(det: PredictDetector2D, batch: EventBatch) -> None:
    """The predict-mode kernel over :class:`PredictDetector2D`.

    Its structural branch is :func:`_ingest_fast`'s, plus the running-
    task stack and the left-neighbour array that the detector checks on
    every event (fork-first order, left-neighbour joins).  Its access
    step is the detector's window rule, answered in place over the
    id-indexed ``_reads``/``_writes`` lists with one inlined union-find
    ``find`` per window entry: an entry ``u`` is unordered with the
    running task iff the label of ``u``'s set is not visited.  No clock,
    no epoch, no method call.

    The thread checks and ``visited[t] = True`` are hoisted once per run
    of accesses by one task; only a structural event can change them,
    and each one ends the run (``cur`` back to ``None``: any int can
    arrive as a hostile thread id).  The windows store ``cur``, one int
    object per run, not the row's own copy of the task id.  The kernel
    leaves the detector in exactly the state the per-event methods
    would: the same reports in the same order, ``op_index``, windows,
    peak, task state and union-find counters.
    """
    uf = det._uf
    parent = uf._parent
    rank = uf._rank
    label = uf._label
    compress = uf.path_compression
    by_rank = uf.link_by_rank
    finds = 0
    hops = 0
    unions = 0

    visited = det._visited
    halted = det._halted
    joined_flags = det._joined
    stack = det._stack
    left = det._left
    reads = det._reads
    writes = det._writes
    report = det.races.append
    Report = RaceReport
    R, W = _READ, _WRITE
    read_op, write_op = OP_READ, OP_WRITE
    fork_op, join_op, halt_op = OP_FORK, OP_JOIN, OP_HALT
    op_index = det.op_index
    peak = det._peak_window
    n_threads = len(visited)
    # every live task is on the stack; -1 once the root has halted
    top = stack[-1] if stack else -1
    # the task of the current access run; None after a structural event
    cur: Optional[int] = None

    try:
        for op, t, loc in zip(batch.ops, batch.a, batch.b):
            if op >= read_op:  # check_batch admits no opcode past OP_WRITE
                if t != cur:
                    if t >= n_threads or t < 0:
                        raise DetectorError(f"unknown thread id {t}")
                    if halted[t]:
                        raise DetectorError(f"thread {t} already halted")
                    if t != top:
                        raise not_running(t, top)
                    visited[t] = True
                    cur = t
                op_index += 1
                if op == write_op:
                    kind = W
                    prior = R
                    own_map = writes
                    own = writes[loc]
                    other = reads[loc]
                else:
                    kind = R
                    prior = W
                    own_map = reads
                    own = reads[loc]
                    other = writes[loc]
                # Reads race prior writes, writes race prior reads: every
                # unordered entry of the other kind's window is a pair.
                if other is not None:
                    for u in (other,) if type(other) is int else other:
                        if u == t:
                            continue
                        finds += 1
                        x = u
                        while parent[x] != x:
                            x = parent[x]
                            hops += 1
                        if compress:
                            i = u
                            while parent[i] != x:
                                parent[i], i = x, parent[i]
                        if not visited[label[x]]:
                            report(Report(loc, t, kind, prior, u, op_index))
                # Fold into the own kind's window, keeping its unordered
                # entries; a write also races each one it keeps.
                if own is None:
                    own_map[loc] = cur
                    size = 1
                elif type(own) is int:
                    if own == t:
                        continue
                    finds += 1
                    x = own
                    while parent[x] != x:
                        x = parent[x]
                        hops += 1
                    if compress:
                        i = own
                        while parent[i] != x:
                            parent[i], i = x, parent[i]
                    if visited[label[x]]:
                        own_map[loc] = cur  # a dominated entry: same size
                        continue
                    if kind is W:
                        report(Report(loc, t, W, W, own, op_index))
                    own_map[loc] = [own, cur]
                    size = 2
                else:
                    keep = []
                    for u in own:
                        if u == t:
                            continue
                        finds += 1
                        x = u
                        while parent[x] != x:
                            x = parent[x]
                            hops += 1
                        if compress:
                            i = u
                            while parent[i] != x:
                                parent[i], i = x, parent[i]
                        if not visited[label[x]]:
                            if kind is W:
                                report(Report(loc, t, W, W, u, op_index))
                            keep.append(u)
                    if not keep:
                        own_map[loc] = cur  # the frontier shrank to one
                        continue
                    keep.append(cur)
                    own_map[loc] = keep
                    size = len(keep)
                if other is not None:
                    size += 1 if type(other) is int else len(other)
                if size > peak:
                    peak = size
                continue
            # A structural event ends the access run.  The family's
            # checks come first, then the running task and the line.
            cur = None
            if t >= n_threads or t < 0:
                raise DetectorError(f"unknown thread id {t}")
            if halted[t]:
                raise DetectorError(f"thread {t} already halted")
            if op == fork_op:
                if t != top:
                    raise not_running(t, top)
                tid = n_threads
                left.append(left[t])
                left[t] = tid
                stack.append(tid)
                top = tid
                op_index += 1
                visited[t] = True
                parent.append(tid)
                rank.append(0)
                label.append(tid)
                visited.append(False)
                halted.append(False)
                joined_flags.append(False)
                n_threads += 1
                if loc != tid:
                    raise DetectorError(
                        f"fork id mismatch: interpreter says {loc}, "
                        f"detector allocated {tid}"
                    )
            elif op == join_op:
                b = loc
                if b >= n_threads or b < 0:
                    raise DetectorError(f"unknown thread id {b}")
                if not halted[b]:
                    raise DetectorError(f"joining running thread {b}")
                if joined_flags[b]:
                    raise DetectorError(f"thread {b} joined twice")
                if t != top:
                    raise not_running(t, top)
                if left[t] != b:
                    raise not_left_neighbour(t, left[t], b)
                left[t] = left[b]
                joined_flags[b] = True
                op_index += 1
                # Union(joiner, joined) under the joiner's set label.
                unions += 1
                rt = t
                while parent[rt] != rt:
                    rt = parent[rt]
                    hops += 1
                if compress:
                    i = t
                    while parent[i] != rt:
                        parent[i], i = rt, parent[i]
                rs = b
                while parent[rs] != rs:
                    rs = parent[rs]
                    hops += 1
                if compress:
                    i = b
                    while parent[i] != rs:
                        parent[i], i = rs, parent[i]
                lab = label[rt]
                if rt != rs:
                    if by_rank:
                        if rank[rt] < rank[rs]:
                            rt, rs = rs, rt
                        elif rank[rt] == rank[rs]:
                            rank[rt] += 1
                    parent[rs] = rt
                    label[rt] = lab
                visited[t] = True
            elif t != top:
                raise not_running(t, top)
            elif op == halt_op:
                op_index += 1
                halted[t] = True
                visited[t] = False
                stack.pop()
                top = stack[-1] if stack else -1
            else:
                op_index += 1
                visited[t] = True
    finally:
        # Reconcile the deferred bookkeeping even on error, so partially
        # ingested state stays consistent with the per-event semantics.
        det.op_index = op_index
        det._peak_window = peak
        uf.find_count += finds
        uf.hop_count += hops
        uf.union_count += unions


def _run_kernel(
    kernel: Callable[[Any, EventBatch], None],
    det: Any,
    shadow: Any,
    batch: EventBatch,
    width: int,
) -> None:
    """Run ``kernel`` over ``batch`` with ``shadow`` (the detector's
    id-indexed state: ``grow`` and ``locations``) ``width`` ids wide.

    Once the detector's per-event methods have adopted a location table
    the shadow is indexed by that table, so the batch's access ids --
    locations in their own right -- are mapped through it first, and
    the batch's reports name the batch's ids again.  That keeps the two
    driving styles correct when mixed on one detector.
    """
    table = shadow.locations
    if table is None:
        shadow.grow(width)
        kernel(det, batch)
        return
    intern = table.intern
    lids = array("i", [
        intern(b) if op >= OP_READ else b for op, b in zip(batch.ops, batch.b)
    ])
    shadow.grow(len(table))
    races = det.races
    start = len(races)
    try:
        kernel(det, EventBatch(batch.ops, batch.a, lids))
    finally:
        location = table.location
        races[start:] = [replace(r, loc=location(r.loc)) for r in races[start:]]


def _ingest_batch(det: Any, batch: EventBatch, width: int) -> str:
    """Route an admitted batch to the fastest loop that applies.

    ``width`` is the number of location ids the kernels' shadow must
    hold (see :func:`check_batch`).  Returns the dispatch path taken
    (``"kernel"``, ``"predict"`` or ``"generic"``) so callers can count
    how often each loop actually runs.
    """
    if type(det) is RaceDetector2D and not det._literal:
        _run_kernel(_ingest_fast, det, det.shadow, batch, width)
        return "kernel"
    if type(det) is PredictDetector2D:
        _run_kernel(_ingest_predict, det, det, batch, width)
        return "predict"
    _ingest_generic(det, batch)
    return "generic"


_DISPATCH_PATHS = ("kernel", "predict", "generic")


def _admit(
    batch: EventBatch,
    interner: Optional[LocationInterner],
    limit: Optional[int] = None,
) -> int:
    """Check ``batch`` against its location-id bound; return the shadow
    width its kernels need.  The bound is ``limit`` when the caller
    gives one (a served session's), else the interner's size, with the
    shadow presized to all of it; else :data:`LOCATION_ID_LIMIT`.
    Without an interner the shadow grows to the largest id seen."""
    if limit is None and interner is not None:
        check_batch(batch, len(interner))
        return len(interner)
    return check_batch(
        batch, LOCATION_ID_LIMIT if limit is None else limit
    )


def _default_detector() -> RaceDetector2D:
    det = RaceDetector2D()
    det.spawn_root()
    return det


class BatchEngine:
    """Feed columnar batches to one detector as fast as Python allows.

    Parameters
    ----------
    detector:
        Any observer-protocol detector (``on_fork``/``on_join``/...).
        Defaults to a fresh :class:`RaceDetector2D` with its root task
        already spawned.  A detector you pass in must already know task
        0 (call ``on_root(0)`` / ``spawn_root`` yourself).  Plain
        :class:`RaceDetector2D` instances (without the Figure-6-literal
        erratum knob) get the inlined kernel, a
        :class:`~repro.core.predict.PredictDetector2D` the predict
        kernel; everything else gets the generic pre-bound loop.
    predict:
        Alternative to ``detector``: run the engine in sound race-*prediction*
        mode over a fresh :class:`~repro.core.predict.PredictDetector2D`
        (one report per feasibly-reorderable racing pair rather than
        one per flagged access; see ``docs/PREDICTION.md``).  Like
        lattice2d it needs a serial fork-first stream.  Mutually
        exclusive with ``detector``.
    interner:
        The :class:`LocationInterner` the batches were built with; only
        needed to decode locations in :meth:`races`.
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` to count
        against (events, batches, races, dispatch path; all labelled
        ``engine="batch"``).  Defaults to the process registry; pass
        :data:`~repro.obs.registry.NULL_REGISTRY` to opt out.
    """

    __slots__ = (
        "detector",
        "interner",
        "limit",
        "events_ingested",
        "registry",
        "_c_events",
        "_c_batches",
        "_c_races",
        "_c_dispatch",
    )

    def __init__(
        self,
        detector: Optional[Any] = None,
        *,
        predict: bool = False,
        interner: Optional[LocationInterner] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if predict and detector is not None:
            raise ProgramError(
                "predict mode constructs its own shb detector; drop the "
                "detector argument or drop predict=True"
            )
        if predict:
            detector = PredictDetector2D()
            detector.spawn_root()
        if detector is None:
            detector = _default_detector()
        self.detector = detector
        self.interner = interner
        #: the exclusive location-id bound :meth:`ingest` admits; ``None``
        #: means the interner's size, or
        #: :data:`~repro.engine.batch.LOCATION_ID_LIMIT` without one (a
        #: server sets its session's bound here)
        self.limit: Optional[int] = None
        self.events_ingested = 0
        reg = registry if registry is not None else get_registry()
        self.registry = reg
        labels = {"engine": "batch"}
        self._c_events = reg.counter(
            "engine_events_total", "events ingested", labels=labels
        )
        self._c_batches = reg.counter(
            "engine_batches_total", "batches ingested", labels=labels
        )
        self._c_races = reg.counter(
            "engine_races_total", "race reports found during ingestion",
            labels=labels,
        )
        self._c_dispatch = {
            path: reg.counter(
                "engine_dispatch_total",
                "batches per dispatch loop",
                labels={**labels, "path": path},
            )
            for path in _DISPATCH_PATHS
        }

    def ingest(self, batch: EventBatch) -> int:
        """Process one batch; returns the number of events consumed.

        The batch is admitted whole or rejected whole (see
        :func:`check_batch`): every access location id must lie below
        :attr:`limit`.
        """
        det = self.detector
        races_before = len(det.races)
        with get_tracer().span("ingest"):
            width = _admit(batch, self.interner, self.limit)
            with get_tracer().span("dispatch"):
                path = _ingest_batch(det, batch, width)
        n = len(batch)
        self.events_ingested += n
        self._c_events.inc(n)
        self._c_batches.inc()
        self._c_dispatch[path].inc()
        self._c_races.inc(len(det.races) - races_before)
        return n

    def ingest_all(self, batches: Iterable[EventBatch]) -> int:
        """Process a sequence of batches; returns total events consumed."""
        return sum(self.ingest(batch) for batch in batches)

    def races(self) -> List[RaceReport]:
        """The detector's reports, with location ids decoded back to the
        original locations when an interner is available."""
        reports = list(self.detector.races)
        if self.interner is None:
            return reports
        location = self.interner.location
        return [replace(r, loc=location(r.loc)) for r in reports]


def split_batch(batch: EventBatch, n_shards: int) -> List[EventBatch]:
    """Partition one batch into ``n_shards`` per-location sub-batches.

    Accesses go to shard ``lid % n_shards``; structural events (fork,
    join, halt -- everything below ``OP_READ``) are replicated to every
    shard so each one sees the full series-parallel skeleton.  Because
    a race is always witnessed at a single location, running each
    sub-batch through an independent detector finds exactly the races
    of the whole batch (the per-location argument of the paper, §3-4).

    The shard-index column is computed once, vectorized, and each
    sub-batch is materialized with bulk ``array`` copies -- no
    per-event Python dispatch.  This is the routing step of the
    :mod:`repro.serve.cluster` gateway.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    ops_np = _np.frombuffer(batch.ops, dtype=_np.uint8)
    a_np = _np.frombuffer(batch.a, dtype=_np.int32)
    b_np = _np.frombuffer(batch.b, dtype=_np.int32)
    # One pass for the routing column: accesses go to lid % K, the
    # structural rest is replicated to every shard.
    structural = ops_np < OP_READ
    shard = b_np % n_shards
    subs: List[EventBatch] = []
    for k in range(n_shards):
        mask = structural | (shard == k)
        subs.append(
            EventBatch(
                array("B", ops_np[mask].tobytes()),
                array("i", a_np[mask].tobytes()),
                array("i", b_np[mask].tobytes()),
            )
        )
    return subs
