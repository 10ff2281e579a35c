"""Batched ingestion: the tight per-batch loop over a detector.

:class:`BatchEngine` drives one detector through an
:class:`~repro.engine.batch.EventBatch`.  The main paths:

* a **generic loop** for any observer-protocol detector: methods
  pre-bound to locals, flat integer opcode dispatch, locations already
  interned to dense ints;
* a **specialised kernel** for :class:`RaceDetector2D` (the common
  case) that inlines the detector's Figure-6 access rules and Figure-8
  union-find directly over the detector's own state -- a slot map and
  the ``R``/``W``/``E`` int columns of
  :class:`~repro.core.shadow.ShadowColumns`: no per-event method calls,
  thread checks hoisted once per run of accesses by one task, shadow
  accounting bumped only when an empty entry fills, and the union-find
  ``find`` unrolled into the loop.  The kernel leaves the detector in
  *exactly* the state the per-event calls would -- same races
  (including ``op_index``), same op counters, same shadow columns and
  accounting -- which :mod:`repro.engine.differential` cross-checks on
  every benchmark run;
* a **predict kernel** for :class:`SHBDetector` that answers accesses
  in place over the detector's packed candidate windows, one hoisted
  thread check per run of accesses by one task (see
  :func:`_ingest_predict`).

:class:`ShardedBatchEngine` partitions the *shadow map* by location id:
shard ``k`` owns locations with ``lid % num_shards == k`` and runs its
own detector instance over the lifecycle stream plus only its own
accesses.  Lifecycle events (fork/join/halt/step) are replicated to
every shard -- they carry the happens-before structure all shards need
-- so sharding costs ``O(shards x lifecycle)`` extra work in exchange
for location ranges that can be processed independently (separate
processes, machines, or simply bounded working sets).  Verdicts are
unaffected: an access only ever interacts with its own location's
history, and every shard sees the full ordering structure.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from typing import Any, Callable, Iterable, List, Optional

import numpy as _np

from repro.core.detector import RaceDetector2D
from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import EPOCH_DIRTY
from repro.detectors.shb import TASK_MASK, SHBDetector
from repro.engine.batch import (
    OP_FORK,
    OP_HALT,
    OP_JOIN,
    OP_READ,
    OP_STEP,
    OP_WRITE,
    EventBatch,
    LocationInterner,
)
from repro.errors import DetectorError, ProgramError
from repro.obs.phases import get_tracer
from repro.obs.registry import MetricsRegistry, get_registry

__all__ = ["BatchEngine", "ShardedBatchEngine"]

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

    With the access-epoch cache on (the default), the ``E`` column keeps
    per location the encoded ``(task, kind)`` of the last *clean* access
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
    slot_of = shadow.slot
    slot_get = slot_of.get
    R = shadow.R
    W = shadow.W
    E = shadow.E
    total = shadow.total
    peak = shadow.peak_entries_per_loc
    races = det.races
    op_index = det.op_index
    use_epoch = det._epoch_cache
    dirty = EPOCH_DIRTY

    read_op, write_op = OP_READ, OP_WRITE
    fork_op, join_op, halt_op = OP_FORK, OP_JOIN, OP_HALT
    step_op = OP_STEP
    kind_read, kind_write = _READ, _WRITE
    n_threads = len(visited)
    # the task of the current access run; None after a structural event
    cur: Optional[int] = None
    key_r = key_w = 0

    try:
        for op, t, b in zip(batch.ops, batch.a, batch.b):
            if op == read_op or op == write_op:
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
                s = slot_get(b)
                if s is None:
                    # First access to this location: no suprema to query,
                    # the access simply becomes the relevant supremum.
                    slot_of[b] = len(R)
                    if op == read_op:
                        R.append(cur)
                        W.append(-1)
                    else:
                        R.append(-1)
                        W.append(cur)
                    E.append(-1)
                    total += 1
                    if not peak:
                        peak = 1
                    continue
                if op == read_op:
                    if use_epoch and E[s] == key_r:
                        # Same-epoch repeat of a clean access: verdict and
                        # state are provably unchanged (see docstring).
                        continue
                    # on_read: check against the write supremum, fold the
                    # read into the read supremum.
                    clean = True
                    w = W[s]
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
                    r = R[s]
                    if r < 0:
                        # an existing slot already holds W: now two entries
                        R[s] = cur
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
                            R[s] = cur
                        else:
                            R[s] = x
                            clean = False
                    if use_epoch:
                        E[s] = key_r if clean else dirty
                else:
                    if use_epoch and E[s] == key_w:
                        continue
                    # on_write: check both suprema, fold the write into
                    # the write supremum.
                    clean = True
                    r = R[s]
                    w = W[s]
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
                        W[s] = cur
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
                            W[s] = cur
                        else:
                            W[s] = lx
                            clean = False
                    if use_epoch:
                        E[s] = key_w if clean else dirty
                continue
            # A structural event ends the access run.
            cur = None
            if op > step_op:
                raise ProgramError(f"unknown opcode {op}")
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


def _ingest_predict(det: SHBDetector, batch: EventBatch) -> None:
    """The predict-mode kernel: batch-level validation, then an
    inlined access loop over the SHB detector's packed windows.

    The candidate-pair window must never silently absorb rows the
    columnar accounting does not recognise, so the batch's
    ``counts()``/``access_count()`` are reconciled *once, up front*:
    a batch carrying any unknown opcode is rejected whole -- naming the
    first offending row -- before a single event mutates the window.
    (Bad *thread ids* are still per-event conditions and raise
    :class:`~repro.errors.DetectorError` mid-stream at the exact
    ``op_index``, like every other detector.)

    Accesses are answered in place, mirroring
    :meth:`SHBDetector._access` over the same ``_reads``/``_writes``
    dicts: same reports in the same order, same ``op_index`` and peak
    window.  The thread-id checks, the task's clock and its packed
    epoch are hoisted once per *run* of consecutive accesses by one
    task -- only a structural event can change them, and every
    structural event ends the run.  Structural events go to the
    detector's own ``on_*`` methods, so the clock algebra has one copy.
    """
    counts = batch.counts()
    accesses = counts.get("read", 0) + counts.get("write", 0)
    if accesses != batch.access_count():
        raise ProgramError(
            f"inconsistent batch accounting: counts() sees {accesses} "
            f"accesses but access_count() reports {batch.access_count()}"
        )
    if counts.get("unknown"):
        for i, op in enumerate(batch.ops):
            if op < OP_FORK or op > OP_WRITE:
                raise ProgramError(
                    f"unknown opcode {op} at batch row {i}; predict mode "
                    "rejects the batch before any row reaches the "
                    "candidate-pair window"
                )
    on_fork = det.on_fork
    on_join = det.on_join
    on_halt = det.on_halt
    on_step = det.on_step
    state = det._state
    clocks = det._clock
    reads = det._reads
    writes = det._writes
    reads_get = reads.get
    writes_get = writes.get
    report = det.races.append
    mask = TASK_MASK
    R, W = _READ, _WRITE
    Report = RaceReport
    read_op, write_op = OP_READ, OP_WRITE
    fork_op, join_op, halt_op = OP_FORK, OP_JOIN, OP_HALT
    op_index = det.op_index
    peak = det._peak_window
    # the task whose run is hoisted; None after a structural event (no
    # int sentinel: any int can arrive as a hostile thread id)
    cur: Optional[int] = None
    vc: Any = None
    n = me = 0
    try:
        for op, t, loc in zip(batch.ops, batch.a, batch.b):
            if op < read_op:
                cur = None
                det.op_index = op_index
                try:
                    if op == fork_op:
                        on_fork(t, loc)
                    elif op == join_op:
                        on_join(t, loc)
                    elif op == halt_op:
                        on_halt(t)
                    else:
                        on_step(t)
                finally:
                    op_index = det.op_index
                continue
            if t != cur:
                if t < 0 or t >= len(state):
                    raise DetectorError(f"unknown thread id {t}")
                if state[t]:
                    raise DetectorError(f"thread {t} already halted")
                vc = clocks[t]
                n = len(vc)
                me = (vc[t] << 32) | t
                cur = t
            op_index += 1
            if op == write_op:
                kind = W
                prior = R
                own_map = writes
                own = writes_get(loc)
                other = reads_get(loc)
            else:
                kind = R
                prior = W
                own_map = reads
                own = reads_get(loc)
                other = writes_get(loc)
            # Reads race prior writes, writes race prior reads: every
            # unordered entry of the other kind's window is a pair.
            if other is not None:
                if type(other) is int:
                    u = other & mask
                    if u >= n or vc[u] < other >> 32:
                        report(Report(loc, t, kind, prior, u, op_index))
                else:
                    for e in other:
                        u = e & mask
                        if u >= n or vc[u] < e >> 32:
                            report(Report(loc, t, kind, prior, u, op_index))
            # Fold into the own kind's window; a write also races each
            # unordered prior write it keeps.
            if type(own) is int:
                u = own & mask
                if u == t or not (u >= n or vc[u] < own >> 32):
                    own_map[loc] = me  # own or dominated epoch: same size
                    continue
                if kind is W:
                    report(Report(loc, t, W, W, u, op_index))
                own_map[loc] = [own, me]
                size = 2
            elif own is None:
                own_map[loc] = me
                size = 1
            else:
                keep = []
                for e in own:
                    u = e & mask
                    if u >= n or vc[u] < e >> 32:
                        if kind is W:
                            report(Report(loc, t, W, W, u, op_index))
                        keep.append(e)
                if not keep:
                    own_map[loc] = me  # the frontier shrank to one
                    continue
                keep.append(me)
                own_map[loc] = keep
                size = len(keep)
            if other is not None:
                size += 1 if type(other) is int else len(other)
            if size > peak:
                peak = size
    finally:
        det.op_index = op_index
        det._peak_window = peak


def _ingest_batch(det: Any, batch: EventBatch) -> str:
    """Route a batch to the fastest loop that applies.

    Returns the dispatch path taken (``"kernel"``, ``"predict"`` or
    ``"generic"``) so callers can count how often each loop actually
    runs.
    """
    if type(det) is RaceDetector2D and not det._literal:
        _ingest_fast(det, batch)
        return "kernel"
    if isinstance(det, SHBDetector):
        _ingest_predict(det, batch)
        return "predict"
    _ingest_generic(det, batch)
    return "generic"


_DISPATCH_PATHS = ("kernel", "predict", "generic")


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
        erratum knob) get the inlined kernel; everything else gets the
        generic pre-bound loop.
    predict:
        Alternative to ``detector``: run the engine in sound race-*prediction*
        mode over a fresh :class:`~repro.detectors.shb.SHBDetector`
        (one report per feasibly-reorderable racing pair rather than
        one per flagged access; see ``docs/PREDICTION.md``).  Mutually
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
            detector = SHBDetector()
            detector.on_root(0)
        if detector is None:
            detector = _default_detector()
        self.detector = detector
        self.interner = interner
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
        """Process one batch; returns the number of events consumed."""
        det = self.detector
        races_before = len(det.races)
        with get_tracer().span("ingest"):
            with get_tracer().span("dispatch"):
                path = _ingest_batch(det, batch)
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
    per-event Python dispatch.  Tiny batches, where the array overhead
    loses, take a plain loop instead.  This is both the in-process
    routing step of :class:`ShardedBatchEngine` and the network-level
    routing step of the :mod:`repro.serve.cluster` gateway.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    if len(batch) < 128:
        return _split_batch_py(batch, n_shards)
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


def _split_batch_py(batch: EventBatch, n_shards: int) -> List[EventBatch]:
    """Per-event split for small batches."""
    subs = [EventBatch() for _ in range(n_shards)]
    appends = [
        (sub.ops.append, sub.a.append, sub.b.append) for sub in subs
    ]
    read_op, write_op = OP_READ, OP_WRITE
    for op, a, b in zip(batch.ops, batch.a, batch.b):
        if op == read_op or op == write_op:
            ap_op, ap_a, ap_b = appends[b % n_shards]
            ap_op(op)
            ap_a(a)
            ap_b(b)
        else:
            for ap_op, ap_a, ap_b in appends:
                ap_op(op)
                ap_a(a)
                ap_b(b)
    return subs


class ShardedBatchEngine:
    """Shadow-map partitioning over independent detector instances.

    See the module docstring for the model.  ``detector_factory`` must
    produce observer-protocol detectors that have *not* seen the root
    yet; the engine announces task 0 to every shard itself.  It
    defaults to :class:`RaceDetector2D`.

    Each incoming batch is split once into per-shard sub-batches
    (lifecycle events replicated, accesses routed by ``lid % shards``)
    and each shard then consumes its sub-batch through the same kernel
    a :class:`BatchEngine` would use -- the split is the only extra
    cost, and it is what a multi-process deployment would ship over a
    queue per shard.
    """

    __slots__ = (
        "num_shards",
        "shards",
        "interner",
        "events_ingested",
        "registry",
        "_c_events",
        "_c_batches",
        "_c_races",
        "_c_dispatch",
        "_c_routed",
        "_c_lifecycle",
    )

    def __init__(
        self,
        num_shards: int,
        *,
        detector_factory: Optional[Callable[[], Any]] = None,
        predict: bool = False,
        interner: Optional[LocationInterner] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if num_shards < 1:
            raise ProgramError(f"need at least one shard, got {num_shards}")
        if predict and detector_factory is not None:
            raise ProgramError(
                "predict mode constructs its own shb detectors; drop the "
                "factory argument or drop predict=True"
            )
        if predict:
            # Sharding composes with prediction unchanged: lifecycle
            # events replicate to every shard, so each shard's vector
            # clocks see the full happens-before structure and its
            # windows cover exactly its own locations.
            detector_factory = SHBDetector
        factory = detector_factory or RaceDetector2D
        self.num_shards = num_shards
        self.shards: List[Any] = [factory() for _ in range(num_shards)]
        for det in self.shards:
            det.on_root(0)
        self.interner = interner
        self.events_ingested = 0
        reg = registry if registry is not None else get_registry()
        self.registry = reg
        labels = {"engine": "sharded"}
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
                "per-shard sub-batches per dispatch loop",
                labels={**labels, "path": path},
            )
            for path in _DISPATCH_PATHS
        }
        # The routing counters partition every incoming event exactly
        # once: an access counts against its owner shard, a lifecycle
        # event (which split() replicates to every shard) counts once
        # here.  Their sum is therefore always the ingested length.
        self._c_routed = [
            reg.counter(
                "engine_shard_accesses_total",
                "accesses routed to this shard (lid % num_shards)",
                labels={**labels, "shard": str(k)},
            )
            for k in range(num_shards)
        ]
        self._c_lifecycle = reg.counter(
            "engine_shard_lifecycle_total",
            "lifecycle events replicated to every shard (counted once)",
            labels=labels,
        )

    def split(self, batch: EventBatch) -> List[EventBatch]:
        """Partition one batch into per-shard sub-batches (see
        :func:`split_batch` -- the same routine the cluster gateway
        uses to route column slices over the network)."""
        return split_batch(batch, self.num_shards)

    def ingest(self, batch: EventBatch) -> int:
        """Route one batch: accesses to their shard, lifecycle to all."""
        tracer = get_tracer()
        races_before = sum(len(det.races) for det in self.shards)
        with tracer.span("ingest"):
            if self.num_shards == 1:
                accesses = batch.access_count()
                self._c_routed[0].inc(accesses)
                self._c_lifecycle.inc(len(batch) - accesses)
                with tracer.span("dispatch"):
                    path = _ingest_batch(self.shards[0], batch)
                self._c_dispatch[path].inc()
            else:
                with tracer.span("split"):
                    subs = self.split(batch)
                lifecycle = len(batch) - batch.access_count()
                self._c_lifecycle.inc(lifecycle)
                for k, (det, sub) in enumerate(zip(self.shards, subs)):
                    self._c_routed[k].inc(len(sub) - lifecycle)
                    with tracer.span("dispatch"):
                        path = _ingest_batch(det, sub)
                    self._c_dispatch[path].inc()
        n = len(batch)
        self.events_ingested += n
        self._c_events.inc(n)
        self._c_batches.inc()
        self._c_races.inc(
            sum(len(det.races) for det in self.shards) - races_before
        )
        return n

    def ingest_all(self, batches: Iterable[EventBatch]) -> int:
        return sum(self.ingest(batch) for batch in batches)

    def races(self) -> List[RaceReport]:
        """All shards' reports, merged (decoded when possible).

        Shards process disjoint location sets, so reports never overlap;
        the merge is ordered by shard then detection order.  Note that
        ``op_index`` values are per-shard stream positions, not global
        ones -- compare reports by ``(task, loc, kind)`` across engines.
        """
        out: List[RaceReport] = []
        location = self.interner.location if self.interner else None
        for det in self.shards:
            for r in det.races:
                out.append(
                    r if location is None else replace(r, loc=location(r.loc))
                )
        return out
