"""Detection over compressed traces without decompression.

:class:`BlockMemo` drives a detector through a
:class:`~repro.compress.blocks.CompressedTrace` block by block.  The
first time a memoizable block is seen in a given detector state it is
scanned once with the engine's ordinary kernel and the *state
transition* is recorded; every later occurrence whose entry state
matches replays the recorded transition -- shadow-cell writes, epoch
updates, race reports re-based to the current stream position -- in
O(locations) instead of O(events).  A block repeated via a run-length
rule collapses further: once a replay's exit digest equals its entry
digest the state is a fixpoint, and the remaining repeats reduce to an
``op_index`` advance plus race-template replication.

Soundness
---------
A block is *memo-eligible* (:meth:`CompressedTrace.block_info`) when it
is access-only and single-task.  During such a block no structural
event runs, so the happens-before state (the union-find) is frozen;
the access kernel then reads only

* the raw per-location shadow cells,
* the *resolution* of each cell value against the acting task
  (``label[find(x)]`` + effective visited flag), and
* the per-location access epoch (when enabled),

all of which the entry digest captures exactly -- including raw cell
values, because race reports carry them as ``prior_repr`` and folds
write them back when the prior accessor is unordered.  Values a block
writes into cells are drawn from ``{t}`` |cup| the digested entry
values, and the acting task ``t`` resolves to itself while live, so
every read the kernel performs during the block is a function of
(block content, digest).  Equal content + equal digest therefore imply
an identical transition: same exit cells, same epochs, same races at
the same relative offsets.  Racing blocks memoize as well -- their
reports are part of the transition.

What is *not* replayed, deliberately: union-find ``find``/hop counters
and path-compression pointer moves.  The batch kernel's same-epoch fast
path already lets those diverge from the per-event run (see
:func:`repro.engine.ingest._ingest_fast`); the memo extends that
precedent from repeated accesses to repeated blocks.

Anything else -- structural blocks, multi-task blocks, foreign
detectors, entry states the digest cannot capture (unknown/halted
task) -- falls back to the ordinary batch kernels
via :func:`repro.engine.ingest._ingest_batch`, preserving exact typed
errors at the exact ``op_index``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.detector import RaceDetector2D
from repro.core.reports import RaceReport
from repro.engine.batch import EventBatch

from repro.compress.blocks import CompressedTrace

__all__ = ["BlockMemo"]


class _Summary:
    """One recorded block transition: apply-able exit state."""

    __slots__ = ("n", "races", "cells", "exit_digest")

    def __init__(
        self,
        n: int,
        races: Tuple[Tuple[Any, Any, Any, Any, int], ...],
        cells: Tuple[Tuple[int, int, int, int], ...],
        exit_digest: Any,
    ) -> None:
        self.n = n
        self.races = races
        #: ``(location, R, W, E)`` column values at block exit
        self.cells = cells
        self.exit_digest = exit_digest


class BlockMemo:
    """Per-detector cache of block state transitions.

    Summaries are keyed by ``(block content, entry-state digest)`` --
    content, not block id, so identical blocks arriving in different
    containers (successive serve CBATCH frames, re-read files) share
    cached transitions.  ``hits`` / ``misses`` / ``fallbacks`` count
    expanded blocks replayed from cache, scanned-and-recorded, and
    routed to the ordinary kernels respectively.
    """

    __slots__ = (
        "detector", "hits", "misses", "fallbacks", "_kernel", "_slots",
        "_entries",
    )

    def __init__(self, detector: Any) -> None:
        self.detector = detector
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0
        # Only the inlined 2D kernel's state is digestable; every other
        # detector runs its blocks through the ordinary dispatch.
        self._kernel = (
            type(detector) is RaceDetector2D and not detector._literal
        )
        # content triple -> dense slot id; (slot, digest) -> _Summary
        self._slots: Dict[Tuple[bytes, bytes, bytes], int] = {}
        self._entries: Dict[Tuple[int, Any], _Summary] = {}

    # -- entry state digests -------------------------------------------------

    def _digest(self, t: int, locs: Tuple[int, ...]) -> Any:
        """Entry state of the 2D kernel over ``locs`` for acting task
        ``t``, or None when the block must fall back (bad/halted task).

        Per location: the raw cell values plus, for each present value,
        its set label and that label's *effective* visited flag -- the
        flag the scan will see, i.e. forced True for ``t`` itself
        because the kernel marks the acting task visited before its
        first supremum query.  The ``find`` walks here never compress,
        so digesting is observation-only.
        """
        det = self.detector
        visited = det._visited
        if t < 0 or t >= len(visited) or det._halted[t]:
            return None
        uf = det._uf
        parent = uf._parent
        label = uf._label
        sh = det.shadow
        slot_get = sh.slot.get
        R, W, E = sh.R, sh.W, sh.E
        parts: List[Any] = []
        for k in locs:
            s = slot_get(k)
            if s is None:
                parts.append(None)
                continue
            cell: List[Any] = [E[s]]
            for v in (R[s], W[s]):
                if v < 0:
                    cell.append(None)
                    continue
                x = v
                while parent[x] != x:
                    x = parent[x]
                lbl = label[x]
                cell.append((v, lbl, lbl == t or visited[lbl]))
            parts.append(tuple(cell))
        return tuple(parts)

    # -- scan (miss) and replay (hit) ----------------------------------------

    def _scan(
        self, block: EventBatch, t: int, locs: Tuple[int, ...]
    ) -> _Summary:
        """Run ``block`` through the ordinary kernel and record the
        transition.  A raised error propagates with nothing recorded
        (the kernels reconcile partial state themselves)."""
        from repro.engine.ingest import _ingest_batch

        det = self.detector
        base = det.op_index
        nr = len(det.races)
        _ingest_batch(det, block)
        races = tuple(
            (r.loc, r.kind, r.prior_kind, r.prior_repr, r.op_index - base)
            for r in det.races[nr:]
        )
        sh = det.shadow
        slot = sh.slot
        exit_cells = tuple(
            (k, sh.R[slot[k]], sh.W[slot[k]], sh.E[slot[k]]) for k in locs
        )
        return _Summary(len(block), races, exit_cells, self._digest(t, locs))

    def _apply(self, summary: _Summary, t: int) -> None:
        """Replay one occurrence: write its exit columns, then advance
        the stream and replicate the races as a fixpoint does."""
        det = self.detector
        det._visited[t] = True
        sh = det.shadow
        slot_get = sh.slot.get
        R, W, E = sh.R, sh.W, sh.E
        for k, r, w, e in summary.cells:
            s = slot_get(k)
            if s is None:
                s = sh.new_slot(k)
            old_r, old_w = R[s], W[s]
            R[s], W[s], E[s] = r, w, e
            if old_r < 0 <= r:
                sh.filled(s)
            if old_w < 0 <= w:
                sh.filled(s)
        self._apply_fixpoint(summary, t, 1)

    def _apply_fixpoint(self, summary: _Summary, t: int, reps: int) -> None:
        """Replay ``reps`` occurrences whose entry state equals the
        summary's exit state: the transition is idempotent on the
        columns, so only the stream position moves and the races
        replicate."""
        det = self.detector
        n = summary.n
        base = det.op_index
        det.op_index = base + reps * n
        if summary.races:
            races = det.races
            for i in range(reps):
                off = base + i * n
                for loc, kind, pkind, prepr, rel in summary.races:
                    races.append(
                        RaceReport(
                            loc=loc, task=t, kind=kind, prior_kind=pkind,
                            prior_repr=prepr, op_index=off + rel,
                        )
                    )

    # -- the drive loop ------------------------------------------------------

    def run(self, ctrace: CompressedTrace) -> int:
        """Ingest one compressed trace; returns expanded event count."""
        from repro.engine.ingest import _ingest_batch

        det = self.detector
        blocks = ctrace.blocks
        if not self._kernel:
            for bid, rep in ctrace.rules:
                block = blocks[bid]
                for _ in range(rep):
                    _ingest_batch(det, block)
                self.fallbacks += rep
            return ctrace.n_events
        slots: List[Optional[int]] = [None] * len(blocks)
        for bid, rep in ctrace.rules:
            block = blocks[bid]
            info = ctrace.block_info(bid)
            if info is None:
                for _ in range(rep):
                    _ingest_batch(det, block)
                self.fallbacks += rep
                continue
            t, locs = info
            slot = slots[bid]
            if slot is None:
                key = ctrace.block_key(bid)
                slot = self._slots.setdefault(key, len(self._slots))
                slots[bid] = slot
            done = 0
            while done < rep:
                digest = self._digest(t, locs)
                if digest is None:
                    _ingest_batch(det, block)
                    self.fallbacks += 1
                    done += 1
                    continue
                entry = self._entries.get((slot, digest))
                if entry is None:
                    entry = self._scan(block, t, locs)
                    self._entries[(slot, digest)] = entry
                    self.misses += 1
                    done += 1
                    continue
                self._apply(entry, t)
                self.hits += 1
                done += 1
                if done < rep and entry.exit_digest == digest:
                    rest = rep - done
                    self._apply_fixpoint(entry, t, rest)
                    self.hits += rest
                    done = rep
        return ctrace.n_events
