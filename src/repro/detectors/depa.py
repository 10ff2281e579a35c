"""DePa-style array-native reachability: no union-find walk per query.

The paper's Figure-8 engine answers ``Sup``/precedes queries by walking
a union-find forest of Python objects -- pointer chasing on every
access.  DePa (Westrick/Wang/Acar, PAPERS.md) shows that fork/join
precedence can instead be answered from flat per-vertex integer
coordinates.  This module carries that idea over to the serial
fork-first streams our interpreter emits.  It is exact relative to the
2D-lattice detector on spawn-sync (series-parallel) streams only.  On
grid lattices it reports false races: wavefronts, blocked wavefronts
and pipelines run through ``pipeline_body`` (``wavefront(2, 2)``: 2,
``wavefront(6, 6)``: 46, ``clean_pipeline(6, 3, 1)``: 10,
``blocked_wavefront(8, 8, 2, 2)``: 14).  A pipeline segment joins the
previous item's segment, which halted earlier, so the adopted interval
lands above its ancestors' and ``g_lo``/``g_hi`` stop being sorted
(ROADMAP, "Make the depa backend exact"; the conformance matrix pins
these cells as ``KNOWN_WRONG``).  The encoding:

* Under fork-first execution (a forked child runs to completion before
  its parent resumes) the *live* tasks are exactly the current
  fork-ancestor chain -- a stack.  Every event is performed by the
  stack top.
* Each task gets one flat coordinate: ``halt_seq``, its position in
  the global halt order -- the monotone clock that plays the role of
  DePa's dag-depth (DePa's tree depth is implicit here: a live task's
  depth is its stack position).  It lives in an ``array`` column --
  no per-task objects.
* The union-find query ``visited[label[find(x)]]`` asks: *is the task
  that owns x's set still on the stack?*  A halted task's history is
  absorbed, at join time, by the joining task.  We track that ownership
  directly: every stack task owns a set of ``halt_seq`` *intervals*
  (the halts it has absorbed via joins), kept in two global sorted
  columns ``g_lo``/``g_hi`` shared by the whole stack.  A tracked
  access by ``x`` precedes the current op iff ``x`` is on the stack or
  ``halt_seq[x]`` falls inside an absorbed interval -- one binary
  search, O(log depth), no pointer chasing.

Interval lists (not single intervals) are required: a task may halt
with forked-but-unjoined children, leaving its absorbed halt set
temporarily non-contiguous; the gaps are exactly the unjoined children,
which must *not* be treated as ordered.

Verdict and fold policy mirror :class:`~repro.core.detector.
RaceDetector2D` (prose semantics) exactly: reads check the write
supremum, writes check read-then-write with at most one report per
write, clean accesses fold the cell to the acting task, racing
accesses leave the old (unordered) value in place.  The one visible
difference is ``prior_repr``: this detector reports the original
accessor id where the union-find reports the current set label -- the
same set, so every *verdict* agrees on spawn-sync streams (the
conformance matrix checks this on every benchmark run).

The flat columns are what makes :mod:`repro.engine.vectorized` possible:
a numpy kernel gathers ``halt_seq`` for whole
:class:`~repro.engine.batch.EventBatch` segments at once and answers
every precedence query in the segment with one interval search.

Because the encoding leans on the stack invariant, this detector
*requires* serial fork-first streams and raises
:class:`~repro.errors.DetectorError` when any event's acting task is
not the stack top -- the same posture as ``spbags`` requiring
spawn-sync input, and what keeps a hostile stream from silently
producing wrong verdicts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.reports import AccessKind, RaceReport
from repro.detectors.base import Detector
from repro.errors import DetectorError

__all__ = ["DePaDetector", "LIVE"]

#: ``halt_seq`` sentinel for tasks that have not halted.  Live tasks are
#: always on the stack (fork-first), hence always ordered -- so the
#: sentinel is chosen to land inside the permanent guard interval
#: ``[-2, -1]`` at index 0 of the ``g_lo``/``g_hi`` columns, making
#: "live" and "absorbed halt" the *same* interval test (one
#: ``searchsorted``, no extra mask, scalar and vectorized alike).
LIVE = -1

_EMPTY_Q = array("q", [-1])


def _merge_intervals(a: List[int], b: List[int]) -> List[int]:
    """Merge two sorted, mutually disjoint flat interval lists
    ``[lo0, hi0, lo1, hi1, ...]``, coalescing adjacent runs."""
    out: List[int] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na or j < nb:
        if j >= nb or (i < na and a[i] < b[j]):
            lo, hi = a[i], a[i + 1]
            i += 2
        else:
            lo, hi = b[j], b[j + 1]
            j += 2
        if out and lo == out[-1] + 1:
            out[-1] = hi
        else:
            out.append(lo)
            out.append(hi)
    return out


class DePaDetector(Detector):
    """Array-native fork-first race detector (see module docstring).

    State is flat ``array`` columns indexed by task id, plus two global
    sorted interval columns for the stack's absorbed halt ranges.  The
    numpy batch kernel in :mod:`repro.engine.vectorized` operates on
    zero-copy views of these same columns; the scalar observer-protocol
    methods here are the reference implementation and the fallback.
    """

    name = "depa"

    #: values of the per-task ``_state`` column
    _LIVE, _HALTED, _JOINED = 0, 1, 2

    def __init__(self) -> None:
        super().__init__()
        # -- per-task columns --
        # halt_seq is DePa's dag-depth analogue (the fork depth is
        # implicit: a live task's depth is its stack position).
        self._halt_seq = array("q")  # global halt position; LIVE until halt
        self._state = array("b")  # _LIVE (== on stack) / _HALTED / _JOINED
        # -- the serial fork-first spine --
        self._stack: List[int] = []  # live tasks, root first
        self._halt_count = 0
        # -- absorbed-interval state --
        # Sorted disjoint [lo, hi] halt_seq intervals absorbed by the
        # stack, bottom-up; _seg_start[t] is where stack task t's run
        # begins while it is on the stack.  Index 0 is the permanent
        # [-2, -1] guard interval: it absorbs the LIVE sentinel (live
        # tasks are ordered by the stack invariant) and keeps interval
        # searches free of empty/underflow checks.
        self._g_lo = array("q", [-2])
        self._g_hi = array("q", [LIVE])
        self._seg_start = array("i")
        # Intervals owned by halted-but-unjoined tasks, flat per task.
        self._iv: List[Optional[Sequence[int]]] = []
        # -- shadow cells --
        # Dense int locations (the engine's interned lids) live in one
        # interleaved flat column: lid's read supremum at 2*lid, its
        # write supremum at 2*lid + 1, -1 for none.  One column means
        # the batch kernel can answer any mix of read/write cell
        # questions with a single gather.  Anything else (per-event
        # replay with raw locations) falls back to a dict of [r, w]
        # cells.
        self._cells = array("q")
        self._cells_obj: Dict[Hashable, List[Optional[int]]] = {}
        self.op_index = 0

    # -- bookkeeping ---------------------------------------------------------

    def _new_task(self) -> int:
        tid = len(self._halt_seq)
        self._halt_seq.append(LIVE)
        self._state.append(self._LIVE)
        self._seg_start.append(0)
        self._iv.append(None)
        return tid

    def _check_alive(self, t: int) -> None:
        if t < 0 or t >= len(self._state):
            raise DetectorError(f"unknown thread id {t}")
        if self._state[t]:
            raise DetectorError(f"thread {t} already halted")

    def _require_top(self, t: int, what: str) -> None:
        if not self._stack or self._stack[-1] != t:
            current = self._stack[-1] if self._stack else "<none>"
            raise DetectorError(
                "depa backend requires the serial fork-first stream: "
                f"{what} by task {t} while task {current} is current"
            )

    def _ensure_loc(self, lid: int) -> None:
        cells = self._cells
        need = 2 * (lid + 1)
        if need > len(cells):
            grow = max(need, 2 * len(cells)) - len(cells)
            cells.extend(_EMPTY_Q * grow)

    # -- structural events ---------------------------------------------------

    def on_root(self, root: int) -> None:
        tid = self._new_task()
        if tid != root:
            raise DetectorError(
                f"root id mismatch: interpreter says {root}, detector "
                f"allocated {tid}"
            )
        self._stack.append(tid)
        self._seg_start[tid] = len(self._g_lo)

    def on_fork(self, parent: int, child: Optional[int] = None) -> int:
        stack = self._stack
        if not stack or stack[-1] != parent:
            # Stack members are live by construction, so matching the
            # top already proves liveness; only the failure path needs
            # the full diagnostics.
            self._check_alive(parent)
            self._require_top(parent, "fork")
        self.op_index += 1
        # _new_task, inlined -- forks are the hot structural event.
        tid = len(self._halt_seq)
        self._halt_seq.append(LIVE)
        self._state.append(self._LIVE)
        self._seg_start.append(0)
        self._iv.append(None)
        if child is not None and child != tid:
            raise DetectorError(
                f"fork id mismatch: interpreter says {child}, detector "
                f"allocated {tid}"
            )
        stack.append(tid)
        self._seg_start[tid] = len(self._g_lo)
        return tid

    def on_halt(self, t: int) -> None:
        stack = self._stack
        if not stack or stack[-1] != t:
            self._check_alive(t)
            self._require_top(t, "halt")
        self.op_index += 1
        stack.pop()
        self._state[t] = self._HALTED
        h = self._halt_count
        self._halt_count = h + 1
        self._halt_seq[t] = h
        # The halting task's own absorbed intervals, plus its own halt,
        # become the interval list its eventual joiner will merge in.
        seg = self._seg_start[t]
        g_lo, g_hi = self._g_lo, self._g_hi
        if seg == len(g_lo):
            # Leaf-ish halt: nothing absorbed while on the stack.
            self._iv[t] = [h, h]
            return
        iv: List[int] = []
        for i in range(seg, len(g_lo)):
            iv.append(g_lo[i])
            iv.append(g_hi[i])
        if iv and iv[-1] == h - 1:
            iv[-1] = h
        else:
            iv.append(h)
            iv.append(h)
        del g_lo[seg:]
        del g_hi[seg:]
        self._iv[t] = iv

    def on_join(self, joiner: int, joined: int) -> None:
        stack = self._stack
        if not stack or stack[-1] != joiner:
            self._check_alive(joiner)
            self._require_top(joiner, "join")
        if joined < 0 or joined >= len(self._state):
            raise DetectorError(f"unknown thread id {joined}")
        st = self._state[joined]
        if st == self._LIVE:
            raise DetectorError(f"joining running thread {joined}")
        if st == self._JOINED:
            raise DetectorError(f"thread {joined} joined twice")
        self.op_index += 1
        self._state[joined] = self._JOINED
        other = self._iv[joined] or []
        self._iv[joined] = None
        seg = self._seg_start[joiner]
        g_lo, g_hi = self._g_lo, self._g_hi
        n = len(g_lo)
        if len(other) == 2 and n > seg:
            # Children joined in halt order (or reverse halt order, the
            # interpreter's natural join loop) extend the joiner's last
            # absorbed interval in place -- the overwhelmingly common
            # shapes, no list building.  Disjointness keeps the global
            # columns sorted either way.
            if other[0] == g_hi[-1] + 1:
                g_hi[-1] = other[1]
                return
            if other[1] == g_lo[-1] - 1:
                lo = other[0]
                if n - 1 > seg and g_hi[-2] == lo - 1:
                    # The gap to the joiner's previous interval just
                    # closed: coalesce, like _merge_intervals would
                    # (never across seg -- earlier intervals belong to
                    # ancestors and on_halt captures g[seg:]).
                    hi = g_hi[-1]
                    del g_lo[-1]
                    del g_hi[-1]
                    g_hi[-1] = hi
                else:
                    g_lo[-1] = lo
                return
        if n == seg:
            # Joiner owns no intervals yet: adopt the child's outright.
            for k in range(0, len(other), 2):
                g_lo.append(other[k])
                g_hi.append(other[k + 1])
            return
        mine: List[int] = []
        for i in range(seg, len(g_lo)):
            mine.append(g_lo[i])
            mine.append(g_hi[i])
        merged = _merge_intervals(mine, other)
        del g_lo[seg:]
        del g_hi[seg:]
        for k in range(0, len(merged), 2):
            g_lo.append(merged[k])
            g_hi.append(merged[k + 1])

    def on_step(self, t: int) -> None:
        stack = self._stack
        if not stack or stack[-1] != t:
            self._check_alive(t)
            self._require_top(t, "step")
        self.op_index += 1

    # -- bulk structural runs ------------------------------------------------
    #
    # The numpy kernel applies maximal same-opcode runs of *pre-validated*
    # structural events through these instead of one scalar call per
    # event.  "Pre-validated" means the kernel's stack simulation has
    # already proven every event's acting task is the stack top (and,
    # for forks, that the child ids match the allocation order), so the
    # per-event checks and the incremental interval edits can be
    # replaced by one amortized state update.  Results are exactly what
    # the same run of scalar calls would leave behind.

    def _bulk_forks(self, k: int) -> None:
        """Apply ``k`` consecutive pre-validated forks at once: allocate
        the ids, push them, and grow every per-task column in one
        extend instead of ``k`` appends."""
        tid = len(self._halt_seq)
        self._halt_seq.extend(_EMPTY_Q * k)  # LIVE == -1
        self._state.frombytes(bytes(k))  # _LIVE == 0
        seg = len(self._g_lo)
        self._seg_start.extend(array("i", [seg]) * k)
        self._iv.extend([None] * k)
        self._stack.extend(range(tid, tid + k))
        self.op_index += k

    def _bulk_leaf_triples(self, k: int) -> None:
        """Apply ``k`` consecutive pre-validated (fork, ..., halt) leaf
        triples' structural effects at once.

        Each triple forks one child that halts before the next fork, so
        the stack and the global interval columns end exactly where
        they started; all that remains is allocating the ``k`` child
        ids as already-halted tasks parking their own one-point halt
        intervals.  The caller accounts for the access rows between
        each fork and halt separately."""
        h = self._halt_count
        self._halt_seq.extend(array("q", range(h, h + k)))
        self._state.frombytes(b"\x01" * k)  # _HALTED
        seg = len(self._g_lo)
        self._seg_start.extend(array("i", [seg]) * k)
        self._iv.extend(zip(range(h, h + k), range(h, h + k)))
        self._halt_count = h + k
        self.op_index += 2 * k

    def _bulk_halts(self, k: int) -> None:
        """Apply ``k`` consecutive pre-validated halts at once.

        Sequential halts each capture ``g[seg:]`` and truncate the
        global columns; a run pops an ancestor suffix of the stack, so
        the captures are nested slices of the *initial* columns and one
        final truncation replaces ``k`` incremental deletes."""
        stack = self._stack
        g_lo, g_hi = self._g_lo, self._g_hi
        halt_seq, state = self._halt_seq, self._state
        seg_start, iv_all = self._seg_start, self._iv
        h = self._halt_count
        end = len(g_lo)
        for i in range(k):
            t = stack[-1 - i]
            hseq = h + i
            halt_seq[t] = hseq
            state[t] = self._HALTED
            seg = seg_start[t]
            if seg == end:
                iv_all[t] = [hseq, hseq]
                continue
            iv: List[int] = []
            for j in range(seg, end):
                iv.append(g_lo[j])
                iv.append(g_hi[j])
            if iv[-1] == hseq - 1:
                iv[-1] = hseq
            else:
                iv.append(hseq)
                iv.append(hseq)
            iv_all[t] = iv
            end = seg
        del stack[-k:]
        del g_lo[end:]
        del g_hi[end:]
        self._halt_count = h + k
        self.op_index += k

    def _bulk_joins(self, joiner: int, joined: Sequence[int]) -> bool:
        """Apply a run of pre-validated joins by ``joiner`` at once.

        The join *targets* are not covered by the kernel's stack
        simulation, so they are fully validated here first; on any
        violation nothing is mutated and False is returned -- the
        caller replays the run scalar so the offending event raises
        its exact error at its exact ``op_index``.  On success the
        joiner's absorbed intervals and every child's parked intervals
        are coalesced in one k-way merge instead of one incremental
        merge per join."""
        state = self._state
        n_tasks = len(state)
        halted = self._HALTED
        iv_all = self._iv
        g_lo, g_hi = self._g_lo, self._g_hi
        seg = self._seg_start[joiner]
        # Validate and collect in one pass; nothing is mutated until
        # every target has passed (a revisited target reads _JOINED and
        # fails, which doubles as the intra-run duplicate check).
        pairs: List[Tuple[int, int]] = [
            (g_lo[i], g_hi[i]) for i in range(seg, len(g_lo))
        ]
        done = 0
        points: List[int] = []
        for t in joined:
            if t < 0 or t >= n_tasks or state[t] != halted:
                for u in joined[:done]:
                    state[u] = halted
                return False
            iv = iv_all[t] or ()
            if len(iv) == 2 and iv[0] == iv[1]:
                # One-point parked interval (a leaf child): collect the
                # point instead of materializing a pair.
                points.append(iv[0])
            else:
                for j in range(0, len(iv), 2):
                    pairs.append((iv[j], iv[j + 1]))
            state[t] = self._JOINED
            done += 1
        for t in joined:
            iv_all[t] = None
        if points:
            mn = min(points)
            mx = max(points)
            if mx - mn == len(points) - 1:
                # Halt seqs are globally unique, so a hull exactly as
                # wide as the count proves the points are contiguous --
                # the standard fanout round (k leaf children joined
                # together) collapses to one interval before the merge.
                pairs.append((mn, mx))
            else:
                pairs.extend((h, h) for h in points)
        pairs.sort()
        del g_lo[seg:]
        del g_hi[seg:]
        cur_lo, cur_hi = pairs[0]
        for lo, hi in pairs[1:]:
            if lo == cur_hi + 1:
                cur_hi = hi
            else:
                g_lo.append(cur_lo)
                g_hi.append(cur_hi)
                cur_lo, cur_hi = lo, hi
        g_lo.append(cur_lo)
        g_hi.append(cur_hi)
        self.op_index += len(joined)
        return True

    # -- the precedence query ------------------------------------------------

    def ordered(self, x: int) -> bool:
        """Does tracked accessor ``x`` precede the current operation?

        True iff ``x`` is still on the stack (an ancestor of the acting
        task) or its halt has been absorbed by some stack task's joins.
        One binary search over the global interval columns.
        """
        if self._state[x] == self._LIVE:
            return True
        h = self._halt_seq[x]
        i = bisect_right(self._g_lo, h) - 1
        return i >= 0 and h <= self._g_hi[i]

    # -- accesses ------------------------------------------------------------

    def _cell(self, loc: Hashable):
        """(read_sup, write_sup) for ``loc``; -1/None when absent."""
        if type(loc) is int and loc >= 0:
            i = loc + loc
            cells = self._cells
            if i < len(cells):
                return cells[i], cells[i + 1]
            return -1, -1
        cell = self._cells_obj.get(loc)
        if cell is None:
            return -1, -1
        return (
            cell[0] if cell[0] is not None else -1,
            cell[1] if cell[1] is not None else -1,
        )

    def _store(self, loc: Hashable, kind_slot: int, t: int) -> None:
        if type(loc) is int and loc >= 0:
            self._ensure_loc(loc)
            self._cells[loc + loc + kind_slot] = t
            return
        cell = self._cells_obj.get(loc)
        if cell is None:
            cell = [None, None]
            self._cells_obj[loc] = cell
        cell[kind_slot] = t

    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        stack = self._stack
        if not stack or stack[-1] != task:
            self._check_alive(task)
            self._require_top(task, "read")
        self.op_index += 1
        r, w = self._cell(loc)
        if w >= 0 and not self.ordered(w):
            self.races.append(
                RaceReport(
                    loc=loc,
                    task=task,
                    kind=AccessKind.READ,
                    prior_kind=AccessKind.WRITE,
                    prior_repr=w,
                    op_index=self.op_index,
                    label=label,
                )
            )
        if r < 0 or self.ordered(r):
            self._store(loc, 0, task)

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        stack = self._stack
        if not stack or stack[-1] != task:
            self._check_alive(task)
            self._require_top(task, "write")
        self.op_index += 1
        r, w = self._cell(loc)
        if r >= 0 and not self.ordered(r):
            self.races.append(
                RaceReport(
                    loc=loc,
                    task=task,
                    kind=AccessKind.WRITE,
                    prior_kind=AccessKind.READ,
                    prior_repr=r,
                    op_index=self.op_index,
                    label=label,
                )
            )
        elif w >= 0 and not self.ordered(w):
            self.races.append(
                RaceReport(
                    loc=loc,
                    task=task,
                    kind=AccessKind.WRITE,
                    prior_kind=AccessKind.WRITE,
                    prior_repr=w,
                    op_index=self.op_index,
                    label=label,
                )
            )
        if w < 0 or self.ordered(w):
            self._store(loc, 1, task)

    # -- accounting ----------------------------------------------------------

    @property
    def thread_count(self) -> int:
        return len(self._halt_seq)

    def shadow_peak_per_location(self) -> int:
        # Cells only ever gain entries, so current == peak.
        peak = 0
        cells = self._cells
        for i in range(0, len(cells), 2):
            n = (cells[i] >= 0) + (cells[i + 1] >= 0)
            if n > peak:
                peak = n
                if peak == 2:
                    break
        if peak < 2:
            for cell in self._cells_obj.values():
                n = (cell[0] is not None) + (cell[1] is not None)
                if n > peak:
                    peak = n
                    if peak == 2:
                        break
        return peak

    def shadow_total_entries(self) -> int:
        cells = self._cells
        total = len(cells) - cells.count(-1)
        for cell in self._cells_obj.values():
            total += (cell[0] is not None) + (cell[1] is not None)
        return total

    def metadata_entries(self) -> int:
        # Three flat columns per task, the global interval columns, and
        # the parked interval lists of halted-but-unjoined tasks.
        per_task = 3 * len(self._halt_seq)
        parked = sum(len(iv) for iv in self._iv if iv is not None)
        return per_task + 2 * len(self._g_lo) + parked
