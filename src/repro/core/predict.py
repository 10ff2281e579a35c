"""Sound race prediction over the 2D detector's task state.

:class:`~repro.detectors.shb.SHBDetector` predicts races with one epoch
vector clock per task: O(tasks) state per task, and a fork or join
that copies or merges a whole clock.  On a *serial fork-first* stream
of a structured fork-join program (Section 5) the clocks are not
needed.  Thread compression (Section 4, transformation (8);
Theorem 5) already answers "is task ``u``'s history ordered before the
running task ``t``?" as one relaxed ``Sup`` query over Θ(1) state per
task: :meth:`RaceDetector2D.ordered`.  :class:`PredictDetector2D`
keeps SHB's per-location candidate windows, but of *task ids*, and
tests each entry with that query.

Why a task id is enough
-----------------------

A window holds at most one entry per task: a task's newer access
prunes its older one, since a task is always ordered before itself.
So the entry ``u`` stands for ``u``'s *latest* access to the location,
at some vertex ``v`` of ``u``'s chain, while ``ordered(u, t)`` answers
for ``u``'s latest *visited* vertex ``l`` (the union-find set of ``u``
and its label's visited flag).  The two agree because, under the
fork-first and left-neighbour rules, every path from ``v`` to ``t``
passes through ``l``:

* ``u`` is live.  Fork-first order keeps every live task on the
  running-task stack, so ``u`` is ``t`` itself (never unordered with
  itself) or an ancestor of ``t`` suspended at the fork that leads to
  ``t``.  That fork vertex is ``l``, and it precedes ``t``.
* ``u`` has halted, so ``l`` is its halt.  A path that leaves ``u``'s
  chain before the halt does so through a fork edge, into the block of
  ``u``'s descendants.  Forks insert a child immediately left of its
  parent in the task line (Figure 9), so while ``u`` is in the line
  that block is contiguous and sits immediately left of ``u``.  A task
  can only be joined by its right neighbour, so the block's tasks are
  joined by block members or by ``u``.  The first edge out of the block
  is therefore ``u``'s own join, or a join of a block task performed
  after ``u`` was joined, by the task that joined ``u``.  Either way the
  path passes ``u``'s halt.  ``t`` is not in the block, because all of
  ``u``'s descendants halted before ``u`` did.

So ``v`` ⊑ ``t`` iff ``l`` ⊑ ``t``, and the relaxed ``Sup`` answers
the latter exactly (Theorem 5).  SHB's epoch compare decides the
former, so the two detectors keep the same windows and make the same
reports.  ``tests/engine/test_property_predict.py`` runs both in
lockstep and checks every window entry both ways.

The two rules are exactly what this detector adds to the 2D
detector's checks.  It keeps the running-task stack and each live
task's left neighbour in the line, and checks both on every event:
an event must be by the task on top of the stack, and a join must
take the joiner's immediate left neighbour.  A stream that breaks
either rule raises :class:`~repro.errors.DetectorError` at the exact
``op_index``, after the family's unknown-id and halted checks, instead
of letting the order test answer a question it cannot.  Streams that
are not fork-first still go to :class:`SHBDetector`
(``--detector shb``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence, Union

from repro.core.detector import RaceDetector2D
from repro.core.reports import AccessKind
from repro.core.shadow import identity_table
from repro.errors import DetectorError

if TYPE_CHECKING:
    from repro.engine.batch import LocationInterner

__all__ = ["PredictDetector2D", "not_running", "not_left_neighbour"]

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE

#: a candidate window: one task id, or a list of two or more
Window = Union[int, List[int]]


def not_running(t: int, top: int) -> DetectorError:
    """The error for an event by ``t`` while ``top`` runs."""
    return DetectorError(
        f"thread {t} is not the running thread {top} (the stream is not "
        "serial fork-first)"
    )


def not_left_neighbour(joiner: int, left: int, joined: int) -> DetectorError:
    """The error for a join of ``joined`` by ``joiner``, whose left
    neighbour in the task line is ``left`` (-1: none)."""
    neighbour = "none" if left < 0 else str(left)
    return DetectorError(
        f"thread {joiner} may only join its left neighbour ({neighbour}), "
        f"not {joined}"
    )


def _entries(win: Optional[Window]) -> Sequence[int]:
    """The task ids of a window (``None``: no window)."""
    if win is None:
        return ()
    return (win,) if type(win) is int else win


class PredictDetector2D(RaceDetector2D):
    """Race prediction: one report per conflicting unordered *pair*,
    over the 2D detector's union-find (see module docstring).

    Reports have the shape :class:`~repro.detectors.shb.SHBDetector`
    gives them, ``prior_repr`` naming the partner task, and the same
    name, so a HELLO grant and ``replay --predict`` read as before.
    ``BatchEngine(predict=True)`` runs an instance through its predict
    kernel; the methods below are that kernel's per-event referee.
    """

    name = "shb"

    def __init__(self) -> None:
        super().__init__()
        # No suprema columns: the windows below replace them.
        self.shadow = None  # type: ignore[assignment]
        #: the running-task stack: every live task, innermost fork last
        self._stack: List[int] = []
        #: each task's left neighbour in the task line, -1 for none
        self._left: List[int] = []
        # Location id -> the read (write) window: the unordered frontier
        # of task ids for that kind, a bare int when it holds one task,
        # ``None`` when empty.  Indexed like SHBDetector's windows: by
        # batch ids, or through ``locations`` once a per-event access
        # has adopted a table.
        self._reads: List[Optional[Window]] = []
        self._writes: List[Optional[Window]] = []
        self.locations: Optional[LocationInterner] = None
        self._peak_window = 0

    # -- bookkeeping ---------------------------------------------------------

    def grow(self, width: int) -> None:
        """Extend the window lists to ``width`` ids, each window empty."""
        k = width - len(self._reads)
        if k > 0:
            pad = [None] * k
            self._reads += pad
            self._writes += pad

    def _lid(self, loc: Hashable) -> int:
        table = self.locations
        if table is None:
            table = self.locations = identity_table(len(self._reads))
        lid = table.intern(loc)
        if lid >= len(self._reads):
            self.grow(lid + 1)
        return lid

    def _check_acting(self, t: int) -> None:
        """``t`` is a live task and the one on top of the stack."""
        self._check_alive(t)
        # every live task is on the stack, so it is not empty here
        if self._stack[-1] != t:
            raise not_running(t, self._stack[-1])

    # -- structural events ---------------------------------------------------

    def spawn_root(self) -> int:
        self._left.append(-1)
        self._stack.append(len(self._left) - 1)
        return super().spawn_root()

    def on_root(self, root: int) -> None:
        self._left.append(-1)
        self._stack.append(len(self._left) - 1)
        super().on_root(root)

    def on_fork(self, parent: int, child: Optional[int] = None) -> int:
        self._check_acting(parent)
        left = self._left
        tid = len(left)
        # the child enters the line immediately left of its parent
        left.append(left[parent])
        left[parent] = tid
        self._stack.append(tid)
        return super().on_fork(parent, child)

    def on_join(self, joiner: int, joined: int) -> None:
        self._check_alive(joiner)
        if joined >= len(self._halted) or joined < 0:
            raise DetectorError(f"unknown thread id {joined}")
        if not self._halted[joined]:
            raise DetectorError(f"joining running thread {joined}")
        if self._joined[joined]:
            raise DetectorError(f"thread {joined} joined twice")
        self._check_acting(joiner)
        left = self._left
        if left[joiner] != joined:
            raise not_left_neighbour(joiner, left[joiner], joined)
        left[joiner] = left[joined]
        super().on_join(joiner, joined)

    def on_halt(self, t: int) -> None:
        self._check_acting(t)
        super().on_halt(t)
        self._stack.pop()

    def on_step(self, t: int) -> None:
        self._check_acting(t)
        super().on_step(t)

    # -- accesses ------------------------------------------------------------

    def on_read(self, t: int, loc: Hashable, label: str = "") -> None:
        self._access(t, loc, _READ, label)

    def on_write(self, t: int, loc: Hashable, label: str = "") -> None:
        self._access(t, loc, _WRITE, label)

    def _access(
        self, t: int, loc: Hashable, kind: AccessKind, label: str
    ) -> None:
        """SHB's access rule over task ids: report every unordered entry
        of the conflicting window(s), then prune the own-kind window to
        its unordered entries and append ``t``.  An entry equal to ``t``
        is ordered without a query."""
        self._check_acting(t)
        self.op_index += 1
        self._visited[t] = True
        lid = self._lid(loc)
        if kind is _WRITE:
            windows, other, prior = self._writes, self._reads[lid], _READ
        else:
            windows, other, prior = self._reads, self._writes[lid], _WRITE
        for u in _entries(other):
            if u != t and not self.ordered(u, t):
                self._report(loc, t, kind, prior, u, label)
        keep = []
        for u in _entries(windows[lid]):
            if u != t and not self.ordered(u, t):
                if kind is _WRITE:
                    self._report(loc, t, _WRITE, _WRITE, u, label)
                keep.append(u)
        keep.append(t)
        windows[lid] = keep if len(keep) > 1 else t
        size = len(keep) + len(_entries(other))
        if size > self._peak_window:
            self._peak_window = size

    # -- accounting ----------------------------------------------------------

    def space_per_location(self) -> int:
        return self._peak_window

    def space_per_thread(self) -> int:
        """The 2D detector's six words plus a stack slot and a left
        neighbour = 8, independent of anything (Θ(1))."""
        return 8

    def shadow_peak_per_location(self) -> int:
        """The largest read-plus-write window any location reached."""
        return self._peak_window

    def shadow_total_entries(self) -> int:
        """Task ids held across every window."""
        return sum(
            len(_entries(win))
            for windows in (self._reads, self._writes)
            for win in windows
        )
