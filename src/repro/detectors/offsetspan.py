"""Offset-span labeling (Mellor-Crummey, SC'91) for spawn-sync programs.

A classic point on the space/generality spectrum between vector clocks
(Θ(n) per location, any structure) and the bags/suprema detectors
(Θ(1), structured): every thread carries a *label* -- a list of
``(offset, span)`` pairs -- whose length tracks the current spawn
nesting depth, and two operations are concurrent iff their labels say
so.  Shadow cells store label copies, so space per location is
Θ(nesting depth): better than vector clocks (independent of the total
thread count), worse than this paper's two thread names.

Rules, adapted to incremental Cilk-style spawns (the parent keeps
running concurrently with the child, so each spawn splits into a team
of two):

* spawn: child label = ``L ++ [(0, 2)]``; parent label becomes
  ``L ++ [(1, 2)]`` and the spawn's depth is pushed on the parent's
  marker stack;
* join (LIFO, as the sync of the spawn-sync sugar emits): pop the
  marker ``d`` and set the parent label to
  ``P[:d] ++ [(P[d].offset + P[d].span, P[d].span)]`` -- the join
  continuation advances that level's phase and discards deeper pairs;
* ordering: scan two labels to the first differing position; a strict
  prefix happens-before the longer label; otherwise compare the phases
  ``offset // span`` at the difference -- equal phases mean concurrent.

Like SP-bags, this is sound only for the spawn-sync (fully-strict,
series-parallel) discipline; drive it with ``@cilk`` programs.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import ShadowMap
from repro.detectors.base import Detector
from repro.errors import DetectorError

__all__ = ["OffsetSpanDetector"]

Label = Tuple[Tuple[int, int], ...]


def _ordered(a: Label, b: Label) -> bool:
    """Whether work labeled ``a`` happened-before work labeled ``b``."""
    if a == b:
        return True  # same thread segment: program order
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            oa, sa = a[i]
            ob, sb = b[i]
            if sa != sb:  # pragma: no cover - impossible with 2-teams
                raise DetectorError("incomparable spans in labels")
            return oa // sa < ob // sb
    # One label is a strict prefix of the other: the shorter (shallower)
    # state precedes the deeper one created by its forks.
    return len(a) < len(b)


def _cell_entries(cell: List[Optional[Label]]) -> int:
    return sum(len(label) for label in cell if label is not None)


class OffsetSpanDetector(Detector):
    """Mellor-Crummey offset-span labels over spawn-sync event streams."""

    name = "offsetspan"

    def __init__(self) -> None:
        super().__init__()
        self._label: Dict[int, List[Tuple[int, int]]] = {}
        #: per task: stack of (depth, child) markers for pending spawns
        self._markers: Dict[int, List[Tuple[int, int]]] = {}
        self._parent: Dict[int, int] = {}
        #: cells are [reader_label, writer_label]
        self.shadow: ShadowMap[List[Optional[Label]]] = ShadowMap(
            _cell_entries
        )
        self.op_index = 0
        self.peak_label_len = 1

    # -- lifecycle ----------------------------------------------------------

    def on_root(self, root: int) -> None:
        self._label[root] = [(0, 1)]
        self._markers[root] = []

    def on_fork(self, parent: int, child: int) -> None:
        self.op_index += 1
        plabel = self._label.get(parent)
        if plabel is None:
            raise DetectorError(f"unknown task {parent}")
        depth = len(plabel)
        self._label[child] = plabel + [(0, 2)]
        self._markers[child] = []
        self._parent[child] = parent
        plabel.append((1, 2))
        self._markers[parent].append((depth, child))
        if depth + 1 > self.peak_label_len:
            self.peak_label_len = depth + 1

    def on_join(self, joiner: int, joined: int) -> None:
        self.op_index += 1
        markers = self._markers.get(joiner)
        if not markers:
            raise DetectorError(
                f"task {joiner} joins {joined} without a pending spawn; "
                "offset-span requires the spawn-sync (@cilk) discipline"
            )
        depth, expected = markers.pop()
        if expected != joined:
            raise DetectorError(
                f"non-LIFO join: task {joiner} joins {joined} but the "
                f"innermost pending spawn is {expected}"
            )
        label = self._label[joiner]
        offset, span = label[depth]
        del label[depth:]
        label.append((offset + span, span))
        self._label.pop(joined, None)  # the child's label is dead now

    def on_halt(self, task: int) -> None:
        self.op_index += 1

    def on_step(self, task: int) -> None:
        self.op_index += 1

    # -- memory -------------------------------------------------------------

    def _current(self, task: int) -> Label:
        label = self._label.get(task)
        if label is None:
            raise DetectorError(f"unknown task {task}")
        return tuple(label)

    def _cell(self, loc: Hashable) -> List[Optional[Label]]:
        cell = self.shadow.get(loc)
        if cell is None:
            cell = [None, None]
            self.shadow.put(loc, cell)
        return cell

    def _report(self, loc, task, kind, prior_kind, label):
        self.races.append(
            RaceReport(
                loc=loc,
                task=task,
                kind=kind,
                prior_kind=prior_kind,
                prior_repr=None,
                op_index=self.op_index,
                label=label,
            )
        )

    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        self.op_index += 1
        me = self._current(task)
        cell = self._cell(loc)
        reader, writer = cell
        if writer is not None and not _ordered(writer, me):
            self._report(loc, task, AccessKind.READ, AccessKind.WRITE, label)
        # Keep a concurrent reader (it still guards a future writer);
        # replace an ordered one -- the same policy as SP-bags.
        if reader is None or _ordered(reader, me):
            cell[0] = me
            self.shadow.touch(loc)

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        self.op_index += 1
        me = self._current(task)
        cell = self._cell(loc)
        reader, writer = cell
        if reader is not None and not _ordered(reader, me):
            self._report(loc, task, AccessKind.WRITE, AccessKind.READ, label)
        elif writer is not None and not _ordered(writer, me):
            self._report(loc, task, AccessKind.WRITE, AccessKind.WRITE, label)
        cell[1] = me
        self.shadow.touch(loc)

    # -- accounting -----------------------------------------------------------

    def metadata_entries(self) -> int:
        return sum(
            2 * len(lbl) for lbl in self._label.values()
        ) + sum(2 * len(m) for m in self._markers.values())
