"""ESP-bags: the Θ(1) detector for async-finish programs [18].

Raman et al. (RV 2010) extend SP-bags from Cilk's fully-strict
spawn-sync to X10/Habanero's *terminally strict* async-finish: tasks are
joined by enclosing **finish scopes**, not by their parents, so the
bag bookkeeping keys P-bags to finish instances:

* every task owns an S-bag (initially itself);
* every *finish instance* owns a P-bag (initially empty);
* when a task returns, its S-bag drains into the P-bag of its
  **governing finish** -- the innermost finish dynamically enclosing its
  creation (this is where escaped asyncs register);
* when a finish instance ends, its P-bag drains into the S-bag of the
  task executing the finish.

Race checks on memory accesses are identical to SP-bags.  Shadow state:
one reader + one writer id per location -- Θ(1).

The detector learns finish boundaries from the annotation side channel
emitted by :func:`repro.forkjoin.async_finish.x10`; running it on a
program that forks outside any finish scope raises
:class:`DetectorError` (use the ``@x10`` sugar).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional

from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import ShadowMap
from repro.core.unionfind import IntUnionFind
from repro.detectors.base import Detector
from repro.errors import DetectorError

__all__ = ["ESPBagsDetector"]


def _cell_entries(cell: List[Optional[int]]) -> int:
    return (cell[0] is not None) + (cell[1] is not None)


class _Finish:
    """One dynamic finish instance: owner task + P-bag label."""

    __slots__ = ("owner", "p_label")

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.p_label: Optional[int] = None


class ESPBagsDetector(Detector):
    """Raman et al.'s ESP-bags over annotated async-finish streams."""

    name = "espbags"

    def __init__(self) -> None:
        super().__init__()
        self._uf = IntUnionFind()
        self._is_p: List[bool] = []
        self._s_label: List[int] = []
        #: per task: its governing finish instance (set at fork)
        self._governing: List[Optional[_Finish]] = []
        #: per task: stack of its own open finish instances
        self._open: Dict[int, List[_Finish]] = {}
        self.shadow: ShadowMap[List[Optional[int]]] = ShadowMap(_cell_entries)
        self.op_index = 0

    # -- task & scope lifecycle -------------------------------------------------

    def _new_task(self, governing: Optional[_Finish]) -> int:
        tid = self._uf.make()
        self._is_p.append(False)
        self._s_label.append(tid)
        self._governing.append(governing)
        self._open[tid] = []
        return tid

    def on_root(self, root: int) -> None:
        tid = self._new_task(None)
        if tid != root:
            raise DetectorError("root id mismatch")

    def on_annotation(self, task: int, tag: str, data: Any = None) -> None:
        if tag == "finish_start":
            self._open[task].append(_Finish(task))
        elif tag == "finish_end":
            if not self._open[task]:
                raise DetectorError(
                    f"finish_end without finish_start in task {task}"
                )
            fin = self._open[task].pop()
            if fin.p_label is not None:
                lab = self._uf.union(self._s_label[task], fin.p_label)
                self._s_label[task] = lab
                self._is_p[lab] = False

    def _innermost_finish(self, task: int) -> Optional[_Finish]:
        stack = self._open.get(task)
        if stack:
            return stack[-1]
        return self._governing[task]

    def on_fork(self, parent: int, child: int) -> None:
        self.op_index += 1
        gov = self._innermost_finish(parent)
        if gov is None:
            raise DetectorError(
                "async outside any finish scope; ESP-bags requires "
                "programs written with the @x10 sugar"
            )
        tid = self._new_task(gov)
        if tid != child:
            raise DetectorError("fork id mismatch")

    def on_halt(self, task: int) -> None:
        """Task return: S-bag drains into the governing finish's P-bag."""
        self.op_index += 1
        gov = self._governing[task]
        if gov is None:
            return  # root
        if self._open[task]:
            raise DetectorError(
                f"task {task} halted with an open finish scope"
            )
        lab = self._s_label[task]
        if gov.p_label is not None:
            lab = self._uf.union(gov.p_label, lab)
        gov.p_label = lab
        self._is_p[lab] = True

    def on_join(self, joiner: int, joined: int) -> None:
        # Joins are implied by finish_end in the async-finish discipline.
        self.op_index += 1

    def on_step(self, task: int) -> None:
        self.op_index += 1

    def _in_p_bag(self, task: int) -> bool:
        return self._is_p[self._uf.find(task)]

    # -- memory (same rules as SP-bags) ------------------------------------------

    def _cell(self, loc: Hashable) -> List[Optional[int]]:
        cell = self.shadow.get(loc)
        if cell is None:
            cell = [None, None]
            self.shadow.put(loc, cell)
        return cell

    def _report(self, loc, task, kind, prior_kind, prior_repr, label):
        self.races.append(
            RaceReport(
                loc=loc,
                task=task,
                kind=kind,
                prior_kind=prior_kind,
                prior_repr=prior_repr,
                op_index=self.op_index,
                label=label,
            )
        )

    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        self.op_index += 1
        cell = self._cell(loc)
        reader, writer = cell
        if writer is not None and self._in_p_bag(writer):
            self._report(
                loc, task, AccessKind.READ, AccessKind.WRITE, writer, label
            )
        if reader is None or not self._in_p_bag(reader):
            cell[0] = task
            self.shadow.touch(loc)

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        self.op_index += 1
        cell = self._cell(loc)
        reader, writer = cell
        if reader is not None and self._in_p_bag(reader):
            self._report(
                loc, task, AccessKind.WRITE, AccessKind.READ, reader, label
            )
        elif writer is not None and self._in_p_bag(writer):
            self._report(
                loc, task, AccessKind.WRITE, AccessKind.WRITE, writer, label
            )
        cell[1] = task
        self.shadow.touch(loc)

    # -- accounting -----------------------------------------------------------

    def metadata_entries(self) -> int:
        # s_label + governing + is_p + union-find node (2) per task, plus
        # one slot per open finish frame.
        return 5 * len(self._s_label) + sum(
            len(s) for s in self._open.values()
        )
