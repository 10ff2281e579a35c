"""SP-bags: the Θ(1) detector for spawn-sync (Cilk) programs [12].

Feng and Leiserson's algorithm is the direct ancestor of this paper
(Remark 2: SP-bags is Tarjan's algorithm applied to the SP decomposition
tree).  Each task ``F`` owns

* an **S-bag** -- tasks whose completed work is *serially before* ``F``'s
  current instruction, and
* a **P-bag** -- tasks whose completed work runs *in parallel* with it,

both kept in one union-find structure.  The rules over a serial
depth-first (fork-first) execution:

* spawn ``F'``: ``S(F') = {F'}``, ``P(F') = {}``;
* ``F'`` returns to ``F``: ``P(F) ∪= S(F') ∪ P(F')``;
* ``sync`` in ``F``: ``S(F) ∪= P(F)``; ``P(F) = {}``.

A conflicting prior accessor races with the current instruction iff its
bag is a P-bag.  Shadow state per location: one reader id + one writer
id -- Θ(1), like this paper's detector, but **only sound for SP task
graphs**: drive it with :func:`repro.forkjoin.spawn_sync.cilk` programs.
In our event stream, a child's halt is its return (serial fork-first),
and each join event of the sync sequence performs the sync rule (legal
because the spawn-sync sugar emits sync joins back-to-back, with no
memory operations in between).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import ShadowMap
from repro.core.unionfind import IntUnionFind
from repro.detectors.base import Detector
from repro.errors import DetectorError

__all__ = ["SPBagsDetector"]


def _cell_entries(cell: List[Optional[int]]) -> int:
    return (cell[0] is not None) + (cell[1] is not None)


class SPBagsDetector(Detector):
    """Feng-Leiserson SP-bags over the fork-join event stream."""

    name = "spbags"

    def __init__(self) -> None:
        super().__init__()
        self._uf = IntUnionFind()
        #: label -> True when that set is currently a P-bag
        self._is_p: List[bool] = []
        #: current S-bag label of each task (its own id initially)
        self._s_label: List[int] = []
        #: current P-bag label of each task (None = empty P-bag)
        self._p_label: List[Optional[int]] = []
        self._parent: List[int] = []
        #: cells are [reader, writer] task ids
        self.shadow: ShadowMap[List[Optional[int]]] = ShadowMap(_cell_entries)
        self.op_index = 0

    # -- bags -----------------------------------------------------------------

    def _new_task(self) -> int:
        tid = self._uf.make()
        self._is_p.append(False)
        self._s_label.append(tid)
        self._p_label.append(None)
        self._parent.append(-1)
        return tid

    def on_root(self, root: int) -> None:
        tid = self._new_task()
        if tid != root:
            raise DetectorError("root id mismatch")

    def on_fork(self, parent: int, child: int) -> None:
        self.op_index += 1
        tid = self._new_task()
        if tid != child:
            raise DetectorError("fork id mismatch")
        self._parent[child] = parent

    def on_halt(self, task: int) -> None:
        """The task returns: its bags drain into the parent's P-bag."""
        self.op_index += 1
        parent = self._parent[task]
        if parent < 0:
            return  # root's halt ends the program
        lab = self._s_label[task]
        if self._p_label[task] is not None:
            lab = self._uf.union(lab, self._p_label[task])
        if self._p_label[parent] is not None:
            lab = self._uf.union(self._p_label[parent], lab)
        self._p_label[parent] = lab
        self._is_p[lab] = True

    def on_join(self, joiner: int, joined: int) -> None:
        """A sync join: the joiner's whole P-bag becomes serial."""
        self.op_index += 1
        if self._p_label[joiner] is not None:
            lab = self._uf.union(self._s_label[joiner], self._p_label[joiner])
            self._s_label[joiner] = lab
            self._p_label[joiner] = None
            self._is_p[lab] = False

    def on_step(self, task: int) -> None:
        self.op_index += 1

    def _in_p_bag(self, task: int) -> bool:
        return self._is_p[self._uf.find(task)]

    # -- memory ---------------------------------------------------------------

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
        # Keep a parallel reader in place (it still wants to catch a
        # future writer); replace a serial one.
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
        # parent + s_label + p_label + is_p + union-find node (2) per task
        return 6 * len(self._s_label)
