"""The naive detector of Section 2.3 -- explicit access sets + reachability.

For every location it tracks the full sets ``R`` and ``W`` of prior
accessing operations, and on each access checks the current operation
against all of them via task-graph reachability, exactly as the paper's
"naive algorithm" sketch.  Both space (``O(|R ∪ W|)`` per location) and
time (an ancestor-set computation per access) are deliberately bad --
this is the strawman the suprema reduction eliminates, kept as a
fully-precise online baseline for small workloads and as a second
oracle.

The happened-before relation is maintained as an incremental
operation-level DAG (same construction as
:mod:`repro.forkjoin.taskgraph`), and each memory access computes its
ancestor set with one reverse DFS.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import ShadowMap
from repro.detectors.base import Detector

__all__ = ["NaiveDetector"]


def _cell_entries(cell: Tuple[List[int], List[int]]) -> int:
    return len(cell[0]) + len(cell[1])


class NaiveDetector(Detector):
    """Track-everything baseline: full R/W sets + DFS reachability."""

    name = "naive"

    def __init__(self) -> None:
        super().__init__()
        #: op-level DAG as predecessor lists (vertex = op id)
        self._preds: List[List[int]] = []
        self._last_op: Dict[int, Optional[int]] = {}
        self._fork_op: Dict[int, int] = {}
        self._halt_op: Dict[int, int] = {}
        #: cells are (reads, writes) lists of op ids
        self.shadow: ShadowMap[Tuple[List[int], List[int]]] = ShadowMap(
            _cell_entries
        )
        self.op_index = 0

    # -- DAG construction -------------------------------------------------------

    def _new_op(self, task: int) -> int:
        v = len(self._preds)
        preds: List[int] = []
        prev = self._last_op.get(task)
        if prev is not None:
            preds.append(prev)
        elif task in self._fork_op:
            preds.append(self._fork_op[task])
        self._preds.append(preds)
        self._last_op[task] = v
        return v

    def on_root(self, root: int) -> None:
        self._last_op[root] = None

    def on_fork(self, parent: int, child: int) -> None:
        self.op_index += 1
        v = self._new_op(parent)
        self._fork_op[child] = v
        self._last_op.setdefault(child, None)

    def on_join(self, joiner: int, joined: int) -> None:
        self.op_index += 1
        v = self._new_op(joiner)
        self._preds[v].append(self._halt_op[joined])

    def on_halt(self, task: int) -> None:
        self.op_index += 1
        self._halt_op[task] = self._new_op(task)

    def on_step(self, task: int) -> None:
        self.op_index += 1
        self._new_op(task)

    def _ancestors(self, v: int) -> Set[int]:
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for p in self._preds[x]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    # -- memory -------------------------------------------------------------

    def _cell(self, loc: Hashable) -> Tuple[List[int], List[int]]:
        cell = self.shadow.get(loc)
        if cell is None:
            cell = ([], [])
            self.shadow.put(loc, cell)
        return cell

    def _check(
        self,
        v: int,
        prior_ops: List[int],
        loc: Hashable,
        task: int,
        kind: AccessKind,
        prior_kind: AccessKind,
        label: str,
        ancestors: Set[int],
    ) -> None:
        for w in prior_ops:
            if w not in ancestors:
                self.races.append(
                    RaceReport(
                        loc=loc,
                        task=task,
                        kind=kind,
                        prior_kind=prior_kind,
                        prior_repr=w,
                        op_index=self.op_index,
                        label=label,
                    )
                )
                return  # one report per access, like the other detectors

    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        self.op_index += 1
        v = self._new_op(task)
        reads, writes = self._cell(loc)
        if writes:
            anc = self._ancestors(v)
            self._check(
                v, writes, loc, task, AccessKind.READ, AccessKind.WRITE,
                label, anc,
            )
        reads.append(v)
        self.shadow.touch(loc)

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        self.op_index += 1
        v = self._new_op(task)
        reads, writes = self._cell(loc)
        if reads or writes:
            anc = self._ancestors(v)
            before = len(self.races)
            self._check(
                v, reads, loc, task, AccessKind.WRITE, AccessKind.READ,
                label, anc,
            )
            if len(self.races) == before:
                self._check(
                    v, writes, loc, task, AccessKind.WRITE,
                    AccessKind.WRITE, label, anc,
                )
        writes.append(v)
        self.shadow.touch(loc)

    # -- accounting -----------------------------------------------------------

    def metadata_entries(self) -> int:
        """The whole retained DAG counts as metadata."""
        return sum(1 + len(p) for p in self._preds)
