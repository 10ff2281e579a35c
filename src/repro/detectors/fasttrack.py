"""FastTrack-style epoch-optimised vector-clock detector ([13]).

FastTrack (Flanagan & Freund, PLDI 2009) observes that most accesses
are totally ordered, so the full write vector can be replaced by a
single *epoch* ``t@c`` (last writer thread and its clock), and the read
vector by an epoch as long as reads stay ordered, inflating back to a
vector only for genuinely concurrent ("read-shared") locations.

This gives O(1) shadow space for well-ordered locations but still Θ(n)
for read-shared ones -- the distinction experiment C1 in DESIGN.md
measures: the paper's 2D detector keeps Θ(1) even for read-shared
locations.

The happens-before clocks (fork/join discipline) are identical to
:mod:`repro.detectors.vector_clock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple, Union

from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import ShadowMap
from repro.detectors.base import Detector
from repro.errors import DetectorError

__all__ = ["FastTrackDetector"]

Clock = Dict[int, int]
Epoch = Tuple[int, int]  # (thread, clock)


@dataclass
class _Cell:
    """Shadow word: write epoch + adaptive read state."""

    write: Optional[Epoch] = None
    read_epoch: Optional[Epoch] = None
    read_vector: Optional[Clock] = None  # non-None once read-shared

    def entries(self) -> int:
        n = 0
        if self.write is not None:
            n += 1
        if self.read_vector is not None:
            n += len(self.read_vector)
        elif self.read_epoch is not None:
            n += 1
        return n


class FastTrackDetector(Detector):
    """Epoch-optimised happens-before detector (FastTrack rules)."""

    name = "fasttrack"

    def __init__(self) -> None:
        super().__init__()
        self._clocks: Dict[int, Clock] = {}
        self.shadow: ShadowMap[_Cell] = ShadowMap(_Cell.entries)
        self.op_index = 0

    # -- lifecycle (same discipline as the full-vector detector) -----------

    def on_root(self, root: int) -> None:
        self._clocks[root] = {root: 1}

    def on_fork(self, parent: int, child: int) -> None:
        self.op_index += 1
        pc = self._clock(parent)
        cc = dict(pc)
        cc[child] = 1
        self._clocks[child] = cc
        pc[parent] += 1

    def on_join(self, joiner: int, joined: int) -> None:
        self.op_index += 1
        jc = self._clock(joiner)
        dc = self._clocks.pop(joined, None)
        if dc is None:
            raise DetectorError(f"join of unknown/already-joined {joined}")
        for u, k in dc.items():
            if jc.get(u, 0) < k:
                jc[u] = k
        jc[joiner] += 1

    def on_halt(self, task: int) -> None:
        self.op_index += 1

    def on_step(self, task: int) -> None:
        self.op_index += 1

    def _clock(self, t: int) -> Clock:
        try:
            return self._clocks[t]
        except KeyError:
            raise DetectorError(f"unknown task {t}") from None

    @staticmethod
    def _covered(epoch: Optional[Epoch], clock: Clock) -> bool:
        if epoch is None:
            return True
        u, k = epoch
        return clock.get(u, 0) >= k

    def _report(self, loc, task, kind, prior_kind, prior_repr, label) -> None:
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

    def _cell(self, loc: Hashable) -> _Cell:
        cell = self.shadow.get(loc)
        if cell is None:
            cell = _Cell()
            self.shadow.put(loc, cell)
        return cell

    # -- memory (FastTrack state machine) -------------------------------------

    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        self.op_index += 1
        clock = self._clock(task)
        cell = self._cell(loc)
        epoch: Epoch = (task, clock[task])

        if cell.read_vector is None and cell.read_epoch == epoch:
            return  # [READ SAME EPOCH] fast path

        if not self._covered(cell.write, clock):
            self._report(
                loc, task, AccessKind.READ, AccessKind.WRITE,
                cell.write[0], label,
            )

        if cell.read_vector is not None:
            cell.read_vector[task] = epoch[1]  # [READ SHARED]
        elif cell.read_epoch is None or self._covered(cell.read_epoch, clock):
            cell.read_epoch = epoch  # [READ EXCLUSIVE]
        else:
            # [READ SHARE]: inflate epoch to a vector.
            u, k = cell.read_epoch
            cell.read_vector = {u: k, task: epoch[1]}
            cell.read_epoch = None
        self.shadow.touch(loc)

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        self.op_index += 1
        clock = self._clock(task)
        cell = self._cell(loc)
        epoch: Epoch = (task, clock[task])

        if cell.write == epoch:
            return  # [WRITE SAME EPOCH]

        if not self._covered(cell.write, clock):
            self._report(
                loc, task, AccessKind.WRITE, AccessKind.WRITE,
                cell.write[0], label,
            )
        if cell.read_vector is not None:
            # [WRITE SHARED]: the whole read vector must be covered.
            for u, k in cell.read_vector.items():
                if clock.get(u, 0) < k:
                    self._report(
                        loc, task, AccessKind.WRITE, AccessKind.READ, u, label
                    )
                    break
            cell.read_vector = None  # collapse back to exclusive
            cell.read_epoch = None
        elif cell.read_epoch is not None and not self._covered(
            cell.read_epoch, clock
        ):
            self._report(
                loc, task, AccessKind.WRITE, AccessKind.READ,
                cell.read_epoch[0], label,
            )
        cell.write = epoch
        self.shadow.touch(loc)

    # -- accounting -----------------------------------------------------------

    def metadata_entries(self) -> int:
        return sum(len(c) for c in self._clocks.values())
