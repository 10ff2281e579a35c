"""DJIT+-style vector-clock race detector -- the Θ(n) baseline.

This is the "state of the art for arbitrary parallelism" the paper
positions itself against ([13], Introduction): sound and precise for any
fork-join structure, but storing a vector of clock entries per monitored
location -- Θ(n) space per location in the worst case, where ``n`` is
the number of threads.

Clock discipline:

* fork: the child starts with a copy of the parent's clock plus its own
  fresh component; the parent then advances its component (so the
  child's subsequent work is not ordered before the parent's);
* join: the joiner's clock absorbs (pointwise max) the joined task's
  clock, then advances its own component;
* a joined task's clock is freed -- its effects live on in the joiner.

Shadow state per location: a read vector ``R`` and a write vector ``W``
holding, per thread, the clock of that thread's latest access.  An
access by ``t`` races iff some recorded conflicting entry is not covered
by ``t``'s current clock.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import ShadowMap
from repro.detectors.base import Detector
from repro.errors import DetectorError

__all__ = ["VectorClockDetector"]

Clock = Dict[int, int]


def _cell_entries(cell: Tuple[Clock, Clock]) -> int:
    return len(cell[0]) + len(cell[1])


class VectorClockDetector(Detector):
    """Generic happens-before detector with full vector clocks (DJIT+)."""

    name = "vectorclock"

    def __init__(self) -> None:
        super().__init__()
        self._clocks: Dict[int, Clock] = {}
        #: cells are (read_vector, write_vector)
        self.shadow: ShadowMap[Tuple[Clock, Clock]] = ShadowMap(_cell_entries)
        self.op_index = 0
        self.peak_clock_entries = 0
        self._task_count = 0

    # -- lifecycle ----------------------------------------------------------

    def on_root(self, root: int) -> None:
        self._clocks[root] = {root: 1}
        self._task_count = 1

    def on_fork(self, parent: int, child: int) -> None:
        self.op_index += 1
        pc = self._clock(parent)
        cc = dict(pc)
        cc[child] = 1
        self._clocks[child] = cc
        pc[parent] += 1
        self._task_count += 1
        self._note_clock_size()

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
        self._note_clock_size()

    def on_halt(self, task: int) -> None:
        self.op_index += 1

    def on_step(self, task: int) -> None:
        self.op_index += 1

    def _clock(self, t: int) -> Clock:
        try:
            return self._clocks[t]
        except KeyError:
            raise DetectorError(f"unknown task {t}") from None

    def _note_clock_size(self) -> None:
        n = sum(len(c) for c in self._clocks.values())
        if n > self.peak_clock_entries:
            self.peak_clock_entries = n

    # -- memory -------------------------------------------------------------

    def _cell(self, loc: Hashable) -> Tuple[Clock, Clock]:
        cell = self.shadow.get(loc)
        if cell is None:
            cell = ({}, {})
            self.shadow.put(loc, cell)
        return cell

    def _covered(self, vec: Clock, clock: Clock) -> Optional[int]:
        """Return a thread whose entry is *not* covered, or ``None``."""
        for u, k in vec.items():
            if clock.get(u, 0) < k:
                return u
        return None

    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        self.op_index += 1
        clock = self._clock(task)
        rvec, wvec = self._cell(loc)
        bad = self._covered(wvec, clock)
        if bad is not None:
            self.races.append(
                RaceReport(
                    loc=loc,
                    task=task,
                    kind=AccessKind.READ,
                    prior_kind=AccessKind.WRITE,
                    prior_repr=bad,
                    op_index=self.op_index,
                    label=label,
                )
            )
        rvec[task] = clock[task]
        self.shadow.touch(loc)

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        self.op_index += 1
        clock = self._clock(task)
        rvec, wvec = self._cell(loc)
        bad = self._covered(rvec, clock)
        prior = AccessKind.READ
        if bad is None:
            bad = self._covered(wvec, clock)
            prior = AccessKind.WRITE
        if bad is not None:
            self.races.append(
                RaceReport(
                    loc=loc,
                    task=task,
                    kind=AccessKind.WRITE,
                    prior_kind=prior,
                    prior_repr=bad,
                    op_index=self.op_index,
                    label=label,
                )
            )
        wvec[task] = clock[task]
        self.shadow.touch(loc)

    # -- accounting -----------------------------------------------------------

    def metadata_entries(self) -> int:
        """Current live clock entries (joined tasks' clocks are freed)."""
        return sum(len(c) for c in self._clocks.values())
