"""Dense (numpy) vector clocks -- the textbook Θ(n) implementation.

The sparse-dict detector in :mod:`repro.detectors.vector_clock` only
materialises nonzero clock entries, which softens the asymptotic cost
the paper's Introduction describes.  This variant is the classic dense
implementation: every clock is a length-``capacity`` integer vector
(numpy ``int64``), forks copy the parent's whole vector, joins take an
elementwise maximum, and shadow cells are full vectors too.

It answers the same verdicts (agreement is tested) but exposes the real
costs: **O(n) work per fork/join** and **n words per location** from the
first access on -- the behaviour "as n gets larger the analyzer can
quickly run out of memory" warns about.  The A3 ablation benchmark
measures sparse vs dense side by side.

Capacity grows by doubling; existing vectors are zero-padded lazily at
comparison time (a vector shorter than ``n`` implicitly ends in zeros).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import ShadowMap
from repro.detectors.base import Detector
from repro.errors import DetectorError

__all__ = ["DenseVectorClockDetector"]


def _cell_entries(cell: List[Optional[np.ndarray]]) -> int:
    return sum(len(v) for v in cell if v is not None)


class DenseVectorClockDetector(Detector):
    """DJIT+-style detector over dense numpy clock vectors."""

    name = "vectorclock-dense"

    def __init__(self, initial_capacity: int = 4) -> None:
        super().__init__()
        self._capacity = max(1, initial_capacity)
        self._clocks: Dict[int, np.ndarray] = {}
        #: cells are [read_vector, write_vector] (or None until touched)
        self.shadow: ShadowMap[List[Optional[np.ndarray]]] = ShadowMap(
            _cell_entries
        )
        self.op_index = 0
        #: numpy elements copied by fork/join clock maintenance
        self.elements_copied = 0

    # -- capacity management -------------------------------------------------

    def _fresh(self) -> np.ndarray:
        return np.zeros(self._capacity, dtype=np.int64)

    def _widen(self, vec: np.ndarray) -> np.ndarray:
        if len(vec) >= self._capacity:
            return vec
        out = np.zeros(self._capacity, dtype=np.int64)
        out[: len(vec)] = vec
        return out

    def _ensure_capacity(self, tid: int) -> None:
        while tid >= self._capacity:
            self._capacity *= 2

    # -- lifecycle ----------------------------------------------------------

    def on_root(self, root: int) -> None:
        self._clocks[root] = self._fresh()
        self._clocks[root][root] = 1

    def on_fork(self, parent: int, child: int) -> None:
        self.op_index += 1
        pc = self._clock(parent)
        self._ensure_capacity(child)
        pc = self._clocks[parent] = self._widen(pc)
        cc = pc.copy()  # the O(n) fork copy
        self.elements_copied += len(cc)
        cc[child] = 1
        self._clocks[child] = cc
        pc[parent] += 1

    def on_join(self, joiner: int, joined: int) -> None:
        self.op_index += 1
        jc = self._clock(joiner)
        dc = self._clocks.pop(joined, None)
        if dc is None:
            raise DetectorError(f"join of unknown/already-joined {joined}")
        n = max(len(jc), len(dc))
        jc, dc = self._widen(jc), self._widen(dc)
        np.maximum(jc[:n], dc[:n], out=jc[:n])  # the O(n) join max
        self.elements_copied += n
        jc[joiner] += 1
        self._clocks[joiner] = jc

    def on_halt(self, task: int) -> None:
        self.op_index += 1

    def on_step(self, task: int) -> None:
        self.op_index += 1

    def _clock(self, t: int) -> np.ndarray:
        try:
            return self._clocks[t]
        except KeyError:
            raise DetectorError(f"unknown task {t}") from None

    # -- memory -------------------------------------------------------------

    def _cell(self, loc: Hashable) -> List[Optional[np.ndarray]]:
        cell = self.shadow.get(loc)
        if cell is None:
            cell = [None, None]
            self.shadow.put(loc, cell)
        return cell

    def _first_uncovered(
        self, vec: Optional[np.ndarray], clock: np.ndarray
    ) -> Optional[int]:
        if vec is None:
            return None
        n = min(len(vec), len(clock))
        bad = np.nonzero(vec[:n] > clock[:n])[0]
        if bad.size:
            return int(bad[0])
        if len(vec) > n:
            extra = np.nonzero(vec[n:])[0]
            if extra.size:
                return int(extra[0]) + n
        return None

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
        clock = self._clock(task)
        cell = self._cell(loc)
        bad = self._first_uncovered(cell[1], clock)
        if bad is not None:
            self._report(loc, task, AccessKind.READ, AccessKind.WRITE,
                         bad, label)
        if cell[0] is None or len(cell[0]) <= task:
            cell[0] = self._widen(
                cell[0] if cell[0] is not None else self._fresh()
            )
        cell[0][task] = clock[task]
        self.shadow.touch(loc)

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        self.op_index += 1
        clock = self._clock(task)
        cell = self._cell(loc)
        bad = self._first_uncovered(cell[0], clock)
        prior = AccessKind.READ
        if bad is None:
            bad = self._first_uncovered(cell[1], clock)
            prior = AccessKind.WRITE
        if bad is not None:
            self._report(loc, task, AccessKind.WRITE, prior, bad, label)
        if cell[1] is None or len(cell[1]) <= task:
            cell[1] = self._widen(
                cell[1] if cell[1] is not None else self._fresh()
            )
        cell[1][task] = clock[task]
        self.shadow.touch(loc)

    # -- accounting -----------------------------------------------------------

    def metadata_entries(self) -> int:
        return sum(len(c) for c in self._clocks.values())
