"""Shadow memory with space accounting.

Every detector keeps per-location metadata ("shadow cells").  The whole
point of the paper is the *size* of those cells: Θ(1) for the 2D detector
(two vertex names) versus Θ(n) for vector-clock detectors.  To make that
measurable rather than anecdotal, the baseline detectors store their
per-location state in a :class:`ShadowMap`, which can report the current
and peak number of machine-word entries per location.  The paper's 2D
detector keeps the same accounting over :class:`ShadowColumns`: a slot
map plus int columns, two thread ids per location as Theorem 5 counts
them.

The accounting unit is "entries" -- conceptual machine words -- rather
than Python object bytes, because CPython object overhead would drown the
asymptotic signal the benchmarks are after (see DESIGN.md, experiment T5).
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar,
)

__all__ = ["ShadowMap", "ShadowColumns", "EPOCH_DIRTY"]

C = TypeVar("C")


class ShadowMap(Generic[C]):
    """A ``location -> cell`` map that tracks per-location entry counts.

    Parameters
    ----------
    cell_entries:
        Callable returning the number of word-sized entries a cell
        occupies.  It is re-evaluated on every update of that location so
        growth (e.g. a vector clock widening) is captured.
    """

    __slots__ = ("_cells", "_entries", "_cell_entries", "peak_entries_per_loc")

    def __init__(self, cell_entries: Callable[[C], int]) -> None:
        self._cells: Dict[Hashable, C] = {}
        self._entries: Dict[Hashable, int] = {}
        self._cell_entries = cell_entries
        #: the largest entry count ever observed for a single location
        self.peak_entries_per_loc = 0

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, loc: Hashable) -> bool:
        return loc in self._cells

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._cells)

    def get(self, loc: Hashable) -> Optional[C]:
        """Return the cell for ``loc`` or ``None``."""
        return self._cells.get(loc)

    def put(self, loc: Hashable, cell: C) -> None:
        """Store ``cell`` for ``loc`` and refresh its space accounting."""
        self._cells[loc] = cell
        self.touch(loc)

    def touch(self, loc: Hashable) -> None:
        """Re-run the accounting for ``loc`` after an in-place cell update."""
        cell = self._cells[loc]
        n = self._cell_entries(cell)
        self._entries[loc] = n
        if n > self.peak_entries_per_loc:
            self.peak_entries_per_loc = n

    def items(self) -> Iterator[Tuple[Hashable, C]]:
        return iter(self._cells.items())

    # -- accounting ---------------------------------------------------------

    def total_entries(self) -> int:
        """Sum of entries across all locations (current, not peak)."""
        return sum(self._entries.values())

    def max_entries_per_loc(self) -> int:
        """Largest current per-location entry count (0 when empty)."""
        return max(self._entries.values(), default=0)

    def mean_entries_per_loc(self) -> float:
        """Average current per-location entry count (0.0 when empty)."""
        if not self._entries:
            return 0.0
        return self.total_entries() / len(self._entries)


#: ``E`` value of a slot whose last batch-kernel access was not clean;
#: like -1 it never matches an access key, but a checkpoint keeps it
EPOCH_DIRTY = -2


class ShadowColumns:
    """The 2D detector's shadow memory: a slot map and three int columns.

    :attr:`slot` hands each location a dense slot in first-touch order.
    ``R[s]``/``W[s]`` hold the read/write supremum (Theorem 5's two
    thread ids), ``E[s]`` the batch kernel's access epoch -- the encoded
    ``(task << 1) | kind`` of the last clean access, or
    :data:`EPOCH_DIRTY` -- each -1 for "none".  :attr:`total` counts the
    non-empty ``R``/``W`` entries; it and the per-location peak change
    only when an entry fills, since entries never empty again.
    """

    __slots__ = ("slot", "R", "W", "E", "total", "peak_entries_per_loc")

    def __init__(self) -> None:
        self.slot: Dict[Hashable, int] = {}
        self.R: List[int] = []
        self.W: List[int] = []
        self.E: List[int] = []
        self.total = 0
        self.peak_entries_per_loc = 0

    def __len__(self) -> int:
        return len(self.slot)

    def new_slot(self, loc: Hashable) -> int:
        """Give ``loc`` the next slot, every column empty."""
        s = self.slot[loc] = len(self.R)
        self.R.append(-1)
        self.W.append(-1)
        self.E.append(-1)
        return s

    def filled(self, s: int) -> None:
        """Account for one ``R``/``W`` entry of slot ``s`` just filled."""
        self.total += 1
        n = (self.R[s] >= 0) + (self.W[s] >= 0)
        if n > self.peak_entries_per_loc:
            self.peak_entries_per_loc = n

    def items(self) -> Iterator[Tuple[Hashable, Tuple[Optional[int], Optional[int]]]]:
        """``(location, (read_sup, write_sup))`` pairs, ``None`` for an
        empty entry."""
        R, W = self.R, self.W
        for loc, s in self.slot.items():
            yield loc, (R[s] if R[s] >= 0 else None, W[s] if W[s] >= 0 else None)

    def total_entries(self) -> int:
        return self.total

    def max_entries_per_loc(self) -> int:
        # entries never shrink, so the current maximum is the peak
        return self.peak_entries_per_loc
