"""Shadow memory with space accounting.

Every detector keeps per-location metadata ("shadow cells").  The whole
point of the paper is the *size* of those cells: Θ(1) for the 2D detector
(two vertex names) versus Θ(n) for vector-clock detectors.  To make that
measurable rather than anecdotal, the baseline detectors store their
per-location state in a :class:`ShadowMap`, which can report the current
and peak number of machine-word entries per location.  The paper's 2D
detector keeps the same accounting over :class:`ShadowColumns`: int
columns indexed by location id, two thread ids per location as
Theorem 5 counts them.

The accounting unit is "entries" -- conceptual machine words -- rather
than Python object bytes, because CPython object overhead would drown the
asymptotic signal the benchmarks are after (see DESIGN.md, experiment T5).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, Generic, Hashable, Iterator, List, Optional,
    Tuple, TypeVar,
)

if TYPE_CHECKING:
    from repro.engine.batch import LocationInterner

__all__ = [
    "ShadowMap", "ShadowColumns", "EPOCH_DIRTY", "EPOCH_UNTOUCHED",
    "identity_table",
]

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


#: ``E`` value of a location whose last batch-kernel access was not
#: clean; like -1 it never matches an access key, but a checkpoint keeps it
EPOCH_DIRTY = -2

#: ``E`` value of a location no access has touched yet: the kernel's
#: same-epoch probe ``E[lid] == key`` misses it like any other non-key,
#: and the miss path tells a first touch by it
EPOCH_UNTOUCHED = -3


def identity_table(width: int) -> "LocationInterner":
    """The table a detector's per-event methods adopt on their first
    access: ids below ``width``, which the batch kernel may already
    have indexed, name themselves; a new location takes the next id."""
    from repro.engine.batch import LocationInterner

    return LocationInterner.from_locations(range(width))


class ShadowColumns:
    """The 2D detector's shadow memory: three int columns indexed by
    location id.

    ``R[lid]``/``W[lid]`` hold the read/write supremum (Theorem 5's two
    thread ids), ``E[lid]`` the batch kernel's access epoch -- the
    encoded ``(task << 1) | kind`` of the last clean access,
    :data:`EPOCH_DIRTY`, or -1 -- and ``R``/``W`` -1 for "none".  An id
    no access has touched carries :data:`EPOCH_UNTOUCHED` in ``E``.
    The batch kernel indexes the columns by the batch's own location
    ids (an engine checks them against its bound first and calls
    :meth:`grow`); the per-event methods map any hashable location to
    an id through :attr:`locations`, a table of their own, adopted on
    their first access (see :func:`identity_table`); from then on an
    engine maps batch ids through it too.  :attr:`total` counts the
    non-empty ``R``/``W`` entries; it and the per-location peak change
    only when an entry fills, since entries never empty again.
    """

    __slots__ = ("R", "W", "E", "locations", "total", "peak_entries_per_loc")

    def __init__(self) -> None:
        self.R: List[int] = []
        self.W: List[int] = []
        self.E: List[int] = []
        #: the per-event methods' location table; ``None`` while the
        #: columns are indexed by batch location ids alone
        self.locations: Optional["LocationInterner"] = None
        self.total = 0
        self.peak_entries_per_loc = 0

    def __len__(self) -> int:
        """The number of touched locations."""
        return len(self.E) - self.E.count(EPOCH_UNTOUCHED)

    def grow(self, width: int) -> None:
        """Extend the columns to ``width`` ids, each new one untouched
        (list over-allocation makes repeated growth geometric)."""
        k = width - len(self.E)
        if k > 0:
            pad = [-1] * k
            self.R += pad
            self.W += pad
            self.E += [EPOCH_UNTOUCHED] * k

    def lid(self, loc: Hashable) -> int:
        """The id of ``loc`` for a per-event access, its epoch reset so
        the batch kernel's cache stays coherent."""
        table = self.locations
        if table is None:
            table = self.locations = identity_table(len(self.E))
        lid = table.intern(loc)
        if lid >= len(self.E):
            self.grow(lid + 1)
        self.E[lid] = -1
        return lid

    def filled(self, lid: int) -> None:
        """Account for one ``R``/``W`` entry of ``lid`` just filled."""
        self.total += 1
        n = (self.R[lid] >= 0) + (self.W[lid] >= 0)
        if n > self.peak_entries_per_loc:
            self.peak_entries_per_loc = n

    def cells(self) -> Dict[Hashable, Tuple[int, int, int]]:
        """``location -> (R, W, E)`` over the touched ids, ascending: an
        id names itself, or its entry in the per-event table."""
        R, W = self.R, self.W
        name = self.locations.location if self.locations is not None else int
        return {
            name(lid): (R[lid], W[lid], e)
            for lid, e in enumerate(self.E) if e != EPOCH_UNTOUCHED
        }

    def items(self) -> Iterator[Tuple[Hashable, Tuple[Optional[int], Optional[int]]]]:
        """``(location, (read_sup, write_sup))`` pairs, ``None`` for an
        empty entry."""
        for loc, (r, w, _e) in self.cells().items():
            yield loc, (r if r >= 0 else None, w if w >= 0 else None)

    def total_entries(self) -> int:
        return self.total

    def max_entries_per_loc(self) -> int:
        # entries never shrink, so the current maximum is the peak
        return self.peak_entries_per_loc
