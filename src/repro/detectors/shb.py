"""SHB-style sound race *prediction* from one logged trace.

Every other detector in this package answers "did the observed
interleaving race?": each access is compared against a per-location
*summary* (a supremum task, an epoch, a bag) and flagged at most once.
That summary is what makes them constant-space -- and what makes them
blind to races whose witnesses the summary already discarded.  The
SHB family (schedulable-happens-before; Roemer/Genc/Bond and the
rv-predict line of work, PAPERS.md) asks the stronger question: *which
access pairs race in some feasible reordering of the logged trace?*

In this repo's lock-free fork/halt/join model the answer is exact and
cheap: with no locks, happens-before is purely structural (program
order plus fork and join edges), so a feasible reordering can permute
exactly the HB-unordered events -- and therefore *every* conflicting
HB-unordered pair is a predictable race, and nothing else is.  Sound
and complete prediction reduces to enumerating those pairs:

* Each task carries a **vector timestamp** with the epoch
  optimisation: a task's own component ticks only at its *release*
  points (a fork; nothing else releases here -- join is a pure
  acquire, and a halt is terminal).  All accesses between two releases
  share one epoch, packed into one int ``(tick << 32) | task``, and are
  indistinguishable to every other task, so one O(1) component compare
  (``clock_of(later)[task] >= tick``) decides order for a whole run of
  accesses.  Clocks are dense ``array("q")`` vectors indexed by task
  id, so a fork is one C-level copy of the parent's clock and a join
  one vectorized ``numpy.maximum`` over the two buffers.
* Per location and access kind, the detector keeps a **candidate
  window** in the spirit of rv-predict's windowed pair search: the
  epochs of prior accesses still HB-*maximal* for their kind.  An
  entry dominated by a newer same-kind entry is pruned -- sound
  because the trace linearises HB, so any later access unordered with
  the pruned entry is also unordered with its dominator.  The window
  is thus the HB-frontier (an antichain), bounded by the width of the
  task graph rather than the trace length.  Most windows hold one
  epoch, so a window is stored as that bare packed int and only a
  frontier of two or more becomes a list.  The windows live in two
  lists indexed by location id, ``None`` for an empty window, so a
  first-touched location costs one list store, not a dict insert.
* An incoming access scans the conflicting window(s) and reports **one
  race per unordered entry** -- the pair enumeration, not a
  first-report summary.  This is where prediction visibly exceeds the
  observed-order detectors: they emit at most one report per access,
  and they can miss pairs entirely when both of a pair's endpoints
  were folded out of the supremum (see ``docs/PREDICTION.md`` for a
  worked trace that lattice2d *and* fasttrack miss).

The soundness half -- never report an infeasible pair -- is the
invariant the differential harness checks mechanically: predicted
races must be a superset (as a multiset of flagged accesses) of what
the observed-order detectors report, and every reported pair is
HB-unordered by the vector-clock algebra above.

The detector is structure-generic: unlike ``spbags`` it
accepts any structured fork/halt/join stream, not just serial
fork-first ones.  Hostile streams get the family's typed posture:
:class:`~repro.errors.DetectorError` at the exact ``op_index`` of the
offending event, same messages as the 2D detector.

The batch engine does not run this detector.  ``BatchEngine(predict=
True)`` makes the same reports, over the same windows read as task
ids, with :class:`~repro.core.predict.PredictDetector2D`: on a serial
fork-first stream the 2D detector's ``Sup`` query answers each window
test from Θ(1) state per task, where the clocks here cost O(tasks).
This detector stays the per-event referee (the tests, perfbench's
``shb`` references, ``--detector shb``) and the predictor for streams
that are not fork-first.  A ``BatchEngine`` built around one by hand
drives it through the generic loop.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence, Union

import numpy as np

from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import identity_table
from repro.detectors.base import Detector
from repro.errors import DetectorError

if TYPE_CHECKING:
    from repro.engine.batch import LocationInterner

__all__ = ["SHBDetector"]

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE

#: a packed epoch is ``(tick << 32) | task``: ``e & TASK_MASK`` is the
#: task, ``e >> 32`` the tick
TASK_MASK = (1 << 32) - 1

#: the clocks' element type, as a dtype object: ``np.frombuffer`` takes
#: half the time with it passed positionally than with ``dtype=np.int64``
_INT64 = np.dtype(np.int64)

#: a candidate window: one packed epoch, or a list of two or more
Window = Union[int, List[int]]


def _zeros(n: int) -> array:
    return array("q", bytes(8 * n))


def _unordered(e: int, vc: array) -> bool:
    """Whether the access epoch ``e`` (task u, tick c) is HB-unordered
    with a task whose clock is ``vc``: that task has not yet seen tick
    c of u.  A task's own epochs never qualify, since its own component
    only grows."""
    u = e & TASK_MASK
    return u >= len(vc) or vc[u] < e >> 32


def _epochs(win: Optional[Window]) -> Sequence[int]:
    """The packed epochs of a window (``None``: no window)."""
    if win is None:
        return ()
    return (win,) if type(win) is int else win


class SHBDetector(Detector):
    """Predictive race detector over epoch vector clocks (see module
    docstring).

    ``races`` holds one :class:`~repro.core.reports.RaceReport` per
    conflicting HB-unordered *pair*, with ``prior_repr`` naming the
    earlier accessor task -- so the same access can appear in several
    reports, one per partner.
    """

    name = "shb"

    #: values of the per-task ``_state`` column
    _LIVE, _HALTED, _JOINED = 0, 1, 2

    def __init__(self) -> None:
        super().__init__()
        self._state = array("b")
        # Dense vector clocks, one ``array("q")`` per task indexed by
        # task id; a clock may be shorter than the task count, the
        # missing components being zero.  Freed at join (the joined
        # task's final clock is merged into the joiner and never read
        # again).
        self._clock: List[Optional[array]] = []
        # Location id -> the read (write) window: the HB-frontier of
        # packed epochs for that kind, a bare int when it holds one
        # epoch, ``None`` when it is empty.  The batch kernel indexes
        # the lists by the batch's ids; the per-event methods map their
        # locations to ids through ``locations``, adopted on their first
        # access (see ``ShadowColumns``: an engine then maps batch ids
        # through it too).
        self._reads: List[Optional[Window]] = []
        self._writes: List[Optional[Window]] = []
        self.locations: Optional[LocationInterner] = None
        self._peak_window = 0
        self.op_index = 0

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

    def _check_alive(self, t: int) -> None:
        if t < 0 or t >= len(self._state):
            raise DetectorError(f"unknown thread id {t}")
        if self._state[t]:
            raise DetectorError(f"thread {t} already halted")

    # -- structural events ---------------------------------------------------

    def on_root(self, root: int) -> None:
        tid = len(self._state)
        self._state.append(self._LIVE)
        vc = _zeros(tid + 1)
        vc[tid] = 1
        self._clock.append(vc)
        if tid != root:
            raise DetectorError(
                f"root id mismatch: interpreter says {root}, detector "
                f"allocated {tid}"
            )

    def on_fork(self, parent: int, child: Optional[int] = None) -> int:
        self._check_alive(parent)
        self.op_index += 1
        pc = self._clock[parent]
        assert pc is not None  # live tasks always hold a clock
        # The child inherits the parent's snapshot *before* the tick:
        # everything the parent did so far happens-before the child,
        # everything after the fork does not.  One C-level copy, padded
        # with zeros up to the child's own component.
        tid = len(self._state)
        cc = pc + _zeros(tid + 1 - len(pc))
        cc[tid] = 1
        self._state.append(self._LIVE)
        self._clock.append(cc)
        pc[parent] += 1  # the fork is a release point for the parent
        if child is not None and child != tid:
            raise DetectorError(
                f"fork id mismatch: interpreter says {child}, detector "
                f"allocated {tid}"
            )
        return tid

    def on_halt(self, t: int) -> None:
        self._check_alive(t)
        self.op_index += 1
        self._state[t] = self._HALTED
        # The final clock stays parked until the joiner merges it.

    def on_join(self, joiner: int, joined: int) -> None:
        self._check_alive(joiner)
        if joined < 0 or joined >= len(self._state):
            raise DetectorError(f"unknown thread id {joined}")
        st = self._state[joined]
        if st == self._LIVE:
            raise DetectorError(f"joining running thread {joined}")
        if st == self._JOINED:
            raise DetectorError(f"thread {joined} joined twice")
        self.op_index += 1
        self._state[joined] = self._JOINED
        jc = self._clock[joiner]
        oc = self._clock[joined]
        assert jc is not None and oc is not None
        n = len(oc)
        if len(jc) < n:
            # Resize before any numpy view of ``jc`` exists: an array
            # with an exported buffer refuses to grow (BufferError).
            jc.extend(_zeros(n - len(jc)))
        view = np.frombuffer(jc, _INT64, n)
        np.maximum(view, np.frombuffer(oc, _INT64), out=view)
        self._clock[joined] = None  # never read again; free it

    def on_step(self, t: int) -> None:
        self._check_alive(t)
        self.op_index += 1

    # -- accesses ------------------------------------------------------------

    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        self._access(task, loc, _READ, label)

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        self._access(task, loc, _WRITE, label)

    def _access(
        self, t: int, loc: Hashable, kind: AccessKind, label: str
    ) -> None:
        state = self._state
        if t < 0 or t >= len(state):
            raise DetectorError(f"unknown thread id {t}")
        if state[t]:
            raise DetectorError(f"thread {t} already halted")
        self.op_index += 1
        vc = self._clock[t]
        assert vc is not None
        me = (vc[t] << 32) | t
        lid = self._lid(loc)
        reads = self._reads[lid]
        writes = self._writes[lid]
        # One report per conflicting unordered window entry: reads race
        # prior writes; writes race prior reads and prior writes.
        for prior_kind, win in ((_READ, reads), (_WRITE, writes)):
            if not kind.conflicts_with(prior_kind):
                continue
            for e in _epochs(win):
                if _unordered(e, vc):
                    self.races.append(
                        RaceReport(
                            loc=loc, task=t, kind=kind,
                            prior_kind=prior_kind,
                            prior_repr=e & TASK_MASK,
                            op_index=self.op_index, label=label,
                        )
                    )
        # Fold this access into its kind's window: prune entries it
        # dominates (they can never race anything this one would not),
        # keep the unordered frontier, append the current epoch.
        if kind is _WRITE:
            own, other, windows = writes, reads, self._writes
        else:
            own, other, windows = reads, writes, self._reads
        keep = [e for e in _epochs(own) if _unordered(e, vc)]
        keep.append(me)
        windows[lid] = keep if len(keep) > 1 else me
        size = len(keep) + len(_epochs(other))
        if size > self._peak_window:
            self._peak_window = size

    # -- accounting ----------------------------------------------------------

    @property
    def thread_count(self) -> int:
        return len(self._state)

    def shadow_peak_per_location(self) -> int:
        return self._peak_window

    def shadow_total_entries(self) -> int:
        return sum(
            len(_epochs(win))
            for windows in (self._reads, self._writes)
            for win in windows
        )

    def metadata_entries(self) -> int:
        # The state column plus every live clock's nonzero components
        # (ticks start at 1, so zero means "no knowledge of that task").
        clocks = sum(
            len(vc) - vc.count(0) for vc in self._clock if vc is not None
        )
        return len(self._state) + clocks
