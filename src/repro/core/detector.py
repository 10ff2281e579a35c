"""The 2D-lattice race detector (Figure 6 over Figure 8, thread-compressed).

This is the paper's headline artifact: an online race detector for
programs whose task graphs are two-dimensional lattices, running in

* **Θ(1) space per tracked memory location** -- two thread names, the
  suprema of the location's read and write histories;
* **Θ(1) space per thread** -- a union-find node plus a visited flag;
* **Θ(α(m+n, n)) amortised time per operation** (Theorem 5).

The detector consumes the event stream of a *serial fork-first* execution
of a structured fork-join program (Section 5).  Each event maps to the
traversal items of the delayed non-separating traversal exactly as the
paper's emission rules prescribe:

========================  ==============================================
event                     traversal items / Walk actions
========================  ==============================================
``fork(x, y)``            loop ``(x, x)`` then arc ``(x, y)`` -- mark
                          ``x`` visited (the fork vertex is visited);
                          the fork arc is never a last-arc
``step/read/write by x``  loop ``(x, x)`` -- mark visited, run queries
``join(x, y)``            last-arc ``(y, x)`` then loop ``(x, x)`` --
                          ``Union(x, y)``, mark ``x`` visited
``halt(x)``               stop-arc ``(x, ×)`` -- unmark ``x``
========================  ==============================================

(Every transition of a task is a vertex of the task graph, so each
event carries the loop of its own vertex in compressed form -- the
visited flag of a *running* thread is therefore true from its first
transition on, and only the halt stop-arc clears it.)

Race checks follow Figure 6 with the prose semantics of Section 2.3 (a
read is checked against the *write* supremum; the figure as printed says
``R`` -- see "Known erratum" in DESIGN.md.  Pass
``paper_figure6_literal=True`` to get the printed behaviour, which
additionally flags concurrent read pairs.)
"""

from __future__ import annotations

from typing import List

from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import ShadowColumns
from repro.core.unionfind import IntUnionFind
from repro.errors import DetectorError
from repro.events import Location

__all__ = ["RaceDetector2D", "detect_races"]


def detect_races(body, *args, **run_kwargs):
    """One-call monitoring: run ``body`` and return its race reports.

    Convenience wrapper equivalent to attaching a fresh
    :class:`RaceDetector2D` to :func:`repro.forkjoin.run`::

        races = detect_races(main)
        if races:
            print(races[0])

    Extra keyword arguments are forwarded to ``run`` (e.g.
    ``max_ops=...``).  Returns the list of
    :class:`~repro.core.reports.RaceReport` (empty = no races, and by
    the paper's soundness guarantee the execution really was
    deterministic from this input state).
    """
    from repro.forkjoin.interpreter import run

    detector = RaceDetector2D()
    run(body, *args, observers=[detector], **run_kwargs)
    return detector.races


class RaceDetector2D:
    """Online suprema-based race detector for 2D-lattice task graphs.

    Drive it with the lifecycle/memory callbacks below; read detected
    races from :attr:`races`.  Thread ids are dense integers handed out
    by :meth:`spawn_root` and :meth:`on_fork` (transformation (8): the
    detector does bookkeeping per *thread*, not per operation).

    Parameters
    ----------
    paper_figure6_literal:
        Implement ``On-Read`` exactly as printed in Figure 6 (compare the
        read against the read supremum) instead of the prose semantics
        (compare against the write supremum).  Only useful to study the
        erratum; defaults to ``False``.
    path_compression / link_by_rank:
        Union-find ablation knobs (see :mod:`repro.core.unionfind`).
    epoch_cache:
        Allow the batch kernel (:mod:`repro.engine.ingest`) to keep a
        per-location *access epoch* -- the last ``(task, kind)`` whose
        access was race-free and folded the supremum to the task itself
        -- and skip the union-find ``Sup`` queries when the same task
        repeats the same kind of access (FastTrack's same-epoch check,
        sound here because ``x`` ⊑ ``t`` is monotone: once a location's
        history is ordered before a live task it stays ordered).  The
        cache changes no verdicts and no shadow state, only the number
        of ``find`` calls; pass ``False`` to get union-find operation
        counts bit-identical to the per-event methods (the ablation
        experiments want the exact Figure-8 profile).

    Example
    -------
    >>> d = RaceDetector2D()
    >>> main = d.spawn_root()
    >>> child = d.on_fork(main)
    >>> d.on_write(child, "x")
    >>> d.on_halt(child)
    >>> d.on_write(main, "x")      # concurrent with child's write
    >>> len(d.races)
    1
    >>> d.on_join(main, child)
    """

    def __init__(
        self,
        *,
        paper_figure6_literal: bool = False,
        path_compression: bool = True,
        link_by_rank: bool = True,
        epoch_cache: bool = True,
    ) -> None:
        self._uf = IntUnionFind(
            path_compression=path_compression, link_by_rank=link_by_rank
        )
        self._visited: List[bool] = []
        self._halted: List[bool] = []
        self._joined: List[bool] = []
        self._literal = paper_figure6_literal
        #: whether the batch kernel may use the ``E`` column
        self._epoch_cache = epoch_cache
        #: per-location ``R``/``W`` suprema and ``E`` epochs, indexed by
        #: location id.  The batch kernel indexes them by the batch's ids;
        #: the per-event methods map their locations to ids through the
        #: columns' own table.  Once a per-event access has adopted that
        #: table, an engine maps batch ids through it as well, so the two
        #: driving styles can be mixed on one instance.
        self.shadow = ShadowColumns()
        #: all reports, in detection order (precise up to the first one)
        self.races: List[RaceReport] = []
        self.op_index = 0

    # -- lifecycle events ----------------------------------------------------

    @property
    def thread_count(self) -> int:
        """Number of threads ever created."""
        return len(self._visited)

    @property
    def unionfind(self) -> IntUnionFind:
        """Underlying union-find (exposes operation counters)."""
        return self._uf

    def spawn_root(self) -> int:
        """Create the initial task of a program; return its thread id."""
        return self._new_thread()

    def on_root(self, root: int) -> None:
        """Interpreter-protocol alias for :meth:`spawn_root`.

        Checks that the externally assigned root id matches the dense id
        the detector allocates (both sides count tasks in creation
        order, root first).
        """
        tid = self._new_thread()
        if tid != root:
            raise DetectorError(
                f"root id mismatch: interpreter says {root}, detector "
                f"allocated {tid}"
            )

    def _new_thread(self) -> int:
        tid = self._uf.make()
        self._visited.append(False)
        self._halted.append(False)
        self._joined.append(False)
        return tid

    def _check_alive(self, t: int) -> None:
        if t >= len(self._halted) or t < 0:
            raise DetectorError(f"unknown thread id {t}")
        if self._halted[t]:
            raise DetectorError(f"thread {t} already halted")

    def on_fork(self, parent: int, child: Optional[int] = None) -> int:
        """``parent`` forks a new task; returns the child's thread id.

        Emits the fork arc ``(parent, child)``, which is never a last-arc,
        so no union-find work happens (Walk ignores non-last arcs).
        When ``child`` is supplied (interpreter protocol) it must match
        the dense id the detector allocates.
        """
        self._check_alive(parent)
        self.op_index += 1
        # The fork transition is itself a task-graph vertex of `parent`,
        # so its loop compresses to (parent, parent): mark visited.
        self._visited[parent] = True
        tid = self._new_thread()
        if child is not None and child != tid:
            raise DetectorError(
                f"fork id mismatch: interpreter says {child}, detector "
                f"allocated {tid}"
            )
        return tid

    def on_step(self, t: int) -> None:
        """``t`` performs a local step: the loop ``(t, t)`` -- mark visited."""
        self._check_alive(t)
        self.op_index += 1
        self._visited[t] = True

    def on_join(self, joiner: int, joined: int) -> None:
        """``joiner`` joins the halted task ``joined``.

        Emits the delayed last-arc ``(joined, joiner)``:
        ``Union(joiner, joined)`` merges the joined task's tree under the
        joiner's set label, so everything that happened-before the joined
        task's end is now ordered before the joiner's future operations.
        """
        self._check_alive(joiner)
        if joined >= len(self._halted) or joined < 0:
            raise DetectorError(f"unknown thread id {joined}")
        if not self._halted[joined]:
            raise DetectorError(f"joining running thread {joined}")
        if self._joined[joined]:
            raise DetectorError(f"thread {joined} joined twice")
        self._joined[joined] = True
        self.op_index += 1
        self._uf.union(joiner, joined)
        # The join transition is a vertex of `joiner` (visited right
        # after the delayed last-arc): everything now in the joiner's
        # set is ordered before the joiner's future operations.
        self._visited[joiner] = True

    def on_halt(self, t: int) -> None:
        """``t`` terminates: the stop-arc ``(t, ×)`` -- un-mark ``t``.

        From now on ``t`` (as a last-arc forest root) impersonates the
        still-unknown supremum that the future join arc will create.
        """
        self._check_alive(t)
        self.op_index += 1
        self._halted[t] = True
        self._visited[t] = False

    # -- the Sup query (Figure 8 right) ---------------------------------------

    def sup(self, x: int, t: int) -> int:
        """Relaxed supremum query: ``t`` iff ``x ⊑ t``, else a placeholder
        that behaves like ``sup{x, t}`` in all later queries."""
        r = self._uf.find(x)
        if self._visited[r]:
            return t
        return r

    def ordered(self, x: int, t: int) -> bool:
        """Whether ``x``'s tracked history is ordered before current ``t``."""
        return self.sup(x, t) == t

    # -- memory accesses (Figure 6) -------------------------------------------

    def _report(
        self,
        loc: Location,
        t: int,
        kind: AccessKind,
        prior_kind: AccessKind,
        prior_repr: int,
        label: str,
    ) -> None:
        self.races.append(
            RaceReport(
                loc=loc,
                task=t,
                kind=kind,
                prior_kind=prior_kind,
                prior_repr=prior_repr,
                op_index=self.op_index,
                label=label,
            )
        )

    def on_read(self, t: int, loc: Location, label: str = "") -> None:
        """``t`` reads ``loc``: check against the write supremum, fold the
        read into the read supremum (``R[loc] <- Sup(R[loc], t)``)."""
        self._check_alive(t)
        self.op_index += 1
        self._visited[t] = True
        sh = self.shadow
        s = sh.lid(loc)
        r = sh.R[s]
        # Figure 6 as printed compares against R; the prose, against W.
        prior, prior_kind = (
            (r, AccessKind.READ) if self._literal else (sh.W[s], AccessKind.WRITE)
        )
        if prior >= 0 and self.sup(prior, t) != t:
            self._report(loc, t, AccessKind.READ, prior_kind, prior, label)
        if r < 0:
            sh.R[s] = t
            sh.filled(s)
        else:
            sh.R[s] = self.sup(r, t)

    def on_write(self, t: int, loc: Location, label: str = "") -> None:
        """``t`` writes ``loc``: check against both suprema, fold the write
        into the write supremum (``W[loc] <- Sup(W[loc], t)``)."""
        self._check_alive(t)
        self.op_index += 1
        self._visited[t] = True
        sh = self.shadow
        s = sh.lid(loc)
        r, w = sh.R[s], sh.W[s]
        if r >= 0 and self.sup(r, t) != t:
            self._report(loc, t, AccessKind.WRITE, AccessKind.READ, r, label)
        elif w >= 0 and self.sup(w, t) != t:
            self._report(loc, t, AccessKind.WRITE, AccessKind.WRITE, w, label)
        if w < 0:
            sh.W[s] = t
            sh.filled(s)
        else:
            sh.W[s] = self.sup(w, t)

    # -- accounting -----------------------------------------------------------

    def space_per_location(self) -> int:
        """Peak shadow entries used by any single location (always <= 2)."""
        return self.shadow.peak_entries_per_loc

    def space_per_thread(self) -> int:
        """Word entries per thread: parent + rank + label + visited +
        halted + joined = 6, independent of anything (Θ(1))."""
        return 6

    def metadata_entries(self) -> int:
        """Per-thread word entries over all threads ever created."""
        return self.thread_count * self.space_per_thread()
