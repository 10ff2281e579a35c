"""The common detector interface and trivial observers.

A detector is an interpreter observer with race reporting and space
accounting.  The event protocol mirrors the paper's transition alphabet
(Section 5): ``on_root``, ``on_fork``, ``on_step``, ``on_read``,
``on_write``, ``on_join``, ``on_halt``, plus the optional
``on_annotation`` side channel for scope-based baselines.

Space accounting contract (used by experiment T5 / C1 in DESIGN.md):

* :meth:`Detector.shadow_peak_per_location` -- the largest number of
  word-sized entries any single location's shadow cell ever reached;
* :meth:`Detector.shadow_total_entries` -- current total shadow entries
  across locations;
* :meth:`Detector.metadata_entries` -- entries of per-thread /
  per-structure metadata (clocks, bags, union-find arrays).
"""

from __future__ import annotations

import abc
from typing import Any, Hashable, List, Optional

from repro.core.reports import RaceReport

__all__ = ["Detector", "NullObserver", "EventTracer"]


class Detector(abc.ABC):
    """Abstract base for online race detectors."""

    #: short name used in benchmark tables
    name: str = "abstract"

    def __init__(self) -> None:
        self.races: List[RaceReport] = []

    # -- lifecycle ----------------------------------------------------------

    @abc.abstractmethod
    def on_root(self, root: int) -> None:
        """The initial task ``root`` starts (always id 0)."""

    @abc.abstractmethod
    def on_fork(self, parent: int, child: int) -> None:
        """``parent`` forked ``child`` (dense ids, creation order)."""

    @abc.abstractmethod
    def on_join(self, joiner: int, joined: int) -> None:
        """``joiner`` joined the halted task ``joined``."""

    @abc.abstractmethod
    def on_halt(self, task: int) -> None:
        """``task`` terminated."""

    def on_step(self, task: int) -> None:
        """``task`` performed a local step (default: ignore)."""

    # -- memory -------------------------------------------------------------

    @abc.abstractmethod
    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        """``task`` read ``loc``."""

    @abc.abstractmethod
    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        """``task`` wrote ``loc``."""

    def on_annotation(self, task: int, tag: str, data: Any = None) -> None:
        """Optional scope/side-channel marker (default: ignore)."""

    # -- results / accounting --------------------------------------------------

    @property
    def race_count(self) -> int:
        return len(self.races)

    def found_race(self) -> bool:
        """Whether at least one race was flagged."""
        return bool(self.races)

    def shadow_peak_per_location(self) -> int:
        """Peak word entries any single location's shadow cell used
        (default: read off the detector's ``shadow`` map)."""
        return self.shadow.peak_entries_per_loc  # type: ignore[attr-defined]

    def shadow_total_entries(self) -> int:
        """Current total shadow entries across all locations."""
        return self.shadow.total_entries()  # type: ignore[attr-defined]

    @abc.abstractmethod
    def metadata_entries(self) -> int:
        """Word entries of non-shadow metadata (clocks, bags, ...)."""


class NullObserver:
    """An observer that does nothing -- measures pure interpreter cost."""

    name = "none"

    def on_root(self, root: int) -> None:
        pass

    def on_fork(self, parent: int, child: int) -> None:
        pass

    def on_join(self, joiner: int, joined: int) -> None:
        pass

    def on_halt(self, task: int) -> None:
        pass

    def on_step(self, task: int) -> None:
        pass

    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        pass

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        pass


class EventTracer(NullObserver):
    """Records a human-readable trace of the event stream (debugging)."""

    name = "tracer"

    def __init__(self) -> None:
        self.trace: List[str] = []

    def on_root(self, root: int) -> None:
        self.trace.append(f"root {root}")

    def on_fork(self, parent: int, child: int) -> None:
        self.trace.append(f"fork {parent}->{child}")

    def on_join(self, joiner: int, joined: int) -> None:
        self.trace.append(f"join {joiner}<-{joined}")

    def on_halt(self, task: int) -> None:
        self.trace.append(f"halt {task}")

    def on_step(self, task: int) -> None:
        self.trace.append(f"step {task}")

    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        self.trace.append(f"read {task} {loc!r}")

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        self.trace.append(f"write {task} {loc!r}")

    def on_annotation(self, task: int, tag: str, data: Any = None) -> None:
        self.trace.append(f"@{tag} {task} {data!r}")
