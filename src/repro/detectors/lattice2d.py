"""The paper's detector behind the uniform :class:`Detector` interface.

:class:`~repro.core.detector.RaceDetector2D` is the primary public API;
this wrapper adapts it to the benchmark harness so it can be compared
head-to-head with the baselines.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.detector import RaceDetector2D
from repro.detectors.base import Detector

__all__ = ["Lattice2DDetector"]


class Lattice2DDetector(Detector):
    """Suprema-based detector for 2D-lattice task graphs (this paper)."""

    name = "lattice2d"

    def __init__(self, **kwargs: Any) -> None:
        super().__init__()
        self.engine = RaceDetector2D(**kwargs)
        self.races = self.engine.races  # shared list; reports land here

    @property
    def shadow(self):
        """The engine's shadow columns (location-level space accounting)."""
        return self.engine.shadow

    def on_root(self, root: int) -> None:
        self.engine.on_root(root)

    def on_fork(self, parent: int, child: int) -> None:
        self.engine.on_fork(parent, child)

    def on_join(self, joiner: int, joined: int) -> None:
        self.engine.on_join(joiner, joined)

    def on_halt(self, task: int) -> None:
        self.engine.on_halt(task)

    def on_step(self, task: int) -> None:
        self.engine.on_step(task)

    def on_read(self, task: int, loc: Hashable, label: str = "") -> None:
        self.engine.on_read(task, loc, label)

    def on_write(self, task: int, loc: Hashable, label: str = "") -> None:
        self.engine.on_write(task, loc, label)

    def metadata_entries(self) -> int:
        return self.engine.metadata_entries()
