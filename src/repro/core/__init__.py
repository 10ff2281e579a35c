"""Core algorithms of the paper.

* :mod:`repro.core.unionfind` -- labeled disjoint-set forests (S1).
* :mod:`repro.core.traversal` -- traversal model and validity checks (S2).
* :mod:`repro.core.suprema` -- offline suprema, Figure 5 (S3).
* :mod:`repro.core.delayed` -- delayed/relaxed suprema, Figure 8 (S4).
* :mod:`repro.core.detector` -- the 2D race detector, Figure 6 (S5).
* :mod:`repro.core.predict` -- race prediction over the same task state.
* :mod:`repro.core.shadow` -- shadow memory with space accounting.
* :mod:`repro.core.reports` -- race reports.
"""

from repro.core.unionfind import IntUnionFind, UnionFind
from repro.core.suprema import SupremaWalker
from repro.core.delayed import DelayedSupremaWalker
from repro.core.detector import RaceDetector2D
from repro.core.predict import PredictDetector2D
from repro.core.reports import AccessKind, RaceReport

__all__ = [
    "IntUnionFind",
    "UnionFind",
    "SupremaWalker",
    "DelayedSupremaWalker",
    "RaceDetector2D",
    "PredictDetector2D",
    "AccessKind",
    "RaceReport",
]
