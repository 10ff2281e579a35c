"""Race detectors: the paper's 2D detector and every baseline.

All detectors consume the interpreter's event stream through the common
:class:`~repro.detectors.base.Detector` interface and report
:class:`~repro.core.reports.RaceReport` objects, so the benchmark
harness can swap them freely:

================  ===========================================  =========================
detector           applicability                                space per location
================  ===========================================  =========================
``Lattice2D``      any structured fork-join (2D lattices)       Θ(1)  (this paper)
``DePa``           spawn-sync streams (false races on grids)    Θ(1)  (array-native, DePa-style)
``SPBags``         spawn-sync programs only (SP graphs)         Θ(1)  (Feng-Leiserson [12])
``ESPBags``        async-finish programs only                   Θ(1)  (Raman et al. [18])
``OffsetSpan``     spawn-sync programs only                     Θ(nesting depth) (Mellor-Crummey '91)
``VectorClock``    anything (generic happens-before)            Θ(n)  (DJIT+-style, [13], sparse)
``DenseVectorClock``  anything                                  Θ(n)  dense numpy clocks (textbook)
``FastTrack``      anything (epoch-optimised vector clocks)     Θ(1)..Θ(n) adaptive [13]
``SHB``            anything; *predicts* racing pairs across     Θ(width) frontier windows
                   feasible reorderings (docs/PREDICTION.md)
``Naive``          anything (explicit access sets + DFS)        Θ(accesses)
``oracle``         offline, from recorded events                exact ground truth
================  ===========================================  =========================
"""

from typing import Callable, Dict

from repro.detectors.base import Detector, NullObserver, EventTracer
from repro.detectors.depa import DePaDetector
from repro.detectors.lattice2d import Lattice2DDetector
from repro.detectors.vector_clock import VectorClockDetector
from repro.detectors.vector_clock_dense import DenseVectorClockDetector
from repro.detectors.fasttrack import FastTrackDetector
from repro.detectors.spbags import SPBagsDetector
from repro.detectors.espbags import ESPBagsDetector
from repro.detectors.naive import NaiveDetector
from repro.detectors.offsetspan import OffsetSpanDetector
from repro.detectors.shb import SHBDetector
from repro.detectors.offline2d import (
    OfflineRace,
    detect_races_on_lattice,
    visit_order,
)
from repro.detectors.oracle import (
    RacingPair,
    detector_is_sound,
    exact_races,
    exact_races_of_graph,
    first_report_is_precise,
    oracle_race_pairs,
)

#: name -> zero-argument factory, for CLI and benchmark parametrisation
DETECTOR_FACTORIES: Dict[str, Callable[[], Detector]] = {
    "lattice2d": Lattice2DDetector,
    "depa": DePaDetector,
    "vectorclock": VectorClockDetector,
    "vectorclock-dense": DenseVectorClockDetector,
    "fasttrack": FastTrackDetector,
    "spbags": SPBagsDetector,
    "espbags": ESPBagsDetector,
    "offsetspan": OffsetSpanDetector,
    "shb": SHBDetector,
    "naive": NaiveDetector,
}

__all__ = [
    "DETECTOR_FACTORIES",
    "Detector",
    "NullObserver",
    "EventTracer",
    "Lattice2DDetector",
    "DePaDetector",
    "VectorClockDetector",
    "DenseVectorClockDetector",
    "FastTrackDetector",
    "SPBagsDetector",
    "ESPBagsDetector",
    "NaiveDetector",
    "OffsetSpanDetector",
    "SHBDetector",
    "OfflineRace",
    "detect_races_on_lattice",
    "visit_order",
    "RacingPair",
    "exact_races",
    "exact_races_of_graph",
    "oracle_race_pairs",
    "detector_is_sound",
    "first_report_is_precise",
]
