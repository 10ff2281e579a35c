"""Run workloads under detectors and collect comparable statistics.

The harness owns the one honest way to compare detectors: run the *same*
program body under each detector (and once with no observer at all for
the interpreter baseline), then report space and time side by side.
Program bodies must be replayable -- running them twice must produce the
same event stream -- which all :mod:`repro.workloads` builders guarantee
by owning their RNG state.

Each measured run populates a :class:`~repro.obs.registry.MetricsRegistry`
(a fresh one per run unless the caller passes one in): the run's wall
time and interpreter figures as set-gauges, the detector's live
accounting as pull-gauges.  The returned
:class:`~repro.bench.metrics.DetectorStats` is built *from that
registry*, so a benchmark table and a ``--metrics`` export of the same
run can never disagree.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.bench.metrics import DetectorStats
from repro.detectors import DETECTOR_FACTORIES
from repro.detectors.base import Detector
from repro.obs.bind import bind_detector
from repro.obs.registry import MetricsRegistry
from repro.forkjoin.interpreter import run

__all__ = ["DETECTOR_FACTORIES", "measure", "compare_detectors"]


def measure(
    body: Callable,
    *args: Any,
    detector: Optional[Detector] = None,
    base_seconds: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
) -> DetectorStats:
    """Run ``body`` once under ``detector`` and collect statistics.

    Pass ``detector=None`` for the interpreter-only baseline.  The
    run's numbers land in ``registry`` (fresh per call by default; pass
    one in to accumulate several runs side by side, e.g. for a single
    export) and the returned stats are read back from it.
    """
    if registry is None:
        registry = MetricsRegistry()
    name = detector.name if detector is not None else "none"
    labels = {"detector": name}
    observers = [detector] if detector is not None else []
    start = time.perf_counter()
    ex = run(body, *args, observers=observers)
    elapsed = time.perf_counter() - start
    registry.gauge(
        "run_tasks", "tasks the workload created", labels=labels
    ).set(ex.task_count)
    registry.gauge(
        "run_ops", "interpreter operations executed", labels=labels
    ).set(ex.op_count)
    registry.gauge(
        "run_wall_seconds", "wall-clock seconds of the monitored run",
        labels=labels,
    ).set(elapsed)
    if detector is None:
        return DetectorStats.from_registry(
            registry, "none", base_seconds=elapsed
        )
    bind_detector(registry, detector, labels)
    return DetectorStats.from_registry(
        registry, name, base_seconds=base_seconds
    )


def compare_detectors(
    body: Callable,
    *args: Any,
    detectors: Optional[Sequence[str]] = None,
    include_baseline: bool = True,
) -> List[DetectorStats]:
    """Run the same program under several detectors.

    ``detectors`` is a list of names from :data:`DETECTOR_FACTORIES`
    (defaults to the structure-generic trio lattice2d / vectorclock /
    fasttrack).  When ``include_baseline`` is set the interpreter-only
    run is measured first and used to compute overheads.
    """
    names = list(
        detectors
        if detectors is not None
        else ("lattice2d", "vectorclock", "fasttrack")
    )
    base: Optional[float] = None
    out: List[DetectorStats] = []
    if include_baseline:
        stats = measure(body, *args, detector=None)
        base = stats.wall_seconds
        out.append(stats)
    for name in names:
        det = DETECTOR_FACTORIES[name]()
        out.append(measure(body, *args, detector=det, base_seconds=base))
    return out
