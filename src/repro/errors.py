"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing structural violations of the paper's model from plain
usage mistakes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "StructureError",
    "TraversalError",
    "QueryPreconditionError",
    "GraphError",
    "NotATwoDimensionalLattice",
    "ProgramError",
    "DeadTaskError",
    "TraceError",
    "DetectorError",
    "WorkloadError",
    "CheckpointError",
    "ServeError",
    "ProtocolError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class StructureError(ReproError):
    """A program violated the structured fork-join discipline of Section 5.

    The paper restricts fork-join so that a task may only join its
    *immediate left neighbour* in the task line ``L . x . R`` (Figure 9).
    Attempting to join any other task, or to join a task that is still
    running, raises this error.
    """


class TraversalError(ReproError):
    """A traversal is not (delayed) non-separating.

    Raised by validity checkers when a supplied traversal fails to be
    topological, depth-first, or left-to-right (Definitions 1 and 3).
    """


class QueryPreconditionError(ReproError):
    """A ``Sup(x, t)`` query violated precondition (1) of Section 3.

    The queried vertex ``x`` must belong to the closure of the traversal
    prefix ending in ``t``; otherwise Theorem 1 does not apply and the
    answer would be meaningless.
    """


class GraphError(ReproError):
    """Malformed graph input (cycles, missing vertices, multi-arcs...)."""


class NotATwoDimensionalLattice(GraphError):
    """The input order is not a two-dimensional lattice.

    Raised when a realizer cannot be constructed (order dimension > 2) or
    when the poset lacks pairwise suprema/infima.
    """


class ProgramError(ReproError):
    """A monitored program is malformed (e.g. yields an unknown effect)."""


class DeadTaskError(ProgramError):
    """An operation was attempted on a task that already halted."""


class TraceError(ProgramError):
    """A trace container is not exactly what it claims to be.

    Raised by the trace reader (:mod:`repro.engine.tracefile`) on
    unknown or retired magic, unsupported versions, truncation, or
    headers that lie about section lengths.  Subclasses
    :class:`ProgramError` so existing ``except ProgramError`` call
    sites keep catching container corruption; new code should catch
    this type."""


class DetectorError(ReproError):
    """A race detector was driven with an event it cannot accept."""


class WorkloadError(ReproError):
    """A workload generator received inconsistent parameters."""


class CheckpointError(ReproError):
    """A checkpoint could not be written, or failed validation on load.

    Raised by :mod:`repro.engine.snapshot` whenever a checkpoint file is
    not exactly what it claims to be -- bad magic, unsupported version,
    CRC mismatch, truncation, or state that cannot be serialized.  A
    corrupted checkpoint is *never* silently loaded."""


class ServeError(ReproError):
    """A failure in the streaming ingest service (:mod:`repro.serve`)."""


class ProtocolError(ServeError):
    """A wire-protocol violation: bad magic, version mismatch, CRC
    failure, truncated or oversized frames, or a BATCH frame whose
    declared column lengths disagree with its payload size.

    ``code`` is the RPRSERVE error code a server answers the violation
    with; ``None`` means the generic ``ERR_PROTOCOL``."""

    def __init__(self, message: str = "", code: int | None = None) -> None:
        super().__init__(message)
        self.code = code
