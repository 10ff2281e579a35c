"""Property sweep: the lattice2d batch kernel is the per-event detector.

:func:`repro.engine.ingest._ingest_fast` answers accesses over the
detector's own shadow columns, with the thread checks hoisted once per
run of accesses by one task.  On the perfbench shapes (spawn-sync bulk
rounds, random lattices, grids) and at every batch size it must leave
exactly what the per-event :class:`~repro.core.detector.RaceDetector2D`
leaves: the same reports down to ``op_index``, the same ``op_index``,
the same shadow total and peak and the same ``R``/``W`` columns under
the same slot map, with either union-find ablation knob on or off.  With the epoch
cache off the union-find counters and the (all-empty) ``E`` column must
match too.

A drawn stream may end in a hostile row -- an unknown, negative or
halted task opening a run, id -1 right after a halt, a run resuming
after its task halted, a fork-id mismatch, a join refusal -- cut in at
a drawn point.  Both paths must then raise the same message and leave
the same state behind.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import RaceDetector2D
from repro.engine.batch import OP_FORK, OP_HALT, OP_JOIN, OP_READ, OP_WRITE
from repro.engine.ingest import BatchEngine
from repro.errors import DetectorError
from repro.obs.registry import MetricsRegistry
from tests.detectors.test_shb import drive, make_batch
from tests.engine.test_conformance import BATCH_SIZES, capture
from tests.engine.test_property_predict import SHAPES

pytestmark = pytest.mark.engine

X = 0  # the location hostile accesses touch


def _hostile(kind, det):
    """``(rows, message)`` appending the hostile row ``kind`` to a
    stream that left the per-event detector ``det`` in its state, or
    ``None`` when that state has no task the row needs."""
    n = det.thread_count
    live = [t for t in range(n) if not det._halted[t]]
    halted = [t for t in range(n) if det._halted[t]]
    joined = [t for t in range(n) if det._joined[t]]
    unjoined = [t for t in halted if not det._joined[t]]
    t = live[-1] if live else None
    needs = {
        "unknown task opens a run": t is not None,
        "negative task opens a run": t is not None,
        "halted task opens a run": t is not None and bool(halted),
        "run resumes after its task halts": t is not None,
        "negative id right after a halt": t is not None,
        "bad id right after a fork": t is not None,
        "fork id mismatch": t is not None,
        "join of an unknown task": t is not None,
        "join of a joined task": t is not None and bool(joined),
        "join of a running task": len(live) >= 2,
        "join by a halted task": bool(halted) and bool(unjoined),
        "halt of a halted task": bool(halted),
    }
    if not needs[kind]:
        return None
    if kind == "unknown task opens a run":
        return [(OP_WRITE, t, X), (OP_READ, n, X)], f"unknown thread id {n}"
    if kind == "negative task opens a run":
        return [(OP_READ, t, X), (OP_WRITE, -1, X)], "unknown thread id -1"
    if kind == "halted task opens a run":
        h = halted[0]
        return [(OP_READ, t, X), (OP_WRITE, h, X)], f"thread {h} already halted"
    if kind == "run resumes after its task halts":
        return (
            [(OP_READ, t, X), (OP_HALT, t, -1), (OP_READ, t, X)],
            f"thread {t} already halted",
        )
    if kind == "negative id right after a halt":
        return (
            [(OP_READ, t, X), (OP_HALT, t, -1), (OP_WRITE, -1, X)],
            "unknown thread id -1",
        )
    if kind == "bad id right after a fork":
        return (
            [(OP_READ, t, X), (OP_FORK, t, n), (OP_WRITE, n + 1, X)],
            f"unknown thread id {n + 1}",
        )
    if kind == "fork id mismatch":
        return (
            [(OP_WRITE, t, X), (OP_FORK, t, n + 99)],
            f"fork id mismatch: interpreter says {n + 99}, detector "
            f"allocated {n}",
        )
    if kind == "join of an unknown task":
        return [(OP_READ, t, X), (OP_JOIN, t, n)], f"unknown thread id {n}"
    if kind == "join of a joined task":
        j = joined[0]
        return [(OP_READ, t, X), (OP_JOIN, t, j)], f"thread {j} joined twice"
    if kind == "join of a running task":
        other = live[0]
        return (
            [(OP_WRITE, t, X), (OP_JOIN, t, other)],
            f"joining running thread {other}",
        )
    if kind == "join by a halted task":
        h = halted[0]
        return [(OP_JOIN, h, unjoined[0])], f"thread {h} already halted"
    h = halted[-1]
    return [(OP_HALT, h, -1)], f"thread {h} already halted"


HOSTILE_KINDS = (
    "unknown task opens a run",
    "negative task opens a run",
    "halted task opens a run",
    "run resumes after its task halts",
    "negative id right after a halt",
    "bad id right after a fork",
    "fork id mismatch",
    "join of an unknown task",
    "join of a joined task",
    "join of a running task",
    "join by a halted task",
    "halt of a halted task",
)


def _state(det, exact):
    """Everything the kernel must reproduce; ``exact`` adds what only
    the epoch-cache-free kernel keeps bit-identical."""
    sh = det.shadow
    out = (
        det.races, det.op_index, sh.total, sh.peak_entries_per_loc,
        sh.slot, sh.R, sh.W, det._visited, det._halted, det._joined,
        det._uf._rank, det._uf._label,
    )
    if exact:
        uf = det._uf
        out += (
            sh.E, uf._parent, uf.find_count, uf.union_count, uf.hop_count,
        )
    return out


def _run(rows, config, feed):
    """Drive a fresh detector; return it and the error it raised."""
    det = RaceDetector2D(**config)
    det.spawn_root()
    try:
        feed(det, rows)
    except DetectorError as exc:
        return det, str(exc)
    return det, None


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_equals_per_event_lattice2d(shape, data):
    """Same reports, ``op_index``, accounting and columns as the
    per-event detector, wherever the stream is sliced and whatever
    hostile row ends it."""
    batch = capture(data.draw(SHAPES[shape]))[0]
    rows = list(zip(batch.ops, batch.a, batch.b))
    config = {
        "epoch_cache": data.draw(st.booleans(), label="epoch_cache"),
        "path_compression": data.draw(st.booleans(), label="compress"),
        "link_by_rank": data.draw(st.booleans(), label="by_rank"),
    }
    exact = not config["epoch_cache"]
    message = None
    kind = data.draw(st.none() | st.sampled_from(HOSTILE_KINDS), label="kind")
    if kind is not None:
        cut = data.draw(st.integers(0, len(rows)), label="cut")
        probe, _ = _run(rows[:cut], config, drive)
        hostile = _hostile(kind, probe)
        if hostile is not None:
            suffix, message = hostile
            rows = rows[:cut] + suffix

    referee, raised = _run(rows, config, drive)
    assert raised == message
    expected = _state(referee, exact)
    for size in BATCH_SIZES:

        def feed(det, rows):
            engine = BatchEngine(det, registry=MetricsRegistry())
            engine.ingest_all(make_batch(rows).slices(size))

        det, raised = _run(rows, config, feed)
        assert raised == message, size
        assert _state(det, exact) == expected, size


@pytest.mark.parametrize("compress", [True, False])
def test_write_books_the_repeated_walk_of_a_deep_prior(compress):
    """A write answers the check and the fold of ``Sup(w, t)`` with one
    walk; the counters must still book the per-event detector's second
    walk, also from a prior two links below its root (link-by-rank off,
    so the joins chain the forest)."""
    rows = [
        (OP_FORK, 0, 1), (OP_FORK, 1, 2), (OP_WRITE, 2, X), (OP_HALT, 2, -1),
        (OP_JOIN, 1, 2), (OP_HALT, 1, -1), (OP_JOIN, 0, 1), (OP_WRITE, 0, X),
    ]
    config = {
        "epoch_cache": False, "path_compression": compress,
        "link_by_rank": False,
    }
    referee, _ = _run(rows, config, drive)

    def feed(det, rows):
        BatchEngine(det, registry=MetricsRegistry()).ingest(make_batch(rows))

    det, _ = _run(rows, config, feed)
    assert referee._uf.hop_count > referee._uf.find_count  # a deep walk
    assert _state(det, True) == _state(referee, True)
