"""Controlled race injection.

Benchmarks and soundness tests need workloads whose race status is
*known by construction*: exactly one injected racing pair on a fresh
location, everything else untouched.  :func:`with_injected_race` wraps
any root body so that, at the very end of the execution, the root forks
two sibling tasks that both write one fresh location and only then
joins them -- the writes are unordered by construction, so the wrapped
program races iff the original did, plus exactly the injected pair.

:func:`conflicting_pair_program` is the minimal two-task racer used for
microbenchmarks.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.forkjoin.program import (
    Body,
    TaskHandle,
    fork as _fork,
    join as _join,
    read as _read,
    write as _write,
)

__all__ = [
    "with_injected_race",
    "conflicting_pair_program",
    "bulk_access_program",
    "loop_program",
    "INJECTED_LOC",
]

#: the location every injected race is on
INJECTED_LOC = ("__injected_race__",)


def _racer(self: TaskHandle, tag: str) -> Iterator:
    yield _write(INJECTED_LOC, label=f"injected-{tag}")


def with_injected_race(body: Body) -> Body:
    """Wrap ``body`` so the execution additionally contains exactly one
    guaranteed racing pair (two unordered sibling writes to
    :data:`INJECTED_LOC`), appended after the original body completes.

    The injected location is fresh, so the original program's verdicts
    are unaffected; a sound detector must now always report something.
    """

    def wrapped(self: TaskHandle, *args: Any):
        result = yield from body(self, *args)
        first = yield _fork(_racer, "first")
        # Fork-first: `first` has already run and halted; fork the
        # second racer, whose write is unordered with the first's.
        second = yield _fork(_racer, "second")
        yield _join(second)
        yield _join(first)
        return result

    wrapped.__name__ = f"{getattr(body, '__name__', 'body')}+race"
    return wrapped


def bulk_access_program(
    rounds: int = 10,
    fanout: int = 4,
    accesses_per_task: int = 25,
    *,
    racy_rounds: Iterable[int] = (),
    n_shared: int = 4,
) -> Body:
    """A heavy, SP-shaped access workload with race status known by
    construction -- the engine benchmarks' standard traffic generator.

    Each round forks ``fanout`` children and joins them back-to-back
    (fork-all-then-join-all, so the stream is legal spawn-sync and the
    SP-only baselines stay sound on it).  Every child performs
    ``accesses_per_task`` accesses: writes to its private locations
    interleaved with reads of a small shared read-only pool -- all
    race-free.  Rounds listed in ``racy_rounds`` additionally have their
    first two children write one common per-round location, seeding
    exactly one racing pair per listed round and nothing else.

    Total accesses: ``rounds * fanout * accesses_per_task`` plus two per
    racy round.
    """
    racy = frozenset(racy_rounds)

    def worker(self: TaskHandle, round_i: int, child_i: int) -> Iterator:
        for k in range(accesses_per_task):
            if k % 3 == 2:
                yield _read(("shared", (round_i + child_i + k) % n_shared))
            else:
                yield _write(("private", round_i, child_i, k))
        if round_i in racy and child_i < 2:
            yield _write(("racy", round_i), label=f"racer-{child_i}")

    def main(self: TaskHandle) -> Iterator:
        for round_i in range(rounds):
            handles = []
            for child_i in range(fanout):
                handles.append((yield _fork(worker, round_i, child_i)))
            # Fork-first semantics: children already ran; joins must
            # consume immediate left neighbours, i.e. reverse fork order.
            for handle in reversed(handles):
                yield _join(handle)

    main.__name__ = f"bulk_{rounds}x{fanout}x{accesses_per_task}"
    return main


def loop_program(
    fanout: int = 4,
    loops: int = 100,
    pattern: int = 64,
    *,
    n_shared: int = 4,
    racy: bool = False,
) -> Body:
    """A deliberately repetitive, block-structured workload (the CLI's
    ``submit --racegen-loops`` knob).

    The root forks ``fanout`` workers back-to-back and joins them in
    reverse.  Each worker runs ``loops`` iterations of one fixed
    ``pattern``-length access run whose locations depend only on the
    position *within* the pattern -- every iteration emits exactly the
    same ``(op, task, loc)`` columns, so a worker's whole run is a
    stream with period ``pattern``: any fixed-width slicing whose width
    ``pattern`` divides cuts bit-identical interior blocks.

    The accesses are race-free by construction: each worker writes only
    its own private locations and reads a shared read-only pool.  With
    ``racy=True`` the first two workers additionally write one common
    location once, after their loops, seeding exactly one racing pair.

    Total accesses: ``fanout * loops * pattern`` (plus two if racy).
    """

    def worker(self: TaskHandle, wid: int) -> Iterator:
        for _ in range(loops):
            for k in range(pattern):
                if k % 4 == 3:
                    yield _read(("shared", k % n_shared))
                else:
                    yield _write(("private", wid, k))
        if racy and wid < 2:
            yield _write(("racy",), label=f"loop-racer-{wid}")

    def main(self: TaskHandle) -> Iterator:
        handles = []
        for wid in range(fanout):
            handles.append((yield _fork(worker, wid)))
        for handle in reversed(handles):
            yield _join(handle)

    main.__name__ = f"loops_{fanout}x{loops}x{pattern}"
    return main


def conflicting_pair_program(
    loc: Hashable = INJECTED_LOC, *, ordered: bool = False
) -> Body:
    """The minimal program with one write-write pair on ``loc``.

    ``ordered=True`` joins the child before the root's write (no race);
    ``ordered=False`` writes while the child is merely halted (race).
    """

    def child(self: TaskHandle):
        yield _write(loc, label="child-write")

    def main(self: TaskHandle):
        c = yield _fork(child)
        if ordered:
            yield _join(c)
            yield _write(loc, label="root-write")
        else:
            yield _write(loc, label="root-write")
            yield _join(c)

    return main
