"""One contract for hostile location ids, on every ingest path.

An access location id must lie in ``[0, limit)``.  ``limit`` is the
size of the location table where there is one (an engine's interner, a
session's shipped table); offline, where there is none, it is
:data:`LOCATION_ID_LIMIT`; on a session that ships none it is the
session's width (one past the largest id it admitted) plus the batch's
access count.  A batch that breaks the bound is rejected whole, before
any of its rows reaches a detector, with a typed error naming the first
bad row: :class:`~repro.errors.DetectorError` offline and
``ERR_MALFORMED_BATCH`` on the wire, with the same message.
"""

from __future__ import annotations

import pytest

from repro.core.detector import RaceDetector2D
from repro.engine.batch import (
    LOCATION_ID_LIMIT,
    OP_FORK,
    OP_HALT,
    OP_READ,
    OP_WRITE,
    EventBatch,
    LocationInterner,
)
from repro.engine.ingest import BatchEngine
from repro.engine.snapshot import state_digest
from repro.errors import DetectorError
from repro.obs.registry import MetricsRegistry
from repro.serve import protocol as wire
from repro.serve.client import RaceClient

from .conftest import RawConn
from .test_server import make_front_end

pytestmark = pytest.mark.serve


def _race_at(lid: int) -> list:
    """Rows whose two writes to ``lid`` race (task 1 is forked)."""
    return [
        (OP_FORK, 0, 1), (OP_WRITE, 1, lid), (OP_HALT, 1, -1),
        (OP_WRITE, 0, lid),
    ]


#: a prefix that races: if any row of a rejected batch were applied,
#: the detector would hold a report
RACY_PREFIX = _race_at(0)

#: the table size the shared cases run under on every path
TABLE = 512


def _cases(limit):
    """case -> (rows, the bad row), under the bound ``limit``."""
    return {
        "negative id": (
            RACY_PREFIX + [(OP_READ, 0, -5), (OP_WRITE, 0, 2)], 4,
        ),
        "id equal to the bound": (
            RACY_PREFIX + [(OP_WRITE, 0, limit), (OP_READ, 0, 1)], 4,
        ),
        "bad id on the last row": (
            RACY_PREFIX
            + [(OP_READ, 0, k % 300) for k in range(200)]
            + [(OP_WRITE, 0, (1 << 31) - 1)],
            204,
        ),
    }


CASES = sorted(_cases(0))


def _batch(rows) -> EventBatch:
    batch = EventBatch()
    for row in rows:
        batch.append(*row)
    return batch


def _table(size: int) -> LocationInterner:
    return LocationInterner.from_locations(range(size))


def _state(engine):
    """Everything a rejected batch must leave as it was.  The predict
    detector subclasses RaceDetector2D, but ``state_digest`` refuses
    it, so its task state is listed here."""
    det = engine.detector
    if type(det) is RaceDetector2D:
        return state_digest(engine)
    return (det.op_index, list(det.races), det.thread_count,
            list(det._visited), list(det._halted), list(det._stack),
            list(det._left), list(det._uf._parent),
            list(det._reads), list(det._writes))


ENGINES = {
    "lattice2d": lambda **kw: BatchEngine(registry=MetricsRegistry(), **kw),
    "predict": lambda **kw: BatchEngine(
        predict=True, registry=MetricsRegistry(), **kw
    ),
}

#: bound -> (its limit, the engine keywords that set it)
BOUNDS = {
    "constant": (LOCATION_ID_LIMIT, {}),
    "table": (TABLE, {"interner": _table(TABLE)}),
}


def _offline_message(case, bound="table") -> str:
    limit, kw = BOUNDS[bound]
    rows, bad_row = _cases(limit)[case]
    with pytest.raises(DetectorError) as info:
        BatchEngine(registry=MetricsRegistry(), **kw).ingest(_batch(rows))
    message = str(info.value)
    assert f"at batch row {bad_row} " in message
    return message


@pytest.mark.parametrize("bound", sorted(BOUNDS))
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("path", sorted(ENGINES))
def test_engines_reject_the_batch_whole(path, case, bound):
    limit, kw = BOUNDS[bound]
    rows, _bad_row = _cases(limit)[case]
    engine = ENGINES[path](**kw)
    # a first, clean batch: the rejected one must leave its state be
    engine.ingest(_batch([(OP_WRITE, 0, 7), (OP_READ, 0, 8)]))
    before = _state(engine)
    with pytest.raises(DetectorError) as info:
        engine.ingest(_batch(rows))
    assert str(info.value) == _offline_message(case, bound)
    assert _state(engine) == before


def _refusal(conn) -> str:
    """Read up to the session's ERROR; no RACES frame may come first."""
    while True:
        ftype, payload = conn.recv_frame()
        assert ftype != wire.FRAME_RACES
        if ftype == wire.FRAME_ERROR:
            break
    code, message = wire.decode_error(payload)
    assert code == wire.ERR_MALFORMED_BATCH
    return message


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("front_end", ["server", "cluster"])
def test_sessions_reject_the_batch_whole(front_end, case):
    """A served or gateway session that ships a table answers
    ``ERR_MALFORMED_BATCH`` with the offline message, before any row
    reaches an engine: the racy prefix streams no report."""
    rows, _bad_row = _cases(TABLE)[case]
    with make_front_end(front_end) as srv, RawConn(srv.port) as conn:
        conn.send_frame(
            wire.FRAME_BATCH,
            wire.encode_batch_payload(_batch(rows), range(TABLE)),
        )
        message = _refusal(conn)
    assert message == (
        _offline_message(case) + f": the session table has {TABLE} entries"
    )


@pytest.mark.parametrize("front_end", ["server", "cluster"])
def test_tableless_session_bound_follows_its_width(front_end):
    """A session that ships no table admits ids below its width plus
    the batch's accesses: a dense client always fits, and one access to
    a high id is refused whole instead of growing the columns."""
    dense = [(OP_WRITE, 0, k) for k in range(10)]
    with make_front_end(front_end) as srv, RawConn(srv.port) as conn:
        conn.send_frame(wire.FRAME_BATCH, wire.encode_batch_payload(
            _batch(dense)
        ))
        # width 10, three accesses: 12 is the largest id admitted
        conn.send_frame(wire.FRAME_BATCH, wire.encode_batch_payload(
            _batch([(OP_READ, 0, 12), (OP_READ, 0, 0), (OP_READ, 0, 1)])
        ))
        conn.send_frame(wire.FRAME_BATCH, wire.encode_batch_payload(
            _batch([(OP_READ, 0, 2), (OP_WRITE, 0, 16), (OP_READ, 0, 3)])
        ))
        message = _refusal(conn)
    assert message == (
        "location id 16 at batch row 1 is outside [0, 16): a session "
        "that ships no table admits ids below 13, one past its largest "
        "so far, plus the batch's 3 accesses"
    )
    with make_front_end(front_end) as srv, RawConn(srv.port) as conn:
        conn.send_frame(wire.FRAME_BATCH, wire.encode_batch_payload(
            _batch([(OP_WRITE, 0, LOCATION_ID_LIMIT - 1)])
        ))
        assert _refusal(conn).startswith(
            f"location id {LOCATION_ID_LIMIT - 1} at batch row 0 is "
            "outside [0, 1)"
        )


def _race_locs(port, batches) -> list:
    """Stream ``(batch, table delta)`` pairs; the reported locations."""
    with RawConn(port) as conn:
        for batch, table in batches:
            conn.send_frame(wire.FRAME_BATCH, wire.encode_batch_payload(
                batch, table
            ))
        conn.send_frame(wire.FRAME_BYE, wire.encode_bye(False))
        locs = []
        while True:
            ftype, payload = conn.recv_frame()
            assert ftype != wire.FRAME_ERROR, wire.decode_error(payload)
            if ftype == wire.FRAME_RACES:
                locs += [r.loc for r in wire.decode_races(payload)[1]]
            elif ftype == wire.FRAME_BYE:
                return sorted(locs)


def test_shipped_table_alone_bounds_a_served_session():
    """A shipped table past :data:`LOCATION_ID_LIMIT` admits every id
    it covers: the constant bounds only table-less offline engines."""
    top = LOCATION_ID_LIMIT
    half = top // 2
    with make_front_end("server") as srv:
        locs = _race_locs(srv.port, [
            (_batch(_race_at(top)[:1]), range(half)),
            (_batch(_race_at(top)[1:]), range(half, top + 1)),
        ])
    assert locs == [top]


def test_gateway_forwards_the_bound_its_workers_need():
    """A gateway admits a session's ids under the session's bound, and
    each worker under its own: a shipped table whose first access is
    its last id, and a table-less client whose ids were not handed out
    in first-touch order, both reach their worker and race there."""
    with make_front_end("cluster") as srv:
        assert _race_locs(srv.port, [
            (_batch(_race_at(999)), range(1000)),
        ]) == [999]
        evens = [(OP_WRITE, 0, k) for k in (0, 2, 4, 6, 0, 2, 4, 6)]
        assert _race_locs(srv.port, [
            (_batch(evens), ()),
            (_batch(_race_at(9) + [(OP_READ, 0, 0)]), ()),
        ]) == [9]


@pytest.mark.parametrize("front_end", ["server", "cluster"])
def test_dense_tableless_session_past_the_constant(front_end):
    """The width bound admits a client that hands out ids densely in
    first-touch order however many locations it touches (the gateway
    renumbers each worker's share densely too)."""
    top = LOCATION_ID_LIMIT
    with make_front_end(front_end) as srv:
        client = RaceClient("127.0.0.1", srv.port).connect()
        try:
            for start in range(0, top, 1 << 16):
                client.send_batch(_batch(
                    [(OP_WRITE, 0, k) for k in range(start, start + (1 << 16))]
                ))
            client.send_batch(_batch(_race_at(top)))
            summary = client.finish()
        finally:
            client.close()
    assert summary.events == top + 4
    assert [r.loc for r in summary.reports] == [top]
