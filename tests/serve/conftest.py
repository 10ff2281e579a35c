"""Shared fixtures for the serving-layer tests.

Workloads are captured once per session (the interpreter run is the
expensive part); each test builds its own server so configuration and
metrics stay isolated.
"""

from __future__ import annotations

import logging
import socket
from collections import Counter

import pytest

import repro.serve.cluster as cluster_module
from repro.engine.benchlib import build_workload, capture
from repro.engine.faults import ServerProcess
from repro.engine.ingest import BatchEngine
from repro.serve import protocol as wire


class _ExceptionRecords(logging.Handler):
    """Collects every log record that carries an exception."""

    def __init__(self) -> None:
        super().__init__()
        self.records = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.exc_info:
            self.records.append(record)


@pytest.fixture(autouse=True)
def no_leaked_handler_exceptions():
    """Fail any test whose front end let an exception escape to the
    event loop ("Unhandled exception in client_connected_cb", "Task
    exception was never retrieved"): every fault a session handler
    meets must end in a typed ERROR frame or a clean teardown."""
    watcher = _ExceptionRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(watcher)
    try:
        yield
    finally:
        logger.removeHandler(watcher)
    if watcher.records:
        pytest.fail(
            "asyncio logged a handler exception:\n" + "\n".join(
                watcher.format(r) for r in watcher.records
            ),
            pytrace=False,
        )


@pytest.fixture(scope="session")
def small_workload():
    """~4k events of racy racegen traffic: ``(batch, interner)``."""
    _events, batch, interner = capture(build_workload(5_000))
    return batch, interner


@pytest.fixture(scope="session")
def big_workload():
    """The acceptance-criteria workload: a 100k-access racegen
    program (~101k events)."""
    _events, batch, interner = capture(build_workload(100_000))
    return batch, interner


@pytest.fixture
def worker_window_1(monkeypatch):
    """Gateway workers that grant one credit at a time, so a link
    waits for its worker's credit before nearly every slice."""
    class TightWorker(ServerProcess):
        def __init__(self, *args, **kwargs):
            kwargs["extra_args"] = ("--credit-window", "1")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cluster_module, "ServerProcess", TightWorker)


def local_race_multiset(batch) -> Counter:
    """Replay ``batch`` through a fresh local BatchEngine; the race
    multiset every wire path must reproduce."""
    engine = BatchEngine()
    engine.ingest(batch)
    return race_multiset(engine.detector.races)


def race_multiset(reports) -> Counter:
    return Counter((r.task, r.loc, r.kind, r.prior_kind) for r in reports)


class RawConn:
    """A hand-rolled socket speaking raw RPRSERVE frames -- for the
    hostile-client tests the well-behaved :class:`RaceClient` cannot
    express."""

    def __init__(
        self,
        port: int,
        hello: bool = True,
        timeout: float = 10.0,
        backend: str = None,
        features: int = 0,
    ):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=timeout
        )
        self.credit = 0
        self.max_frame = wire.DEFAULT_MAX_FRAME
        self.backend = None
        self.features = 0
        self.workers = 1
        if hello:
            self.send(
                wire.encode_frame(
                    wire.FRAME_HELLO,
                    wire.encode_hello(backend=backend, features=features),
                )
            )
            ftype, payload = self.recv_frame()
            assert ftype == wire.FRAME_HELLO, wire.FRAME_NAMES[ftype]
            (self.credit, self.max_frame, self.backend, self.features,
             self.workers) = wire.decode_hello_reply(payload)

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def send_frame(self, ftype: int, payload: bytes = b"") -> None:
        self.send(wire.encode_frame(ftype, payload))

    def recv_exactly(self, n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            chunk = self.sock.recv(n - got)
            if not chunk:
                raise ConnectionError("peer closed mid-frame")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv_frame(self):
        head = self.recv_exactly(wire.FRAME_HEADER_SIZE)
        length, ftype, crc = wire.parse_frame_header(head)
        payload = self.recv_exactly(length) if length else b""
        wire.check_payload_crc(payload, crc)
        return ftype, payload

    def expect_error(self, code: int) -> str:
        """Skip CREDIT/RACES frames until an ERROR arrives; assert its
        code and return the server's message."""
        while True:
            ftype, payload = self.recv_frame()
            if ftype in (wire.FRAME_CREDIT, wire.FRAME_RACES):
                continue
            assert ftype == wire.FRAME_ERROR, wire.FRAME_NAMES[ftype]
            got, message = wire.decode_error(payload)
            assert got == code, (
                f"expected {wire.ERROR_NAMES[code]}, got "
                f"{wire.ERROR_NAMES.get(got, got)}: {message}"
            )
            return message

    def expect_bye(self):
        """Skip CREDIT/RACES frames until the BYE reply arrives; return
        its ``(events, races)`` summary."""
        while True:
            ftype, payload = self.recv_frame()
            if ftype in (wire.FRAME_CREDIT, wire.FRAME_RACES):
                continue
            assert ftype == wire.FRAME_BYE, wire.FRAME_NAMES[ftype]
            return wire.decode_bye_summary(payload)

    def expect_eof(self) -> None:
        assert self.sock.recv(1) == b""

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "RawConn":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
