"""CLI coverage for ``repro serve`` / ``repro submit``.

Everything runs in-process against a loopback :class:`ServerThread`,
so the tests exercise exactly the code paths of the installed entry
point -- including the documented exit codes: 3 when the server cannot
bind, 4 when the client cannot connect, 5 when the conversation breaks
protocol.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.cli import main
from repro.engine.benchlib import build_workload, capture
from repro.engine.tracefile import write_trace
from repro.obs.registry import MetricsRegistry
from repro.serve import (
    EXIT_BIND_FAILURE,
    EXIT_CONNECT_FAILURE,
    EXIT_PROTOCOL_FAILURE,
    ServeConfig,
    ServerThread,
)

pytestmark = pytest.mark.serve


@pytest.fixture
def server():
    with ServerThread(
        ServeConfig(drain_timeout=2.0), registry=MetricsRegistry()
    ) as srv:
        yield srv


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestSubmit:
    def test_racegen_reports_races(self, server, capsys):
        rc = main([
            "submit", "--racegen", "2000",
            "--port", str(server.port), "--batch-size", "256",
        ])
        assert rc == 1  # races found
        out = capsys.readouterr().out
        assert "race report(s)" in out
        assert "racegen[2000]" in out

    def test_trace_file_round_trips(self, server, tmp_path, capsys):
        _events, batch, interner = capture(build_workload(2000))
        path = str(tmp_path / "workload.rpr2trc")
        write_trace(path, batch, interner)
        rc = main(["submit", path, "--port", str(server.port)])
        assert rc == 1
        assert f"submitted {len(batch)} events" in capsys.readouterr().out

    def test_ship_locations_prints_source_locations(self, server, capsys):
        rc = main([
            "submit", "--racegen", "2000", "--port", str(server.port),
            "--ship-locations", "--max-races", "3",
        ])
        assert rc == 1
        assert "race report(s)" in capsys.readouterr().out

    def test_sessions_runs_the_load_generator(self, server, capsys):
        rc = main([
            "submit", "--racegen", "1000", "--port", str(server.port),
            "--sessions", "3", "--batch-size", "128",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "3 sessions" in out and "events/sec" in out

    def test_needs_a_source(self, capsys):
        assert main(["submit"]) == 2
        assert "trace file, --racegen" in capsys.readouterr().err


class TestExitCodes:
    def test_connect_failure_is_4(self, capsys):
        rc = main([
            "submit", "--racegen", "10", "--port", str(free_port()),
        ])
        assert rc == EXIT_CONNECT_FAILURE
        assert "error:" in capsys.readouterr().err

    def test_protocol_failure_is_5(self, capsys):
        """A listener that answers HELLO with garbage bytes."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def bad_server():
            conn, _ = listener.accept()
            with conn:
                conn.recv(4096)  # swallow the HELLO
                conn.sendall(b"\xff" * 32)  # not a frame header

        thread = threading.Thread(target=bad_server, daemon=True)
        thread.start()
        try:
            rc = main([
                "submit", "--racegen", "10", "--port", str(port),
                "--timeout", "5",
            ])
        finally:
            thread.join(timeout=5)
            listener.close()
        assert rc == EXIT_PROTOCOL_FAILURE
        assert "error:" in capsys.readouterr().err

    def test_bind_failure_is_3(self, capsys):
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            port = squatter.getsockname()[1]
            rc = main(["serve", "--port", str(port)])
        assert rc == EXIT_BIND_FAILURE
        assert "cannot bind" in capsys.readouterr().err


class TestParser:
    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.port == 7521
        assert args.credit_window == 8
        assert args.metrics_port is None

    def test_submit_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["submit", "t.rpr2trc"])
        assert args.trace == "t.rpr2trc"
        assert args.sessions == 1
        assert args.batch_size == 8192
