"""The fault-injection harness itself: corruption helpers, the
killable serve subprocess, and one full soak round.

These are *serve*-marked alongside the engine mark: the subprocess
tests exercise the CLI entry and the wire client end to end.
"""

from __future__ import annotations

import json
import random
import socket
import subprocess
import sys

import pytest

from repro.engine import faults
from repro.errors import WorkloadError

pytestmark = [pytest.mark.engine, pytest.mark.serve]


class TestCorruptionHelpers:
    def test_truncate_shortens_in_place(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(bytes(range(200)))
        keep = faults.corrupt_truncate(str(path), random.Random(1))
        assert 1 <= keep < 200
        assert path.stat().st_size == keep
        assert path.read_bytes() == bytes(range(keep))

    def test_truncate_refuses_tiny_files(self, tmp_path):
        path = tmp_path / "tiny"
        path.write_bytes(b"x")
        with pytest.raises(WorkloadError, match="too small"):
            faults.corrupt_truncate(str(path), random.Random(1))

    def test_flip_damages_without_resizing(self, tmp_path):
        path = tmp_path / "blob"
        original = bytes(range(256))
        path.write_bytes(original)
        offsets = faults.corrupt_flip(str(path), random.Random(2), flips=4)
        assert len(offsets) == 4
        damaged = path.read_bytes()
        assert len(damaged) == len(original) and damaged != original

    def test_corrupt_file_is_seeded(self, tmp_path):
        for seed in (3, 4):
            a, b = tmp_path / f"a{seed}", tmp_path / f"b{seed}"
            a.write_bytes(bytes(range(128)))
            b.write_bytes(bytes(range(128)))
            ma = faults.corrupt_file(str(a), random.Random(seed))
            mb = faults.corrupt_file(str(b), random.Random(seed))
            assert ma == mb and a.read_bytes() == b.read_bytes()


class TestServerProcess:
    def test_lifecycle_and_sigkill(self, tmp_path):
        port = faults.free_port()
        with faults.ServerProcess(port, str(tmp_path / "ck")) as server:
            assert server.alive() and server.pid is not None
            with socket.create_connection(("127.0.0.1", port), timeout=5):
                pass
            server.kill()
            assert not server.alive()
            # Restarting on the same port works (SIGKILL freed it).
            server2 = faults.ServerProcess(port, str(tmp_path / "ck")).start()
            assert server2.alive()
            server2.terminate()
            assert not server2.alive()

    def test_double_start_rejected(self, tmp_path):
        port = faults.free_port()
        with faults.ServerProcess(port, str(tmp_path / "ck")) as server:
            with pytest.raises(WorkloadError, match="already running"):
                server.start()


class TestSoak:
    def test_one_round_end_to_end(self, tmp_path):
        lines = []
        stats = faults.run_soak(
            0.01,
            seed=20150613,
            accesses=1_500,
            batch_size=256,
            checkpoint_interval=2,
            log=lines.append,
        )
        assert stats["rounds"] == 1
        assert stats["kills"] == 1
        assert stats["corruptions_rejected"] == 1
        assert stats["plain_sessions"] == 1
        assert stats["events"] > 0 and stats["races"] > 0
        assert lines and "ok" in lines[0]

    def test_module_entry_emits_stats_json(self, tmp_path):
        out = tmp_path / "stats.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.engine.faults",
                "--seconds", "0.01", "--seed", "7",
                "--accesses", "1500", "--batch-size", "256",
                "--json", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stdout.strip().splitlines()[-1])
        assert stats["rounds"] >= 1 and stats["seed"] == 7
        assert json.loads(out.read_text()) == stats

    def test_entry_fails_when_a_serve_process_outlives_it(
        self, tmp_path, monkeypatch, capsys
    ):
        """A soak whose rounds pass but which leaves a serve process
        running exits 1 and names its pid."""
        leaked = []

        def leaky_soak(*args, **kwargs):
            leaked.append(faults.ServerProcess(
                faults.free_port(), str(tmp_path / "ck")
            ).start())
            return {"rounds": 1}

        monkeypatch.setattr(faults, "run_soak", leaky_soak)
        try:
            assert faults.main(["--seconds", "0"]) == 1
            err = capsys.readouterr().err
            assert "outlived the soak" in err and str(leaked[0].pid) in err
        finally:
            for server in leaked:
                server.kill()
        assert leaked[0].pid not in faults.surviving_servers()
