"""Durable sessions: kill -9, resume, replay, and torn checkpoints.

The acceptance test for the fault-tolerance layer lives here: a serve
*subprocess* is SIGKILLed mid-stream (no drain, no final checkpoint,
no atexit), restarted on the same checkpoint directory, and the durable
client's automatic resume must end with **exactly** the race multiset
of an uninterrupted local replay.  Around it: duplicate-frame dedup,
sequence-gap refusal, ACK-driven replay-buffer trimming, fresh-client
resume, and the typed refusal of a corrupted checkpoint.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.engine.faults import ServerProcess, corrupt_flip, free_port
from repro.errors import ServeError
from repro.obs.registry import MetricsRegistry
from repro.serve import RaceClient, RemoteError, ServeConfig, ServerThread
from repro.serve import protocol as wire

from .conftest import RawConn, local_race_multiset, race_multiset

pytestmark = pytest.mark.serve


def make_server(tmp_path, registry=None, **kw) -> ServerThread:
    kw.setdefault("drain_timeout", 2.0)
    kw.setdefault("checkpoint_dir", str(tmp_path / "ckpts"))
    kw.setdefault("checkpoint_interval", 2)
    return ServerThread(
        ServeConfig(**kw),
        registry=registry if registry is not None else MetricsRegistry(),
    )


def counter_value(registry, name, **labels) -> float:
    for inst in registry.instruments():
        if inst.name == name and all(
            inst.labels.get(k) == v for k, v in labels.items()
        ):
            return inst.value
    return 0.0


class TestKillNineAcceptance:
    def test_sigkill_restart_resume_matches_local_replay(
        self, small_workload, tmp_path
    ):
        batch, _interner = small_workload
        expected = local_race_multiset(batch)
        pieces = list(batch.slices(512))
        kill_at = len(pieces) // 2
        ckdir = str(tmp_path / "ckpts")
        port = free_port()

        server = ServerProcess(port, ckdir, checkpoint_interval=2).start()
        try:
            with RaceClient(
                "127.0.0.1", port, session="accept-1",
                timeout=15.0, max_retries=8, retry_backoff=0.2,
            ) as client:
                for k, piece in enumerate(pieces):
                    if k == kill_at:
                        server.kill()
                        assert not server.alive()
                        server = ServerProcess(
                            port, ckdir, checkpoint_interval=2
                        ).start()
                    client.send_batch(piece)
                summary = client.finish()
                assert client.reconnects >= 1
        finally:
            server.terminate()
        assert race_multiset(summary.reports) == expected


class TestResumeInProcess:
    def _stream(self, client, batch, chunk=512):
        for piece in batch.slices(chunk):
            client.send_batch(piece)

    def test_durable_session_equals_local_replay(
        self, small_workload, tmp_path
    ):
        batch, _interner = small_workload
        with make_server(tmp_path) as srv:
            with RaceClient(
                "127.0.0.1", srv.port, session="plain-durable"
            ) as client:
                self._stream(client, batch)
                summary = client.finish()
        assert race_multiset(summary.reports) == local_race_multiset(batch)

    def test_fresh_client_resume_sees_checkpointed_races(
        self, small_workload, tmp_path
    ):
        """A brand-new client resuming the token gets the snapshot
        RACES frame for everything detected before the checkpoint."""
        batch, _interner = small_workload
        pieces = list(batch.slices(512))
        cut = len(pieces) // 2
        registry = MetricsRegistry()
        with make_server(tmp_path, registry=registry) as srv:
            c1 = RaceClient(
                "127.0.0.1", srv.port, session="fresh-resume"
            ).connect()
            for piece in pieces[:cut]:
                c1.send_batch(piece)
            # The background checkpoint races the handover; wait for it.
            ckpt = tmp_path / "ckpts" / "fresh-resume.ckpt"
            deadline = time.monotonic() + 10.0
            while not ckpt.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert ckpt.exists()
            # Vanish without BYE: the crash-shaped disconnect.
            c1._sock.close()
            c1._sock = None

            with RaceClient(
                "127.0.0.1", srv.port, session="fresh-resume"
            ) as c2:
                assert c2.durable_seq > 0  # the checkpoint was found
                # seq i covered pieces[i-1]; the client continues the
                # sequence, so only the tail past the checkpoint ships.
                for piece in pieces[c2.durable_seq:]:
                    c2.send_batch(piece)
                summary = c2.finish()
        assert race_multiset(summary.reports) == local_race_multiset(batch)
        assert counter_value(registry, "serve_restores_total") >= 1.0

    def test_duplicate_batches_are_skipped_idempotently(
        self, small_workload, tmp_path
    ):
        batch, _interner = small_workload
        rng = random.Random(3)
        registry = MetricsRegistry()
        with make_server(tmp_path, registry=registry) as srv:
            with RaceClient(
                "127.0.0.1", srv.port, session="dup-absorb"
            ) as client:
                duplicated = 0
                for piece in batch.slices(512):
                    client.send_batch(piece)
                    if client._unacked and rng.random() < 0.5:
                        seq = rng.choice(sorted(client._unacked))
                        client._send_payload(*client._unacked[seq])
                        duplicated += 1
                assert duplicated > 0
                summary = client.finish()
        assert race_multiset(summary.reports) == local_race_multiset(batch)
        assert counter_value(
            registry, "serve_duplicate_batches_total"
        ) == duplicated

    def test_resume_below_acknowledged_seq_refused(
        self, small_workload, tmp_path
    ):
        # A checkpoint the server ACKed is gone (as after a RELEASE BYE
        # whose reply was lost): the retry must fail typed, never
        # replay the unacked tail onto a fresh engine.
        batch, _interner = small_workload
        with make_server(tmp_path, checkpoint_interval=1) as srv:
            client = RaceClient(
                "127.0.0.1", srv.port, session="lost-ckpt"
            ).connect()
            self._stream(client, batch)
            while client._unacked:
                client._pump()
            (tmp_path / "ckpts" / "lost-ckpt.ckpt").unlink()
            client._sock.close()
            client._sock = None
            with pytest.raises(ServeError, match="below the acknowledged"):
                client.finish()

    def test_acks_trim_the_replay_buffer(self, small_workload, tmp_path):
        batch, _interner = small_workload
        with make_server(tmp_path, checkpoint_interval=1) as srv:
            with RaceClient(
                "127.0.0.1", srv.port, session="ack-trim"
            ) as client:
                total = 0
                for piece in batch.slices(512):
                    client.send_batch(piece)
                    total += 1
                client.finish()
                assert client.durable_seq > 0
                assert len(client._unacked) < total
                assert all(
                    seq > client.durable_seq for seq in client._unacked
                )

    def test_corrupt_checkpoint_refused_with_typed_error(
        self, small_workload, tmp_path
    ):
        batch, _interner = small_workload
        ckdir = tmp_path / "ckpts"
        with make_server(tmp_path) as srv:
            with RaceClient(
                "127.0.0.1", srv.port, session="doomed"
            ) as client:
                self._stream(client, batch)
                client.finish()
        ckpt = ckdir / "doomed.ckpt"
        assert ckpt.exists()  # graceful teardown checkpointed the tail
        corrupt_flip(str(ckpt), random.Random(5))
        with make_server(tmp_path) as srv:
            client = RaceClient("127.0.0.1", srv.port, session="doomed")
            with pytest.raises(RemoteError) as excinfo:
                client.connect()
            assert excinfo.value.code == wire.ERR_CHECKPOINT


class TestHostileSequencing:
    def test_sequence_gap_rejected(self, small_workload, tmp_path):
        batch, _interner = small_workload
        with make_server(tmp_path) as srv:
            with RawConn(srv.port) as conn:
                conn.send_frame(
                    wire.FRAME_RESUME, wire.encode_resume("gappy")
                )
                ftype, payload = conn.recv_frame()
                assert ftype == wire.FRAME_RESUME
                assert wire.decode_resume_reply(payload) == 0
                conn.send_frame(
                    wire.FRAME_BATCH,
                    wire.encode_batch_payload(batch, seq=5),
                )
                message = conn.expect_error(wire.ERR_PROTOCOL)
                assert "contiguity" in message

    def test_unsequenced_batch_rejected_on_durable_session(
        self, small_workload, tmp_path
    ):
        batch, _interner = small_workload
        with make_server(tmp_path) as srv:
            with RawConn(srv.port) as conn:
                conn.send_frame(
                    wire.FRAME_RESUME, wire.encode_resume("no-legacy")
                )
                conn.recv_frame()
                conn.send_frame(
                    wire.FRAME_BATCH,
                    wire.encode_batch_payload(batch, seq=0),
                )
                message = conn.expect_error(wire.ERR_PROTOCOL)
                assert "sequence" in message

    def test_resume_without_checkpoint_dir_rejected(self):
        with ServerThread(
            ServeConfig(drain_timeout=2.0), registry=MetricsRegistry()
        ) as srv:
            with RawConn(srv.port) as conn:
                conn.send_frame(
                    wire.FRAME_RESUME, wire.encode_resume("nowhere")
                )
                conn.expect_error(wire.ERR_CHECKPOINT)

    def test_resume_after_batches_rejected(self, small_workload, tmp_path):
        batch, _interner = small_workload
        with make_server(tmp_path) as srv:
            with RawConn(srv.port) as conn:
                conn.send_frame(
                    wire.FRAME_BATCH, wire.encode_batch_payload(batch)
                )
                conn.send_frame(
                    wire.FRAME_RESUME, wire.encode_resume("late")
                )
                conn.expect_error(wire.ERR_PROTOCOL)


class TestDurableConfig:
    def test_bad_checkpoint_interval_rejected(self, tmp_path):
        with pytest.raises(ServeError, match="interval"):
            ServerThread(
                ServeConfig(
                    checkpoint_dir=str(tmp_path), checkpoint_interval=0
                )
            ).start()

    def test_transport_failures_do_not_mask_remote_errors(self, tmp_path):
        # A bad token is rejected client-side before anything is sent.
        with pytest.raises(ServeError, match="session token"):
            RaceClient("127.0.0.1", 1, session="../traversal")
