"""Unit tests for the multi-node gateway (:mod:`repro.serve.cluster`).

Negotiation first (the HELLO worker-count field, the typed refusals),
then routing exactness (gateway-sharded detection equals a serial
local replay, for raw and compressed sessions), then migration
under kill (SIGKILL a worker mid-stream; the respawn/RESUME/replay
machinery must deliver the identical race multiset), and
teardown (a finished session's worker checkpoints are released, and no
worker process outlives its gateway, however its start ends).
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.serve.cluster as cluster_module
from repro.engine import faults
from repro.engine.batch import BatchBuilder
from repro.errors import WorkloadError
from repro.forkjoin import fork, join, write
from repro.forkjoin.interpreter import run
from repro.obs.registry import MetricsRegistry
from repro.serve import ClusterConfig, ClusterThread, RaceClient
from repro.serve import protocol as wire

from .conftest import RawConn, local_race_multiset, race_multiset

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def cluster2():
    """One 2-worker gateway for the whole module (sessions are
    isolated; the kill tests build their own clusters)."""
    with ClusterThread(
        ClusterConfig(workers=2, checkpoint_interval=2),
        registry=MetricsRegistry(),
    ) as cluster:
        yield cluster


class TestNegotiation:
    def test_v5_reply_carries_worker_count(self, cluster2):
        with RawConn(cluster2.port) as conn:
            assert conn.workers == 2
            conn.send_frame(wire.FRAME_BYE)

    def test_client_resume_refused_typed(self, cluster2):
        with RawConn(cluster2.port) as conn:
            conn.send_frame(
                wire.FRAME_RESUME, wire.encode_resume("through-gateway")
            )
            message = conn.expect_error(wire.ERR_CHECKPOINT)
            assert "gateway" in message

    def test_unknown_backend_refused(self, cluster2):
        # The retired depa backend is as unknown as any other name.
        for name in ("warp9", "depa"):
            with RawConn(cluster2.port, hello=False) as conn:
                conn.send_frame(
                    wire.FRAME_HELLO, wire.encode_hello(backend=name)
                )
                conn.expect_error(wire.ERR_BACKEND)

    def test_lattice2d_request_granted(self, cluster2):
        client = RaceClient(
            "127.0.0.1", cluster2.port, backend="lattice2d"
        ).connect()
        try:
            assert client.negotiated_backend == "lattice2d"
        finally:
            client.close()

    def test_client_exposes_worker_count(self, cluster2):
        client = RaceClient("127.0.0.1", cluster2.port).connect()
        try:
            assert client.negotiated_workers == 2
        finally:
            client.close()


class TestRouting:
    def test_matches_local_replay(self, cluster2, small_workload):
        batch, _interner = small_workload
        local = local_race_multiset(batch)
        with RaceClient("127.0.0.1", cluster2.port) as client:
            client.send_batches(batch, batch_size=1024)
            summary = client.finish()
        assert summary.events == len(batch)
        assert race_multiset(summary.reports) == local

    def test_compressed_sessions_agree(self, cluster2, small_workload):
        batch, _interner = small_workload
        local = local_race_multiset(batch)
        with RaceClient(
            "127.0.0.1", cluster2.port, compress=True
        ) as client:
            client.send_batches_compressed(batch, batch_size=2048)
            summary = client.finish()
        assert summary.events == len(batch)
        assert race_multiset(summary.reports) == local

    def test_routing_counters_partition_events(self, small_workload):
        batch, _interner = small_workload
        registry = MetricsRegistry()
        with ClusterThread(
            ClusterConfig(workers=2), registry=registry
        ) as cluster:
            with RaceClient("127.0.0.1", cluster.port) as client:
                client.send_batches(batch, batch_size=1024)
                client.finish()
            metrics = cluster.cluster._m
            routed = sum(c.value for c in metrics.routed)
            lifecycle = metrics.lifecycle.value
            assert metrics.events.value == len(batch)
            # every event counts exactly once: an access against its
            # owner worker, a replicated lifecycle event once
            assert routed + lifecycle == len(batch)
            assert all(c.value > 0 for c in metrics.routed)


def shared_writes(n: int):
    """A root and a forked child each write the same ``n`` locations:
    ``n`` races, split evenly between two workers."""

    def child(self):
        for i in range(n):
            yield write(f"x{i}")

    def main(self):
        c = yield fork(child)
        for i in range(n):
            yield write(f"x{i}")
        yield join(c)

    builder = BatchBuilder()
    run(main, observers=[builder])
    return builder.batch


class TestRaceStream:
    def test_many_races_in_small_slices_match_local_replay(self, cluster2):
        # 3,000 races, more than one 2,048-report RACES chunk, arriving
        # from both workers in 64-event slices: each worker's list
        # grows while the other's does too, and the merged stream must
        # neither lose nor duplicate a report.
        batch = shared_writes(3000)
        local = local_race_multiset(batch)
        orders = []
        for _ in range(2):
            with RaceClient("127.0.0.1", cluster2.port) as client:
                client.send_batches(batch, batch_size=64)
                summary = client.finish()
            assert summary.races == sum(local.values()) == 3000
            assert race_multiset(summary.reports) == local
            orders.append([
                (r.task, r.loc, r.kind, r.prior_kind)
                for r in summary.reports
            ])
        assert orders[0] == orders[1]  # the merged order is deterministic


class TestMigration:
    def test_kill_worker_mid_stream_is_exact(self, small_workload):
        batch, _interner = small_workload
        local = local_race_multiset(batch)
        registry = MetricsRegistry()
        with ClusterThread(
            ClusterConfig(workers=2, checkpoint_interval=2),
            registry=registry,
        ) as cluster:
            pieces = list(batch.slices(256))
            client = RaceClient(
                "127.0.0.1", cluster.port, timeout=30.0
            ).connect()
            try:
                for k, piece in enumerate(pieces):
                    if k == len(pieces) // 2:
                        cluster.kill_worker(1)
                    client.send_batch(piece)
                summary = client.finish()
            finally:
                client.close()
            respawns = sum(
                c.value for c in cluster.cluster._m.respawns
            )
        assert race_multiset(summary.reports) == local
        assert summary.events == len(batch)
        assert respawns >= 1

    def test_kill_after_races_streamed_is_exact(self):
        # The killed worker's link has already streamed races that its
        # checkpoint covers; right after the RESUME it holds none of
        # them until the snapshot RACES frame is read, and the merged
        # stream must wait for it instead of shrinking.
        batch = shared_writes(3000)
        local = local_race_multiset(batch)
        with ClusterThread(
            ClusterConfig(workers=2, checkpoint_interval=2),
            registry=MetricsRegistry(),
        ) as cluster:
            pieces = list(batch.slices(64))
            client = RaceClient(
                "127.0.0.1", cluster.port, timeout=30.0
            ).connect()
            try:
                for k, piece in enumerate(pieces):
                    if k == len(pieces) * 4 // 5:
                        cluster.kill_worker(1)
                    client.send_batch(piece)
                summary = client.finish()
            finally:
                client.close()
        assert race_multiset(summary.reports) == local


class TestTeardown:
    def test_finished_sessions_leave_no_checkpoints(
        self, small_workload, tmp_path
    ):
        # Worker links checkpoint mid-stream, and end with a RELEASE
        # BYE: once every session finished, nothing is left on disk.
        batch, _interner = small_workload
        with ClusterThread(
            ClusterConfig(
                workers=2, checkpoint_dir=str(tmp_path),
                checkpoint_interval=2,
            ),
            registry=MetricsRegistry(),
        ) as cluster:
            for _ in range(3):
                with RaceClient("127.0.0.1", cluster.port) as client:
                    client.send_batches(batch, batch_size=256)
                    client.finish()
        # Stopping the gateway terminates (and waits for) the workers,
        # so every teardown has run by now.
        assert sorted((tmp_path / "worker-0").iterdir()) == []
        assert sorted((tmp_path / "worker-1").iterdir()) == []


class TestSupervision:
    """Every worker a gateway starts is gone once the gateway is."""

    @staticmethod
    def _survivors(before):
        started = faults._started_pids[before:]
        assert started, "the scenario started no worker"
        return set(started) & set(faults.surviving_servers())

    def test_worker_start_up_timeout_leaves_no_process(self, monkeypatch):
        class NeverReady(faults.ServerProcess):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.startup_timeout = 0.0

        monkeypatch.setattr(cluster_module, "ServerProcess", NeverReady)
        before = len(faults._started_pids)
        gateway = ClusterThread(
            ClusterConfig(workers=2), registry=MetricsRegistry()
        )
        with pytest.raises(WorkloadError, match="not accepting"):
            gateway.start()
        assert not self._survivors(before)

    def test_cancelled_supervision_mid_respawn_leaves_no_process(
        self, monkeypatch
    ):
        respawning = threading.Event()
        respawned = threading.Event()

        class SlowRespawn(faults.ServerProcess):
            slow = False

            def start(self):
                if not SlowRespawn.slow:
                    return super().start()
                respawning.set()
                time.sleep(0.5)  # the gateway stops meanwhile
                try:
                    return super().start()
                finally:
                    respawned.set()

        monkeypatch.setattr(cluster_module, "ServerProcess", SlowRespawn)
        before = len(faults._started_pids)
        gateway = ClusterThread(
            ClusterConfig(workers=1), registry=MetricsRegistry()
        )
        gateway.start()
        SlowRespawn.slow = True
        gateway.kill_worker(0)
        assert respawning.wait(10)
        gateway.stop()  # cancels the supervisor inside the respawn
        assert respawned.wait(30)
        # guard the scenario: the supervisor never saw its respawn land
        assert gateway.cluster._m.respawns[0].value == 0
        assert not self._survivors(before)
