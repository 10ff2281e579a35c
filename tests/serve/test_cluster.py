"""Unit tests for the multi-node gateway (:mod:`repro.serve.cluster`).

Negotiation first (the HELLO worker-count field, the typed refusals),
then routing exactness (gateway-sharded detection equals a serial
local replay), then migration
under kill (SIGKILL a worker mid-stream; the respawn/RESUME/replay
machinery must deliver the identical race multiset), and
teardown (a finished session's worker checkpoints are released, and no
worker process outlives its gateway, however its start ends), and the
worker links on the gateway's loop: routing never leaves the loop
thread, and a link awaiting its worker's credit survives that worker's
SIGKILL and the gateway's shutdown.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
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
from repro.serve import (
    ClusterConfig,
    ClusterThread,
    RaceClient,
    TransportError,
)
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


def on_credit_wait(monkeypatch, hook):
    """Call ``hook(link)`` on the gateway's loop each time a worker
    link is about to wait for its worker's credit."""
    send_payload = cluster_module._WorkerLink._send_payload

    async def waiting_send_payload(link, ftype, payload):
        if link.credit <= 0:
            hook(link)
        await send_payload(link, ftype, payload)

    monkeypatch.setattr(
        cluster_module._WorkerLink, "_send_payload", waiting_send_payload
    )


class TestLinkCredit:
    """The gateway's worker links run on its event loop."""

    def test_routing_runs_on_the_loop_thread(
        self, small_workload, monkeypatch
    ):
        batch, _interner = small_workload
        threads = []
        split = cluster_module.split_batch

        def recording_split(piece, n):
            threads.append(threading.get_ident())
            return split(piece, n)

        monkeypatch.setattr(cluster_module, "split_batch", recording_split)
        with ClusterThread(
            ClusterConfig(workers=2), registry=MetricsRegistry()
        ) as cluster:
            with RaceClient("127.0.0.1", cluster.port) as client:
                client.send_batches(batch, batch_size=512)
                client.finish()
            loop_thread = cluster._thread.ident
        assert len(threads) == -(-len(batch) // 512)
        assert set(threads) == {loop_thread}

    def test_each_routed_batch_observes_both_histograms(
        self, small_workload
    ):
        batch, _interner = small_workload
        with ClusterThread(
            ClusterConfig(workers=2), registry=MetricsRegistry()
        ) as cluster:
            for size in (256, 1024):
                with RaceClient("127.0.0.1", cluster.port) as client:
                    client.send_batches(batch, batch_size=size)
                    client.finish()
            metrics = cluster.cluster._m
            routed = metrics.batches.value
            assert routed == -(-len(batch) // 256) + -(-len(batch) // 1024)
            assert metrics.route_seconds.count == routed
            assert metrics.credit_wait.count == routed
            assert metrics.route_seconds.sum > 0

    def test_link_credit_waits_stall_the_client(
        self, small_workload, worker_window_1
    ):
        # Each slice waits for its worker's credit, and a client with
        # a window of 4 keeps batches queued at the gateway meanwhile:
        # at a high-water mark of 1 that withholds the client's grants.
        batch, _interner = small_workload
        with ClusterThread(
            ClusterConfig(workers=2, credit_window=4, queue_high_water=1),
            registry=MetricsRegistry(),
        ) as cluster:
            with RaceClient("127.0.0.1", cluster.port) as client:
                client.send_batches(batch, batch_size=256)
                summary = client.finish()
            metrics = cluster.cluster._m
            assert metrics.credit_wait.sum > 0
            assert metrics.credit_stalls.value > 0
            assert 0 < metrics.queue_depth_max.value <= 4
        assert race_multiset(summary.reports) == local_race_multiset(batch)

    def test_kill_worker_while_link_awaits_credit_is_exact(
        self, small_workload, worker_window_1, monkeypatch
    ):
        batch, _interner = small_workload
        local = local_race_multiset(batch)
        pieces = list(batch.slices(128))
        seen = {"stopped": False, "killed_in_wait": None}

        def hook(link):
            if (
                seen["stopped"] or not link.session.endswith("-s1")
                or link.batches_sent < len(pieces) // 2
            ):
                return
            # A stopped worker grants nothing more, so once the link
            # spends any credit already in flight it waits for good.
            seen["stopped"] = True
            os.kill(cluster.cluster.workers[1].pid, signal.SIGSTOP)

            def kill():
                seen["killed_in_wait"] = link._waiter is not None
                cluster.kill_worker(1)

            asyncio.get_running_loop().call_later(0.3, kill)

        on_credit_wait(monkeypatch, hook)
        with ClusterThread(
            ClusterConfig(workers=2, checkpoint_interval=2),
            registry=MetricsRegistry(),
        ) as cluster:
            with RaceClient(
                "127.0.0.1", cluster.port, timeout=30.0
            ) as client:
                for piece in pieces:
                    client.send_batch(piece)
                summary = client.finish()
            respawns = cluster.cluster._m.respawns[1].value
        assert seen["killed_in_wait"] is True
        assert respawns >= 1
        assert summary.events == len(batch)
        assert race_multiset(summary.reports) == local

    def test_shutdown_while_link_awaits_credit(
        self, small_workload, worker_window_1, monkeypatch
    ):
        # A stopped worker leaves its link waiting for credit; the
        # gateway's shutdown cancels that wait and tears the session
        # down with nothing logged by asyncio (the autouse fixture) and
        # no worker left running.
        batch, _interner = small_workload
        waiting = threading.Event()
        stopped = []

        def hook(link):
            if (
                stopped or not link.session.endswith("-s1")
                or link.batches_sent < 4
            ):
                return
            pid = cluster.cluster.workers[1].pid
            stopped.append(pid)
            os.kill(pid, signal.SIGSTOP)
            waiting.set()

        on_credit_wait(monkeypatch, hook)
        before = len(faults._started_pids)
        cluster = ClusterThread(
            ClusterConfig(workers=2, drain_timeout=0.5),
            registry=MetricsRegistry(),
        )
        cluster.start()
        client = RaceClient("127.0.0.1", cluster.port, timeout=30.0)
        client.connect()
        errors = []

        def stream():
            try:
                client.send_batches(batch, batch_size=128)
                client.finish()
            except Exception as exc:  # the gateway went away under it
                errors.append(exc)

        streamer = threading.Thread(target=stream, daemon=True)
        streamer.start()
        stopper = threading.Thread(target=cluster.stop, daemon=True)
        try:
            assert waiting.wait(30)
            # past any credit already in flight, the link waits for good
            time.sleep(0.3)
            (session,) = cluster.cluster._sessions.values()
            assert session.links[1]._waiter is not None
            stopper.start()
            # the session is torn down while its worker is still
            # stopped; only then may the worker run its SIGTERM
            deadline = time.monotonic() + 20
            while cluster.cluster._sessions and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not cluster.cluster._sessions
        finally:
            for pid in stopped:
                os.kill(pid, signal.SIGCONT)
            if stopper.ident is None:
                stopper.start()  # a failed scenario still stops its workers
        stopper.join(30)
        streamer.join(30)
        client.close()
        assert not stopper.is_alive() and not streamer.is_alive()
        assert errors  # the stream could not finish
        started = faults._started_pids[before:]
        assert started
        assert not set(started) & set(faults.surviving_servers())

    def test_stopped_worker_bounds_a_link_write(
        self, big_workload, monkeypatch
    ):
        # A worker stopped while its link still holds credit stops
        # reading, so the link's socket buffers fill before its credit
        # runs out: the write must give up within the link timeout and
        # the link migrate once the worker is killed and respawned.
        # The link's send buffer is shrunk so a few slices fill it.
        batch, _interner = big_workload
        local = local_race_multiset(batch)
        monkeypatch.setattr(cluster_module, "_LINK_TIMEOUT", 2.0)
        link_class = cluster_module._WorkerLink
        connect, send_payload = link_class.connect, link_class._send_payload
        seen = {"stopped": False, "stalled": []}

        async def small_buffer_connect(link):
            await connect(link)
            link._writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 16384
            )

        async def stopping_send_payload(link, ftype, payload):
            if link.session.endswith("-s1") and not seen["stopped"]:
                seen["stopped"] = True
                os.kill(cluster.cluster.workers[1].pid, signal.SIGSTOP)
            try:
                await send_payload(link, ftype, payload)
            except TransportError as exc:
                if "write stalled" in str(exc) and not seen["stalled"]:
                    seen["stalled"].append(link.credit)
                    cluster.kill_worker(1)
                raise

        monkeypatch.setattr(link_class, "connect", small_buffer_connect)
        monkeypatch.setattr(
            link_class, "_send_payload", stopping_send_payload
        )
        with ClusterThread(
            ClusterConfig(workers=2), registry=MetricsRegistry()
        ) as cluster:
            try:
                with RaceClient(
                    "127.0.0.1", cluster.port, timeout=30.0
                ) as client:
                    client.send_batches(batch, batch_size=16384)
                    summary = client.finish()
            finally:
                if not seen["stalled"]:  # never leave a worker stopped
                    cluster.kill_worker(1)
            respawns = cluster.cluster._m.respawns[1].value
        (credit_left,) = seen["stalled"]
        assert credit_left > 0  # the write stalled, not a credit wait
        assert respawns >= 1
        assert race_multiset(summary.reports) == local
