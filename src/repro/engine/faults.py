"""Fault injection for the checkpoint/resume machinery.

Everything here is *seeded*: a failing soak run prints its seed and
replays exactly.  Three families of faults, matching the recovery
guarantees documented in ``docs/FAULT_TOLERANCE.md``:

* **Torn checkpoints** -- :func:`corrupt_truncate` / :func:`corrupt_flip`
  damage a checkpoint file the way a crashed writer or bad disk would;
  :func:`repro.engine.snapshot.load_checkpoint` must refuse with
  :class:`~repro.errors.CheckpointError`, never load silently.
* **Process kills** -- :class:`ServerProcess` runs ``repro-race serve``
  as a real subprocess and :meth:`ServerProcess.kill` delivers SIGKILL,
  the no-cleanup crash.  A durable client resuming against a restarted
  server must end with exactly the race multiset of an uninterrupted
  local replay.
* **Worker kills** (the ``kill_worker`` leg) -- the same workload is
  streamed through a 2-worker :class:`~repro.serve.cluster.RaceCluster`
  gateway and a random *engine worker* is SIGKILLed at a random batch
  boundary mid-stream; the supervisor respawns it, the gateway's links
  RESUME their ``(session, shard)`` checkpoints and replay unacked
  slices, and the client's final race multiset must again equal the
  uninterrupted local replay (migration under kill, see
  ``docs/SCALE_OUT.md``).
* **Duplicated frames** -- :func:`resend_unacked` replays a batch the
  server may already hold; sequence-number dedup must absorb it.
* **A plain session after the kill** -- every round also replays the
  workload over a second, non-durable session against the same,
  possibly restarted server and requires the exact local race
  multiset: a restart must leave fresh sessions' verdicts untouched.

:func:`run_soak` drives randomized rounds of all three for a bounded
wall-clock budget; ``python -m repro.engine.faults`` is the entry the
scheduled soak workflow runs.
"""

from __future__ import annotations

import collections
import os
import random
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CheckpointError, WorkloadError

__all__ = [
    "corrupt_truncate",
    "corrupt_flip",
    "corrupt_file",
    "resend_unacked",
    "free_port",
    "ServerProcess",
    "surviving_servers",
    "run_soak",
    "main",
]


# -- file corruption ----------------------------------------------------------


def corrupt_truncate(path: str, rng: random.Random) -> int:
    """Truncate ``path`` at a random interior byte (a torn write).

    Returns the new length.  The cut point is strictly inside the file
    so the result is damaged, not merely empty-but-valid.
    """
    size = os.path.getsize(path)
    if size < 2:
        raise WorkloadError(f"{path} is too small to truncate ({size} bytes)")
    keep = rng.randrange(1, size)
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return keep


def corrupt_flip(path: str, rng: random.Random, flips: int = 8) -> List[int]:
    """Flip ``flips`` random bits in ``path`` (bit rot / bad sector).

    Returns the damaged byte offsets.
    """
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if not data:
        raise WorkloadError(f"{path} is empty")
    offsets = []
    for _ in range(flips):
        k = rng.randrange(len(data))
        data[k] ^= 1 << rng.randrange(8)
        offsets.append(k)
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    return offsets


def corrupt_file(path: str, rng: random.Random) -> str:
    """Apply one randomly chosen corruption mode; returns its name."""
    mode = rng.choice(("truncate", "flip"))
    if mode == "truncate":
        corrupt_truncate(path, rng)
    else:
        corrupt_flip(path, rng)
    return mode


# -- frame-level faults -------------------------------------------------------


def resend_unacked(client, rng: random.Random) -> Optional[int]:
    """Deliberately resend one retained batch of a durable client.

    The duplicate reaches the server with a sequence number at or
    below what it already enqueued, so it must be skipped idempotently
    (and the spent credit handed straight back).  Returns the seq that
    was duplicated, or None if nothing is retained.
    """
    if not client._unacked:
        return None
    seq = rng.choice(sorted(client._unacked))
    ftype, payload = client._unacked[seq]
    client._with_retry(lambda: client._send_payload(ftype, payload))
    return seq


# -- a killable serve subprocess ----------------------------------------------


#: pid of every serve process a :class:`ServerProcess` started in this
#: interpreter, kept after the object is gone: an orphan is exactly a
#: process whose handle was lost
_started_pids: List[int] = []


def surviving_servers() -> List[int]:
    """Pids of serve processes this interpreter started that are still
    running (a finished but unreaped one is reaped here, not counted)."""
    alive = []
    for pid in _started_pids:
        try:
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                alive.append(pid)
        except ChildProcessError:
            pass  # already reaped
    return alive


def free_port() -> int:
    """Bind-and-release to find a free loopback TCP port."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """``repro-race serve`` as a killable subprocess.

    Unlike :class:`~repro.serve.server.ServerThread`, this is a real
    OS process: :meth:`kill` delivers SIGKILL, so no drain, no final
    checkpoint, no atexit -- the crash the durability layer exists to
    survive.  Use as a context manager; exiting terminates whatever is
    still running.  A :meth:`start` that fails (the process exits early
    or misses ``startup_timeout``) kills and reaps the process first.
    ``log_path`` captures the process's stdout/stderr (appending; the
    gateway's worker logs), ``None`` discards them.
    """

    def __init__(
        self,
        port: int,
        checkpoint_dir: str,
        *,
        checkpoint_interval: int = 4,
        extra_args: Tuple[str, ...] = (),
        startup_timeout: float = 20.0,
        log_path: Optional[str] = None,
    ) -> None:
        self.port = port
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = checkpoint_interval
        self.extra_args = tuple(extra_args)
        self.startup_timeout = startup_timeout
        self.log_path = log_path
        self._proc: Optional[subprocess.Popen] = None
        self._log: Any = None

    def start(self) -> "ServerProcess":
        if self._proc is not None and self._proc.poll() is None:
            raise WorkloadError("server process already running")
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out: Any = subprocess.DEVNULL
        if self.log_path is not None:
            self._log = out = open(self.log_path, "ab")
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", str(self.port),
                "--checkpoint-dir", self.checkpoint_dir,
                "--checkpoint-interval", str(self.checkpoint_interval),
                *self.extra_args,
            ],
            stdout=out,
            stderr=out,
            env=env,
        )
        _started_pids.append(self._proc.pid)
        try:
            self._wait_ready()
        except BaseException:
            self.kill()  # a start that fails leaves no process behind
            raise
        return self

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + self.startup_timeout
        while time.monotonic() < deadline:
            if self._proc is not None and self._proc.poll() is not None:
                raise WorkloadError(
                    f"serve process exited with {self._proc.returncode} "
                    f"before accepting connections"
                )
            try:
                with socket.create_connection(
                    ("127.0.0.1", self.port), timeout=0.25
                ):
                    return
            except OSError:
                time.sleep(0.05)
        raise WorkloadError(
            f"serve process not accepting on port {self.port} within "
            f"{self.startup_timeout}s"
        )

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def kill(self) -> None:
        """SIGKILL: the process gets no chance to clean up."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
        self._close_log()

    def terminate(self, timeout: float = 10.0) -> None:
        """SIGTERM: the server drains gracefully."""
        if self._proc is not None and self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close_log()

    def _close_log(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.terminate()
        return False


# -- the soak driver ----------------------------------------------------------


def _race_multiset(reports) -> "collections.Counter":
    return collections.Counter(
        (r.task, r.loc, r.kind, r.prior_kind) for r in reports
    )


def _local_expected(batch):
    from repro.engine.ingest import BatchEngine

    engine = BatchEngine()
    engine.ingest(batch)
    return _race_multiset(engine.detector.races)


#: the fault legs :func:`run_soak` knows how to drive
SOAK_LEGS = ("kill_server", "kill_worker")


def run_soak(
    seconds: float = 60.0,
    *,
    seed: int = 0,
    accesses: int = 20_000,
    batch_size: int = 2048,
    checkpoint_interval: int = 4,
    legs: Tuple[str, ...] = SOAK_LEGS,
    log_dir: Optional[str] = None,
    log=print,
) -> Dict[str, Any]:
    """Randomized kill/corrupt/duplicate rounds for ``seconds`` of
    wall clock; raises :class:`AssertionError` on the first divergence.

    Each ``kill_server`` round builds a seeded racegen workload,
    streams it through a durable session against a subprocess server,
    SIGKILLs the server at a random batch boundary, restarts it, lets
    the client resume, and requires the final race multiset to equal
    an uninterrupted local replay.  Between rounds it also tears
    checkpoints apart on disk and asserts the typed refusal.

    Each ``kill_worker`` round streams the same workload through a
    2-worker gateway (:class:`~repro.serve.cluster.RaceCluster`) and
    SIGKILLs a random *engine worker* at the same batch boundary; the
    respawn/RESUME/replay machinery must deliver the identical
    multiset.  ``legs`` selects which families run; ``log_dir``
    captures the cluster workers' stdout/stderr for CI artifacts.
    """
    import tempfile

    from repro.engine.benchlib import build_workload, capture
    from repro.engine.ingest import BatchEngine
    from repro.engine.snapshot import load_checkpoint, save_checkpoint
    from repro.serve.client import RaceClient
    from repro.obs.registry import MetricsRegistry
    from repro.serve.cluster import ClusterConfig, ClusterThread

    for leg in legs:
        if leg not in SOAK_LEGS:
            raise WorkloadError(
                f"unknown soak leg {leg!r}; expected a subset of "
                f"{SOAK_LEGS}"
            )
    if not legs:
        raise WorkloadError("need at least one soak leg")
    rng = random.Random(seed)
    stats: Dict[str, Any] = {
        "seed": seed, "legs": list(legs), "rounds": 0, "kills": 0,
        "reconnects": 0, "duplicates": 0, "corruptions_rejected": 0,
        "events": 0, "races": 0, "plain_sessions": 0, "worker_kills": 0,
        "worker_respawns": 0, "cluster_events": 0, "cluster_races": 0,
    }
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        round_seed = rng.randrange(2**32)
        round_rng = random.Random(round_seed)
        stats["rounds"] += 1
        # build_workload is deterministic per shape, so the round's
        # diversity comes from varying the shape with the round seed.
        _events, batch, _interner = capture(
            build_workload(
                accesses + round_rng.randrange(accesses // 4 + 1),
                fanout=round_rng.choice((4, 8, 16)),
            )
        )
        expected = _local_expected(batch)
        pieces = list(batch.slices(batch_size))
        kill_at = round_rng.randrange(1, max(2, len(pieces)))

        if "kill_worker" in legs:
            victim = round_rng.randrange(2)
            with ClusterThread(
                ClusterConfig(
                    workers=2,
                    checkpoint_interval=checkpoint_interval,
                    log_dir=log_dir,
                ),
                # A private registry per round: the respawn counters
                # below must count this round's kills only.
                registry=MetricsRegistry(),
            ) as cluster:
                gw_client = RaceClient(
                    "127.0.0.1", cluster.port, timeout=30.0
                ).connect()
                for k, piece in enumerate(pieces):
                    if k == kill_at:
                        cluster.kill_worker(victim)
                        stats["worker_kills"] += 1
                    gw_client.send_batch(piece)
                gw_summary = gw_client.finish()
                gw_client.close()
                assert cluster.cluster is not None
                stats["worker_respawns"] += sum(
                    c.value
                    for c in cluster.cluster._m.respawns
                )
            got_gw = _race_multiset(gw_summary.reports)
            if got_gw != expected:
                raise AssertionError(
                    f"gateway race multiset diverged after worker kill "
                    f"(seed={seed}, round_seed={round_seed}, "
                    f"kill_at={kill_at}, victim={victim}): got "
                    f"{sum(got_gw.values())} reports, expected "
                    f"{sum(expected.values())}"
                )
            stats["cluster_events"] += gw_summary.events
            stats["cluster_races"] += sum(got_gw.values())

        if "kill_server" not in legs:
            log(
                f"soak round {stats['rounds']}: ok "
                f"(round_seed={round_seed}, kill_at={kill_at}, "
                f"worker_kills={stats['worker_kills']}, "
                f"cluster_events={stats['cluster_events']})"
            )
            continue
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as ckdir:
            port = free_port()
            server = ServerProcess(
                port, ckdir, checkpoint_interval=checkpoint_interval
            ).start()
            try:
                client = RaceClient(
                    "127.0.0.1", port, session=f"soak-{round_seed}",
                    timeout=15.0, max_retries=8, retry_backoff=0.2,
                ).connect()
                for k, piece in enumerate(pieces):
                    if k == kill_at:
                        server.kill()
                        stats["kills"] += 1
                        server = ServerProcess(
                            port, ckdir,
                            checkpoint_interval=checkpoint_interval,
                        ).start()
                    client.send_batch(piece)
                    if round_rng.random() < 0.1:
                        if resend_unacked(client, round_rng) is not None:
                            stats["duplicates"] += 1
                summary = client.finish()
                client.close()
                stats["reconnects"] += client.reconnects
                got = _race_multiset(summary.reports)
                if got != expected:
                    raise AssertionError(
                        f"race multiset diverged after kill/resume "
                        f"(seed={seed}, round_seed={round_seed}, "
                        f"kill_at={kill_at}): got {sum(got.values())} "
                        f"reports, expected {sum(expected.values())}"
                    )
                stats["events"] += summary.events
                stats["races"] += sum(got.values())

                # A second, non-durable session against the same,
                # possibly restarted server must stream the exact local
                # multiset: a restart moves no fresh session's verdicts.
                plain = RaceClient("127.0.0.1", port, timeout=15.0).connect()
                try:
                    for piece in pieces:
                        plain.send_batch(piece)
                    plain_summary = plain.finish()
                finally:
                    plain.close()
                got_plain = _race_multiset(plain_summary.reports)
                if got_plain != expected:
                    raise AssertionError(
                        f"plain session race multiset diverged "
                        f"(seed={seed}, round_seed={round_seed}): got "
                        f"{sum(got_plain.values())} reports, expected "
                        f"{sum(expected.values())}"
                    )
                stats["plain_sessions"] += 1
            finally:
                server.terminate()

            # Torn-checkpoint leg: damage what the round left on disk
            # (or a freshly written checkpoint) and demand refusal.
            ckpts = [
                os.path.join(ckdir, f)
                for f in os.listdir(ckdir)
                if f.endswith(".ckpt")
            ]
            if not ckpts:
                engine = BatchEngine()
                engine.ingest(batch)
                path = os.path.join(ckdir, "synthetic.ckpt")
                save_checkpoint(engine, path)
                ckpts = [path]
            victim = round_rng.choice(ckpts)
            mode = corrupt_file(victim, round_rng)
            try:
                load_checkpoint(victim)
            except CheckpointError:
                stats["corruptions_rejected"] += 1
            else:
                raise AssertionError(
                    f"{mode}-corrupted checkpoint {victim} loaded "
                    f"without error (seed={seed}, round_seed={round_seed})"
                )
        log(
            f"soak round {stats['rounds']}: ok "
            f"(round_seed={round_seed}, kill_at={kill_at}, "
            f"reconnects={stats['reconnects']}, "
            f"events={stats['events']}, races={stats['races']}, "
            f"worker_kills={stats['worker_kills']})"
        )
    return stats


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.faults",
        description="randomized kill/corrupt/duplicate soak of the "
        "checkpoint-resume machinery",
    )
    parser.add_argument(
        "--seconds", type=float, default=60.0,
        help="wall-clock budget (default: 60)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="master seed; a failing run replays with it (default: 0)",
    )
    parser.add_argument("--accesses", type=int, default=20_000)
    parser.add_argument("--batch-size", type=int, default=2048)
    parser.add_argument("--checkpoint-interval", type=int, default=4)
    parser.add_argument(
        "--legs", default=",".join(SOAK_LEGS), metavar="LEGS",
        help="comma-separated fault legs to run "
        f"(default: {','.join(SOAK_LEGS)})",
    )
    parser.add_argument(
        "--log-dir", metavar="DIR",
        help="capture cluster worker stdout/stderr as DIR/worker-K.log "
        "(kill_worker leg; CI uploads these on failure)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the stats as JSON"
    )
    args = parser.parse_args(argv)
    try:
        stats = run_soak(
            args.seconds,
            seed=args.seed,
            accesses=args.accesses,
            batch_size=args.batch_size,
            checkpoint_interval=args.checkpoint_interval,
            legs=tuple(
                leg.strip() for leg in args.legs.split(",") if leg.strip()
            ),
            log_dir=args.log_dir,
        )
    except (AssertionError, WorkloadError) as exc:
        print(f"SOAK FAILURE: {exc}", file=sys.stderr)
        return 1
    survivors = surviving_servers()
    if survivors:
        print(
            f"SOAK FAILURE: serve processes {survivors} outlived the soak",
            file=sys.stderr,
        )
        return 1
    encoded = json.dumps(stats, sort_keys=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            fp.write(encoded + "\n")
    print(encoded)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
