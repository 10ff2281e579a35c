"""Process harness: start, probe, observe and stop the system under test.

The system under test always runs in processes of its own:

* :class:`Replayer` -- ``perfbench/replayer.py`` (the offline workloads);
* :class:`Server` -- ``repro-race serve`` (``python -m repro.cli serve``),
  optionally as a gateway over worker processes (``--workers N``).

Both are ready once they can take a job: the replayer prints ``ready``;
a server has answered a HELLO (for a gateway, one that reports all its
workers).  Resource figures come from ``/proc``: ``VmHWM`` for peak RSS
and ``utime + stime`` for CPU, summed over every process of the system,
gateway workers included.  :meth:`stop` fails unless the system exits
with status 0 and leaves no worker process behind.
"""

from __future__ import annotations

import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
_CLK_TCK = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class HarnessError(RuntimeError):
    """The system under test misbehaved outside any single job."""


def sut_env(cache: Path) -> Dict[str, str]:
    """Environment of every system-under-test process: the checkout's
    ``src`` first on the path, unbuffered output, and a temporary
    directory inside the cache."""
    tmp = cache / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(tmp)
    return env


# -- /proc -------------------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (0 when it is gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_kb(pid: int) -> int:
    """High-water resident set size (``VmHWM``) of ``pid`` in KiB."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
    return int(match.group(1)) if match else 0


def children(pid: int) -> List[int]:
    """Live child processes of ``pid``."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[1]) == pid:
                out.append(int(entry))
    return out


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _kill_and_wait(pids: List[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + STOP_TIMEOUT
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.01)


# -- host speed ---------------------------------------------------------------

#: seconds one calibration pass takes at nominal host speed; it only sets
#: the scale of the host-speed-adjusted timings
NOMINAL_PASS_S = 0.025
PASSES_PER_SAMPLE = 10
#: CPU the idle system under test may use, as a share of calibration time
IDLE_CPU_SHARE = 0.25


def calibration_pass() -> float:
    """Seconds of one pass of a fixed interpreter-bound loop that runs no
    repository code."""
    t0 = time.perf_counter()
    table: Dict[tuple, int] = {}
    total = 0
    for i in range(40_000):
        key = (i & 1023, "k")
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    json.loads(json.dumps(list(table.items())))
    return time.perf_counter() - t0


class HostSpeed:
    """How slowly the host runs during a measurement, against nominal.

    On a shared virtual machine the same code runs up to twice as fast or
    as slow, switching within a second and drifting over minutes, and the
    share of fast time moves every timing of a run by the same factor.
    The benchmark samples a fixed loop between rounds, while the system
    under test is idle; :attr:`factor` is the mean pass time over the
    nominal one.  :meth:`check_idle` fails when the system under test
    used CPU during the samples, which would bias the factor.
    """

    def __init__(self) -> None:
        self.passes: List[float] = []
        self.wall = 0.0
        self.busy = 0.0  #: CPU seconds the system used during samples

    def sample(self, pids: List[int]) -> None:
        cpu0 = sum(cpu_seconds(p) for p in pids)
        t0 = time.perf_counter()
        self.passes.extend(calibration_pass()
                           for _ in range(PASSES_PER_SAMPLE))
        self.wall += time.perf_counter() - t0
        self.busy += sum(cpu_seconds(p) for p in pids) - cpu0

    @property
    def factor(self) -> float:
        return sum(self.passes) / len(self.passes) / NOMINAL_PASS_S

    def check_idle(self) -> None:
        if self.busy > IDLE_CPU_SHARE * self.wall:
            raise HarnessError(
                f"the idle system under test used {self.busy:.2f}s CPU "
                f"during {self.wall:.2f}s of host-speed sampling"
            )


# -- prometheus scrape --------------------------------------------------------

_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')

Samples = List[Tuple[str, Dict[str, str], float]]


def parse_prometheus(text: str) -> Samples:
    samples = []
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match and not line.startswith("#"):
            labels = dict(_LABEL.findall(match.group(2) or ""))
            samples.append((match.group(1), labels, float(match.group(3))))
    return samples


def sample(samples: Samples, name: str, **labels: str) -> float:
    """Sum of the samples called ``name`` whose labels include ``labels``."""
    return sum(
        value for n, have, value in samples
        if n == name and all(have.get(k) == v for k, v in labels.items())
    )


def by_label(samples: Samples, name: str, label: str) -> Dict[str, float]:
    return {have[label]: value for n, have, value in samples
            if n == name and label in have}


# -- systems under test -------------------------------------------------------


class Replayer:
    """``perfbench/replayer.py`` as a child speaking JSON lines."""

    def __init__(self, mode: str, cache: Path, log: Path) -> None:
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "replayer.py"), mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            env=sut_env(cache), cwd=ROOT, bufsize=0,
        )
        self._buf = b""
        try:
            line = self._readline(READY_TIMEOUT)
            if line != b"ready":
                raise HarnessError(f"replayer said {line!r} instead of ready")
        except BaseException:
            self.kill()
            raise

    def _readline(self, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise HarnessError(f"replayer silent for {timeout}s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise HarnessError(
                    f"replayer exited with {self.proc.wait()}"
                )
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def request(self, cmd: dict, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(json.dumps(cmd).encode() + b"\n")
        return json.loads(self._readline(timeout))

    def pids(self) -> List[int]:
        return [self.proc.pid]

    def stop(self) -> None:
        try:
            self.proc.stdin.write(b'{"op": "quit"}\n')
            self.proc.stdin.close()
            code = self.proc.wait(STOP_TIMEOUT)
        except (OSError, subprocess.TimeoutExpired) as exc:
            self.kill()
            raise HarnessError(f"replayer did not stop: {exc}") from exc
        finally:
            self._log.close()
        if code != 0:
            raise HarnessError(f"replayer exited with status {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


class Server:
    """``repro-race serve`` on a free port, with its metrics endpoint."""

    def __init__(self, workers: int, cache: Path, log: Path) -> None:
        from repro.serve.client import RaceClient

        self.workers = workers
        self.log = log
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--host", "127.0.0.1", "--port", "0", "--metrics-port", "0"]
        # Gateway workers keep durable-session checkpoints; give each
        # spawn its own directory and remove it at stop.
        self.ckpt = cache / "checkpoints" / f"{os.getpid()}-{time.time_ns()}"
        if workers > 1:
            self.ckpt.mkdir(parents=True)
            cmd += ["--workers", str(workers),
                    "--checkpoint-dir", str(self.ckpt)]
        offset = log.stat().st_size if log.exists() else 0
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=self._log, env=sut_env(cache),
            cwd=ROOT,
        )
        self.worker_pids: List[int] = []
        try:
            self.port, self.metrics_port = self._wait_ports(offset)
            # Ready means a completed HELLO that reports every worker.
            hello = RaceClient("127.0.0.1", self.port, timeout=READY_TIMEOUT,
                               backend="lattice2d").connect()
            hello.close()
            if hello.negotiated_workers != workers:
                raise HarnessError(
                    f"HELLO reports {hello.negotiated_workers} workers, "
                    f"expected {workers}"
                )
            if workers > 1:
                self.worker_pids = children(self.proc.pid)
                if len(self.worker_pids) != workers:
                    raise HarnessError(
                        f"gateway has {len(self.worker_pids)} child "
                        f"processes, expected {workers}"
                    )
        except BaseException:
            self.kill()
            raise

    def _wait_ports(self, offset: int) -> Tuple[int, int]:
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            with open(self.log, "rb") as fh:
                fh.seek(offset)
                text = fh.read().decode(errors="replace")
            serving = re.search(r"serving RPRSERVE on [\d.]+:(\d+)", text)
            metrics = re.search(r"metrics on http://[\d.]+:(\d+)/", text)
            if serving and metrics:
                return int(serving.group(1)), int(metrics.group(1))
            if self.proc.poll() is not None:
                raise HarnessError(
                    f"server exited with {self.proc.returncode} before "
                    f"listening; see {self.log}"
                )
            time.sleep(0.002)
        raise HarnessError(f"server not listening after {READY_TIMEOUT}s")

    def pids(self) -> List[int]:
        return [self.proc.pid] + self.worker_pids

    def scrape(self) -> Samples:
        url = f"http://127.0.0.1:{self.metrics_port}/metrics"
        # Loopback only: never route the scrape through a configured proxy.
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(url, timeout=10) as resp:
            return parse_prometheus(resp.read().decode())

    def stop(self) -> None:
        """SIGTERM, then require exit status 0 and no worker left."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            self.kill()
            raise HarnessError("server ignored SIGTERM") from exc
        finally:
            self._log.close()
        left = [p for p in self.worker_pids if _alive(p)]
        _kill_and_wait(left)
        shutil.rmtree(self.ckpt, ignore_errors=True)
        if code != 0:
            raise HarnessError(f"server exited with status {code} on SIGTERM")
        if left:
            raise HarnessError(f"SIGTERM left worker processes {left}")

    def kill(self) -> None:
        running = self.proc.poll() is None
        # Collect the workers first: once the gateway is gone they are
        # orphans and no longer its children.
        workers = self.worker_pids or (
            children(self.proc.pid) if running else []
        )
        if running:
            self.proc.kill()
        self.proc.wait()
        _kill_and_wait(workers)
        self._log.close()
        shutil.rmtree(self.ckpt, ignore_errors=True)
