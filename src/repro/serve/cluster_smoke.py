"""Self-checking loopback smoke run of the multi-node gateway (the CI
multinode step)::

    python -m repro.serve.cluster_smoke --workers 2 --events 100000 [--kill-worker]

Exit 0 means the gateway's race multiset equals a serial local replay
and no worker checkpoint outlived the session.  The entry point lives
outside :mod:`repro.serve.cluster` because the ``repro.serve`` package
imports that module: run with ``-m``, it would be executed a second
time as ``__main__`` (runpy's "found in sys.modules" warning) and the
process would hold two copies of every gateway class.
"""

from __future__ import annotations

import glob
import os
import sys
import time
from typing import List, Optional

from repro.serve.client import RaceClient
from repro.serve.cluster import ClusterConfig, ClusterThread


def _leftover_checkpoints(root: str) -> int:
    """Worker checkpoints under ``root``, given five seconds to reach
    zero: a worker deletes a released session's checkpoint just after
    its BYE reply."""
    deadline = time.monotonic() + 5.0
    while True:
        found = len(glob.glob(os.path.join(root, "worker-*", "*.ckpt")))
        if not found or time.monotonic() > deadline:
            return found
        time.sleep(0.05)


def main(argv: Optional[List[str]] = None) -> int:
    """Build a racegen workload, stream it through a gateway, and
    require the exact race multiset of a serial local replay and no
    worker checkpoint left behind once the session finished."""
    import argparse
    import json
    from collections import Counter

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.cluster_smoke",
        description="loopback multi-node smoke: gateway-sharded "
        "detection must equal a serial local replay",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--batch-size", type=int, default=16_384)
    parser.add_argument(
        "--kill-worker", action="store_true",
        help="SIGKILL a worker mid-stream and require migration",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the stats as JSON"
    )
    args = parser.parse_args(argv)

    from repro.engine.benchlib import build_workload, capture
    from repro.engine.ingest import BatchEngine

    _events, batch, _interner = capture(build_workload(args.events))
    local = BatchEngine()
    local.ingest(batch)
    expected = Counter(
        (r.task, r.loc, r.kind, r.prior_kind) for r in local.detector.races
    )
    start = time.perf_counter()
    with ClusterThread(ClusterConfig(workers=args.workers)) as cluster:
        client = RaceClient("127.0.0.1", cluster.port).connect()
        pieces = list(batch.slices(args.batch_size))
        kill_at = len(pieces) // 2 if args.kill_worker else -1
        for k, piece in enumerate(pieces):
            if k == kill_at:
                cluster.kill_worker(args.workers - 1)
            client.send_batch(piece)
        summary = client.finish()
        client.close()
        workers_seen = client.negotiated_workers
        leftover = _leftover_checkpoints(cluster.cluster._ckpt_root())
    elapsed = time.perf_counter() - start
    got = Counter(
        (r.task, r.loc, r.kind, r.prior_kind) for r in summary.reports
    )
    stats = {
        "workers": args.workers,
        "negotiated_workers": workers_seen,
        "events": summary.events,
        "races": sum(got.values()),
        "expected_races": sum(expected.values()),
        "killed": args.kill_worker,
        "seconds": round(elapsed, 3),
        "agrees": got == expected,
        "leftover_checkpoints": leftover,
    }
    encoded = json.dumps(stats, sort_keys=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            fp.write(encoded + "\n")
    print(encoded)
    if not stats["agrees"] or workers_seen != args.workers or leftover:
        print("MULTINODE SMOKE FAILURE", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
