"""The offline workloads' system under test: one long-lived replay process.

Each job is one trace file, replayed exactly as ``repro-race replay``
does by default: :func:`~repro.engine.tracefile.read_trace`, a fresh
:class:`~repro.engine.ingest.BatchEngine` (lattice2d, or
``predict=True`` for the shb kernel), 8192-event batches, then
``races()``.  The process speaks JSON lines on stdin/stdout:

* ``{"op": "job", "id": n, "path": p}`` -> ``{"events", "job_ns",
  "batch_ns", "races"}``, where ``job_ns`` runs from opening the file to
  the race list and ``batch_ns`` holds one ``BatchEngine.ingest`` wall
  time per batch;
* ``{"op": "trace", "on": bool}`` switches span recording;
* ``{"op": "spans"}`` -> every span recorded so far, then forgets them;
* ``{"op": "quit"}`` (or EOF) exits with status 0.

Usage: ``python3 perfbench/replayer.py replay|predict`` with the
repository's ``src`` on ``PYTHONPATH``.  It prints ``ready`` once its
imports are done.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

BATCH_SIZE = 8192


def main(mode: str) -> int:
    from repro.engine.ingest import BatchEngine
    from repro.engine.tracefile import read_trace

    predict = mode == "predict"
    spans: list = []
    tracing = False
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "quit":
            break
        if op == "trace":
            tracing = bool(cmd["on"])
            reply: dict = {"ok": True}
        elif op == "spans":
            reply = {"spans": spans}
            spans = []
        elif op == "job":
            job = cmd["id"]
            start = perf_counter_ns()
            batch, interner = read_trace(cmd["path"])
            read_end = perf_counter_ns()
            engine = BatchEngine(predict=predict, interner=interner)
            batch_ns = []
            for piece in batch.slices(BATCH_SIZE):
                t0 = perf_counter_ns()
                engine.ingest(piece)
                t1 = perf_counter_ns()
                batch_ns.append(t1 - t0)
                if tracing:
                    spans.append(["engine.ingest", t0, t1, job])
            races_start = perf_counter_ns()
            races = engine.races()
            end = perf_counter_ns()
            if tracing:
                spans.append(["tracefile.read_trace", start, read_end, job])
                spans.append(["engine.races", races_start, end, job])
                spans.append(["replayer.job", start, end, job])
            reply = {
                "events": len(batch),
                "job_ns": end - start,
                "batch_ns": batch_ns,
                "races": [
                    [repr(r.loc), r.task, r.kind.value, r.prior_kind.value,
                     r.prior_repr, r.op_index]
                    for r in races
                ],
            }
        else:
            reply = {"error": f"unknown op {op!r}"}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
