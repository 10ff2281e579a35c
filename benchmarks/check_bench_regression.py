"""CI gate: fail on a >25% engine-throughput regression.

Compares a freshly measured ``BENCH_engine.json`` against the baseline
committed in git (the record as of the checkout, before the benchmark
run overwrote it). The gated series:

* ``events_per_sec.batched`` -- the serial fast path every other tier
  is measured against; its shape tests already pin the *ratios*
  (batched >= 2x per-event and replay), so one absolute
  anchor suffices for the engine;
* ``events_per_sec.serve_4s`` -- the serving layer's 4-session
  loopback throughput, the steady-state shape of a real deployment.
  Skipped (with a note) when the baseline predates the serving layer,
  so the gate can introduce itself without failing its own PR.
* ``events_per_sec.predict`` -- the sound race-prediction engine (shb
  vector clocks plus candidate-pair windows).  Skipped (with a note)
  when the baseline predates prediction, so the gate can introduce
  itself without failing its own PR.  The fresh record must also carry
  ``differential.predict_sound`` == true: a prediction engine that
  stopped covering the observed races is a correctness bug, not a
  perf trade.
* ``events_per_sec.serve_multinode_2w`` / ``_4w`` -- the
  location-sharded gateway's single-session loopback throughput over 2
  and 4 engine worker processes (``docs/SCALE_OUT.md``).  Both
  self-introducing (skipped with a note when the baseline predates the
  multi-node tier).  No speedup floor: on a single-core bench host the
  worker processes measure routing overhead, not parallelism.  The
  fresh record must instead carry
  ``differential.serve_multinode_agrees`` == true -- a gateway that
  changed race verdicts is a correctness bug, not a perf trade.
* ``events_per_sec.compressed`` -- memoized detection over the
  grammar-compressed loops workload.  Self-introducing (skipped with a
  note when the baseline predates the compressed subsystem).  The
  fresh record must also carry ``differential.compressed_agrees`` ==
  true and a ``compression_ratio`` >= 3.0: a compressed path that
  changed verdicts or a container that stopped paying for itself is a
  correctness/size bug, not a perf trade.
* ``checkpoint.save_ms`` / ``checkpoint.restore_ms`` /
  ``checkpoint.resume_replay_overhead`` -- the fault-tolerance layer's
  costs, gated *lower-is-better* with a generous 2x ceiling (these are
  millisecond-scale timings, noisy on shared runners).  Skipped when
  the baseline predates the checkpoint benchmark.

Usage::

    python benchmarks/check_bench_regression.py BASELINE.json FRESH.json

Exits 0 when fresh throughput is within tolerance (or improved), 1 on
regression, 2 on unusable inputs. CI extracts the baseline with
``git show HEAD:BENCH_engine.json``; after an intentional perf change,
commit the regenerated record to move the baseline.
"""

from __future__ import annotations

import json
import sys

#: fraction of baseline throughput the fresh run may lose
TOLERANCE = 0.25

#: the gated series: (path into the record, required in the baseline?)
GATES = (
    (("events_per_sec", "batched"), True),
    (("events_per_sec", "serve_4s"), False),
    (("events_per_sec", "serve_multinode_2w"), False),
    (("events_per_sec", "serve_multinode_4w"), False),
    (("events_per_sec", "predict"), False),
    (("events_per_sec", "compressed"), False),
)

#: floor for the fresh ``compression_ratio`` (RPR2TRZ vs raw RPR2TRC
#: bytes on the loops workload; the paper-facing 3x size claim)
COMPRESSION_FLOOR = 3.0

#: multiple of the baseline a lower-is-better series may grow to
LOWER_CEILING = 2.0

#: lower-is-better series (never required: the baseline may predate them)
LOWER_GATES = (
    ("checkpoint", "save_ms"),
    ("checkpoint", "restore_ms"),
    ("checkpoint", "resume_replay_overhead"),
)


def _lookup(record, series):
    value = record
    for key in series:
        value = value[key]
    return float(value)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    _, baseline_path, fresh_path = argv
    try:
        baseline_rec = _load(baseline_path)
        fresh_rec = _load(fresh_path)
    except (OSError, ValueError) as exc:
        print(f"cannot read benchmark records: {exc!r}", file=sys.stderr)
        return 2
    floor = 1.0 - TOLERANCE
    failed = False
    for series, required in GATES:
        name = ".".join(series)
        try:
            baseline = _lookup(baseline_rec, series)
        except (KeyError, TypeError):
            if required:
                print(f"{name}: missing from baseline", file=sys.stderr)
                return 2
            print(f"{name}: not in baseline yet; skipping this gate")
            continue
        try:
            fresh = _lookup(fresh_rec, series)
        except (KeyError, TypeError):
            print(f"{name}: missing from the fresh record", file=sys.stderr)
            return 2
        if baseline <= 0:
            print(f"{name}: baseline throughput is {baseline}; "
                  "nothing to gate", file=sys.stderr)
            return 2
        ratio = fresh / baseline
        ok = ratio >= floor
        failed = failed or not ok
        print(
            f"{name}: baseline {baseline:,.0f} ev/s, "
            f"fresh {fresh:,.0f} ev/s ({ratio:.2%} of baseline, "
            f"floor {floor:.0%}) -> {'OK' if ok else 'REGRESSION'}"
        )
    for series in LOWER_GATES:
        name = ".".join(series)
        try:
            baseline = _lookup(baseline_rec, series)
        except (KeyError, TypeError):
            print(f"{name}: not in baseline yet; skipping this gate")
            continue
        try:
            fresh = _lookup(fresh_rec, series)
        except (KeyError, TypeError):
            print(f"{name}: missing from the fresh record", file=sys.stderr)
            return 2
        if baseline <= 0:
            print(f"{name}: baseline is {baseline}; nothing to gate",
                  file=sys.stderr)
            return 2
        ratio = fresh / baseline
        ok = ratio <= LOWER_CEILING
        failed = failed or not ok
        print(
            f"{name}: baseline {baseline:.3f}, fresh {fresh:.3f} "
            f"({ratio:.2f}x of baseline, ceiling {LOWER_CEILING:.1f}x) "
            f"-> {'OK' if ok else 'REGRESSION'}"
        )
    failed = _check_predict_sound(fresh_rec) or failed
    failed = _check_compressed(fresh_rec) or failed
    failed = _check_multinode_agrees(fresh_rec) or failed
    return 1 if failed else 0


def _check_predict_sound(fresh_rec) -> bool:
    """Gate the fresh prediction-soundness verdict; returns True on
    failure.  Skipped when the fresh record predates prediction (the
    self-introduction case; a fresh record from current code always
    carries the key)."""
    name = "differential.predict_sound"
    differential = fresh_rec.get("differential")
    if not isinstance(differential, dict) or "predict_sound" not in (
        differential
    ):
        print(f"{name}: not in the fresh record; skipping this gate")
        return False
    sound = differential["predict_sound"]
    print(f"{name}: {sound} -> {'OK' if sound is True else 'REGRESSION'}")
    return sound is not True


def _check_multinode_agrees(fresh_rec) -> bool:
    """Gate the fresh multi-node differential verdict; returns True on
    failure.  Self-introducing: skipped when the fresh record predates
    the gateway tier.  Throughput gives the gateway no cover -- a
    record that carries the tier must certify the race multisets
    agreed at every measured worker count."""
    name = "differential.serve_multinode_agrees"
    differential = fresh_rec.get("differential")
    if not isinstance(differential, dict) or (
        "serve_multinode_agrees" not in differential
    ):
        print(f"{name}: not in the fresh record; skipping this gate")
        return False
    agrees = differential["serve_multinode_agrees"]
    print(f"{name}: {agrees} -> {'OK' if agrees is True else 'REGRESSION'}")
    return agrees is not True


def _check_compressed(fresh_rec) -> bool:
    """Gate the fresh compressed-tier verdicts; returns True on
    failure.  Self-introducing: skipped when the fresh record predates
    the compressed subsystem.  A fresh record that carries the tier
    must certify it on both axes -- the memoized path changed no
    verdicts (``differential.compressed_agrees``) and the container
    still clears the 3x size floor (``compression_ratio``)."""
    differential = fresh_rec.get("differential")
    if not isinstance(differential, dict) or "compressed_agrees" not in (
        differential
    ):
        print(
            "differential.compressed_agrees: not in the fresh record; "
            "skipping this gate"
        )
        return False
    agrees = differential["compressed_agrees"]
    print(
        f"differential.compressed_agrees: {agrees} -> "
        f"{'OK' if agrees is True else 'REGRESSION'}"
    )
    failed = agrees is not True
    try:
        ratio = float(fresh_rec["compression_ratio"])
    except (KeyError, TypeError, ValueError):
        print("compression_ratio: missing from the fresh record",
              file=sys.stderr)
        return True
    ok = ratio >= COMPRESSION_FLOOR
    print(
        f"compression_ratio: fresh {ratio:.2f}x (floor "
        f"{COMPRESSION_FLOOR:.1f}x) -> {'OK' if ok else 'REGRESSION'}"
    )
    return failed or not ok


if __name__ == "__main__":
    sys.exit(main(sys.argv))
